"""Topology models: the torus and the fat tree."""

import pytest

from repro.machines import FUGAKU, OOKAMI
from repro.machines.topology import (
    FatTreeTopology,
    TorusTopology,
    effective_interconnect,
)


class TestTorus:
    def test_single_node_no_hops(self):
        assert TorusTopology().mean_hops(1) == 0.0

    def test_hops_grow_with_allocation(self):
        torus = TorusTopology()
        assert torus.mean_hops(1024) > torus.mean_hops(64) > torus.mean_hops(8)

    def test_cube_root_scaling(self):
        torus = TorusTopology(effective_dims=3)
        assert torus.mean_hops(8_000) / torus.mean_hops(8) == pytest.approx(10.0)

    def test_latency_composition(self):
        torus = TorusTopology(per_hop_latency_us=0.1)
        assert torus.latency_us(0.9, 1) == pytest.approx(0.9)
        assert torus.latency_us(0.9, 64) > 0.9

    def test_validation(self):
        with pytest.raises(ValueError):
            TorusTopology().mean_hops(0)


class TestFatTree:
    def test_bounded_hops(self):
        tree = FatTreeTopology(radix=40)
        # Hop count saturates: growing from 1k to 16k nodes adds at most
        # one tier (two hops).
        assert tree.mean_hops(16_384) - tree.mean_hops(1_024) <= 2.0

    def test_single_node(self):
        assert FatTreeTopology().mean_hops(1) == 0.0

    def test_small_cluster_one_tier(self):
        tree = FatTreeTopology(radix=40)
        assert tree.tiers(30) == 1

    def test_torus_eventually_overtakes_tree(self):
        """The Fig. 10 hypothesis: at large allocations the torus' growing
        diameter makes its effective latency exceed the fat tree's."""
        torus = TorusTopology()
        tree = FatTreeTopology()
        fugaku = effective_interconnect(FUGAKU.interconnect, torus, 8192)
        ookami = effective_interconnect(OOKAMI.interconnect, tree, 8192)
        assert fugaku.latency_us > ookami.latency_us

    def test_effective_interconnect_preserves_bandwidth(self):
        out = effective_interconnect(FUGAKU.interconnect, TorusTopology(), 64)
        assert out.bandwidth_gbs == FUGAKU.interconnect.bandwidth_gbs
        assert out.latency_us > FUGAKU.interconnect.latency_us
