"""The Kokkos execution-space mechanisms the paper relies on, as the
machine model prices them.

Octo-Tiger's compute kernels are Kokkos kernels: on CPUs they are built
with explicit SIMD types (SVII-A, Fig. 7); on GPU machines many small
per-sub-grid kernels are aggregated into fewer launches spread over
several execution-space instances (SIV).  Nothing in the Python step
emulates an execution space; :mod:`repro.distsim.model` prices these
mechanisms, and these tests pin the direction of each effect.
"""

from dataclasses import replace

import pytest

from repro.distsim import RunConfig, simulate_step
from repro.machines import FUGAKU, PERLMUTTER, SUMMIT
from repro.scenarios import rotating_star


@pytest.fixture(scope="module")
def level5():
    return rotating_star(level=5, build_mesh=False).spec


def with_gpus(machine, n_gpus=None, launch_latency_us=None):
    """``machine`` with its node's GPUs replaced by ``n_gpus`` copies of the
    first one, optionally at another kernel-launch latency."""
    node = machine.node
    gpu = node.gpus[0]
    if launch_latency_us is not None:
        gpu = replace(gpu, kernel_launch_latency_us=launch_latency_us)
    gpus = (gpu,) * (len(node.gpus) if n_gpus is None else n_gpus)
    return replace(machine, node=replace(node, gpus=gpus))


def launch_share(spec, machine, **config):
    """The hydro seconds a step spends on kernel-launch latency: the step
    minus the same step at zero launch latency."""
    timed = simulate_step(spec, RunConfig(machine=machine, use_gpus=True, **config))
    free = simulate_step(
        spec,
        RunConfig(machine=with_gpus(machine, launch_latency_us=0.0), use_gpus=True, **config),
    )
    return timed.hydro_s - free.hydro_s, free.hydro_s


class TestSerialSpace:
    def test_simd_lowers_cost(self, level5):
        """The SVE build (explicit SIMD types) runs the vectorised compute
        kernels faster than the scalar build."""
        sve = simulate_step(level5, RunConfig(machine=FUGAKU, nodes=4, simd=True))
        scalar = simulate_step(level5, RunConfig(machine=FUGAKU, nodes=4, simd=False))
        assert sve.hydro_s < scalar.hydro_s
        assert sve.gravity_s < scalar.gravity_s

    def test_non_vectorizable_ignores_simd(self, level5):
        """Work that is not vectorised does not move with the SIMD switch:
        ghost communication and synchronisation on A64FX, and every term on
        Summit, whose kernels ran scalar."""
        sve = simulate_step(level5, RunConfig(machine=FUGAKU, nodes=16, simd=True))
        scalar = simulate_step(level5, RunConfig(machine=FUGAKU, nodes=16, simd=False))
        assert sve.comm_s == scalar.comm_s
        assert sve.sync_s == scalar.sync_s

        on = simulate_step(level5, RunConfig(machine=SUMMIT, nodes=16, simd=True))
        off = simulate_step(level5, RunConfig(machine=SUMMIT, nodes=16, simd=False))
        assert on == off


class TestDeviceSpace:
    def test_aggregation_batches_launches(self, level5):
        """Fusing 16 kernels per device launch cuts the launch term 16-fold;
        the Multipole kernel, launched per tree level, does not move."""
        one, _ = launch_share(level5, PERLMUTTER, nodes=4, gpu_aggregation=1)
        sixteen, _ = launch_share(level5, PERLMUTTER, nodes=4, gpu_aggregation=16)
        assert sixteen == pytest.approx(one / 16)
        unbatched = simulate_step(
            level5, RunConfig(machine=PERLMUTTER, nodes=4, use_gpus=True, gpu_aggregation=1)
        )
        batched = simulate_step(
            level5, RunConfig(machine=PERLMUTTER, nodes=4, use_gpus=True, gpu_aggregation=16)
        )
        assert batched.hydro_s < unbatched.hydro_s
        assert batched.gravity_s < unbatched.gravity_s
        assert batched.multipole_s == unbatched.multipole_s

    def test_launch_latency_dominates_small_kernels(self, level5):
        """Unaggregated 2^3-cell kernels spend longer launching than
        computing; 64^3-cell kernels the other way round."""
        small = replace(level5, subgrid_n=2)
        launch, compute = launch_share(small, PERLMUTTER, nodes=4, gpu_aggregation=1)
        assert launch > compute
        large = replace(level5, subgrid_n=64)
        launch, compute = launch_share(large, PERLMUTTER, nodes=4, gpu_aggregation=1)
        assert launch < compute

    def test_streams_parallelise_launches(self, level5):
        """Each GPU adds execution-space instances (streams) that launch
        concurrently: four GPUs pay a quarter of one GPU's launch term."""
        one, _ = launch_share(level5, with_gpus(PERLMUTTER, n_gpus=1), nodes=4)
        four, _ = launch_share(level5, with_gpus(PERLMUTTER, n_gpus=4), nodes=4)
        assert one > 0.0
        assert four == pytest.approx(one / 4)

    def test_invalid_aggregation(self):
        with pytest.raises(ValueError):
            RunConfig(machine=PERLMUTTER, use_gpus=True, gpu_aggregation=0)
