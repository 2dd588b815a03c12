"""Property-based checkpoint round-trips over random meshes and data."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.ioutil import load_checkpoint, save_checkpoint
from repro.octree import AmrMesh


@st.composite
def random_mesh(draw, ghost=None):
    """A small random 2:1-balanced mesh with random field data.

    ``ghost=None`` also draws the ghost width, so the round-trip property
    covers non-default halo sizes (the container stores ``ghost`` and must
    reproduce it; a restart with the wrong width would silently corrupt
    every face exchange).
    """
    if ghost is None:
        ghost = draw(st.integers(1, 3))
    mesh = AmrMesh(n=4, ghost=ghost, domain_size=2.0)
    mesh.refine((0, 0))
    picks = draw(st.lists(st.integers(0, 200), min_size=0, max_size=4))
    for pick in picks:
        leaves = sorted(mesh.leaf_keys())
        key = leaves[pick % len(leaves)]
        if key[0] < 3 and mesh.nodes[key].is_leaf:
            mesh.refine(key)
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    for node in mesh.nodes.values():
        node.subgrid.data[:] = rng.standard_normal(node.subgrid.data.shape)
    return mesh


# JSON-representable scalars: what ``meta["extra"]`` must carry unchanged
# (json round-trips Python floats exactly via repr, so equality is exact).
_extra_values = st.one_of(
    st.booleans(),
    st.integers(-(2**53), 2**53),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=20),
)


class TestCheckpointProperties:
    @given(mesh=random_mesh())
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_round_trip_is_identity(self, mesh, tmp_path_factory):
        path = tmp_path_factory.mktemp("chk") / "state"
        written = save_checkpoint(mesh, path, time=0.25, step=7)
        restored, meta = load_checkpoint(written)
        assert meta["step"] == 7
        assert meta["ghost"] == mesh.ghost
        assert restored.ghost == mesh.ghost
        assert set(restored.nodes) == set(mesh.nodes)
        for key, node in mesh.nodes.items():
            other = restored.nodes[key]
            assert other.is_leaf == node.is_leaf
            np.testing.assert_array_equal(other.subgrid.data, node.subgrid.data)
        restored.check_invariants()

    @given(
        mesh=random_mesh(ghost=2),
        extra=st.dictionaries(
            st.text(min_size=1, max_size=12), _extra_values, max_size=5
        ),
    )
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_extra_metadata_round_trips(self, mesh, extra, tmp_path_factory):
        path = tmp_path_factory.mktemp("chk-extra") / "state"
        written = save_checkpoint(mesh, path, time=1.5, step=3, extra=extra)
        _, meta = load_checkpoint(written)
        assert meta["extra"] == extra
        assert meta["time"] == 1.5

    @given(mesh=random_mesh())
    @settings(
        max_examples=5,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_double_round_trip_stable(self, mesh, tmp_path_factory):
        base = tmp_path_factory.mktemp("chk2")
        p1 = save_checkpoint(mesh, base / "a")
        m1, _ = load_checkpoint(p1)
        p2 = save_checkpoint(m1, base / "b")
        m2, _ = load_checkpoint(p2)
        for key in mesh.nodes:
            np.testing.assert_array_equal(
                m2.nodes[key].subgrid.data, mesh.nodes[key].subgrid.data
            )


class TestRestartEquivalence:
    """Checkpoint-restart must be invisible to the physics.

    ``step -> checkpoint -> restore -> step`` has to equal two
    uninterrupted steps *bit-exactly* — this is what makes the driver's
    rollback-and-replay recovery produce the same answer as a run that
    never faulted.
    """

    def test_mid_run_restart_is_bit_exact(self, tmp_path):
        from repro.core import OctoTigerSim
        from tests.oracles.restart import resume
        from repro.distsim.runconfig import RunConfig
        from repro.machines import FUGAKU
        from tests.test_distributed_driver import build_mesh, clone

        mesh_ref, eos = build_mesh()
        mesh_chk = clone(mesh_ref)
        two = RunConfig(machine=FUGAKU, nodes=2)

        reference = OctoTigerSim(mesh_ref, eos=eos, gravity=False, config=two)
        reference.run(2)

        first = OctoTigerSim(mesh_chk, eos=eos, gravity=False, config=two)
        first.run(1)
        path = first.save_checkpoint(tmp_path / "mid")

        resumed = resume(
            path, eos=eos, gravity=False, config=two
        )
        assert resumed.integrator.steps_taken == 1
        assert resumed.integrator.time == first.integrator.time
        resumed.run(1)

        assert resumed.integrator.steps_taken == reference.integrator.steps_taken
        assert resumed.integrator.time == reference.integrator.time
        for key in mesh_ref.leaf_keys():
            np.testing.assert_array_equal(
                resumed.mesh.nodes[key].subgrid.interior_view(),
                mesh_ref.nodes[key].subgrid.interior_view(),
            )
