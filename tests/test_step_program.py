"""The step program itself: one op order, three interpreters.

* the overlap op list is the BSP op list with the leading ops of each
  stage grouped: flattening the ``fused`` groups gives it back verbatim;
* every interpreter (serial, BSP, overlap) is bit-identical to
  ``step_reference`` *directly*, with everything switched on at once.
"""

import itertools

import pytest

from repro.hydro import HydroIntegrator
from repro.hydro.integrator import _RK3_STAGES, rk3_ops
from tests.oracles.hydro_step import step_reference
from tests.test_hydro_plan import (
    assert_meshes_identical,
    fake_gravity,
    make_state_mesh,
)

pytestmark = pytest.mark.timeout(300)

FLAGS = list(itertools.product((False, True), repeat=3))


class TestProgram:
    @pytest.mark.parametrize("collect_fluxes, use_accel, overlap", FLAGS)
    def test_overlap_is_bsp_with_rhs_split_around_the_drain(
        self, collect_fluxes, use_accel, overlap
    ):
        """Flattening every fused group yields the BSP list verbatim (no
        op is split, renamed or reordered), and with ``overlap`` every
        stage is one group: the stage's ``ghost, rhs`` — the rhs updates
        the sub-batches it does not defer to the reflux barrier.  (The
        test name predates the whole-block ``rhs``.)"""
        args = (1e-3, collect_fluxes, use_accel)
        bsp = list(rk3_ops(*args, overlap=False))
        ops = list(rk3_ops(*args, overlap=overlap))
        flat = []
        for op in ops:
            flat.extend(op[1] if op[0] == "fused" else [op])
        assert flat == bsp
        assert not any(op[0] == "fused" for op in bsp)
        groups = [op[1] for op in ops if op[0] == "fused"]
        assert len(groups) == (len(_RK3_STAGES) if overlap else 0)
        for group in groups:
            names = [sub[0] for sub in group]
            assert names == ["ghost", "rhs"]

    @pytest.mark.parametrize("collect_fluxes, use_accel, overlap", FLAGS)
    def test_stage_shape(self, collect_fluxes, use_accel, overlap):
        ops = []
        for op in rk3_ops(1e-3, collect_fluxes, use_accel, overlap):
            ops.extend(op[1] if op[0] == "fused" else [op])
        names = [op[0] for op in ops]
        assert names[-1] == "finish" and names.count("begin") == 1
        assert names.count("ghost") == names.count("rhs") == len(_RK3_STAGES)
        # The rhs carries each stage's update; a separate update (of the
        # sub-batches the reflux corrects) follows only its reflux.
        rhs = [op for op in ops if op[0] == "rhs"]
        assert [op[1:3] for op in rhs] == [(collect_fluxes, use_accel)] * 3
        assert [op[3:5] for op in rhs] == list(_RK3_STAGES)
        assert {op[5] for op in rhs} == {1e-3}
        deferred = [op[1:3] for op in ops if op[0] == "update"]
        assert deferred == (list(_RK3_STAGES) if collect_fluxes else [])
        assert names.count("reflux") == (len(_RK3_STAGES) if collect_fluxes else 0)
        for i, name in enumerate(names):
            if name == "update":
                assert names[i - 2 : i] == ["rhs", "reflux"]
        # Gravity is solved once per step, before the first stage.
        assert names.count("accel") == int(use_accel)
        assert names.index("begin") == int(use_accel)

    def test_accel_rewrite_stages_keep_the_barrier_form(self):
        """The one ``accel`` is a parent op between rounds: it leads the
        program outside every group, and no stage rewrites it, so all
        three stages group alike."""
        ops = list(rk3_ops(1e-3, False, True, overlap=True))
        assert ops[0] == ("accel",) and ops[1] == ("begin",)
        assert [op[0] for op in ops[2:]] == ["fused"] * len(_RK3_STAGES) + [
            "finish"
        ]


INTERPRETERS = [
    pytest.param({}, id="serial"),
    pytest.param({"backend": "process"}, id="bsp"),
    pytest.param({"backend": "process", "overlap": True}, id="overlap"),
]


class TestInterpretersMatchReference:
    @pytest.mark.parametrize("exec_kw", INTERPRETERS)
    def test_everything_on_is_bit_identical_to_step_reference(self, exec_kw):
        """Refined mesh (reflux active), rotating frame, gravity, two
        steps — against the per-leaf oracle itself, not via another
        interpreter."""
        physics = dict(gravity=fake_gravity, omega=0.4)
        mesh_kw = dict(levels=1, refine_keys=(0, 3))
        mesh_a, eos = make_state_mesh(**mesh_kw)
        mesh_b, _ = make_state_mesh(**mesh_kw)
        subject = HydroIntegrator(mesh_a, eos, nprocs=2, **physics, **exec_kw)
        oracle = HydroIntegrator(mesh_b, eos, **physics)
        try:
            for _ in range(2):
                assert subject.step() == step_reference(oracle)
                assert_meshes_identical(mesh_a, mesh_b)
        finally:
            subject.close()
        assert subject.faces_refluxed == oracle.faces_refluxed > 0
