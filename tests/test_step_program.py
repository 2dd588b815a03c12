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
from tests.test_hydro_plan import (
    assert_meshes_identical,
    fake_gravity,
    make_state_mesh,
)

pytestmark = pytest.mark.timeout(300)

FLAGS = list(itertools.product((False, True), repeat=3))


class TestProgram:
    @pytest.mark.parametrize("collect_fluxes, use_accel, every_stage", FLAGS)
    def test_overlap_is_bsp_with_rhs_split_around_the_drain(
        self, collect_fluxes, use_accel, every_stage
    ):
        """Flattening every fused group yields the BSP list verbatim (no
        op is split, renamed or reordered), and each group is the stage's
        ``ghost, rhs`` plus ``update`` unless a reflux barrier intervenes.
        (The test name predates the whole-block ``rhs``.)"""
        args = (1e-3, collect_fluxes, use_accel, every_stage)
        bsp = list(rk3_ops(*args, overlap=False))
        overlap = list(rk3_ops(*args, overlap=True))
        flat = []
        for op in overlap:
            flat.extend(op[1] if op[0] == "fused" else [op])
        assert flat == bsp
        assert not any(op[0] == "fused" for op in bsp)
        for op in overlap:
            if op[0] == "fused":
                names = [sub[0] for sub in op[1]]
                assert names == ["ghost", "rhs"] + (
                    [] if collect_fluxes else ["update"]
                )

    @pytest.mark.parametrize("collect_fluxes, use_accel, every_stage", FLAGS)
    def test_stage_shape(self, collect_fluxes, use_accel, every_stage):
        ops = list(rk3_ops(1e-3, collect_fluxes, use_accel, every_stage))
        names = [op[0] for op in ops]
        assert names[-1] == "finish" and names.count("begin") == 1
        assert names.count("ghost") == names.count("rhs") == len(_RK3_STAGES)
        assert [op[1:3] for op in ops if op[0] == "update"] == list(_RK3_STAGES)
        assert names.count("reflux") == (len(_RK3_STAGES) if collect_fluxes else 0)
        rewrites = len(_RK3_STAGES) - 1 if use_accel and every_stage else 0
        assert names.count("accel") == (1 + rewrites if use_accel else 0)

    def test_accel_rewrite_stages_keep_the_barrier_form(self):
        ops = list(rk3_ops(1e-3, False, True, True, overlap=True))
        names = [op[0] for op in ops]
        # Stage 1 overlaps; stages 2-3 need the parent between the ghost
        # fill and the rhs, a seam a fused group does not have.
        assert names.count("fused") == 1
        for i, name in enumerate(names):
            if name == "accel" and i > 0:
                assert names[i - 1] == "ghost" and names[i + 1] == "rhs"


INTERPRETERS = [
    pytest.param({}, id="serial"),
    pytest.param({"backend": "process"}, id="bsp"),
    pytest.param({"backend": "process", "overlap": True}, id="overlap"),
]


class TestInterpretersMatchReference:
    @pytest.mark.parametrize("exec_kw", INTERPRETERS)
    def test_everything_on_is_bit_identical_to_step_reference(self, exec_kw):
        """Refined mesh (reflux active), rotating frame, gravity rewritten
        every stage, two steps — against the per-leaf oracle itself, not
        via another interpreter."""
        physics = dict(gravity=fake_gravity, gravity_every_stage=True, omega=0.4)
        mesh_kw = dict(levels=1, refine_keys=(0, 3))
        mesh_a, eos = make_state_mesh(**mesh_kw)
        mesh_b, _ = make_state_mesh(**mesh_kw)
        subject = HydroIntegrator(mesh_a, eos, nprocs=2, **physics, **exec_kw)
        oracle = HydroIntegrator(mesh_b, eos, **physics)
        try:
            for _ in range(2):
                assert subject.step() == oracle.step_reference()
                assert_meshes_identical(mesh_a, mesh_b)
        finally:
            subject.close()
        assert subject.faces_refluxed == oracle.faces_refluxed > 0
