"""Hydro step vs its oracle across a regrid.

The hydro step calls its one kernel set directly (no ``array_backend=``
selector, no second call path to compare), so this file holds

* regrid invalidation against the oracle — a hypothesis sweep refines a
  leaf mid-run and :meth:`HydroIntegrator.step` (cached plan, per-topology
  scratch rebuilt) must stay bit-identical to ``step_reference``;
* the pin that neither constructor accepts ``array_backend=``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.crosscheck import assert_identical, clone_mesh
from repro.hydro.integrator import HydroIntegrator
from repro.scenarios.blast import sedov_blast

from tests.oracles.hydro_step import step_reference


class TestRegridInvalidation:
    @given(leaf_rank=st.integers(0, 7), refine_step=st.integers(0, 1))
    @settings(max_examples=4, deadline=None)
    def test_mid_run_refine_sweep(self, leaf_rank, refine_step):
        """Refining mid-run rebuilds the plan and the per-topology kernel
        scratch; the batched step must still match the per-leaf oracle
        stepping a clone with the same refine applied, bit for bit."""
        blast = sedov_blast(levels=1)
        oracle_mesh = clone_mesh(blast.mesh)
        subject = HydroIntegrator(blast.mesh, eos=blast.eos)
        oracle = HydroIntegrator(oracle_mesh, eos=blast.eos)
        for step in range(2):
            if step == refine_step:
                for mesh in (blast.mesh, oracle_mesh):
                    leaves = sorted(leaf.key for leaf in mesh.leaves())
                    mesh.refine(leaves[leaf_rank % len(leaves)])
                assert_identical(blast.mesh, oracle_mesh, step)
            dt = subject.timestep()
            subject.step(dt)
            step_reference(oracle, dt)
            assert_identical(blast.mesh, oracle_mesh, step)


class TestSelectorIsGone:
    def test_array_backend_parameter_is_gone(self):
        """One kernel set, called directly: neither constructor takes a
        selector for it any more."""
        from repro.core import OctoTigerSim

        blast = sedov_blast(levels=1)
        with pytest.raises(TypeError, match="array_backend"):
            HydroIntegrator(blast.mesh, array_backend="numpy")
        with pytest.raises(TypeError, match="array_backend"):
            OctoTigerSim(blast.mesh, array_backend="numpy")
