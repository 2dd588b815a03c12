"""Backend-equivalence harness: seed path vs array-backend dispatch.

Two tiers (see :mod:`repro.core.crosscheck`): *exact* pins dispatch
through the ``numpy`` backend to identical bits, *tolerance* bounds the
preferred JIT backend by the declared per-field budgets.  The hypothesis
sweep drives regrids mid-run so the per-topology kernel scratch is
invalidated and rebuilt on both sides.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.spacesan import sanitizer_mode
from repro.core.crosscheck import (
    CONSERVED_DRIFT_BUDGET,
    FIELD_NAMES,
    TOLERANCE_BUDGETS,
    crosscheck_array_backend,
)
from repro.gravity.fmm import FmmSolver
from repro.hydro.integrator import HydroIntegrator
from repro.kokkos import (
    DeviceSpaceTag,
    View,
    available_backends,
    deep_copy,
    get_backend,
    jit_backend_name,
    reset_transfer_counter,
)
from repro.kokkos.view import transfer_counter
from repro.scenarios.blast import sedov_blast
from repro.scenarios.dwd import dwd_scenario

#: Host-storage backends installed here (device backends would need the
#: mesh storage itself rerouted; they are exercised by the View tests).
HOST_BACKENDS = [
    n for n in available_backends() if not get_backend(n).is_device
]


class TestExactTier:
    """Seed kernels vs numpy-dispatch: same bits, different call path."""

    def test_blast_bit_identical(self):
        blast = sedov_blast(levels=1)
        r = crosscheck_array_backend(
            blast.mesh, "numpy", tier="exact", steps=3, eos=blast.eos
        )
        assert r.tier == "exact" and r.backend_name == "numpy"
        assert r.max_rel_err == 0.0

    def test_dwd_with_gravity_bit_identical(self):
        dwd = dwd_scenario(level=1, scf_grid=16)

        def gravity():
            return FmmSolver(empty_mass_threshold=1e-12).as_gravity_callback()

        r = crosscheck_array_backend(
            dwd.mesh, "numpy", tier="exact", steps=2, eos=dwd.eos,
            omega=dwd.omega, gravity=gravity,
        )
        assert r.max_rel_err == 0.0


class TestToleranceTier:
    """Seed kernels vs the JIT backend, gated by the declared budgets."""

    def test_budgets_are_declared_per_field(self):
        assert set(TOLERANCE_BUDGETS) == set(FIELD_NAMES)
        assert all(0.0 < b < 1e-6 for b in TOLERANCE_BUDGETS.values())
        assert 0.0 < CONSERVED_DRIFT_BUDGET < 1e-6

    def test_blast_within_budgets(self):
        blast = sedov_blast(levels=1)
        r = crosscheck_array_backend(
            blast.mesh, jit_backend_name(), tier="tolerance", steps=3,
            eos=blast.eos,
        )
        assert r.tier == "tolerance"
        assert r.max_rel_err <= max(TOLERANCE_BUDGETS.values())

    def test_dwd_with_gravity_within_budgets(self):
        dwd = dwd_scenario(level=1, scf_grid=16)

        def gravity():
            return FmmSolver(empty_mass_threshold=1e-12).as_gravity_callback()

        crosscheck_array_backend(
            dwd.mesh, jit_backend_name(), tier="tolerance", steps=2,
            eos=dwd.eos, omega=dwd.omega, gravity=gravity,
        )

    def test_reflux_faces_within_budgets(self):
        """An adaptive mesh with true coarse-fine faces: the JIT face
        collection feeds refluxing (uniformly refined meshes never do)."""
        blast = sedov_blast(levels=1)
        first = sorted(leaf.key for leaf in blast.mesh.leaves())[0]
        blast.mesh.refine(first)
        crosscheck_array_backend(
            blast.mesh, jit_backend_name(), tier="tolerance", steps=2,
            eos=blast.eos,
        )

    def test_invalid_tier_rejected(self):
        blast = sedov_blast(levels=1)
        with pytest.raises(ValueError):
            crosscheck_array_backend(
                blast.mesh, "numpy", tier="sloppy", steps=1, eos=blast.eos
            )


class TestRegridInvalidation:
    @given(leaf_rank=st.integers(0, 7), refine_step=st.integers(0, 1))
    @settings(max_examples=4, deadline=None)
    def test_mid_run_refine_sweep(self, leaf_rank, refine_step):
        """Refining mid-run rebuilds the plan and the per-topology kernel
        scratch on both sides; the budgets must still hold."""
        blast = sedov_blast(levels=1)

        def mutate(mesh, step):
            if step == refine_step:
                leaves = sorted(leaf.key for leaf in mesh.leaves())
                mesh.refine(leaves[leaf_rank % len(leaves)])

        crosscheck_array_backend(
            blast.mesh, jit_backend_name(), tier="tolerance", steps=2,
            eos=blast.eos, mutate=mutate,
        )


class TestTransferAccounting:
    @given(
        nx=st.integers(1, 6),
        ny=st.integers(1, 6),
        direction=st.sampled_from(["h2d", "d2h", "h2h", "d2d"]),
    )
    @settings(max_examples=25, deadline=None)
    def test_deep_copy_counts_real_bytes(self, nx, ny, direction):
        reset_transfer_counter()
        spaces = {"h": {}, "d": {"space": DeviceSpaceTag}}
        src = View("s", (nx, ny), **spaces[direction[0]])
        dst = View("t", (nx, ny), **spaces[direction[-1]])
        deep_copy(dst, src)
        nbytes = nx * ny * 8
        assert transfer_counter["copies"] == 1
        assert transfer_counter["h2d_bytes"] == (
            nbytes if direction == "h2d" else 0
        )
        assert transfer_counter["d2h_bytes"] == (
            nbytes if direction == "d2h" else 0
        )


class TestSanitizerUnderBackends:
    @pytest.mark.parametrize("name", HOST_BACKENDS)
    def test_zero_findings_on_full_blast_step(self, name):
        blast = sedov_blast(levels=1)
        integ = HydroIntegrator(blast.mesh, eos=blast.eos, array_backend=name)
        dt = integ.timestep()
        with sanitizer_mode(collect=True) as findings:
            integ.step(dt)
        assert findings == []


class TestBackendSelectionErrors:
    def test_process_backend_rejects_jit(self):
        blast = sedov_blast(levels=1)
        with pytest.raises(ValueError):
            HydroIntegrator(
                blast.mesh, eos=blast.eos, backend="process",
                array_backend="pyjit",
            )

    def test_unknown_backend_rejected(self):
        blast = sedov_blast(levels=1)
        with pytest.raises(KeyError):
            HydroIntegrator(
                blast.mesh, eos=blast.eos, array_backend="no-such"
            )


class TestDriverWiring:
    def test_sim_threads_array_backend(self):
        from repro.core import OctoTigerSim

        blast = sedov_blast(levels=1)
        sim = OctoTigerSim(
            blast.mesh, eos=blast.eos, gravity=False,
            array_backend=jit_backend_name(),
        )
        records = list(sim.run(1))
        assert len(records) == 1
        assert sim.integrator.array_backend == jit_backend_name()
        sim.close()

    def test_config_key_selects_backend(self):
        from repro.core import OctoTigerSim
        from repro.util.config import Config

        blast = sedov_blast(levels=1)
        sim = OctoTigerSim.from_config(
            blast.mesh, Config({"kokkos.backend": "pyjit", "frame.omega": 0.0})
        )
        assert sim.integrator.array_backend == "pyjit"
        sim.close()
