"""Backend-equivalence harness: seed path vs array-backend dispatch.

The *exact* tier (see :mod:`repro.core.crosscheck`) pins dispatch through
the ``numpy`` backend to identical bits.  The hypothesis sweep drives
regrids mid-run so the per-topology kernel scratch is invalidated and
rebuilt on both sides.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.spacesan import sanitizer_mode
from repro.core.crosscheck import crosscheck_array_backend
from repro.gravity.fmm import FmmSolver
from repro.hydro.integrator import HydroIntegrator
from repro.kokkos import (
    DeviceSpaceTag,
    View,
    available_backends,
    deep_copy,
    get_backend,
    reset_transfer_counter,
)
from repro.kokkos.view import transfer_counter
from repro.scenarios.blast import sedov_blast
from repro.scenarios.dwd import dwd_scenario

#: Installed backends the hydro step can be dispatched through: host
#: storage (device backends would need the mesh storage itself rerouted;
#: they are exercised by the View tests) and not ``jit`` (those have no
#: hydro kernel set).
HOST_BACKENDS = [
    n for n in available_backends()
    if not get_backend(n).is_device and not get_backend(n).jit
]

#: Installed backends that would need their own writing of the stencil
#: (an uninstalled one fails earlier, with ``BackendUnavailable``).
JIT_BACKENDS = [n for n in available_backends() if get_backend(n).jit]


class TestExactTier:
    """Seed kernels vs numpy-dispatch: same bits, different call path."""

    def test_blast_bit_identical(self):
        blast = sedov_blast(levels=1)
        r = crosscheck_array_backend(
            blast.mesh, "numpy", steps=3, eos=blast.eos
        )
        assert r.tier == "exact" and r.backend_name == "numpy"

    def test_dwd_with_gravity_bit_identical(self):
        dwd = dwd_scenario(level=1, scf_grid=16)

        def gravity():
            return FmmSolver(empty_mass_threshold=1e-12).as_gravity_callback()

        crosscheck_array_backend(
            dwd.mesh, "numpy", steps=2, eos=dwd.eos,
            omega=dwd.omega, gravity=gravity,
        )


class TestRegridInvalidation:
    @given(leaf_rank=st.integers(0, 7), refine_step=st.integers(0, 1))
    @settings(max_examples=4, deadline=None)
    def test_mid_run_refine_sweep(self, leaf_rank, refine_step):
        """Refining mid-run rebuilds the plan and the per-topology kernel
        scratch on both sides; the bits must still agree."""
        blast = sedov_blast(levels=1)

        def mutate(mesh, step):
            if step == refine_step:
                leaves = sorted(leaf.key for leaf in mesh.leaves())
                mesh.refine(leaves[leaf_rank % len(leaves)])

        crosscheck_array_backend(
            blast.mesh, "numpy", steps=2, eos=blast.eos, mutate=mutate,
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

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_kernel_less_backend_rejected(self, backend):
        """One production stencil: every backend with ``jit=True`` is
        refused at construction, on either execution backend."""
        blast = sedov_blast(levels=1)
        assert "pyjit" in JIT_BACKENDS
        for name in JIT_BACKENDS:
            with pytest.raises(ValueError, match="has no hydro kernel set"):
                HydroIntegrator(
                    blast.mesh, eos=blast.eos, backend=backend,
                    array_backend=name,
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
            array_backend="numpy",
        )
        records = list(sim.run(1))
        assert len(records) == 1
        assert sim.integrator.array_backend == "numpy"
        sim.close()

    def test_config_key_selects_backend(self):
        from repro.core import OctoTigerSim
        from repro.util.config import Config

        blast = sedov_blast(levels=1)
        sim = OctoTigerSim.from_config(
            blast.mesh, Config({"kokkos.backend": "numpy", "frame.omega": 0.0})
        )
        assert sim.integrator.array_backend == "numpy"
        sim.close()
