"""Test oracle: resume a driver from a checkpoint file.

The restart-equivalence tests write a checkpoint, rebuild a driver from
it here and compare the continued run with an uninterrupted one.  The
driver's own rollback (:meth:`repro.core.driver.OctoTigerSim._rollback`)
restores the same three pieces of state: the mesh, the simulation time
and the step count.
"""

from __future__ import annotations

from repro.core.driver import OctoTigerSim
from repro.ioutil import load_checkpoint


def resume(path, eos=None, **kwargs) -> OctoTigerSim:  # noqa: ANN001
    """A driver restored from the checkpoint at ``path``; the remaining
    driver options come from ``kwargs`` (they are configuration, not
    state: the same checkpoint can resume on another machine model)."""
    mesh, meta = load_checkpoint(path)
    sim = OctoTigerSim(mesh, eos=eos, omega=meta["extra"].get("omega", 0.0), **kwargs)
    sim.integrator.time = meta.get("time", 0.0)
    sim.integrator.steps_taken = meta.get("step", 0)
    return sim
