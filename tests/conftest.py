"""Shared fixtures: small meshes and common solver setups.

Mesh-building is the expensive part of many tests, so the heavier fixtures
are session-scoped and treated as read-only; tests that mutate state build
their own meshes.

Also provides a fallback for ``@pytest.mark.timeout`` when the
``pytest-timeout`` plugin is not installed: the chaos tests in
``test_resilience.py`` must *never hang* (that is the property under
test), so the marker has to mean something even in minimal environments.
The shim arms ``SIGALRM`` around the test call and fails the test with a
``Failed`` error when the alarm fires.  When the real plugin is present
it takes precedence and the shim stays unregistered.
"""

from __future__ import annotations

import math
import signal
from dataclasses import dataclass
from typing import Optional

import numpy as np
import pytest

from repro.hydro.eos import IdealGasEOS
from repro.octree.fields import Field
from repro.octree.mesh import AmrMesh


def pytest_configure(config: pytest.Config) -> None:
    if config.pluginmanager.hasplugin("timeout"):
        return  # the real pytest-timeout plugin handles the marker
    config.addinivalue_line(
        "markers",
        "timeout(seconds): fail the test if it runs longer than the given "
        "wall-clock budget (SIGALRM fallback shim; superseded by the "
        "pytest-timeout plugin when installed)",
    )
    if hasattr(signal, "SIGALRM"):
        config.pluginmanager.register(_TimeoutShim(), "repro-timeout-shim")


class _TimeoutShim:
    """Minimal pytest-timeout stand-in: one SIGALRM per marked test."""

    @staticmethod
    def _seconds(item: pytest.Item) -> float:
        marker = item.get_closest_marker("timeout")
        if marker is None:
            return 0.0
        if marker.args:
            return float(marker.args[0])
        return float(marker.kwargs.get("timeout", 0.0))

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_call(self, item: pytest.Item):  # noqa: ANN201
        seconds = self._seconds(item)
        if seconds <= 0.0:
            yield
            return

        def on_alarm(signum, frame):  # noqa: ANN001
            raise pytest.fail.Exception(
                f"timeout: test exceeded {seconds:g}s wall clock"
            )

        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.alarm(int(math.ceil(seconds)))
        try:
            yield
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)


def make_uniform_mesh(levels: int = 1, n: int = 8, domain: float = 2.0) -> AmrMesh:
    mesh = AmrMesh(n=n, ghost=2, domain_size=domain)
    for _ in range(levels):
        for key in list(mesh.leaf_keys()):
            mesh.refine(key)
    return mesh


def fill_gaussian(mesh: AmrMesh, center=(0.2, -0.1, 0.0), width: float = 0.05) -> None:
    for leaf in mesh.leaves():
        x, y, z = leaf.cell_centers()
        r2 = (x - center[0]) ** 2 + (y - center[1]) ** 2 + (z - center[2]) ** 2
        leaf.subgrid.set_interior(Field.RHO, np.exp(-r2 / width))
    mesh.restrict_all()


@dataclass(frozen=True)
class DensityCriterion:
    """The regrid tests' criterion: refine a leaf whose density exceeds
    ``refine_above``; let it coarsen below ``coarsen_below`` (a tenth of
    ``refine_above`` by default), so the band between does not flap."""

    refine_above: float
    coarsen_below: Optional[float] = None

    def wants_refinement(self, leaf) -> bool:  # noqa: ANN001 - OctreeNode
        return np.abs(leaf.subgrid.interior_view(Field.RHO)).max() > self.refine_above

    def allows_coarsening(self, leaf) -> bool:  # noqa: ANN001 - OctreeNode
        threshold = (
            self.refine_above / 10.0
            if self.coarsen_below is None
            else self.coarsen_below
        )
        return np.abs(leaf.subgrid.interior_view(Field.RHO)).max() < threshold


@pytest.fixture(scope="session")
def gaussian_mesh_l2() -> AmrMesh:
    """Uniform level-2 mesh (64 sub-grids) with an off-centre Gaussian blob.

    Session-scoped and read-only: used by the gravity accuracy tests.
    """
    mesh = make_uniform_mesh(levels=2)
    fill_gaussian(mesh)
    return mesh


@pytest.fixture(scope="session")
def direct_reference(gaussian_mesh_l2):
    """Exact potential/acceleration slot arrays of the Gaussian mesh
    (computed once), rows in sorted-key order like ``FmmResult``'s."""
    from repro.gravity.direct import direct_sum

    return direct_sum(gaussian_mesh_l2)


@pytest.fixture()
def eos() -> IdealGasEOS:
    return IdealGasEOS(gamma=1.4)
