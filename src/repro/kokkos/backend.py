"""Pluggable array backends for the Kokkos analog: View storage per space.

The paper's portability claim is that one functor runs unchanged on the
Serial, HPX and CUDA execution spaces; until this module existed every
kernel in the repo bottomed out in host NumPy regardless of the space it
claimed to run in.  An :class:`ArrayBackend` makes the memory space select
a real array module: Views own backend-allocated storage, ``View.xp``
exposes the backend's array namespace to kernels, and ``deep_copy`` is the
only sanctioned cross-backend conversion (counting real bytes).

The registry is storage and space routing, nothing else: the hydro step
calls its one kernel set (:mod:`repro.hydro.plan`) directly and never
asks a backend for a kernel.

Registered backends:

``numpy``
    The default and the reference.
``numba``
    NumPy storage; available only where ``numba`` is importable (probed
    with ``find_spec``, never imported).
``pyjit``
    The always-available twin of ``numba``: same storage.

No module of the tree imports ``numba``, ``cupy`` or ``jax`` (reprolint
R009 allows them here only): a missing optional dependency degrades to an
unavailable backend instead of an import error.

Like :mod:`repro.analysis.spacesan`, this module imports nothing from the
rest of ``repro`` so the lowest layers can depend on it without cycles.
"""

from __future__ import annotations

import importlib.util
from typing import Any, Dict, List, Optional

import numpy as np


class BackendUnavailable(RuntimeError):
    """The backend is registered but its array module is not importable."""


class ArrayBackend:
    """One array module behind the array-API subset the kernels use.

    Subclasses override :meth:`_import_module` (lazy import of the array
    namespace) and the storage conversions a non-host module needs.
    """

    #: Registry name; also the CLI / config spelling.
    name: str = "abstract"
    #: Whether storage lives in a (simulated or real) device space.
    is_device: bool = False
    #: Module spec probed for availability (None = always available).
    requires: Optional[str] = None

    def __init__(self) -> None:
        self._module: Optional[Any] = None

    # -- availability ------------------------------------------------------
    @property
    def available(self) -> bool:
        if self.requires is None:
            return True
        return importlib.util.find_spec(self.requires) is not None

    def require(self) -> None:
        if not self.available:
            raise BackendUnavailable(
                f"array backend {self.name!r} needs the {self.requires!r} "
                "module, which is not installed"
            )

    # -- array namespace ---------------------------------------------------
    def _import_module(self) -> Any:
        return np

    @property
    def module(self) -> Any:
        """The backend's array namespace (``View.xp``)."""
        if self._module is None:
            self.require()
            self._module = self._import_module()
        return self._module

    # -- storage -----------------------------------------------------------
    def zeros(self, shape, dtype=np.float64) -> Any:
        return self.module.zeros(shape, dtype=dtype)

    def from_numpy(self, array: np.ndarray) -> Any:
        """Adopt/convert a host ndarray into backend storage."""
        return array

    def to_numpy(self, array: Any) -> np.ndarray:
        """View/convert backend storage as a host ndarray."""
        return np.asarray(array)

    def copy_into(self, dst: Any, src_host: np.ndarray) -> None:
        """Copy host values into backend storage (deep_copy's write half)."""
        np.copyto(self.to_numpy(dst), src_host)

    def __repr__(self) -> str:
        state = "available" if self.available else "unavailable"
        return f"<ArrayBackend {self.name!r} ({state})>"


class NumpyBackend(ArrayBackend):
    """Host NumPy: the default backend and the bit-exact reference."""

    name = "numpy"


class PyJitBackend(ArrayBackend):
    """Always-available twin of the numba backend (same storage)."""

    name = "pyjit"


class NumbaBackend(ArrayBackend):
    """NumPy storage, available only where ``numba`` is installed."""

    name = "numba"
    requires = "numba"


# -- registry ---------------------------------------------------------------

_REGISTRY: Dict[str, ArrayBackend] = {}


def register_backend(backend: ArrayBackend) -> ArrayBackend:
    """Add a backend to the registry (last registration per name wins)."""
    _REGISTRY[backend.name] = backend
    return backend


def get_backend(name: str) -> ArrayBackend:
    """The registered backend for ``name``; raises on unknown/unavailable."""
    try:
        backend = _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown array backend {name!r}; registered: "
            f"{sorted(_REGISTRY)}"
        ) from None
    backend.require()
    return backend


def registered_backends() -> List[str]:
    """Every registered backend name, available or not."""
    return sorted(_REGISTRY)


def available_backends() -> List[str]:
    """Registered backends whose array module imports on this machine."""
    return sorted(name for name, b in _REGISTRY.items() if b.available)


register_backend(NumpyBackend())
register_backend(PyJitBackend())
register_backend(NumbaBackend())


# -- memory-space -> backend mapping ----------------------------------------

#: Which backend owns each memory space's View storage.  Host stays NumPy;
#: Device defaults to NumPy too (the simulated GPU of
#: :class:`repro.kokkos.spaces.DeviceSpace`) until a real device backend is
#: selected with :func:`set_space_backend`.
_SPACE_BACKENDS: Dict[str, str] = {"Host": "numpy", "Device": "numpy"}


def backend_for_space(space) -> ArrayBackend:
    """The backend owning storage for a :class:`MemorySpaceTag` (by name).

    Unmapped spaces default to NumPy so user-defined tags keep working.
    """
    return get_backend(_SPACE_BACKENDS.get(space.name, "numpy"))


def set_space_backend(space_name: str, backend_name: str) -> None:
    """Route a memory space's future View allocations to a backend."""
    get_backend(backend_name)  # validate name + availability eagerly
    _SPACE_BACKENDS[space_name] = backend_name


def space_backend_map() -> Dict[str, str]:
    """A copy of the current space -> backend routing (for docs/tests)."""
    return dict(_SPACE_BACKENDS)
