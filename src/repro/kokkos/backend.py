"""Pluggable array backends for the Kokkos analog (array-API dispatch).

The paper's portability claim is that one functor runs unchanged on the
Serial, HPX and CUDA execution spaces; until this module existed every
kernel in the repo bottomed out in host NumPy regardless of the space it
claimed to run in.  An :class:`ArrayBackend` makes the memory space select
a real array module: Views own backend-allocated storage, ``View.xp``
exposes the backend's array namespace to kernels, and ``deep_copy`` is the
only sanctioned cross-backend conversion (counting real bytes).

Registered backends:

``numpy``
    The default and the reference, and the only backend the hydro step can
    be dispatched through (``array_backend="numpy"``).  That dispatch is
    bit-identical to the seed path (same functions, same storage) — the
    *exact* tier of the equivalence harness in :mod:`repro.core.crosscheck`
    pins this.
``numba``
    JIT host backend for View kernels: NumPy storage, ``compile`` is
    ``numba.njit``.  Optional (gated on importability).
``pyjit``
    The interpreted twin of ``numba``: same storage, ``compile`` is the
    identity.  Always available.

Neither JIT backend has a hydro kernel set: the MUSCL+HLL stencil is
written once, in :mod:`repro.hydro.plan`, and
:func:`repro.hydro.plan.resolve_stacked_kernels` rejects ``jit=True``.

This module is the **only** place allowed to import ``numba`` (reprolint
R009, which also keeps ``cupy``/``jax`` imports out of the tree): every
other module reaches it through the registry, so a missing optional
dependency degrades to a skipped backend instead of an import error.

Like :mod:`repro.analysis.spacesan`, this module imports nothing from the
rest of ``repro`` so the lowest layers can depend on it without cycles.
"""

from __future__ import annotations

import importlib
import importlib.util
from typing import Any, Callable, Dict, List, Optional

import numpy as np


class BackendUnavailable(RuntimeError):
    """The backend is registered but its array module is not importable."""


class ArrayBackend:
    """One array module behind the array-API subset the kernels use.

    Subclasses override :meth:`_import_module` (lazy import of the array
    namespace) and optionally :meth:`compile` (JIT hook).  ``specialize``
    caches compiled kernels per key so each kernel source is compiled at
    most once per backend; ``compile_count`` makes the caching observable
    to tests.
    """

    #: Registry name; also the CLI / config spelling.
    name: str = "abstract"
    #: Whether storage lives in a (simulated or real) device space.
    is_device: bool = False
    #: Whether :meth:`compile` does real work (JIT backends).
    jit: bool = False
    #: Module spec probed for availability (None = always available).
    requires: Optional[str] = None

    def __init__(self) -> None:
        self._module: Optional[Any] = None
        self._kernels: Dict[Any, Callable] = {}
        #: Number of kernel sources handed to :meth:`compile` (not cache hits).
        self.compile_count = 0

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

    # -- kernels -----------------------------------------------------------
    def compile(self, func: Callable) -> Callable:
        """Lower a pure-Python kernel for this backend (identity by default).

        Every call counts toward ``compile_count`` so tests can observe
        that caching (``specialize``) actually avoids recompilation.
        """
        self.compile_count += 1
        return func

    def specialize(self, key, factory: Callable[[], Callable]) -> Callable:
        """The compiled kernel for ``key``, compiling via ``factory`` once."""
        kern = self._kernels.get(key)
        if kern is None:
            kern = self.compile(factory())
            self._kernels[key] = kern
        return kern

    def cache_clear(self) -> None:
        """Drop every compiled kernel (forces recompilation)."""
        self._kernels.clear()

    def __repr__(self) -> str:
        state = "available" if self.available else "unavailable"
        return f"<ArrayBackend {self.name!r} ({state})>"


class NumpyBackend(ArrayBackend):
    """Host NumPy: the default backend and the bit-exact reference."""

    name = "numpy"


class PyJitBackend(ArrayBackend):
    """Interpreted twin of the numba backend (same storage, no JIT)."""

    name = "pyjit"
    jit = True


class NumbaBackend(ArrayBackend):
    """NumPy storage with hot kernels compiled by ``numba.njit``."""

    name = "numba"
    jit = True
    requires = "numba"

    def compile(self, func: Callable) -> Callable:
        self.require()
        numba = importlib.import_module("numba")
        self.compile_count += 1
        return numba.njit(cache=False)(func)


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
