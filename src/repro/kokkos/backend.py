"""The array backend behind View storage: host NumPy, the one member.

The paper's portability claim is that one functor runs unchanged while
the execution space (Serial, HPX, CUDA) or the SIMD type is swapped
underneath it.  This repo reproduces that claim in :mod:`repro.simd` and
the execution spaces of :mod:`repro.kokkos.spaces`, not here: every kernel
is written against NumPy, so a registry of interchangeable array modules
would have nothing to choose between.  :class:`ArrayBackend` is the
storage type a :class:`~repro.kokkos.view.View` holds (``View.backend``),
``View.xp`` is its array namespace, and ``deep_copy`` is the only
sanctioned space crossing (counting real bytes).  Host and Device views
share this one backend; the Device tag adds the sanitizer's ufunc guard,
not a different array module.

reprolint R009 still allows ``numba``, ``cupy`` and ``jax`` imports in this
file only, so a future device backend has exactly one place to live.

Like :mod:`repro.analysis.spacesan`, this module imports nothing from the
rest of ``repro`` so the lowest layers can depend on it without cycles.
"""

from __future__ import annotations

from typing import Any, Dict

import numpy as np


class ArrayBackend:
    """Host NumPy behind the array-API subset the kernels use."""

    #: Registry name.
    name: str = "numpy"
    #: The backend's array namespace (``View.xp``).
    module: Any = np

    def zeros(self, shape, dtype=np.float64) -> np.ndarray:
        return np.zeros(shape, dtype=dtype)

    def from_numpy(self, array: np.ndarray) -> np.ndarray:
        """Adopt a host ndarray as backend storage."""
        return array

    def to_numpy(self, array: Any) -> np.ndarray:
        """View backend storage as a plain host ndarray."""
        return np.asarray(array)

    def copy_into(self, dst: Any, src_host: np.ndarray) -> None:
        """Copy host values into backend storage (deep_copy's write half)."""
        np.copyto(self.to_numpy(dst), src_host)

    def __repr__(self) -> str:
        return f"<ArrayBackend {self.name!r}>"


_REGISTRY: Dict[str, ArrayBackend] = {"numpy": ArrayBackend()}


def get_backend(name: str) -> ArrayBackend:
    """The registered backend for ``name``; raises ``KeyError`` if unknown."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown array backend {name!r}; registered: "
            f"{sorted(_REGISTRY)}"
        ) from None
