"""Views: labelled, memory-space-tagged multidimensional arrays.

A ``Kokkos::View`` couples storage with a memory space so kernels can only
touch data where they execute.  Here a view wraps host NumPy storage owned
by the one :class:`~repro.kokkos.ArrayBackend` plus a space tag;
:func:`deep_copy` is the only sanctioned way to move data between spaces,
and it counts the bytes moved (feeding the GPU-offload cost model).

Under :func:`repro.analysis.spacesan.sanitizer_mode` every element access
and every raw ``.data`` grab of a *device*-tagged view from host code is a
reported :class:`~repro.analysis.spacesan.MemorySpaceViolation` — exactly
the segfault class a real CUDA build turns into undefined behaviour.  On
simulated-device storage the guard goes further: the backing array is a
:class:`_DeviceArray`, so a host NumPy *ufunc* applied directly to device
storage (the genuine module-mismatch bug) is reported too, even when the
array leaked out through an earlier unsanctioned grab.  Outside sanitizer
mode the checks reduce to one falsy test.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Tuple

import numpy as np

from repro.analysis.spacesan import report_violation, space_checks_enabled
from repro.kokkos.backend import ArrayBackend, get_backend

#: The storage backend of every View (Host and Device alike).
_NUMPY = get_backend("numpy")


@dataclass(frozen=True)
class MemorySpaceTag:
    name: str
    is_device: bool = False


HostSpace = MemorySpaceTag("Host")
DeviceSpaceTag = MemorySpaceTag("Device", is_device=True)

#: Total bytes moved host<->device by deep_copy.
transfer_counter = {"h2d_bytes": 0, "d2h_bytes": 0, "copies": 0}


#: Depth of sanctioned-crossing scopes (deep_copy, kernel launches): device
#: storage may be touched from host numpy inside one without a finding.
_sanction = {"depth": 0}


@contextmanager
def sanctioned_crossing() -> Iterator[None]:
    """Suspend the device-storage ufunc guard within the block.

    ``deep_copy`` wraps its transfer in this scope — it is the legal
    host-side crossing, like ``Kokkos::deep_copy`` — and execution spaces
    may use it when simulating device-side kernel execution.
    """
    _sanction["depth"] += 1
    try:
        yield
    finally:
        _sanction["depth"] -= 1


class _DeviceArray(np.ndarray):
    """Simulated device-resident storage.

    A plain ndarray subclass carrying its View's label; applying a host
    NumPy ufunc to it under sanitizer mode — outside a sanctioned crossing
    — reports the module mismatch that would be an illegal dereference on
    a real device pointer.  Outside sanitizer mode it behaves exactly like
    its base array.
    """

    _view_label: str = "?"

    def __array_finalize__(self, obj) -> None:
        if obj is not None:
            self._view_label = getattr(obj, "_view_label", "?")

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if space_checks_enabled() and _sanction["depth"] == 0:
            report_violation(
                self._view_label, "Device", "ufunc",
                f"host numpy ufunc {ufunc.__name__!r} applied to "
                "device-backend storage; move data with deep_copy",
            )
        # Demote to base ndarrays so the result does not inherit the guard.
        cast = tuple(
            i.view(np.ndarray) if isinstance(i, _DeviceArray) else i
            for i in inputs
        )
        out = kwargs.get("out")
        if out is not None:
            kwargs["out"] = tuple(
                o.view(np.ndarray) if isinstance(o, _DeviceArray) else o
                for o in out
            )
        return getattr(ufunc, method)(*cast, **kwargs)


def _tag_device(array: np.ndarray, label: str) -> np.ndarray:
    """Wrap simulated-device ndarray storage in the ufunc guard."""
    if isinstance(array, np.ndarray):
        guarded = array.view(_DeviceArray)
        guarded._view_label = label
        return guarded
    return array  # not an ndarray: nothing to guard


class View:
    """A labelled array in a memory space, stored by an array backend."""

    __slots__ = ("label", "space", "backend", "_base_label", "_data")

    def __init__(
        self,
        label: str,
        shape: Tuple[int, ...],
        space: MemorySpaceTag = HostSpace,
        dtype: np.dtype = np.float64,
        backend: ArrayBackend = None,
    ) -> None:
        self.label = label
        self.space = space
        self.backend = backend if backend is not None else _NUMPY
        self._base_label = label
        data = self.backend.zeros(shape, dtype=dtype)
        if space.is_device:
            data = _tag_device(data, label)
        self._data = data

    @classmethod
    def from_array(
        cls, label: str, array: np.ndarray, space: MemorySpaceTag = HostSpace
    ) -> "View":
        view = cls.__new__(cls)
        view.label = label
        view.space = space
        view.backend = _NUMPY
        view._base_label = label
        view._data = _tag_device(array, label) if space.is_device else array
        return view

    # -- storage access ----------------------------------------------------
    def _check_host_access(self, op: str) -> None:
        if self.space.is_device and space_checks_enabled():
            report_violation(
                self.label, self.space.name, op,
                "host code touched device memory; move data with deep_copy",
            )

    @property
    def xp(self):
        """The backend's array namespace (write kernels against this)."""
        return self.backend.module

    @property
    def data(self) -> np.ndarray:
        """The backing array.

        Grabbing a device view's raw storage from host code is the classic
        way to smuggle a transfer past ``deep_copy``; sanitizer mode flags
        it.  Metadata (`shape`/`size`/`nbytes`) stays legal either way.
        """
        self._check_host_access("raw-data")
        return self._data

    @data.setter
    def data(self, array: np.ndarray) -> None:
        self._check_host_access("raw-data")
        self._data = (
            _tag_device(array, self.label) if self.space.is_device else array
        )

    @property
    def shape(self) -> Tuple[int, ...]:
        return self._data.shape

    @property
    def dtype(self) -> np.dtype:
        return self._data.dtype

    @property
    def size(self) -> int:
        return self._data.size

    @property
    def nbytes(self) -> int:
        return self._data.nbytes

    def mirror(self, space: MemorySpaceTag, copy: bool = False) -> "View":
        """A view of the same shape and dtype in another space
        (``create_mirror_view``).

        ``copy=False`` (default) zero-fills, like a fresh allocation;
        ``copy=True`` deep-copies this view's contents into the mirror
        (``create_mirror_view_and_copy``), counted as transfer traffic.
        Mirror labels derive from the *base* label, so a mirror of a
        mirror is ``"x_mirror"``, not ``"x_mirror_mirror"``.
        """
        out = View(
            self._base_label + "_mirror",
            self._data.shape,
            space=space,
            dtype=self._data.dtype,
        )
        out._base_label = self._base_label
        if copy:
            deep_copy(out, self)
        return out

    def __getitem__(self, idx):  # noqa: ANN001, ANN204 - array passthrough
        self._check_host_access("read")
        return self._data[idx]

    def __setitem__(self, idx, value) -> None:  # noqa: ANN001
        self._check_host_access("write")
        self._data[idx] = value

    def __repr__(self) -> str:
        return (
            f"<View {self.label!r} {self._data.shape} "
            f"@{self.space.name}/{self.backend.name}>"
        )


def deep_copy(dst: View, src: View) -> None:
    """Copy between views, accounting host<->device traffic.

    This is the sanctioned space crossing: it bypasses the sanitizer's
    host-access check by construction (mirroring ``Kokkos::deep_copy``,
    which is legal from host code for any space pair).  Shape and dtype
    must match exactly — ``np.copyto`` would silently cast a float64 source
    into a float32 destination, losing precision without any sanitizer
    finding.
    """
    if dst._data.shape != src._data.shape:
        raise ValueError(
            f"deep_copy shape mismatch: {dst._data.shape} vs {src._data.shape}"
        )
    if dst._data.dtype != src._data.dtype:
        raise ValueError(
            f"deep_copy dtype mismatch: {dst._data.dtype} vs {src._data.dtype} "
            "(an implicit cast would silently lose precision)"
        )
    with sanctioned_crossing():
        np.copyto(np.asarray(dst._data), np.asarray(src._data))
    transfer_counter["copies"] += 1
    if src.space.is_device and not dst.space.is_device:
        transfer_counter["d2h_bytes"] += src.nbytes
    elif dst.space.is_device and not src.space.is_device:
        transfer_counter["h2d_bytes"] += src.nbytes
