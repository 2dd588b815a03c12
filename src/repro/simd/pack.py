"""Fixed-width SIMD value types (``simd<T, Abi>`` analog).

A :class:`Pack` holds exactly ``abi.lanes(dtype)`` elements and supports the
element-wise operations SIMD kernels use: arithmetic, fused multiply-add,
square root, min/max and comparisons (yielding a :class:`Mask`).  Packs are
immutable value types: every operation returns a new pack, like register
values.

Kernels written against this interface are ABI-generic — instantiating them
with the scalar ABI or SVE-512 changes only the lane count, which is the
property the paper's "adding SVE support was trivial" claim rests on.
"""

from __future__ import annotations

from typing import Any, Union

import numpy as np

from repro.simd.abi import SimdAbi

Scalar = Union[int, float]


class Mask:
    """Boolean lane mask produced by pack comparisons."""

    __slots__ = ("abi", "values")

    def __init__(self, abi: SimdAbi, values: np.ndarray) -> None:
        self.abi = abi
        self.values = np.asarray(values, dtype=bool)

    def all(self) -> bool:
        return bool(self.values.all())

    def any(self) -> bool:
        return bool(self.values.any())

    def none(self) -> bool:
        return not self.any()

    def count(self) -> int:
        return int(self.values.sum())

    def __and__(self, other: "Mask") -> "Mask":
        return Mask(self.abi, self.values & other.values)

    def __or__(self, other: "Mask") -> "Mask":
        return Mask(self.abi, self.values | other.values)

    def __invert__(self) -> "Mask":
        return Mask(self.abi, ~self.values)

    def __repr__(self) -> str:
        return f"Mask({self.values.tolist()})"


class Pack:
    """A vector-register value: ``lanes`` elements of one dtype."""

    __slots__ = ("abi", "values")

    def __init__(self, abi: SimdAbi, values: Any, dtype: np.dtype = np.float64) -> None:
        lanes = abi.lanes(np.dtype(dtype))
        arr = np.asarray(values, dtype=dtype)
        if arr.ndim == 0:  # broadcast scalar to all lanes
            arr = np.full(lanes, arr, dtype=dtype)
        if arr.shape != (lanes,):
            raise ValueError(
                f"pack for ABI {abi.name!r} needs {lanes} lanes, got shape {arr.shape}"
            )
        self.abi = abi
        self.values = arr

    # -- construction ------------------------------------------------------
    @classmethod
    def broadcast(cls, abi: SimdAbi, value: Scalar, dtype: np.dtype = np.float64) -> "Pack":
        return cls(abi, value, dtype=dtype)

    @classmethod
    def load(cls, abi: SimdAbi, buffer: np.ndarray, offset: int = 0) -> "Pack":
        """``copy_from`` — load ``lanes`` contiguous elements from a buffer."""
        lanes = abi.lanes(buffer.dtype)
        chunk = buffer[offset : offset + lanes]
        if chunk.shape[0] != lanes:
            raise ValueError(
                f"load of {lanes} lanes at offset {offset} overruns buffer "
                f"of size {buffer.shape[0]}"
            )
        return cls(abi, chunk.copy(), dtype=buffer.dtype)

    def store(self, buffer: np.ndarray, offset: int = 0) -> None:
        """``copy_to`` — store all lanes contiguously into a buffer."""
        lanes = self.values.shape[0]
        if offset + lanes > buffer.shape[0]:
            raise ValueError("store overruns buffer")
        buffer[offset : offset + lanes] = self.values

    @property
    def lanes(self) -> int:
        return self.values.shape[0]

    # -- arithmetic ----------------------------------------------------------
    def _coerce(self, other: Union["Pack", Scalar]) -> np.ndarray:
        if isinstance(other, Pack):
            if other.abi is not self.abi and other.abi != self.abi:
                raise TypeError(
                    f"mixed-ABI pack operation: {self.abi.name} vs {other.abi.name}"
                )
            return other.values
        return np.asarray(other, dtype=self.values.dtype)

    def _wrap(self, values: np.ndarray) -> "Pack":
        return Pack(self.abi, values, dtype=self.values.dtype)

    def __add__(self, other: Union["Pack", Scalar]) -> "Pack":
        return self._wrap(self.values + self._coerce(other))

    __radd__ = __add__

    def __sub__(self, other: Union["Pack", Scalar]) -> "Pack":
        return self._wrap(self.values - self._coerce(other))

    def __rsub__(self, other: Scalar) -> "Pack":
        return self._wrap(self._coerce(other) - self.values)

    def __mul__(self, other: Union["Pack", Scalar]) -> "Pack":
        return self._wrap(self.values * self._coerce(other))

    __rmul__ = __mul__

    def __truediv__(self, other: Union["Pack", Scalar]) -> "Pack":
        return self._wrap(self.values / self._coerce(other))

    def __rtruediv__(self, other: Scalar) -> "Pack":
        return self._wrap(self._coerce(other) / self.values)

    def __neg__(self) -> "Pack":
        return self._wrap(-self.values)

    def __abs__(self) -> "Pack":
        return self._wrap(np.abs(self.values))

    def fma(self, mul: Union["Pack", Scalar], add: Union["Pack", Scalar]) -> "Pack":
        """Fused multiply-add: ``self * mul + add``."""
        return self._wrap(self.values * self._coerce(mul) + self._coerce(add))

    def sqrt(self) -> "Pack":
        return self._wrap(np.sqrt(self.values))

    def rsqrt(self) -> "Pack":
        return self._wrap(1.0 / np.sqrt(self.values))

    def min(self, other: Union["Pack", Scalar]) -> "Pack":
        return self._wrap(np.minimum(self.values, self._coerce(other)))

    def max(self, other: Union["Pack", Scalar]) -> "Pack":
        return self._wrap(np.maximum(self.values, self._coerce(other)))

    # -- comparisons ---------------------------------------------------------
    def __lt__(self, other: Union["Pack", Scalar]) -> Mask:
        return Mask(self.abi, self.values < self._coerce(other))

    def __le__(self, other: Union["Pack", Scalar]) -> Mask:
        return Mask(self.abi, self.values <= self._coerce(other))

    def __gt__(self, other: Union["Pack", Scalar]) -> Mask:
        return Mask(self.abi, self.values > self._coerce(other))

    def __ge__(self, other: Union["Pack", Scalar]) -> Mask:
        return Mask(self.abi, self.values >= self._coerce(other))

    def eq(self, other: Union["Pack", Scalar]) -> Mask:
        return Mask(self.abi, self.values == self._coerce(other))

    # -- horizontal reductions -------------------------------------------------
    def hsum(self) -> float:
        return float(self.values.sum())

    def hmin(self) -> float:
        return float(self.values.min())

    def hmax(self) -> float:
        return float(self.values.max())

    def __repr__(self) -> str:
        return f"Pack<{self.abi.name}>({self.values.tolist()})"
