"""SIMD ABI registry.

An ABI fixes the vector register width and therefore the number of lanes
of a given dtype one register holds.  The efficiency factor feeds the machine
cost model: real vector units rarely deliver their full width on stencil
codes (alignment, remainder loops, gather/scatter), and the paper reports
2-3x rather than the ideal 8x for SVE-512 doubles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np


@dataclass(frozen=True)
class SimdAbi:
    """A SIMD instruction-set ABI.

    Parameters
    ----------
    name: registry key, e.g. ``"sve512"``.
    register_bits: vector register width; 0 denotes the scalar ABI.
    efficiency: sustained fraction of the ideal width-speedup achieved on
        Octo-Tiger-like stencil/FMM kernels (cost-model input only).
    """

    name: str
    register_bits: int
    efficiency: float = 1.0

    @property
    def is_scalar(self) -> bool:
        return self.register_bits == 0

    def lanes(self, dtype: np.dtype = np.dtype(np.float64)) -> int:
        """Number of elements of ``dtype`` per register (1 for scalar)."""
        if self.is_scalar:
            return 1
        itemsize_bits = np.dtype(dtype).itemsize * 8
        lanes = self.register_bits // itemsize_bits
        if lanes < 1:
            raise ValueError(
                f"dtype {dtype} does not fit in {self.register_bits}-bit registers"
            )
        return lanes

    def speedup_factor(self, dtype: np.dtype = np.dtype(np.float64)) -> float:
        """Modelled kernel speedup over the scalar ABI (cost-model hook)."""
        if self.is_scalar:
            return 1.0
        return 1.0 + (self.lanes(dtype) - 1) * self.efficiency


_REGISTRY: Dict[str, SimdAbi] = {}


def register_abi(abi: SimdAbi) -> SimdAbi:
    """Add an ABI to the registry (names are unique); returns it."""
    if abi.name in _REGISTRY:
        raise ValueError(f"ABI {abi.name!r} already registered")
    _REGISTRY[abi.name] = abi
    return abi


def get_abi(name: str) -> SimdAbi:
    """Look up a registered ABI by name (KeyError lists the registry)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown SIMD ABI {name!r}; available: {sorted(_REGISTRY)}"
        ) from None


# The ABIs Octo-Tiger's SIMD-type work covers (paper refs [10], [31]).
SCALAR = register_abi(SimdAbi("scalar", 0, efficiency=1.0))
NEON128 = register_abi(SimdAbi("neon128", 128, efficiency=0.45))
AVX2 = register_abi(SimdAbi("avx2", 256, efficiency=0.40))
AVX512 = register_abi(SimdAbi("avx512", 512, efficiency=0.33))
# Calibrated so speedup_factor(float64) = 1 + 7*0.243 ~= 2.7, inside the
# paper's reported "factor of two and three" single-node SVE window.
SVE512 = register_abi(SimdAbi("sve512", 512, efficiency=0.243))
