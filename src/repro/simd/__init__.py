"""Explicit SIMD abstraction (the ``std::experimental::simd`` / SVE analog).

The paper's Fig. 7 experiment hinges on one property: the *same kernel
source* can be instantiated with a scalar SIMD type or a vector one (SVE on
A64FX), selected at compile time, yielding a 2-3x kernel speedup.  This
package reproduces the mechanism:

* :class:`~repro.simd.abi.SimdAbi` — a register description (width, lanes);
  the registry mirrors the ABIs Octo-Tiger supports (scalar, NEON, AVX2,
  AVX-512, SVE-512).
* :class:`~repro.simd.pack.Pack` — a fixed-width value type with element-wise
  arithmetic and masked operations, like ``simd<double, Abi>``.
* :func:`~repro.simd.vector_map.vector_map` — executes a pack-generic kernel
  over arrays in lane-sized chunks.  With the scalar ABI the kernel runs once
  per element; with SVE-512 once per eight doubles — so the measured Python
  speedup between ABIs is real, width-proportional work reduction, which is
  exactly what vector units buy.
"""

from repro.simd.abi import SimdAbi, get_abi, register_abi
from repro.simd.pack import Pack, Mask
from repro.simd.vector_map import vector_map

__all__ = [
    "SimdAbi",
    "get_abi",
    "register_abi",
    "Pack",
    "Mask",
    "vector_map",
]
