"""SIMD ABI registry (the ``std::experimental::simd`` / SVE cost input).

The paper's Fig. 7 experiment hinges on one property: the *same kernel
source* is instantiated with a scalar SIMD type or a vector one (SVE on
A64FX), selected at compile time, yielding a 2-3x kernel speedup.  A
Python process has no compile-time SIMD type to swap, so this package
keeps only what the models price:

* :class:`~repro.simd.abi.SimdAbi` — a register description (width, lanes,
  sustained efficiency); the registry mirrors the ABIs Octo-Tiger supports
  (scalar, NEON, AVX2, AVX-512, SVE-512).  ``speedup_factor()`` is what
  :mod:`repro.machines.specs` and :mod:`repro.distsim.model` read for the
  modelled Fig. 7 curve.

The measured companion of Fig. 7 runs the real hydro rhs kernel at
several leaf-batch widths (``benchmarks/bench_fig7_sve.py``).
"""

from repro.simd.abi import AVX2, AVX512, NEON128, SCALAR, SVE512, SimdAbi, get_abi

__all__ = [
    "SimdAbi",
    "get_abi",
    "SCALAR",
    "NEON128",
    "AVX2",
    "AVX512",
    "SVE512",
]
