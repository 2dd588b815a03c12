"""Pack-generic kernel drivers.

:func:`vector_map` is the loop Octo-Tiger's Kokkos kernels contain: iterate
over arrays in chunks of one vector register, calling an ABI-generic kernel
on packs.  The remainder (array length not divisible by the lane count) is
handled with a masked tail, like a predicated SVE loop.

Because the kernel body is invoked once per *register* rather than once per
*element*, instantiating the same kernel with a wider ABI genuinely reduces
work — the measured scalar-vs-SVE speedups in ``benchmarks/bench_simd_kernels.py``
come from here.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.simd.abi import SimdAbi
from repro.simd.pack import Pack


def vector_map(
    kernel: Callable[..., Pack],
    abi: SimdAbi,
    out: np.ndarray,
    *inputs: np.ndarray,
) -> np.ndarray:
    """Apply ``kernel(pack_in0, pack_in1, ...) -> pack_out`` over arrays.

    All arrays must be 1-D, same length, same dtype.  The output array is
    written in place and returned.
    """
    if out.ndim != 1:
        raise ValueError("vector_map operates on 1-D arrays")
    n = out.shape[0]
    for arr in inputs:
        if arr.shape != out.shape:
            raise ValueError("vector_map inputs must match output shape")
    lanes = abi.lanes(out.dtype)

    main = (n // lanes) * lanes
    for offset in range(0, main, lanes):
        packs = [Pack.load(abi, arr, offset) for arr in inputs]
        kernel(*packs).store(out, offset)

    tail = n - main
    if tail:
        # Predicated tail: load a full register padded with the last value,
        # compute, and store only the live lanes.
        pad = lanes - tail
        packs = []
        for arr in inputs:
            chunk = np.concatenate([arr[main:], np.repeat(arr[-1:], pad)])
            packs.append(Pack(abi, chunk, dtype=arr.dtype))
        result = kernel(*packs)
        out[main:] = result.values[:tail]
    return out
