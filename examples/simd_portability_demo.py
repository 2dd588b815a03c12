#!/usr/bin/env python
"""Performance portability in one file (paper SIV + SVII-A).

The same kernel source runs:

1. under every SIMD ABI (scalar / NEON / AVX2 / SVE-512) via the pack
   abstraction — the "adding SVE support was trivial" mechanism, with
   measured wall-time speedups;
2. on every execution space (Serial, HPX with task splitting, simulated
   device) via the Kokkos-analog dispatch — the "no kernel changes between
   CPU and GPU" mechanism.

    python examples/simd_portability_demo.py
"""

import time

import numpy as np

from repro.amt import Runtime, when_all
from repro.kokkos import (
    DeviceSpace,
    HpxSpace,
    RangePolicy,
    SerialSpace,
    parallel_for,
    parallel_for_async,
)
from repro.simd import get_abi, vector_map


def flux_kernel(rho, mom, e):
    """One pack-generic kernel, written once."""
    v = mom / rho
    p = (e - mom * v * 0.5) * (2.0 / 3.0)
    return mom * v + p


def simd_part() -> None:
    n = 4096
    rng = np.random.default_rng(0)
    rho = rng.random(n) + 0.5
    mom = rng.random(n) - 0.5
    e = rng.random(n) + 2.0
    out = np.zeros(n)

    print("Part 1: one kernel, every SIMD ABI (measured wall time)")
    reference = None
    t_scalar = None
    for name in ("scalar", "neon128", "avx2", "avx512", "sve512"):
        abi = get_abi(name)
        start = time.perf_counter()
        vector_map(flux_kernel, abi, out, rho, mom, e)
        elapsed = time.perf_counter() - start
        if reference is None:
            reference = out.copy()
            t_scalar = elapsed
        else:
            assert np.allclose(out, reference), "ABIs must agree bit-for-bit-ish"
        print(
            f"  {name:<8} lanes={abi.lanes():<2d}  {elapsed * 1e3:7.2f} ms  "
            f"({t_scalar / elapsed:4.1f}x vs scalar)"
        )


def spaces_part() -> None:
    print("\nPart 2: one functor, every execution space")
    n = 1 << 16
    data = np.zeros(n)

    def functor(begin, end):
        x = np.arange(begin, end, dtype=np.float64)
        data[begin:end] = np.sqrt(x + 1.0)

    policy = RangePolicy(0, n, work_per_item=50.0)

    serial = SerialSpace(simd_abi="sve512")
    parallel_for(serial, policy, functor)
    expected = data.copy()

    rt = Runtime(n_localities=1, workers_per_locality=8)
    hpx = HpxSpace(rt.here(), tasks_per_kernel=8, simd_abi="sve512")
    data[:] = 0
    parallel_for(hpx, policy, functor)
    assert np.array_equal(data, expected)
    print(
        f"  HPX space: {hpx.stats.tasks} tasks for {hpx.stats.launches} launch, "
        f"virtual makespan {rt.engine.now * 1e6:.1f} us"
    )

    rt2 = Runtime(n_localities=1, workers_per_locality=2)
    device = DeviceSpace(rt2.localities[0], aggregation_size=4)
    data[:] = 0
    futures = [
        parallel_for_async(device, RangePolicy(i, i + n // 4, work_per_item=50.0), functor)
        for i in range(0, n, n // 4)
    ]
    rt2.run_until_ready(when_all(futures))
    assert np.array_equal(data, expected)
    print(
        f"  Device space: {device.stats.launches} aggregated launches for "
        f"4 kernels, virtual time {rt2.engine.now * 1e6:.1f} us"
    )
    print("\nSame results from every backend — the portability contract holds.")


if __name__ == "__main__":
    simd_part()
    spaces_part()
