"""Kernel dispatch entry points: parallel_for and parallel_for_async.

``parallel_for`` drives the AMT engine until the kernel completes (only
valid outside other tasks, like ``Kokkos::fence``).  ``parallel_for_async``
returns an AMT future — the HPX-Kokkos integration that lets kernels join HPX
dependency graphs and continuation chains.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.amt.future import Future
from repro.amt.locality import Runtime
from repro.kokkos.policies import MDRangePolicy, RangePolicy
from repro.kokkos.spaces import ExecutionSpace


def _as_range(policy) -> RangePolicy:  # noqa: ANN001
    from repro.kokkos.policies import TeamPolicy

    if isinstance(policy, (MDRangePolicy, TeamPolicy)):
        return policy.flatten()
    if isinstance(policy, RangePolicy):
        return policy
    raise TypeError(f"not an execution policy: {policy!r}")


def parallel_for_async(
    space: ExecutionSpace,
    policy,  # noqa: ANN001
    functor: Callable[[int, int], Any],
    kind: str = "parallel_for",
) -> Future:
    """Launch a for-kernel; returns a future resolved on completion."""
    return space.dispatch(_as_range(policy), functor, kind)


def parallel_for(
    space: ExecutionSpace,
    policy,  # noqa: ANN001
    functor: Callable[[int, int], Any],
    kind: str = "parallel_for",
    runtime: Optional[Runtime] = None,
) -> None:
    """Launch a for-kernel and fence.

    For spaces backed by a runtime the caller must pass it (or the space's
    locality runtime is used) so the virtual clock can advance.
    """
    future = parallel_for_async(space, policy, functor, kind)
    _fence(space, future, runtime)


def _fence(space: ExecutionSpace, future: Future, runtime: Optional[Runtime]) -> None:
    if future.is_ready():
        return
    rt = runtime or getattr(space, "locality", None) and space.locality.runtime
    if rt is None:
        raise RuntimeError(
            f"cannot fence space {space.name!r} without a runtime to drive"
        )
    rt.run_until_ready(future)
