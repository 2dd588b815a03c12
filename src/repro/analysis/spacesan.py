"""Memory-space sanitizer mode: a process-wide switch plus findings.

The Kokkos analog (:mod:`repro.kokkos.view`) consults this module on every
View access.  Outside sanitizer mode the checks cost one dict lookup and a
falsy test; inside, host access to a device-tagged View — the bug class
``deep_copy`` discipline exists to prevent — either raises
:class:`MemorySpaceViolation` immediately or is recorded on a collector
list, depending on how :func:`sanitizer_mode` was entered.

This module deliberately imports nothing from the rest of ``repro`` so the
lowest layers (``kokkos``, ``amt``) can depend on it without cycles.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, List, Optional


class MemorySpaceViolation(RuntimeError):
    """Host code touched device-resident data (or vice versa) without a
    sanctioned ``deep_copy``."""


@dataclass(frozen=True)
class SpaceFinding:
    """One recorded space violation (collecting mode)."""

    label: str  # View label
    space: str  # the View's memory space
    op: str  # "read" | "write" | "raw-data"
    detail: str = ""

    def __str__(self) -> str:
        return f"space-mismatch: {self.op} of View {self.label!r} @{self.space} ({self.detail})"


_state = {"enabled": False, "collector": None}


def space_checks_enabled() -> bool:
    """True while a :func:`sanitizer_mode` context is active."""
    return _state["enabled"]


def report_violation(label: str, space: str, op: str, detail: str = "") -> None:
    """Record or raise one violation; no-op outside sanitizer mode."""
    if not _state["enabled"]:
        return
    finding = SpaceFinding(label=label, space=space, op=op, detail=detail)
    collector: Optional[List[SpaceFinding]] = _state["collector"]
    if collector is not None:
        collector.append(finding)
    else:
        raise MemorySpaceViolation(str(finding))


@contextmanager
def sanitizer_mode(  # reprolint: sanctioned-switch (the check's on-switch)
    collect: bool = False,
) -> Iterator[List[SpaceFinding]]:
    """Enable space checks within the block.

    With ``collect=False`` (default) the first violation raises; with
    ``collect=True`` violations append to the yielded list so a full run
    can be audited in one pass.  Contexts nest; the innermost wins.
    """
    findings: List[SpaceFinding] = []
    prev = dict(_state)
    _state["enabled"] = True
    _state["collector"] = findings if collect else None
    try:
        yield findings
    finally:
        _state["enabled"] = prev["enabled"]
        _state["collector"] = prev["collector"]
