#!/usr/bin/env python
"""Generate docs/API.md: one row per public item of every subpackage.

    python tools/gen_api_summary.py [output]

Walks the ``repro`` package's subpackages, imports each, and tabulates the
public classes and functions (the ``__all__`` of each subpackage's
``__init__``) with the first line of their docstrings.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import sys
from pathlib import Path
from typing import List

import repro


def subpackages() -> List[str]:
    """Every subpackage of ``repro``, as found on disk."""
    return [
        f"repro.{info.name}"
        for info in pkgutil.iter_modules(repro.__path__)
        if info.ispkg
    ]


def first_line(obj) -> str:  # noqa: ANN001
    doc = inspect.getdoc(obj) or ""
    line = doc.strip().splitlines()[0] if doc.strip() else ""
    return line.rstrip(".")


def generate() -> str:
    lines = [
        "# API summary",
        "",
        "Generated by `python tools/gen_api_summary.py`; one row per public",
        "item (each subpackage's `__all__`).",
        "",
    ]
    for name in subpackages():
        module = importlib.import_module(name)
        lines.append(f"## `{name}`")
        lines.append("")
        header = first_line(module)
        if header:
            lines.append(header + ".")
            lines.append("")
        exported = getattr(module, "__all__", [])
        if not exported:
            lines.append("_(no public exports)_")
            lines.append("")
            continue
        lines.append("| item | kind | summary |")
        lines.append("|---|---|---|")
        for item_name in exported:
            item = getattr(module, item_name)
            if inspect.isclass(item):
                kind = "class"
                summary = first_line(item)
            elif inspect.isfunction(item):
                kind = "function"
                summary = first_line(item)
            elif inspect.ismodule(item):
                kind = "module"
                summary = first_line(item)
            else:
                # Plain data constant: the type's docstring is noise.
                kind = type(item).__name__
                summary = f"constant = `{item!r}`" if not hasattr(item, "__dict__") else ""
            summary = summary.replace("|", "\\|")
            lines.append(f"| `{item_name}` | {kind} | {summary} |")
        lines.append("")
    return "\n".join(lines) + "\n"


def main() -> int:
    output = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("docs/API.md")
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(generate())
    print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
