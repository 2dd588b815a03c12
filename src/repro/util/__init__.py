"""Shared utilities: Morton codes, plan lifecycle.

These are the substrate-neutral helpers every other subpackage builds on.
Nothing here knows about octrees, hydro, or machines.
"""

from repro.util.morton import (
    morton_decode3,
    morton_encode3,
    morton_neighbors,
    morton_parent,
    morton_children,
)

__all__ = [
    "morton_decode3",
    "morton_encode3",
    "morton_neighbors",
    "morton_parent",
    "morton_children",
]
