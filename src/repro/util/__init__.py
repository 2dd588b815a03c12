"""Shared utilities: Morton codes, constants, plan lifecycle.

These are the substrate-neutral helpers every other subpackage builds on.
Nothing here knows about octrees, hydro, or machines.
"""

from repro.util.constants import (
    G_NEWTON,
    M_SUN,
    R_SUN,
    SECONDS_PER_DAY,
    CodeUnits,
)
from repro.util.morton import (
    morton_decode3,
    morton_encode3,
    morton_neighbors,
    morton_parent,
    morton_children,
    morton_level_offset,
)

__all__ = [
    "G_NEWTON",
    "M_SUN",
    "R_SUN",
    "SECONDS_PER_DAY",
    "CodeUnits",
    "morton_decode3",
    "morton_encode3",
    "morton_neighbors",
    "morton_parent",
    "morton_children",
    "morton_level_offset",
]
