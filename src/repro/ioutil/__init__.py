"""Checkpoint I/O (the Silo/HDF5 analog).

Octo-Tiger serialises its octree through Silo's HDF driver; we serialise to
a single ``.npz`` container holding node addresses, topology flags and the
stacked field blocks, plus a JSON metadata side record.  Restoring yields a
bit-identical mesh (tested), which is what a checkpoint format owes you.
"""

from repro.ioutil.atomic import atomic_write
from repro.ioutil.checkpoint import CheckpointError, save_checkpoint, load_checkpoint
from repro.ioutil.series import CheckpointSeries

__all__ = [
    "atomic_write", "CheckpointError", "save_checkpoint", "load_checkpoint",
    "CheckpointSeries",
]
