"""Atomic file replacement: a reader sees the previous file or the new one."""

from __future__ import annotations

import os
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import BinaryIO, Iterator


@contextmanager
def atomic_write(path: Path) -> Iterator[BinaryIO]:
    """Yield a same-directory temp file open for binary writing.

    A clean exit ``os.replace``s it onto ``path`` (atomic on POSIX); any
    exception — from the body, the close or the replace — removes the temp
    file, leaves ``path`` as it was and propagates.
    """
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
