"""Atomic file writes: a reader finds the old file or the new one, never a part."""

from __future__ import annotations

import contextlib
import os
from pathlib import Path


@contextlib.contextmanager
def atomic_open(path, mode: str = "w", **kwargs):
    """Open a new temp file beside ``path``; on a clean exit it replaces ``path``.

    The temp file sits in the same directory, so `os.replace` renames it over
    ``path`` in one step. If the body raises, the temp file is removed and
    ``path`` keeps its old content, or stays absent. ``mode`` is "w" or "wb";
    ``kwargs`` go to `open` (encoding, newline).
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(4).hex()}.tmp")
    try:
        with open(tmp, mode.replace("w", "x"), **kwargs) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
