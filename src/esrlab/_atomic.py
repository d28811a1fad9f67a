"""Atomic text-file writes shared by every writer of a whole file: catalogs,
run logs, analysis tables and GP config echoes."""

from __future__ import annotations

import os
from contextlib import contextmanager


@contextmanager
def atomic_write(path: str):
    """Yield a text file open on ``path + ".tmp"``; on a clean exit it
    replaces ``path``, and on any exception it is removed, so ``path`` is
    either the complete new file or untouched."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
