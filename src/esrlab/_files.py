"""File I/O shared by every reader and writer of the package's files:
``read_lines``, ``InputError`` for a rejected input, and ``atomic_write``."""

from __future__ import annotations

import io
import os
from contextlib import contextmanager


class InputError(ValueError):
    """An input the program rejects.  The message starts with where the
    input came from: ``path:line:``, ``path:`` or the flag that gave it."""


def read_lines(path: str):
    """``(line number, line)`` pairs of a UTF-8 text file, from 1, with the
    newlines a text-mode file gives.  A file that cannot be opened or read
    raises an InputError naming it and the reason (``path: No such file or
    directory``), and one that is not UTF-8 an InputError naming the line."""
    try:
        with open(path, "rb") as f:
            data = f.read()
    except OSError as err:
        raise InputError(f"{path}: {err.strerror}") from None
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as err:
        line = data.count(b"\n", 0, err.start) + 1
        raise InputError(f"{path}:{line}: not UTF-8 text "
                         f"({err.reason})") from None
    return enumerate(io.StringIO(text, newline=None), 1)


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
