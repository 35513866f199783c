"""Output files that are replaced whole or not at all."""

from __future__ import annotations

import os
from contextlib import contextmanager, suppress
from typing import IO, Iterator


@contextmanager
def atomic_open(path: str, mode: str = "w") -> Iterator[IO]:
    """Open a temporary file beside ``path`` (ASCII in text mode) and move it
    onto ``path`` with ``os.replace`` when the block ends. If the block
    raises, the temporary file is removed and ``path`` keeps its old bytes,
    so a failed or interrupted write never leaves a partial file there."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "ascii") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.remove(tmp)
        raise
