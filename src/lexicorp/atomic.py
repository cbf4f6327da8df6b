"""Output files written whole or not at all."""

from __future__ import annotations

import contextlib
import os
from typing import IO, Iterator


@contextlib.contextmanager
def atomic_open(path) -> Iterator[IO[str]]:
    """Open `path` for writing UTF-8 text through `<path>.tmp`.

    The temporary file is flushed to disk and renamed over `path` when the
    block ends, so a write that fails part-way leaves any previous file
    intact and no temporary file behind.
    """
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as f:
            yield f
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise
