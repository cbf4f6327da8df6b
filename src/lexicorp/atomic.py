"""Output files written whole or not at all."""

from __future__ import annotations

import contextlib
import os
from pathlib import Path
from typing import IO, Iterator


@contextlib.contextmanager
def atomic_open(path) -> Iterator[IO[str]]:
    """Open `path` for writing UTF-8 text through `<path>.tmp`, making the
    directories it lacks. The temporary file is flushed to disk and renamed
    over `path` when the block ends. A write that fails part-way leaves any
    previous file intact and removes the temporary file, then the
    directories it made, deepest first, unless another file now lives in one.
    """
    path = Path(path)
    made = [d for d in path.parents if not d.exists()]  # deepest first
    tmp = f"{path}.tmp"
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(tmp, "w", encoding="utf-8") as f:
            yield f
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        for d in made:
            with contextlib.suppress(OSError):
                d.rmdir()
        raise
