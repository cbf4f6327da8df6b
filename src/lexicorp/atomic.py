"""Output files written whole or not at all, alone or as a set."""

from __future__ import annotations

import contextlib
import contextvars
import os
from pathlib import Path
from typing import IO, Iterator

_staged = contextvars.ContextVar("staged", default=None)  # the open set's (made, steps)


@contextlib.contextmanager
def output_set() -> Iterator[None]:
    """Stage every `atomic_open` and `remove` in the block. When the block
    ends normally, the renames and removals run in the order they were
    staged. When it raises, the set deletes what it made, last first: each
    temporary file, then the directories it needed, deepest first, unless
    another file now lives in one. A set opened inside another joins it."""
    if _staged.get():
        yield
        return
    made, steps = staged = [], []
    token = _staged.set(staged)
    try:
        yield
        for step in steps:
            step()
    except BaseException:
        for p in reversed(made):
            with contextlib.suppress(OSError):
                p.rmdir() if p.is_dir() else p.unlink()
        raise
    finally:
        _staged.reset(token)


@contextlib.contextmanager
def atomic_open(path) -> Iterator[IO[str]]:
    """Open `path` for writing UTF-8 text through `<path>.tmp`, making the
    directories it lacks. The temporary file is flushed to disk when the
    block ends and renamed over `path` when the output set ends; outside a
    set it is a set of one file. A write that fails part-way leaves any
    previous file intact."""
    path = Path(path)
    tmp = Path(f"{path}.tmp")
    with output_set():
        made, steps = _staged.get()
        made.extend([*reversed([d for d in path.parents if not d.exists()]), tmp])
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(tmp, "w", encoding="utf-8") as f:
            yield f
            f.flush()
            os.fsync(f.fileno())
        steps.append(lambda: os.replace(tmp, path))


def remove(path) -> None:
    """Delete `path`, if it exists, when the output set ends normally."""
    with output_set():
        _staged.get()[1].append(lambda: Path(path).unlink(missing_ok=True))


def write_lines(path, lines) -> None:
    """Write each line plus a newline to `path` through `atomic_open`."""
    with atomic_open(path) as f:
        for line in lines:
            f.write(line + "\n")
