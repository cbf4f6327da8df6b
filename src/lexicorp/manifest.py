"""Run manifests: an audit record written next to every command's output.

A manifest captures the command line, digests of all inputs, the config
hash, the seed (when randomness is involved), timestamps and metrics, so
that any two runs can be checked for input equality. Manifests are
metadata; the data outputs themselves stay byte-identical across reruns.
"""

from __future__ import annotations

import contextlib
import datetime as _dt
import hashlib
import json
import time

from . import __version__
from .atomic import output_set, write_lines

try:
    from resource import RUSAGE_SELF, getrusage
except ImportError:  # not on Windows, where no peak is recorded
    getrusage = None


def file_digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


@contextlib.contextmanager
def run(path, command, inputs=(), config_hash: str = "", seed: int | None = None):
    """Write a command's outputs as one `output_set`, its manifest at `path`
    last. The inputs are hashed on entry, before an output may replace one;
    the block may fill in the yielded manifest, a plain dict, and its "metrics"."""
    start = time.perf_counter()
    started = _dt.datetime.now(_dt.timezone.utc).isoformat()  # before the hashing
    manifest = {
        "command": list(command),
        "inputs": {str(p): file_digest(p) for p in inputs},
        "config_hash": config_hash,
        "seed": seed,
        "tool_version": __version__,
        "started": started,
        "finished": None,
        "metrics": {},
    }
    with output_set():
        yield manifest
        manifest["finished"] = _dt.datetime.now(_dt.timezone.utc).isoformat()
        # The process's peak (KiB on Linux), which under `pipeline` spans the earlier commands.
        peak = round(getrusage(RUSAGE_SELF).ru_maxrss / 1024, 1) if getrusage else None
        manifest["metrics"].update(wall_s=round(time.perf_counter() - start, 3),
                                   process_peak_rss_mib=peak)
        write_lines(path, [json.dumps(manifest, indent=2)])
