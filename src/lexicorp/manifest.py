"""Run manifests: an audit record written next to every command's output.

A manifest captures the command line, digests of all inputs, the config
hash, the seed (when randomness is involved) and timestamps, so that any
two runs can be checked for input equality. Manifests are metadata; the
data outputs themselves stay byte-identical across reruns.
"""

from __future__ import annotations

import datetime as _dt
import hashlib
import json

from . import __version__
from .atomic import atomic_open


def file_digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


class RunManifest:
    def __init__(self, command: list[str], inputs=(), config_hash: str = "",
                 seed: int | None = None):
        self.command = list(command)
        self.started = _dt.datetime.now(_dt.timezone.utc).isoformat()
        # Hashed now, before the command writes an output that may replace one.
        self.inputs = {str(p): file_digest(p) for p in inputs}
        self.config_hash = config_hash
        self.seed = seed
        self.finished: str | None = None

    def write(self, path) -> None:
        self.finished = _dt.datetime.now(_dt.timezone.utc).isoformat()
        payload = {
            "command": self.command,
            "inputs": self.inputs,
            "config_hash": self.config_hash,
            "seed": self.seed,
            "tool_version": __version__,
            "started": self.started,
            "finished": self.finished,
        }
        with atomic_open(path) as f:
            f.write(json.dumps(payload, indent=2) + "\n")
