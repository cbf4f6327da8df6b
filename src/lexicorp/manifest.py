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
from importlib import metadata

from .atomic import atomic_open


def tool_version() -> str:
    try:
        return metadata.version("lexicorp")
    except metadata.PackageNotFoundError:
        return "unknown"


def file_digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


class RunManifest:
    def __init__(self, command: list[str], config_hash: str = "", seed: int | None = None):
        self.command = list(command)
        self.config_hash = config_hash
        self.seed = seed
        self.inputs: dict[str, str] = {}
        self.started = _dt.datetime.now(_dt.timezone.utc).isoformat()
        self.finished: str | None = None

    def add_input(self, path) -> None:
        self.inputs[str(path)] = file_digest(path)

    def write(self, path) -> None:
        self.finished = _dt.datetime.now(_dt.timezone.utc).isoformat()
        payload = {
            "command": self.command,
            "inputs": self.inputs,
            "config_hash": self.config_hash,
            "seed": self.seed,
            "tool_version": tool_version(),
            "started": self.started,
            "finished": self.finished,
        }
        with atomic_open(path) as f:
            f.write(json.dumps(payload, indent=2) + "\n")
