"""Pipeline configuration: rule tables, file formats and content hashing.

A PipelineConfig is immutable after construction and safe to share across
workers. Tables can be loaded from plain-text files (one entry per line;
substitutions as "key<TAB>value") and dumped back for auditing.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
from dataclasses import dataclass
from functools import cache
from pathlib import Path
from typing import IO, Iterator

from . import tables
from .atomic import write_lines

# The fixed order of the pipeline steps, hashed into config_hash().
CANONICAL_STEP_ORDER = (
    "strip_punctuation",
    "lowercase",
    "unite_prefixes",
    "apply_substitutions",
    "strip_hyphens",
    "strip_numbers",
    "stem",
    "remove_stopwords",
)

# The default of `prune --threshold`, hashed into config_hash().
PRUNE_THRESHOLD = 10

class InputError(ValueError):
    """An input file that is readable but unusable (CLI exit code 2)."""


@contextlib.contextmanager
def open_input(path, kind: str) -> Iterator[IO[str]]:
    """Open the input text file `path`, a `kind` such as "export", as
    UTF-8, dropping a leading UTF-8 BOM. A UTF-16 file, one whose first two
    bytes are a byte-order mark or hold a NUL, and a byte that is not UTF-8
    read in the block raise InputError naming the file."""
    with open(path, encoding="utf-8-sig") as f:
        head = f.buffer.peek(2)[:2]
        if head in (b"\xff\xfe", b"\xfe\xff") or b"\0" in head:
            raise InputError(f"{path}: UTF-16 {kind}; save it as UTF-8")
        try:
            yield f
        except UnicodeDecodeError as e:  # its position counts from the decoder's chunk
            raise InputError(f"{path}: not UTF-8 ({e.reason}); save it as UTF-8") from None


CONFIG_FILES = {
    "prefixes": "prefixes.txt",
    "substitutions": "substitutions.tsv",
    "stop_words": "stopwords.txt",
    "headings": "headings.txt",
}


@dataclass(frozen=True)
class PipelineConfig:
    """Rule tables and knobs driving corpus cleaning and the text pipeline."""

    prefixes: tuple[str, ...] = tables.PREFIXES
    substitutions: tuple[tuple[str, str], ...] = tables.SUBSTITUTIONS
    stop_words: tuple[str, ...] = tables.STOP_WORDS
    headings: tuple[str, ...] = tables.SECTION_HEADINGS
    min_len: int = 30
    max_len: int = 500

    def __post_init__(self):
        if not self.prefixes:
            raise ValueError("prefix table must not be empty")
        # Prefixes and substitution keys apply within one run of letters,
        # digits and "-" of a token, so they may hold nothing else. Every
        # key holds a "-", so the token memo passes hyphen-free tokens
        # straight to the stemmer.
        for p in self.prefixes:
            if p != p.lower() or not p.isalnum():
                raise ValueError(f"prefix not lowercase or not all letters and digits: {p!r}")
        for key, _ in self.substitutions:
            if "-" not in key or not all(c.isalnum() or c == "-" for c in key):
                raise ValueError(f"substitution key without '-' or with a character "
                                 f"other than letters, digits and '-': {key!r}")
        for w in self.stop_words:
            if w != w.lower():
                raise ValueError(f"stop word not lowercase: {w!r}")
        # An empty form would split the text before every capital letter.
        for h in self.headings:
            if "" in tables.expand_headings([h]):
                raise ValueError(f"heading entry expands to an empty form: {h!r}")
        if self.min_len > self.max_len:
            raise ValueError("min_len must not exceed max_len")

    @property
    def heading_forms(self) -> tuple[str, ...]:
        """Expanded singular/plural surface forms of the heading entries."""
        return tuple(tables.expand_headings(self.headings))

    def config_hash(self) -> str:
        """Stable 12-hex-digit digest of the full table contents."""
        h = hashlib.sha256()
        h.update(b"prefixes\x00" + "\n".join(sorted(self.prefixes)).encode())
        h.update(b"\x00substitutions\x00")
        h.update("\n".join(f"{k}\t{v}" for k, v in self.substitutions).encode())
        h.update(b"\x00stopwords\x00" + "\n".join(sorted(self.stop_words)).encode())
        h.update(b"\x00headings\x00" + "\n".join(sorted(self.headings)).encode())
        h.update(f"\x00bounds\x00{self.min_len}\x00{self.max_len}".encode())
        h.update(f"\x00threshold\x00{PRUNE_THRESHOLD}".encode())
        h.update(b"\x00steps\x00" + "\n".join(CANONICAL_STEP_ORDER).encode())
        return h.hexdigest()[:12]


@cache
def default_config() -> PipelineConfig:
    """The built-in configuration (shared immutable instance)."""
    return PipelineConfig()


def _read_lines(path: Path) -> list[str]:
    """The stripped lines of the table file at `path`, read by `open_input`,
    less blank lines and "#" comments."""
    with open_input(path, "rule table") as f:
        lines = [line.strip() for line in f.read().splitlines()]
    return [line for line in lines if line and not line.startswith("#")]


def _read_table(path: Path, name: str) -> tuple:
    lines = _read_lines(path)
    if name != "substitutions":
        return tuple(lines)
    pairs = []
    for i, line in enumerate(lines, 1):
        if "\t" not in line:
            raise InputError(f"{path}:{i}: expected 'key<TAB>value'")
        k, _, v = line.partition("\t")
        pairs.append((k.strip(), v.strip()))
    return tuple(pairs)


def load_config(directory: str | os.PathLike | None = None, **overrides) -> PipelineConfig:
    """Build a PipelineConfig from table files in `directory`.

    Missing files fall back to the built-in tables; `directory=None`
    gives the defaults. Keyword overrides (min_len, max_len) are applied
    on top.
    The order of the pipeline steps is fixed (CANONICAL_STEP_ORDER);
    steps 3-8 run once per distinct token. A table file is read by
    `open_input`; one that fails its check raises InputError naming the file.
    """
    kwargs = {}
    if directory is not None:
        d = Path(directory)
        if not d.is_dir():
            raise FileNotFoundError(f"config directory not found: {d}")
        for name, filename in CONFIG_FILES.items():
            f = d / filename
            if not f.exists():
                continue
            kwargs[name] = _read_table(f, name)
            try:  # the checks of this one table, the others at their defaults
                PipelineConfig(**{name: kwargs[name]})
            except ValueError as e:
                raise InputError(f"{f}: {e}") from None
    kwargs.update(overrides)
    return PipelineConfig(**kwargs)


def dump_config(config: PipelineConfig, directory: str | os.PathLike) -> list[Path]:
    """Write the four rule tables as plain-text files; returns the paths."""
    paths = [Path(directory) / filename for filename in CONFIG_FILES.values()]
    for name, path in zip(CONFIG_FILES, paths):  # a substitution pair as "key<TAB>value"
        write_lines(path, (e if isinstance(e, str) else "\t".join(e) for e in getattr(config, name)))
    return paths
