"""Pipeline configuration: rule tables, file formats and content hashing.

A PipelineConfig is immutable after construction and safe to share across
workers. Tables can be loaded from plain-text files (one entry per line;
substitutions as "key<TAB>value") and dumped back for auditing.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from pathlib import Path

from . import tables

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

CONFIG_DIR_ENV = "LEXICORP_CONFIG_DIR"

class InputError(ValueError):
    """An input file that is readable but unusable (CLI exit code 2)."""


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
    prune_threshold: int = 10

    def __post_init__(self):
        if not self.prefixes:
            raise ValueError("prefix table must not be empty")
        # Prefixes and substitution keys apply within one token.
        for p in self.prefixes:
            if p != p.lower() or any(map(str.isspace, p)):
                raise ValueError(f"prefix not lowercase or with whitespace: {p!r}")
        for key, _ in self.substitutions:
            if "-" not in key or any(map(str.isspace, key)):
                raise ValueError(f"substitution key without '-' or with whitespace: {key!r}")
        for w in self.stop_words:
            if w != w.lower():
                raise ValueError(f"stop word not lowercase: {w!r}")
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
        h.update(f"\x00threshold\x00{self.prune_threshold}".encode())
        h.update(b"\x00steps\x00" + "\n".join(CANONICAL_STEP_ORDER).encode())
        return h.hexdigest()[:12]


_default: PipelineConfig | None = None


def default_config() -> PipelineConfig:
    """The built-in configuration (shared immutable instance)."""
    global _default
    if _default is None:
        _default = PipelineConfig()
    return _default


def _read_lines(path: Path) -> list[str]:
    out = []
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            out.append(line)
    return out


def load_config(directory: str | os.PathLike | None = None, **overrides) -> PipelineConfig:
    """Build a PipelineConfig from table files in `directory`.

    Missing files fall back to the built-in tables; `directory=None`
    consults the LEXICORP_CONFIG_DIR environment variable and finally the
    defaults. Keyword overrides (min_len, max_len, prune_threshold) are
    applied on top. The order of the pipeline steps is fixed
    (CANONICAL_STEP_ORDER); steps 3-8 run once per distinct token.
    """
    if directory is None:
        directory = os.environ.get(CONFIG_DIR_ENV)
    kwargs = {}
    if directory is not None:
        d = Path(directory)
        if not d.is_dir():
            raise FileNotFoundError(f"config directory not found: {d}")
        f = d / CONFIG_FILES["prefixes"]
        if f.exists():
            kwargs["prefixes"] = tuple(_read_lines(f))
        f = d / CONFIG_FILES["substitutions"]
        if f.exists():
            pairs = []
            for i, line in enumerate(_read_lines(f), 1):
                if "\t" not in line:
                    raise ValueError(f"{f}:{i}: expected 'key<TAB>value'")
                k, _, v = line.partition("\t")
                pairs.append((k.strip(), v.strip()))
            kwargs["substitutions"] = tuple(pairs)
        f = d / CONFIG_FILES["stop_words"]
        if f.exists():
            kwargs["stop_words"] = tuple(_read_lines(f))
        f = d / CONFIG_FILES["headings"]
        if f.exists():
            kwargs["headings"] = tuple(_read_lines(f))
    kwargs.update(overrides)
    return PipelineConfig(**kwargs)


def dump_config(config: PipelineConfig, directory: str | os.PathLike) -> list[Path]:
    """Write the four rule tables as plain-text files; returns the paths."""
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    written = []
    p = d / CONFIG_FILES["prefixes"]
    p.write_text("\n".join(config.prefixes) + "\n", encoding="utf-8")
    written.append(p)
    p = d / CONFIG_FILES["substitutions"]
    p.write_text("\n".join(f"{k}\t{v}" for k, v in config.substitutions) + "\n", encoding="utf-8")
    written.append(p)
    p = d / CONFIG_FILES["stop_words"]
    p.write_text("\n".join(config.stop_words) + "\n", encoding="utf-8")
    written.append(p)
    p = d / CONFIG_FILES["headings"]
    p.write_text("\n".join(config.headings) + "\n", encoding="utf-8")
    written.append(p)
    return written
