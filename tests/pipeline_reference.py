"""Differential oracle: the whole-text eight-step pipeline of lexicorp 0.1.

This is the implementation `lexicorp.pipeline` replaced with its
per-distinct-token memo, kept verbatim except that the step order is the
canonical one. Tests compare the two on arbitrary text; do not optimise
it.

Step order (canonical): punctuation removal, lowercasing, prefix
uniting, whole-token substitutions, hyphen removal, number removal,
stemming, stop-word removal. All functions are pure; text-level steps
preserve the whitespace structure they do not explicitly rewrite.
"""

from __future__ import annotations

import re
from functools import lru_cache

from lexicorp.config import CANONICAL_STEP_ORDER, PipelineConfig, default_config
from lexicorp.stemmer import stem

# Everything that is not a letter, digit or "-" becomes one space.
# \w would admit "_", so it is excluded explicitly.
_PUNCT_RE = re.compile(r"[^\w\-]|_")

# A maximal run of digits standing alone as a token.
_PURE_NUMBER_RE = re.compile(r"(?<!\S)\d+(?!\S)")


def strip_punctuation(text: str) -> str:
    """Replace each non-alphanumeric character other than "-" by a space."""
    return _PUNCT_RE.sub(" ", text)


def lowercase(text: str) -> str:
    return text.lower()


@lru_cache(maxsize=16)
def _prefix_re(prefixes: tuple[str, ...]) -> re.Pattern:
    alternation = "|".join(re.escape(p) for p in prefixes)
    # token must start with the prefix and the hyphen must be followed
    # by at least one word character
    return re.compile(rf"(?<![\w\-])({alternation})-(?=\w)")


def unite_prefixes(text: str, prefixes) -> str:
    """Delete the hyphen of every token that starts "<prefix>-".

    Only the token's first hyphen can be united; the pre-hyphen part
    must equal a prefix exactly ("anti-viral" joins, "well-known" does
    not). Text must already be lowercased.
    """
    return _prefix_re(tuple(prefixes)).sub(r"\1", text)


@lru_cache(maxsize=16)
def _subs_re(substitutions: tuple[tuple[str, str], ...]) -> re.Pattern:
    keys = sorted((k for k, _ in substitutions), key=len, reverse=True)
    alternation = "|".join(re.escape(k) for k in keys)
    return re.compile(rf"(?<![\w\-])({alternation})(?![\w\-])")


def apply_substitutions(text: str, substitutions) -> str:
    """Replace whole-token occurrences of the substitution keys."""
    substitutions = tuple(substitutions)
    mapping = dict(substitutions)
    return _subs_re(substitutions).sub(lambda m: mapping[m.group(1)], text)


def strip_hyphens(text: str) -> str:
    return text.replace("-", " ")


def strip_numbers(text: str) -> str:
    """Drop tokens that consist only of digits; keep mixed tokens ("co2")."""
    return _PURE_NUMBER_RE.sub("", text)


def tokenize(text: str) -> list[str]:
    return text.split()


def remove_stopwords(tokens, stop_set) -> list[str]:
    return [t for t in tokens if t not in stop_set]


@lru_cache(maxsize=16)
def _processed_stop_set(config: PipelineConfig) -> frozenset[str]:
    """The stop list pushed through the text steps and the stemmer.

    Entries that survive as a single token contribute their stemmed
    form; entries that the pipeline splits apart (contractions such as
    "i'm") can never match a single token and are dropped.
    """
    out = set()
    for word in config.stop_words:
        toks = _text_steps_and_tokens(word, config)
        if len(toks) == 1:
            out.add(stem(toks[0]))
    return frozenset(out)


def processed_stop_set(config: PipelineConfig | None = None) -> frozenset[str]:
    return _processed_stop_set(config or default_config())


_TEXT_STEP_FUNCS = {
    "strip_punctuation": lambda text, cfg: strip_punctuation(text),
    "lowercase": lambda text, cfg: lowercase(text),
    "unite_prefixes": lambda text, cfg: unite_prefixes(text, cfg.prefixes),
    "apply_substitutions": lambda text, cfg: apply_substitutions(text, cfg.substitutions),
    "strip_hyphens": lambda text, cfg: strip_hyphens(text),
    "strip_numbers": lambda text, cfg: strip_numbers(text),
}


def _text_steps_and_tokens(text: str, config: PipelineConfig) -> list[str]:
    for step in CANONICAL_STEP_ORDER:
        func = _TEXT_STEP_FUNCS.get(step)
        if func is not None:
            text = func(text, config)
    return tokenize(text)


def process_document(abstract: str, config: PipelineConfig | None = None) -> list[str]:
    """Run the full pipeline on one abstract and return its token list.

    The result is deterministic in (abstract, config); an empty result is
    legal and left for the caller to flag.
    """
    config = config or default_config()
    tokens = _text_steps_and_tokens(abstract, config)
    stop_set = _processed_stop_set(config)
    for step in CANONICAL_STEP_ORDER:
        if step == "stem":
            tokens = [stem(t) for t in tokens]
        elif step == "remove_stopwords":
            tokens = remove_stopwords(tokens, stop_set)
    return tokens
