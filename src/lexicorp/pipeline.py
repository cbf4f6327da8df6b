"""The eight-step transformation from a raw abstract to stemmed tokens.

The step order is fixed: punctuation removal, lowercasing, prefix
uniting, whole-token substitutions, hyphen removal, number removal,
stemming, stop-word removal. Steps 1-2 run on the whole text, which is
then split on whitespace; no later step looks across whitespace, so
steps 3-8 run once per distinct token and config, memoised.
"""

from __future__ import annotations

import re
from functools import lru_cache, partial
from itertools import chain

from .config import PipelineConfig, default_config
from .stemmer import stem

# Everything that is not a letter, digit or "-" becomes one space.
# \w would admit "_", so it is excluded explicitly.
_PUNCT_RE = re.compile(r"[^\w\-]|_")

# _PUNCT_RE as a table over UTF-8 bytes: ASCII punctuation becomes a
# space and every byte >= 0x80 stays, so non-ASCII characters pass
# through whole. Deleting the ASCII bytes leaves only those characters.
_BYTE_PUNCT = bytes(0x20 if c < 0x80 and _PUNCT_RE.match(chr(c)) else c for c in range(256))
_ASCII_BYTES = bytes(range(0x80))

# A maximal run of digits standing alone as a token.
_PURE_NUMBER_RE = re.compile(r"(?<!\S)\d+(?!\S)")


@lru_cache(maxsize=None)  # at most one entry per code point
def _is_punct(char: str) -> bool:
    return _PUNCT_RE.match(char) is not None


def strip_punctuation(text: str) -> str:
    """Replace each non-alphanumeric character other than "-" by a space."""
    # surrogatepass round-trips lone surrogates, which are punctuation.
    raw = text.encode("utf-8", "surrogatepass")
    out = raw.translate(_BYTE_PUNCT).decode("utf-8", "surrogatepass")
    if len(raw) != len(text):  # some character took more than one byte
        rare = raw.translate(None, _ASCII_BYTES).decode("utf-8", "surrogatepass")
        for char in set(rare):
            if _is_punct(char):
                out = out.replace(char, " ")
    return out


def lowercase(text: str) -> str:
    return text.lower()


@lru_cache(maxsize=16)
def _uniter(prefixes: tuple[str, ...]):
    alternation = "|".join(re.escape(p) for p in prefixes)
    # token must start with the prefix and the hyphen must be followed
    # by at least one word character
    return partial(re.compile(rf"(?<![\w\-])({alternation})-(?=\w)").sub, r"\1")


def unite_prefixes(text: str, prefixes) -> str:
    """Delete the hyphen of every token that starts "<prefix>-".

    Only the token's first hyphen can be united; the pre-hyphen part
    must equal a prefix exactly ("anti-viral" joins, "well-known" does
    not). Text must already be lowercased.
    """
    return _uniter(tuple(prefixes))(text)


@lru_cache(maxsize=16)
def _substituter(substitutions: tuple[tuple[str, str], ...]):
    mapping = dict(substitutions)
    keys = sorted((k for k, _ in substitutions), key=len, reverse=True)
    alternation = "|".join(re.escape(k) for k in keys)
    pattern = re.compile(rf"(?<![\w\-])({alternation})(?![\w\-])")
    return partial(pattern.sub, lambda m: mapping[m.group(1)])


def apply_substitutions(text: str, substitutions) -> str:
    """Replace whole-token occurrences of the substitution keys."""
    return _substituter(tuple(substitutions))(text)


def strip_hyphens(text: str) -> str:
    return text.replace("-", " ")


def strip_numbers(text: str) -> str:
    """Drop tokens that consist only of digits; keep mixed tokens ("co2")."""
    return _PURE_NUMBER_RE.sub("", text)


def tokenize(text: str) -> list[str]:
    return text.split()


def remove_stopwords(tokens, stop_set) -> list[str]:
    return [t for t in tokens if t not in stop_set]


class _TokenMemo(dict):
    """Lowercased token -> its tokens after steps 3-8; misses fill it."""

    def __init__(self, config: PipelineConfig):
        super().__init__()
        self._unite = _uniter(tuple(config.prefixes))
        self._substitute = _substituter(tuple(config.substitutions))
        # The stop list through steps 1-7; an entry that splits apart
        # ("i'm") can never match a single token and is dropped.
        stop = set()
        for word in config.stop_words:
            toks = [t for w in tokenize(lowercase(strip_punctuation(word)))
                    for t in self._text_steps(w)]
            if len(toks) == 1:
                stop.add(stem(toks[0]))
        self.stop_set = frozenset(stop)

    def _text_steps(self, token: str) -> list[str]:
        text = self._substitute(self._unite(token))
        return tokenize(strip_numbers(strip_hyphens(text)))

    def __missing__(self, token: str) -> tuple[str, ...]:
        # Without a "-", steps 3-6 can only drop a pure number: uniting
        # needs "<prefix>-", PipelineConfig rejects substitution keys
        # without "-", and the \d of strip_numbers is exactly what
        # isdecimal() accepts (Unicode category Nd).
        if "-" in token:
            out = tuple(remove_stopwords(map(stem, self._text_steps(token)), self.stop_set))
        elif token.isdecimal():
            out = ()
        else:
            word = stem(token)
            out = () if word in self.stop_set else (word,)
        self[token] = out
        return out


def _token_memo(config: PipelineConfig) -> _TokenMemo:
    # Kept on the config, as a cache keyed by it would hash every table.
    memo = vars(config).get("_token_memo")
    if memo is None:
        memo = _TokenMemo(config)
        object.__setattr__(config, "_token_memo", memo)
    return memo


def processed_stop_set(config: PipelineConfig | None = None) -> frozenset[str]:
    return _token_memo(config or default_config()).stop_set


def process_document(abstract: str, config: PipelineConfig | None = None) -> list[str]:
    """Run the full pipeline on one abstract and return its token list.

    The result is deterministic in (abstract, config); an empty result is
    legal and left for the caller to flag.
    """
    memo = _token_memo(config or default_config())
    tokens = tokenize(lowercase(strip_punctuation(abstract)))
    return list(chain.from_iterable(map(memo.__getitem__, tokens)))
