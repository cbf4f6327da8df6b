"""The eight-step transformation from a raw abstract to stemmed tokens.

The step order is fixed: punctuation removal, lowercasing, prefix
uniting, whole-token substitutions, hyphen removal, number removal,
stemming, stop-word removal. Steps 1-2 run on the whole text, which is
then split on whitespace; no later step looks across whitespace, so
steps 3-8 run once per distinct token and config, memoised. Steps 3-6
are one plain pass over the token: no regular expression. The pieces
that a hyphenated token splits into are entries of the same memo, which
is the only cache of stems: the stemmer keeps none.
"""

from __future__ import annotations

import re
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


def strip_punctuation(text: str) -> str:
    """Replace each non-alphanumeric character other than "-" by a space."""
    # surrogatepass round-trips lone surrogates, which are punctuation.
    raw = text.encode("utf-8", "surrogatepass")
    out = raw.translate(_BYTE_PUNCT).decode("utf-8", "surrogatepass")
    if len(raw) != len(text):  # some character took more than one byte
        rare = raw.translate(None, _ASCII_BYTES).decode("utf-8", "surrogatepass")
        for char in set(rare):
            if _PUNCT_RE.match(char):
                out = out.replace(char, " ")
    return out


class _TokenMemo(dict):
    """Token -> its tokens after steps 3-8; misses fill it. The keys are
    lowercased tokens and the pieces of those with a "-" (upper case
    from a substitution value included; the stemmer lowercases it)."""

    def __init__(self, config: PipelineConfig):
        super().__init__()
        self._prefixes = frozenset(config.prefixes)
        self._substitute = dict(config.substitutions).get
        # The stop list through steps 1-7; an entry that splits apart
        # ("i'm") can never match a single token and is dropped.
        stop = set()
        for word in config.stop_words:
            toks = [t for w in strip_punctuation(word).lower().split()
                    for t in self._text_steps(w)]
            if len(toks) == 1:
                stop.add(stem(toks[0]))
        self.stop_set = frozenset(stop)

    def _text_steps(self, token: str) -> list[str]:
        """Steps 3-6 on one lowercased token: in each run, unite
        "<prefix>-" and substitute a run equal to a key; then split at
        the hyphens and drop the pure numbers. Runs end at U+0307 (from
        "İ".lower()), the only character besides letters, digits and "-"
        such a token can hold, and which no prefix or key may hold."""
        runs = []
        for run in token.split("\u0307"):
            head, _, tail = run.partition("-")
            if head in self._prefixes and tail[:1].isalnum():
                run = head + tail
            runs.append(self._substitute(run, run))
        text = "\u0307".join(runs)
        return [p for p in text.replace("-", " ").split() if not p.isdecimal()]

    def __missing__(self, token: str) -> tuple[str, ...]:
        # Without a "-", steps 3-6 can only drop a pure number: uniting
        # needs "<prefix>-" and PipelineConfig rejects substitution keys
        # without "-".
        if "-" in token:
            # A piece holds no "-" and no whitespace, so its own entry is
            # filled by the branches below: the recursion is one level deep.
            out = tuple(chain.from_iterable(map(self.__getitem__, self._text_steps(token))))
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


def process_document(abstract: str, config: PipelineConfig | None = None) -> list[str]:
    """Run the full pipeline on one abstract and return its token list.

    The result is deterministic in (abstract, config); an empty result is
    legal and left for the caller to flag.
    """
    memo = _token_memo(config or default_config())
    tokens = strip_punctuation(abstract).lower().split()
    return list(chain.from_iterable(map(memo.__getitem__, tokens)))
