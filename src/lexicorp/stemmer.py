"""English (Porter2 / Snowball) suffix-stripping stemmer.

Implements the standard algorithm: special-case words, apostrophe and
initial-y normalisation, the R1/R2 regions, and steps 0 through 5. R1
starts after the first vowel-consonant pair of the word, which one
search of `[aeiouy][^aeiouy]` finds; R2 is the same search resumed at
the start of R1. The regions are then carried as suffix strings of the
evolving word and updated alongside every edit, matching the region
bookkeeping of the widely deployed ports of the algorithm.

Steps 2, 3 and 4 are suffix tables in the Snowball form. `_longest` is
`among`: after one `str.endswith` test against all of a table's
suffixes, which most words fail, it finds the longest that ends the
word, and that suffix's row alone decides the edit. Step 1b and the
apostrophe step find their suffix with it too.

Tokens containing digits and tokens with non-ASCII characters are
returned unchanged; chemical formulas and foreign words must survive
verbatim.

`stem` keeps no cache: the pipeline's token memo calls it once per
distinct token, and `stem_merge` once per headword.
"""

import re

_VOWELS = frozenset("aeiouy")
# A vowel followed by a non-vowel; a region starts just after it.
_REGION_START = re.compile("[aeiouy][^aeiouy]").search
# Marking: a y that follows an unmarked vowel acts as a consonant.
_Y_AFTER_VOWEL = re.compile("([aeiouy])y")
# stem() looks for digits only in ASCII tokens, where isdigit() is [0-9].
_DIGIT = re.compile("[0-9]").search
_DOUBLES = ("bb", "dd", "ff", "gg", "mm", "nn", "pp", "rr", "tt")
_LI_ENDINGS = frozenset("cdeghkmnrt")

# Words stemmed by lookup rather than by rule.
_SPECIAL = {
    "skis": "ski", "skies": "sky",
    "dying": "die", "lying": "lie", "tying": "tie",
    "idly": "idl", "gently": "gentl", "ugly": "ugli", "early": "earli",
    "only": "onli", "singly": "singl",
    "sky": "sky", "news": "news", "howe": "howe",
    "atlas": "atlas", "cosmos": "cosmos", "bias": "bias", "andes": "andes",
    "inning": "inning", "innings": "inning",
    "outing": "outing", "outings": "outing",
    "canning": "canning", "cannings": "canning",
    "herring": "herring", "herrings": "herring",
    "earring": "earring", "earrings": "earring",
    "proceed": "proceed", "proceeds": "proceed",
    "proceeded": "proceed", "proceeding": "proceed",
    "exceed": "exceed", "exceeds": "exceed",
    "exceeded": "exceed", "exceeding": "exceed",
    "succeed": "succeed", "succeeds": "succeed",
    "succeeded": "succeed", "succeeding": "succeed",
}

# Steps 2-4: suffix -> (region, before, cut, repl, r2_fallback). The
# rule applies if `region` (R1, R2 or both) ends with the suffix and the
# character before it is in `before` (any, when empty); it then replaces
# the last `cut` characters by `repl`. R2 becomes `r2_fallback` when the
# edit consumes more of the word than R2 covered.
_R1, _R2 = 1, 2


def _table(rules):
    """A step's rules, with their suffixes listed longest first."""
    return tuple(sorted(rules, key=len, reverse=True)), rules


_STEP2 = _table({
    "ization": (_R1, "", 7, "ize", ""),
    "ational": (_R1, "", 7, "ate", "e"),
    "fulness": (_R1, "", 4, "", ""),
    "ousness": (_R1, "", 7, "ous", ""),
    "iveness": (_R1, "", 7, "ive", "e"),
    "tional": (_R1, "", 2, "", ""),
    "biliti": (_R1, "", 6, "ble", ""),
    "lessli": (_R1, "", 2, "", ""),
    "entli": (_R1, "", 2, "", ""),
    "ation": (_R1, "", 5, "ate", "e"),
    "alism": (_R1, "", 5, "al", ""),
    "aliti": (_R1, "", 5, "al", ""),
    "ousli": (_R1, "", 5, "ous", ""),
    "iviti": (_R1, "", 5, "ive", "e"),
    "fulli": (_R1, "", 2, "", ""),
    "enci": (_R1, "", 1, "e", ""),
    "anci": (_R1, "", 1, "e", ""),
    "abli": (_R1, "", 1, "e", ""),
    "izer": (_R1, "", 4, "ize", ""),
    "ator": (_R1, "", 4, "ate", "e"),
    "alli": (_R1, "", 4, "al", ""),
    "bli": (_R1, "", 3, "ble", ""),
    "ogi": (_R1, "l", 1, "", ""),
    "li": (_R1, _LI_ENDINGS, 2, "", ""),
})

_STEP3 = _table({
    "ational": (_R1, "", 7, "ate", ""),
    "tional": (_R1, "", 2, "", ""),
    "alize": (_R1, "", 3, "", ""),
    "icate": (_R1, "", 5, "ic", ""),
    "iciti": (_R1, "", 5, "ic", ""),
    "ative": (_R1 | _R2, "", 5, "", ""),
    "ical": (_R1, "", 4, "ic", ""),
    "ness": (_R1, "", 4, "", ""),
    "ful": (_R1, "", 3, "", ""),
})

_STEP4 = _table({suffix: (_R2, "", len(suffix), "", "") for suffix in (
    "ement", "ance", "ence", "able", "ible", "ment", "ant", "ent", "ism",
    "ate", "iti", "ous", "ive", "ize", "al", "er", "ic")} | {"ion": (_R2, "st", 3, "", "")})


def _edit(word, r1, r2, n, repl="", r2_fallback=""):
    """Replace the last `n` characters of the word and of both regions by
    `repl`; a region shorter than `n` becomes "", and R2 `r2_fallback`."""
    return (word[:-n] + repl,
            r1[:-n] + repl if len(r1) >= n else "",
            r2[:-n] + repl if len(r2) >= n else r2_fallback)


def _longest(word, suffixes):
    """The first of `suffixes` (listed longest first) that ends `word`, or
    None. One `str.endswith` over all of them screens out most words."""
    if word.endswith(suffixes):
        for suffix in suffixes:
            if word.endswith(suffix):
                return suffix
    return None


def _regions(word):
    """R1/R2 as suffix strings of `word` (empty when the region is null)."""
    if word.startswith(("gener", "arsen")):
        start = 5
    elif word.startswith("commun"):
        start = 6
    else:
        m = _REGION_START(word)
        if m is None:
            return "", ""
        start = m.end()
    m = _REGION_START(word, start)
    return word[start:], word[m.end():] if m else ""


def _ends_short_syllable(word):
    if len(word) >= 3:
        return (
            word[-1] not in _VOWELS
            and word[-1] not in "wxY"
            and word[-2] in _VOWELS
            and word[-3] not in _VOWELS
        )
    return len(word) == 2 and word[0] in _VOWELS and word[1] not in _VOWELS


def _has_vowel(part):
    return not _VOWELS.isdisjoint(part)


def _step1a(word, r1, r2):
    if word.endswith("sses"):
        return _edit(word, r1, r2, 2)
    if word.endswith(("ied", "ies")):
        return _edit(word, r1, r2, 2 if len(word) > 4 else 1)
    if word.endswith(("us", "ss")):
        return word, r1, r2
    if word.endswith("s") and _has_vowel(word[:-2]):
        return _edit(word, r1, r2, 1)
    return word, r1, r2


def _step1b(word, r1, r2):
    suffix = _longest(word, ("eedly", "ingly", "edly", "eed", "ing", "ed"))
    if suffix is None:
        return word, r1, r2
    if suffix in ("eedly", "eed"):
        if r1.endswith(suffix):
            word, r1, r2 = _edit(word, r1, r2, len(suffix), "ee")
        return word, r1, r2
    if not _has_vowel(word[:-len(suffix)]):
        return word, r1, r2
    word, r1, r2 = _edit(word, r1, r2, len(suffix))
    if word.endswith(("at", "bl", "iz")):
        word += "e"
        r1 += "e"
        if len(word) > 5 or len(r1) >= 3:
            r2 += "e"
    elif word.endswith(_DOUBLES):
        word, r1, r2 = _edit(word, r1, r2, 1)
    elif r1 == "" and _ends_short_syllable(word):
        word += "e"
    return word, r1, r2


def _step1c(word, r1, r2):
    if len(word) > 2 and word[-1] in "yY" and word[-2] not in _VOWELS:
        return _edit(word, r1, r2, 1, "i")
    return word, r1, r2


def _step(word, r1, r2, table):
    """Steps 2-4: the rule of the longest suffix of `word` in `table`."""
    suffixes, rules = table
    suffix = _longest(word, suffixes)
    if suffix is None:
        return word, r1, r2
    region, before, n, repl, r2_fallback = rules[suffix]
    if (region & _R1 and not r1.endswith(suffix)
            or region & _R2 and not r2.endswith(suffix)
            or before and word[-len(suffix) - 1] not in before):
        return word, r1, r2
    return _edit(word, r1, r2, n, repl, r2_fallback)


def _step5(word, r1, r2):
    if r2.endswith("l") and word[-2] == "l":
        return word[:-1]
    if r2.endswith("e"):
        return word[:-1]
    if r1.endswith("e"):
        if len(word) >= 4 and (
            word[-2] in _VOWELS
            or word[-2] in "wxY"
            or word[-3] not in _VOWELS
            or word[-4] in _VOWELS
        ):
            return word[:-1]
    return word


def _porter2(word):
    if len(word) <= 2:
        return word
    if word in _SPECIAL:
        return _SPECIAL[word]

    if not word.isascii():
        word = word.replace("’", "'").replace("‘", "'").replace("‛", "'")
    if word.startswith("'"):
        word = word[1:]

    # Mark y's that act as consonants so they fail the vowel tests. The
    # left-to-right substitution sees each y after the previous one was
    # marked, as a scan over the characters would.
    if "y" in word:
        if word.startswith("y"):
            word = "Y" + word[1:]
        word = _Y_AFTER_VOWEL.sub(r"\1Y", word)

    r1, r2 = _regions(word)

    suffix = _longest(word, ("'s'", "'s", "'"))
    if suffix:
        word, r1, r2 = _edit(word, r1, r2, len(suffix))

    word, r1, r2 = _step1a(word, r1, r2)
    word, r1, r2 = _step1b(word, r1, r2)
    word, r1, r2 = _step1c(word, r1, r2)
    word, r1, r2 = _step(word, r1, r2, _STEP2)
    word, r1, r2 = _step(word, r1, r2, _STEP3)
    word, r1, r2 = _step(word, r1, r2, _STEP4)
    word = _step5(word, r1, r2)
    return word.replace("Y", "y")


def stem(token: str) -> str:
    """Return the English stem of `token`, which is lowercased first.

    Tokens containing a digit (chemical formulas, "21st") and tokens
    with non-ASCII characters are passed through unchanged, case and all.
    """
    if not token.isascii() or _DIGIT(token):
        return token
    return _porter2(token.lower())
