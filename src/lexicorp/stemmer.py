"""English (Porter2 / Snowball) suffix-stripping stemmer.

Implements the standard algorithm: special-case words, apostrophe and
initial-y normalisation, the R1/R2 regions, and steps 0 through 5. R1
starts after the first vowel-consonant pair of the word, which one
search of `[aeiouy][^aeiouy]` finds; R2 is the same search resumed at
the start of R1. The regions are then carried as suffix strings of the
evolving word and updated alongside every edit, matching the region
bookkeeping of the widely deployed ports of the algorithm.

Most words match no rule of a step, so each rule loop runs only after
one `str.endswith` test against all of its suffixes has passed.

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

# Step 2 rules: suffix -> (action, argument, R2 fallback). "cut" removes
# the last `arg` characters; "sub" rewrites the whole suffix as `arg`;
# "sub1" rewrites only the last character. The fallback is what R2
# becomes when the edit consumes more of the word than R2 covered.
_STEP2 = (
    ("ization", ("sub", "ize", "")),
    ("ational", ("sub", "ate", "e")),
    ("fulness", ("cut", 4, None)),
    ("ousness", ("sub", "ous", "")),
    ("iveness", ("sub", "ive", "e")),
    ("tional", ("cut", 2, None)),
    ("biliti", ("sub", "ble", "")),
    ("lessli", ("cut", 2, None)),
    ("entli", ("cut", 2, None)),
    ("ation", ("sub", "ate", "e")),
    ("alism", ("sub", "al", "")),
    ("aliti", ("sub", "al", "")),
    ("ousli", ("sub", "ous", "")),
    ("iviti", ("sub", "ive", "e")),
    ("fulli", ("cut", 2, None)),
    ("enci", ("sub1", "e", "")),
    ("anci", ("sub1", "e", "")),
    ("abli", ("sub1", "e", "")),
    ("izer", ("sub", "ize", "")),
    ("ator", ("sub", "ate", "e")),
    ("alli", ("sub", "al", "")),
    ("bli", ("sub", "ble", "")),
    ("ogi", None),  # guarded: needs a preceding "l"
    ("li", None),   # guarded: needs a valid li-ending
)

_STEP3 = (
    ("ational", ("sub", "ate", "")),
    ("tional", ("cut", 2, None)),
    ("alize", ("cut", 3, None)),
    ("icate", ("sub", "ic", "")),
    ("iciti", ("sub", "ic", "")),
    ("ative", None),  # guarded: deletion requires R2
    ("ical", ("sub", "ic", "")),
    ("ness", ("cut", 4, None)),
    ("ful", ("cut", 3, None)),
)

_STEP4_SUFFIXES = (
    "ement", "ance", "ence", "able", "ible", "ment", "ant", "ent",
    "ism", "ate", "iti", "ous", "ive", "ize", "ion", "al", "er", "ic",
)

_STEP1B_SUFFIXES = ("eedly", "ingly", "edly", "eed", "ing", "ed")
_STEP2_SUFFIXES = tuple(suffix for suffix, _ in _STEP2)
_STEP3_SUFFIXES = tuple(suffix for suffix, _ in _STEP3)


def _cut(word, r1, r2, k):
    return word[:-k], r1[:-k], r2[:-k]


def _sub(word, r1, r2, suffix, repl, r2_fallback=""):
    n = len(suffix)
    word = word[:-n] + repl
    r1 = r1[:-n] + repl if len(r1) >= n else ""
    r2 = r2[:-n] + repl if len(r2) >= n else r2_fallback
    return word, r1, r2


def _apply(word, r1, r2, suffix, action):
    kind, arg, fallback = action
    if kind == "cut":
        return _cut(word, r1, r2, arg)
    if kind == "sub1":
        return _sub(word, r1, r2, suffix[-1:], arg)
    return _sub(word, r1, r2, suffix, arg, fallback)


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
        return _cut(word, r1, r2, 2)
    if word.endswith(("ied", "ies")):
        return _cut(word, r1, r2, 2 if len(word) > 4 else 1)
    if word.endswith(("us", "ss")):
        return word, r1, r2
    if word.endswith("s") and _has_vowel(word[:-2]):
        return _cut(word, r1, r2, 1)
    return word, r1, r2


def _step1b(word, r1, r2):
    if not word.endswith(_STEP1B_SUFFIXES):
        return word, r1, r2
    for suffix in _STEP1B_SUFFIXES:
        if not word.endswith(suffix):
            continue
        if suffix in ("eedly", "eed"):
            if r1.endswith(suffix):
                word, r1, r2 = _sub(word, r1, r2, suffix, "ee")
            return word, r1, r2
        if not _has_vowel(word[:-len(suffix)]):
            return word, r1, r2
        word, r1, r2 = _cut(word, r1, r2, len(suffix))
        if word.endswith(("at", "bl", "iz")):
            word += "e"
            r1 += "e"
            if len(word) > 5 or len(r1) >= 3:
                r2 += "e"
        elif word.endswith(_DOUBLES):
            word, r1, r2 = _cut(word, r1, r2, 1)
        elif r1 == "" and _ends_short_syllable(word):
            word += "e"
        return word, r1, r2
    return word, r1, r2


def _step1c(word, r1, r2):
    if len(word) > 2 and word[-1] in "yY" and word[-2] not in _VOWELS:
        return _sub(word, r1, r2, word[-1], "i")
    return word, r1, r2


def _step2(word, r1, r2):
    if not word.endswith(_STEP2_SUFFIXES):
        return word, r1, r2
    for suffix, action in _STEP2:
        if word.endswith(suffix):
            if r1.endswith(suffix):
                if suffix == "ogi":
                    if word[-4] == "l":
                        return _cut(word, r1, r2, 1)
                elif suffix == "li":
                    if word[-3] in _LI_ENDINGS:
                        return _cut(word, r1, r2, 2)
                else:
                    return _apply(word, r1, r2, suffix, action)
            return word, r1, r2
    return word, r1, r2


def _step3(word, r1, r2):
    if not word.endswith(_STEP3_SUFFIXES):
        return word, r1, r2
    for suffix, action in _STEP3:
        if word.endswith(suffix):
            if r1.endswith(suffix):
                if suffix == "ative":
                    if r2.endswith(suffix):
                        return _cut(word, r1, r2, 5)
                else:
                    return _apply(word, r1, r2, suffix, action)
            return word, r1, r2
    return word, r1, r2


def _step4(word, r1, r2):
    if not word.endswith(_STEP4_SUFFIXES):
        return word, r1, r2
    for suffix in _STEP4_SUFFIXES:
        if word.endswith(suffix):
            if r2.endswith(suffix):
                if suffix == "ion":
                    if word[-4] in "st":
                        return _cut(word, r1, r2, 3)
                else:
                    return _cut(word, r1, r2, len(suffix))
            return word, r1, r2
    return word, r1, r2


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
    apostrophe = "'" in word
    if apostrophe and word.startswith("'"):
        word = word[1:]

    # Mark y's that act as consonants so they fail the vowel tests. The
    # left-to-right substitution sees each y after the previous one was
    # marked, as a scan over the characters would.
    if "y" in word:
        if word.startswith("y"):
            word = "Y" + word[1:]
        word = _Y_AFTER_VOWEL.sub(r"\1Y", word)

    r1, r2 = _regions(word)

    if apostrophe:
        for suffix in ("'s'", "'s", "'"):
            if word.endswith(suffix):
                word, r1, r2 = _cut(word, r1, r2, len(suffix))
                break

    word, r1, r2 = _step1a(word, r1, r2)
    word, r1, r2 = _step1b(word, r1, r2)
    word, r1, r2 = _step1c(word, r1, r2)
    word, r1, r2 = _step2(word, r1, r2)
    word, r1, r2 = _step3(word, r1, r2)
    word, r1, r2 = _step4(word, r1, r2)
    word = _step5(word, r1, r2)
    return word.replace("Y", "y")


def stem(token: str) -> str:
    """Return the English stem of a lowercase token.

    Tokens containing a digit (chemical formulas, "21st") and tokens
    with non-ASCII characters are passed through unchanged.
    """
    if not token.isascii() or _DIGIT(token):
        return token
    return _porter2(token.lower())
