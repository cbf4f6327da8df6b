"""Workload input generators. Each is deterministic in its seed.

The generators draw only on the stemmer fixture `tests/data/stem_vocab.tsv`
and on the rule tables of the frozen reference copy in `seedref/`, so the
inputs stay the same whatever later changes make to the program.

Usage: python3 inputs.py english-abstracts|analyse SEED STEM_VOCAB OUT_DIR
"""

from __future__ import annotations

import hashlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
SEED_TABLES = HERE / "seedref" / "lexicorp" / "tables.py"

# sha256 of tests/data/stem_vocab.tsv when these generators were written;
# a different file would silently change every English-like input.
STEM_VOCAB_SHA256 = "1352a39499953302ad623b64b80cbaff652d90df664d17eedaa36336e98c3aa6"

# Seed of the vocabulary ranking. Fixed, so that every workload seed
# samples the same word-frequency law and does the same amount of work.
_RANKING_SEED = 20191213


def load_tables():
    spec = importlib.util.spec_from_file_location("perfbench_seed_tables", SEED_TABLES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def read_stem_vocab(path: Path) -> tuple[list[str], list[str]]:
    """(surface words, stems) of the stemmer fixture, after a digest check."""
    data = path.read_bytes()
    if hashlib.sha256(data).hexdigest() != STEM_VOCAB_SHA256:
        raise RuntimeError(f"{path} differs from the fixture the inputs were defined on")
    pairs = [line.split("\t") for line in data.decode("utf-8").splitlines() if line]
    return [p[0] for p in pairs], [p[1] for p in pairs]


def _zipf_weights(n: int, exponent: float = 1.0) -> np.ndarray:
    w = np.arange(1, n + 1, dtype=float) ** -exponent
    return w / w.sum()


def _pick(rng, pool, size: int) -> np.ndarray:
    pool = np.asarray(pool, dtype=object)
    return pool[rng.integers(0, len(pool), size=size)]


# ---------------------------------------------------------------- english

_CATEGORIES = (
    "Oncology", "Biochemistry & Molecular Biology", "Cell Biology", "Neurosciences",
    "Public, Environmental & Occupational Health", "Nursing", "Immunology",
    "Environmental Sciences", "Materials Science, Multidisciplinary", "Ecology",
    "Computer Science, Artificial Intelligence", "Economics", "Psychology, Clinical",
    "Chemistry, Physical", "Engineering, Electrical & Electronic", "Genetics & Heredity",
)
_AREAS = (
    "Oncology", "Biochemistry & Molecular Biology", "Cell Biology", "Neurosciences & Neurology",
    "Public, Environmental & Occupational Health", "Nursing", "Immunology",
    "Environmental Sciences & Ecology", "Materials Science", "Computer Science",
    "Business & Economics", "Psychology", "Chemistry", "Engineering", "Genetics & Heredity",
)
_DIGIT_TOKENS = ("co2", "21st", "h2o", "covid19", "p53", "il6", "3d", "cd4", "t2",
                 "mp3", "1st", "2nd", "ch4", "h1n1", "4g", "nadh2", "so2", "no2")
_NON_ASCII_TOKENS = ("naïve", "café", "Müller", "α", "β-catenin", "façade", "résumé",
                     "Ångström", "µm", "°C", "İstanbul", "coöperation", "ﬁnding", "Straße",
                     "São", "Zürich", "γ-ray", "déjà", "Δ", "ÉCOLE", "naïveté", "σ")
# The most frequent function words of English abstracts, in rank order;
# the other stop words follow in a fixed shuffled order.
_COMMON_STOPS = ("the", "of", "and", "in", "to", "a", "is", "for", "with", "that", "by",
                 "was", "as", "were", "from", "on", "are", "this", "be", "an", "we", "these",
                 "which", "at", "or", "has", "have", "between", "not", "been")
_COMPOUND_TAILS = ("term", "based", "scale", "level", "time", "dependent", "related",
                   "specific", "free", "like", "wide", "up", "being", "known")
# Share of each token kind among abstract tokens.
_TOKEN_KINDS = (
    ("stop", 0.38), ("content", 0.5465), ("prefixed", 0.02), ("substitution", 0.004),
    ("compound", 0.015), ("number", 0.02), ("digit", 0.008), ("non_ascii", 0.0065),
)
# Number of records of each kind, 10,000 in all.
_RECORD_KINDS = (
    ("normal", 9410), ("empty_abstract", 150), ("no_categories", 150), ("short", 150),
    ("long", 50), ("many_categories", 40), ("malformed", 50),
)
_HEADER = ("PT", "AU", "TI", "SO", "AB", "WC", "SC", "TC", "Z9", "PY")


def _tokens(rng, n: int, words, stops, tables) -> np.ndarray:
    """`n` abstract tokens with the kind mix of `_TOKEN_KINDS`, no punctuation yet."""
    ranking = np.random.default_rng(_RANKING_SEED)
    words = np.asarray(words, dtype=object)[ranking.permutation(len(words))]
    rest = [s for s in stops if s not in _COMMON_STOPS]
    stops = np.asarray(_COMMON_STOPS + tuple(rest[i] for i in ranking.permutation(len(rest))),
                       dtype=object)
    names = [k for k, _ in _TOKEN_KINDS]
    kind = rng.choice(len(names), size=n, p=[p for _, p in _TOKEN_KINDS])
    out = np.empty(n, dtype=object)

    def content(size):
        return words[rng.choice(len(words), size=size, p=_zipf_weights(len(words)))]

    for k, name in enumerate(names):
        mask = kind == k
        m = int(mask.sum())
        if name == "stop":
            out[mask] = stops[rng.choice(len(stops), size=m, p=_zipf_weights(len(stops), 0.8))]
        elif name == "content":
            out[mask] = content(m)
        elif name == "prefixed":
            out[mask] = _pick(rng, tables.PREFIXES, m) + "-" + content(m)
        elif name == "substitution":
            out[mask] = _pick(rng, [key for key, _ in tables.SUBSTITUTIONS], m)
        elif name == "compound":
            out[mask] = content(m) + "-" + _pick(rng, _COMPOUND_TAILS, m)
        elif name == "number":
            out[mask] = rng.integers(1, 2021, size=m).astype(str).astype(object)
        elif name == "digit":
            out[mask] = _pick(rng, _DIGIT_TOKENS, m)
        else:
            out[mask] = _pick(rng, _NON_ASCII_TOKENS, m)
    return out


def _decorate(rng, tok: np.ndarray, starts: np.ndarray, headings: np.ndarray,
              structured: np.ndarray) -> np.ndarray:
    """Sentence case, punctuation, mixed case and glued section headings."""
    n = len(tok)
    r = rng.random(n)
    sentence_end = r < 0.065
    sentence_start = np.roll(sentence_end, 1)
    sentence_start[starts] = True
    suffix = np.full(n, "", dtype=object)
    suffix[sentence_end] = "."
    suffix[(r >= 0.065) & (r < 0.125)] = ","
    suffix[(r >= 0.125) & (r < 0.130)] = ";"
    suffix[(r >= 0.130) & (r < 0.135)] = ":"
    suffix[(r >= 0.135) & (r < 0.137)] = "%"
    suffix[starts[1:] - 1] = "."

    case = rng.random(n)
    upper = case < 0.005
    tok[upper] = np.array([t.upper() for t in tok[upper]], dtype=object)
    title = sentence_start | ((case >= 0.005) & (case < 0.015))
    tok[title] = np.array([t[:1].upper() + t[1:] for t in tok[title]], dtype=object)

    wrap = rng.random(n)
    tok[wrap < 0.004] = "(" + tok[wrap < 0.004] + ")"
    tok[(wrap >= 0.004) & (wrap < 0.006)] = '"' + tok[(wrap >= 0.004) & (wrap < 0.006)] + '"'
    slash = (wrap >= 0.006) & (wrap < 0.008)
    tok[slash] = tok[slash] + "/" + np.roll(tok, 1)[slash]

    # Exports glue section headings onto the next word: "BackgroundThe".
    glue = structured & sentence_start & ((rng.random(n) < 0.35) | np.isin(np.arange(n), starts))
    tok[glue] = _pick(rng, headings, int(glue.sum())) + tok[glue]
    return tok + suffix


def english_abstracts(seed: int, vocab_path: Path) -> bytes:
    """A WoS-style tab-delimited export with CRLF line endings and no BOM.

    About 150 words per abstract, sampled with Zipf weights from the
    stemmer fixture's surface words and the built-in stop words, with
    glued headings, prefix and substitution tokens, numbers, digit-bearing
    and non-ASCII tokens, punctuation and mixed case. Some records are
    dropped by the field and length filters and a few lines are malformed.
    """
    tables = load_tables()
    surface, _ = read_stem_vocab(vocab_path)
    rng = np.random.default_rng(seed)

    kinds = np.repeat(np.arange(len(_RECORD_KINDS)), [c for _, c in _RECORD_KINDS])
    kinds = kinds[rng.permutation(len(kinds))]
    kind_names = np.array([k for k, _ in _RECORD_KINDS])[kinds]
    n = len(kinds)

    lengths = rng.integers(100, 201, size=n)
    lengths[kind_names == "short"] = rng.integers(5, 28, size=int((kind_names == "short").sum()))
    lengths[kind_names == "long"] = rng.integers(520, 640, size=int((kind_names == "long").sum()))
    lengths[kind_names == "empty_abstract"] = 0
    offsets = np.concatenate(([0], np.cumsum(lengths)))
    total = int(offsets[-1])

    headings = np.array([h for h in tables.expand_headings(tables.SECTION_HEADINGS)
                         if " " not in h], dtype=object)
    structured = np.repeat(rng.random(n) < 0.3, lengths)
    tok = _tokens(rng, total, surface, tables.STOP_WORDS, tables)
    starts = offsets[:-1][lengths > 0]
    tok = _decorate(rng, tok, starts, headings, structured)

    title_len = rng.integers(6, 14, size=n)
    title_words = _tokens(rng, int(title_len.sum()), surface, tables.STOP_WORDS, tables)
    title_off = np.concatenate(([0], np.cumsum(title_len)))
    surnames = np.array([w[:1].upper() + w[1:] for w in _pick(rng, surface, 400)], dtype=object)
    n_authors = rng.integers(1, 7, size=n)
    n_cats = rng.integers(1, 4, size=n)
    n_cats[kind_names == "many_categories"] = 7
    n_cats[kind_names == "no_categories"] = 0
    tc = rng.zipf(1.8, size=n).clip(max=5000) - 1
    z9 = tc + rng.integers(0, 4, size=n)
    year = rng.integers(2000, 2020, size=n)
    malformed = rng.integers(0, 3, size=n)
    initials = _pick(rng, list("ABCDEFGHJKLMNPRSTW"), int(n_authors.sum()))
    author_off = np.concatenate(([0], np.cumsum(n_authors)))
    author_names = _pick(rng, surnames, int(n_authors.sum())) + ", " + initials

    lines = ["\t".join(_HEADER)]
    for i in range(n):
        cats = list(dict.fromkeys(_pick(rng, _CATEGORIES, int(n_cats[i])))) \
            if n_cats[i] < 7 else list(_CATEGORIES[:7])
        areas = list(dict.fromkeys(_pick(rng, _AREAS, max(1, len(cats)))))
        title = " ".join(title_words[title_off[i]:title_off[i + 1]])
        cells = [
            "J",
            "; ".join(author_names[author_off[i]:author_off[i + 1]]),
            title[:1].upper() + title[1:],
            "JOURNAL OF SYNTHETIC STUDIES",
            " ".join(tok[offsets[i]:offsets[i + 1]]),
            "; ".join(cats),
            "; ".join(areas),
            str(tc[i]),
            str(z9[i]),
            str(year[i]),
        ]
        if kind_names[i] == "malformed":
            if malformed[i] == 0:
                del cells[-1]
            elif malformed[i] == 1:
                cells[7] = "n/a"
            else:
                cells[8] = "-3"
        lines.append("\t".join(cells))
    return ("\r\n".join(lines) + "\r\n").encode("utf-8")


# ---------------------------------------------------------------- analyse

# Sizes and why they were chosen: see design.json.
_DICT_ENTRIES = 300_000
_HEADWORDS = 3_000

_SYLLABLES = np.array(["ba", "ce", "di", "fo", "gu", "ha", "je", "ki", "lo", "mu", "na", "pe",
                       "qi", "ro", "su", "ta", "ve", "wi", "xo", "yu", "za", "bo", "ci",
                       "du", "fa", "ge"], dtype=object)
_ENDINGS = np.array(["", "", "s", "er", "al", "ic", "on", "at", "ent", "iv"], dtype=object)


def _pseudo_words(rng, n: int) -> np.ndarray:
    """`n` distinct letter-only words: four base-26 syllables plus an ending."""
    idx = rng.permutation(26 ** 4)[:n]
    out = np.full(n, "", dtype=object)
    for _ in range(4):
        out = out + _SYLLABLES[idx % 26]
        idx = idx // 26
    return out + _pick(rng, _ENDINGS, n)


def analyse_inputs(seed: int, vocab_path: Path) -> tuple[bytes, bytes]:
    """A native-format dictionary and a `headword,sfi,u,d` word list.

    Doc counts follow a discrete power law (tail exponent 1, capped at
    900,000 documents). About 90% of the fixture's stems sit among the
    24,000 most frequent entries, which all outlive the default prune
    threshold; the rest are absent, so part of the word list is missing
    from the dictionary.
    """
    surface, stems = read_stem_vocab(vocab_path)
    rng = np.random.default_rng(seed)
    stem_set = sorted(set(stems))
    present = np.array(stem_set, dtype=object)[rng.random(len(stem_set)) < 0.9]
    taken = set(stem_set)
    fill = _pseudo_words(rng, _DICT_ENTRIES - len(present) + 1000)
    fill = np.array([w for w in fill if w not in taken][: _DICT_ENTRIES - len(present)],
                    dtype=object)

    doc = np.floor((1 - rng.random(_DICT_ENTRIES)) ** -1.0).astype(np.int64).clip(1, 900_000)
    doc = -np.sort(-doc)
    corpus = doc + rng.poisson(doc * 0.8)
    words = np.empty(_DICT_ENTRIES, dtype=object)
    top = rng.choice(24_000, size=len(present), replace=False)
    words[top] = present
    rest = np.ones(_DICT_ENTRIES, dtype=bool)
    rest[top] = False
    words[rest] = fill
    order = np.lexsort((words.astype(str), -corpus, -doc))

    tag = hashlib.sha256(f"perfbench-analyse-{seed}".encode()).hexdigest()
    lines = [f"#lexicorp-dict v1 threshold=0 config={tag[:12]} corpus={tag[12:24]}"]
    lines += [f"{w}\t{d}\t{c}" for w, d, c in zip(words[order], doc[order], corpus[order])]
    dictionary = ("\n".join(lines) + "\n").encode("utf-8")

    heads = np.array(surface, dtype=object)[rng.choice(len(surface), _HEADWORDS, replace=False)]
    sfi = 30 + 50 * rng.random(_HEADWORDS)
    u = 100 * rng.random(_HEADWORDS)
    d = rng.random(_HEADWORDS)
    rows = ["headword,sfi,u,d"] + [f"{h},{a:.2f},{b:.2f},{c:.3f}"
                                   for h, a, b, c in zip(heads, sfi, u, d)]
    return dictionary, ("\n".join(rows) + "\n").encode("utf-8")


def main(argv: list[str]) -> int:
    workload, seed, vocab, out = argv
    out = Path(out)
    if workload == "english-abstracts":
        (out / "export.tsv").write_bytes(english_abstracts(int(seed), Path(vocab)))
    else:
        dictionary, word_list = analyse_inputs(int(seed), Path(vocab))
        (out / "dictionary.tsv").write_bytes(dictionary)
        (out / "wordlist.csv").write_bytes(word_list)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
