"""Built-in rule tables used by the cleaning and text pipelines.

These are the compiled-in defaults; every table can be overridden at run
time from plain-text config files (see `lexicorp.config`).
"""

# Section headings observed in structured (mostly medical) abstracts.
# Entries written as "Xxx(s)" stand for both the singular and plural
# surface form; the final multi-word entry is matched as a phrase.
SECTION_HEADINGS = (
    "Abstract",
    "Aim(s)",
    "Approach",
    "Background",
    "Conclusion(s)",
    "Design",
    "Discussion",
    "Finding(s)",
    "Hypothesis",
    "Introduction",
    "Limitation(s)",
    "Location",
    "Material(s)",
    "Measure(s)",
    "Measurement(s)",
    "Method(s)",
    "Methodology",
    "Objective(s)",
    "Patient(s)",
    "Population",
    "Procedure(s)",
    "Process",
    "Purpose(s)",
    "Rationale(s)",
    "Result(s)",
    "Setting(s)",
    "Subject(s)",
    "Theoretical",
    "Implication(s) for health and nursing policy",
)

# Prefixes that are merged with the word following a "-" (55 entries).
PREFIXES = (
    "anti", "ante", "auto", "co", "de", "deca", "di",
    "dia", "dis", "e", "ex", "extra", "fore", "hemi",
    "hexa", "hepta", "homo", "hyper", "in", "inter", "im",
    "ir", "kilo", "micro", "mid", "milli", "mis", "mono",
    "multi", "non", "octo", "over", "para", "penta", "per",
    "poly", "post", "pre", "pro", "quadri", "re", "retro",
    "self", "semi", "sub", "super", "tele", "tetra", "therm",
    "trans", "tri", "ultra", "un", "under", "uni",
)

# Whole-token substitutions applied before hyphen removal (15 entries,
# kept in table order).
SUBSTITUTIONS = (
    ("well-known", "wellknown"),
    ("z-test", "ztest"),
    ("z-testing", "ztest"),
    ("z-tests", "ztest"),
    ("z-score", "zscore"),
    ("z-scored", "zscored"),
    ("z-scores", "zscore"),
    ("p-value", "pvalue"),
    ("p-values", "pvalue"),
    ("p-valued", "pvalue"),
    ("p-valuesof", "pvalue"),
    ("chi-square", "chisquare"),
    ("chi-squares", "chisquare"),
    ("chi-squared", "chisquared"),
    ("chi2-test", "chisquared"),
)

# English stop word list (174 entries) as shipped with the R "tm" package.
STOP_WORDS = (
    "i", "me", "my", "myself", "we", "our", "ours", "ourselves",
    "yours", "yourself", "yourselves", "he", "him", "his", "himself", "she",
    "herself", "it", "its", "itself", "they", "them", "their", "theirs",
    "which", "who", "whom", "this", "that", "these", "those", "am",
    "was", "were", "be", "been", "being", "have", "has", "had",
    "does", "did", "doing", "would", "should", "could", "ought", "i'm",
    "she's", "it's", "we're", "they're", "i've", "you've", "we've", "they've",
    "he'd", "she'd", "we'd", "they'd", "i'll", "you'll", "he'll", "she'll",
    "isn't", "aren't", "wasn't", "weren't", "hasn't", "haven't", "hadn't", "doesn't",
    "won't", "wouldn't", "shan't", "shouldn't", "can't", "cannot", "couldn't", "mustn't",
    "who's", "what's", "here's", "there's", "when's", "where's", "why's", "how's",
    "the", "and", "but", "if", "or", "because", "as", "until",
    "at", "by", "for", "with", "about", "against", "between", "into",
    "before", "after", "above", "below", "to", "from", "up", "down",
    "on", "off", "over", "under", "again", "further", "then", "once",
    "when", "where", "why", "how", "all", "any", "both", "each",
    "most", "other", "some", "such", "no", "nor", "not", "only",
    "you", "your", "her", "hers", "themselves", "what", "is", "are",
    "having", "do", "you're", "he's", "i'd", "you'd", "we'll", "they'll",
    "don't", "didn't", "let's", "that's", "a", "an", "while", "of",
    "through", "during", "in", "out", "here", "there", "few", "more",
    "so", "than", "too", "very", "own", "same",
)


def expand_headings(entries) -> list[str]:
    """Expand "Xxx(s)" heading entries to their singular and plural forms.

    An entry like "Aim(s)" yields "Aim" and "Aims"; "Implication(s) for
    health and nursing policy" yields the phrase with both variants of
    its marked word. Entries without "(s)" pass through unchanged.
    """
    forms = []
    for entry in entries:
        if "(s)" in entry:
            head, _, tail = entry.partition("(s)")
            variants = (head + tail, head + "s" + tail)
        else:
            variants = (entry,)
        for variant in variants:
            if variant not in forms:
                forms.append(variant)
    return forms
