import io
import sys
from pathlib import Path

import pytest

from lexicorp import dictionary as dct

TESTS_DIR = Path(__file__).parent
DATA_DIR = TESTS_DIR / "data"

sys.path.insert(0, str(TESTS_DIR))


def dictionary_of(rows, provenance=dct.Provenance()):
    """The Dictionary of (word, doc, corpus) rows in any order, made the way
    `load` makes one: the rows are written as dictionary file text, encoded,
    and read back in text mode with `deserialize`, which checks and sorts
    them. Text mode reads a "\\r" in a word as a line break, as `load` does."""
    header = f"#lexicorp-dict v1 threshold={provenance.threshold} config={provenance.config_hash}"
    if provenance.corpus_id:
        header += f" corpus={provenance.corpus_id}"
    body = "".join(f"{w}\t{doc}\t{corpus}\n" for w, doc, corpus in rows)
    text = header + "\n" + body
    return dct.deserialize(io.TextIOWrapper(io.BytesIO(text.encode("utf-8")), encoding="utf-8"))


def rows_of(d):
    """The (word, doc, corpus) rows of `d` in canonical order."""
    return list(zip(d.words(), d.doc.tolist(), d.corpus.tolist()))


@pytest.fixture(scope="session")
def stem_vocab_pairs():
    """Frozen (word, expected stem) conformance pairs."""
    pairs = []
    with open(DATA_DIR / "stem_vocab.tsv", encoding="utf-8") as f:
        for line in f:
            word, expected = line.rstrip("\n").split("\t")
            pairs.append((word, expected))
    return pairs


WOS_HEADER = "AU\tTI\tAB\tWC\tSC\tZ9\tTC"


def make_export_line(authors="Smith, J", title="A title", abstract="word " * 40,
                     categories="Physics", areas="Science", total=3, core=2):
    return "\t".join([authors, title, abstract.strip(), categories, areas,
                      str(total), str(core)])


@pytest.fixture
def export_file(tmp_path):
    """A 5-row export: 3 survive cleaning, 1 has an empty abstract,
    1 is shorter than the length floor. One survivor contains a glued
    heading word."""
    rows = [
        WOS_HEADER,
        make_export_line(abstract="alpha " * 35),
        make_export_line(abstract=""),  # dropped: empty abstract
        make_export_line(abstract="beta " * 200),
        make_export_line(abstract="too short"),  # dropped: 2 words
        make_export_line(abstract="ConclusionHigher tau " + "gamma " * 40),
    ]
    path = tmp_path / "export.tsv"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return path
