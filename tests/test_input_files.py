"""Every kind of input file through the command that reads it, against
its clean UTF-8 twin: in each encoding a real file may come in, a case
gives the twin's output bytes or exits 2 with one line naming the file
and makes no `--out` directory. The files are made from well-formed rows
of the english-abstracts export that `perfbench/inputs.py` generates.
"""

import importlib.util

import pytest

from conftest import DATA_DIR, TESTS_DIR
from lexicorp.cli import main

ROWS = 2_000
# Every field tag of a Web of Science tab-delimited export, in its order.
WOS_TAGS = ("PT AU BA BE GP AF BF CA TI SO SE BS LA DT CT CY CL SP HO DE ID AB C1 C3 RP EM RI OI "
            "FU FP FX CR NR TC Z9 U1 U2 PU PI PA SN EI BN J9 JI PD PY VL IS PN SU SI MA BP EP AR "
            "DI DL D2 EA PG WC WE SC GA PM OA HC HP DA UT").split()


def _latin1(text):
    """`text` as UTF-8, but for its last "é", written as the Latin-1 byte E9."""
    data = text.encode()
    at = data.rindex("é".encode())
    assert at > 1 << 17  # past the first chunk a decoder reads
    return data[:at] + b"\xe9" + data[at + 2:]


ENCODINGS = {
    "utf-8-bom": lambda text: b"\xef\xbb\xbf" + text.encode(),
    "utf-16le-bom": lambda text: ("\ufeff" + text).encode("utf-16-le"),
    "utf-16be-bom": lambda text: ("\ufeff" + text).encode("utf-16-be"),
    "utf-16le": lambda text: text.encode("utf-16-le"),
    "latin-1-byte": _latin1,
}
# The message of each refused encoding, after "input error: <path>: ".
UTF16 = "UTF-16 {kind}; save it as UTF-8"
REFUSALS = {"utf-16le-bom": UTF16, "utf-16be-bom": UTF16, "utf-16le": UTF16,
            "latin-1-byte": "not UTF-8 (invalid continuation byte); save it as UTF-8"}
# Each kind: its file name and the command that reads it, from the file's
# path, the dictionary's (which `compare` reads too) and the --out directory.
KINDS = {
    "export": ("export.tsv", lambda src, d, out: ["ingest", src, "--out", out]),
    "corpus file": ("corpus.tsv", lambda src, d, out: ["build", src, "--out", f"{out}/d.tsv"]),
    "dictionary": ("dictionary.tsv", lambda src, d, out: ["prune", src, "--out", f"{out}/d.tsv"]),
    "word list": ("words.csv", lambda src, d, out: ["compare", d, src, "--out", out]),
    "rule table": ("stopwords.txt",
                   lambda src, d, out: ["dump-config", "--config", src.parent, "--out", out]),
}


def _english_abstracts():
    """The english-abstracts export of seed 7, as text with CRLF lines."""
    spec = importlib.util.spec_from_file_location("perfbench_inputs",
                                                  TESTS_DIR.parent / "perfbench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return inputs.english_abstracts(7, DATA_DIR / "stem_vocab.tsv").decode()


@pytest.fixture(scope="module")
def export_rows():
    """The header cells and the cells of the first ROWS well-formed records."""
    header, *lines = (line.split("\t") for line in _english_abstracts().split("\r\n"))
    rows = [cells for cells in lines
            if len(cells) == len(header) and cells[7].isdigit() and cells[8].isdigit()]
    return header, rows[:ROWS]


def _export(header, rows, end=""):
    """An export of CRLF lines, each line's cells followed by `end`."""
    return "".join("\t".join(cells) + end + "\r\n" for cells in [header, *rows])


def _run(args):
    return main([str(a) for a in args])


def _outputs(out):
    """The data files under `out`, without the manifests and the header line
    of `build`'s dictionary, which holds the digest of the corpus file."""
    return {p.name: p.read_bytes().split(b"\n", 1)[1] if p.name == "d.tsv" else p.read_bytes()
            for p in sorted(out.rglob("*")) if not p.name.endswith("manifest.json")}


@pytest.fixture(scope="module")
def twins(export_rows, tmp_path_factory):
    """Each kind's UTF-8 text, and the path of the dictionary made from it."""
    root = tmp_path_factory.mktemp("twins")
    export = _export(*export_rows)
    (root / "export.tsv").write_text(export, encoding="utf-8", newline="")
    assert _run(["ingest", root / "export.tsv", "--out", root]) == 0
    assert _run(["build", root / "corpus.tsv", "--out", root / "dictionary.tsv"]) == 0
    corpus = (root / "corpus.tsv").read_text(encoding="utf-8")
    dictionary = (root / "dictionary.tsv").read_text(encoding="utf-8")
    header, *rows = dictionary.splitlines()
    words = [row.split("\t")[0] for row in rows]
    # Frequent words come first, the non-ASCII ones among them, and the
    # Latin-1 byte must come late: so the dictionary's rows are written in
    # reverse, which `load` sorts back, and the lists hold the words
    # reversed, the stop list twice over to pass 128 KiB.
    texts = {
        "export": export,
        "corpus file": corpus,
        "dictionary": "\n".join([header, *reversed(rows)]) + "\n",
        "word list": "headword,sfi\n" + "".join(
            f"{w},{20 + i / 1000:.3f}\n" for i, w in enumerate(reversed(words))),
        "rule table": "".join(f"{w}\n" for w in 2 * words[::-1] if w == w.lower()),
    }
    return texts, root / "dictionary.tsv"


@pytest.fixture(scope="module")
def twin_outputs(twins, tmp_path_factory):
    """Each kind's command's outputs on its UTF-8 twin."""
    texts, dictionary = twins
    outputs = {}
    for kind, (name, command) in KINDS.items():
        src = tmp_path_factory.mktemp("twin") / name
        src.write_text(texts[kind], encoding="utf-8", newline="")
        out = src.parent / "out"
        assert _run(command(src, dictionary, out)) == 0
        outputs[kind] = _outputs(out)
    return outputs


@pytest.mark.parametrize("encoding", ENCODINGS)
@pytest.mark.parametrize("kind", KINDS)
def test_input_file_gives_its_twins_outputs_or_one_line_naming_it(
        kind, encoding, twins, twin_outputs, tmp_path, capsys):
    texts, dictionary = twins
    name, command = KINDS[kind]
    src = tmp_path / "in" / name
    src.parent.mkdir()
    src.write_bytes(ENCODINGS[encoding](texts[kind]))
    out = tmp_path / "out"
    capsys.readouterr()
    rc = _run(command(src, dictionary, out))
    if encoding not in REFUSALS:
        assert rc == 0
        assert _outputs(out) == twin_outputs[kind]
        return
    err = capsys.readouterr().err
    assert (rc, err) == (2, f"input error: {src}: {REFUSALS[encoding].format(kind=kind)}\n")
    assert "position" not in err
    assert not out.exists()


@pytest.mark.parametrize("shape", ["trailing tab on every line", "every WoS tag"])
def test_export_shape_gives_its_twins_outputs(shape, export_rows, tmp_path):
    header, rows = export_rows
    if shape == "trailing tab on every line":
        text = _export(header, rows, end="\t")
    else:  # the record's cells under their tags, every other tag's cell empty
        text = _export(WOS_TAGS, [[dict(zip(header, cells)).get(tag, "") for tag in WOS_TAGS]
                                  for cells in rows])
    (tmp_path / "twin.tsv").write_text(_export(header, rows), encoding="utf-8", newline="")
    (tmp_path / "shape.tsv").write_text(text, encoding="utf-8", newline="")
    for name in ("twin", "shape"):
        assert _run(["ingest", tmp_path / f"{name}.tsv", "--out", tmp_path / name]) == 0
    assert _outputs(tmp_path / "shape") == _outputs(tmp_path / "twin")
