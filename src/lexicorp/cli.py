"""Command-line driver: ingest, build, prune, stats, compare, gen,
dump-config, and the chained pipeline command.

Exit codes: 0 success (warnings allowed), 1 usage error, 2 input error,
3 computation error.
"""

from __future__ import annotations

import json
import logging
import math
import sys
from pathlib import Path

import click

from . import dictionary, ingest, lexstats, listcompare
from .config import InputError, PipelineConfig, default_config, dump_config, load_config
from .dictionary import DictionaryFormatError
from .manifest import RunManifest, file_digest
from .pipeline import process_document

logger = logging.getLogger("lexicorp")


def _load_cfg(config_dir, min_len=None, max_len=None, threshold=None) -> PipelineConfig:
    overrides = {}
    if min_len is not None:
        overrides["min_len"] = min_len
    if max_len is not None:
        overrides["max_len"] = max_len
    if threshold is not None:
        overrides["prune_threshold"] = threshold
    if config_dir is None and not overrides:
        return load_config()
    return load_config(config_dir, **overrides)


def _fmt_pct(fraction: float) -> str:
    return f"{fraction * 100:.1f}%"


@click.group()
def cli():
    """Corpus cleaning, dictionary building and word-list comparison."""
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s: %(message)s")


@cli.command("ingest")
@click.argument("input_path", type=click.Path(dir_okay=False))
@click.option("--config", "config_dir", type=click.Path(file_okay=False), default=None,
              help="Directory with table files overriding the built-in rules.")
@click.option("--min-len", type=int, default=None, help="Minimum abstract length (default 30).")
@click.option("--max-len", type=int, default=None, help="Maximum abstract length (default 500).")
@click.option("--out", "out_dir", type=click.Path(file_okay=False), required=True)
def cmd_ingest(input_path, config_dir, min_len, max_len, out_dir):
    """Clean a tab-delimited export into a canonical corpus file."""
    cfg = _load_cfg(config_dir, min_len, max_len)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = RunManifest(sys.argv[1:] or ["ingest"], cfg.config_hash())
    manifest.add_input(input_path)

    with open(input_path, encoding="utf-8") as f:
        docs, report, errors = ingest.run_ingest(f, cfg)

    with open(out / "corpus.tsv", "w", encoding="utf-8") as f:
        ingest.write_corpus(docs, f)
    counts, mean = ingest.length_histogram(docs)
    with open(out / "ingest_report.tsv", "w", encoding="utf-8") as f:
        ingest.write_report(report, f)
        if mean is not None:
            f.write(f"mean_length\t{mean:.3f}\n")
    with open(out / "lengths.csv", "w", encoding="utf-8") as f:
        f.write("length,documents\n")
        for length in sorted(counts):
            f.write(f"{length},{counts[length]}\n")
    if errors:
        with open(out / "ingest_errors.log", "w", encoding="utf-8") as f:
            for e in errors:
                f.write(f"line {e.line_no}\t{e.reason}\n")
        click.echo(f"warning: {len(errors)} malformed row(s) skipped, "
                   f"see {out / 'ingest_errors.log'}", err=True)
    manifest.write(out / "manifest.json")
    click.echo(f"{report.n_after_length_filter} documents written to {out / 'corpus.tsv'}")


def _read_corpus_docs(corpus_path):
    with open(corpus_path, encoding="utf-8") as f:
        records, errors = ingest.parse_records(f)
    if errors:
        raise DictionaryFormatError(errors[0].line_no,
                                    f"malformed corpus file: {errors[0].reason}")
    return records


@cli.command("build")
@click.argument("corpus_path", type=click.Path(dir_okay=False))
@click.option("--config", "config_dir", type=click.Path(file_okay=False), default=None)
@click.option("--out", "out_path", type=click.Path(dir_okay=False), required=True)
def cmd_build(corpus_path, config_dir, out_path):
    """Build the full word dictionary from a canonical corpus file."""
    cfg = _load_cfg(config_dir)
    manifest = RunManifest(sys.argv[1:] or ["build"], cfg.config_hash())
    manifest.add_input(corpus_path)
    corpus_id = file_digest(corpus_path)[:12]

    records = _read_corpus_docs(corpus_path)
    empty_docs = []

    def token_lists():
        for i, r in enumerate(records, 1):
            tokens = process_document(r.abstract, cfg)
            if tokens:
                yield f"doc{i}", tokens
            else:
                empty_docs.append((i, r.title))
        # Free the abstracts before build turns its counts into entries.
        records.clear()

    d = dictionary.build(token_lists(), corpus_id=corpus_id, config_hash=cfg.config_hash())
    out = Path(out_path)
    out.parent.mkdir(parents=True, exist_ok=True)
    dictionary.save(d, out)
    if empty_docs:
        with open(str(out) + ".skipped.log", "w", encoding="utf-8") as f:
            for i, title in empty_docs:
                f.write(f"record {i}\tno tokens after processing\t{title}\n")
        click.echo(f"warning: {len(empty_docs)} document(s) produced no tokens", err=True)
    manifest.write(str(out) + ".manifest.json")
    click.echo(f"{len(d)} words written to {out}")


@cli.command("prune")
@click.argument("dict_path", type=click.Path(dir_okay=False))
@click.option("--threshold", type=int, default=None,
              help="Keep words in more than this many documents (default 10).")
@click.option("--out", "out_path", type=click.Path(dir_okay=False), required=True)
def cmd_prune(dict_path, threshold, out_path):
    """Drop words appearing in too few documents."""
    if threshold is None:
        threshold = default_config().prune_threshold
    if threshold < 0:
        raise click.UsageError("--threshold must be non-negative")
    manifest = RunManifest(sys.argv[1:] or ["prune"])
    manifest.add_input(dict_path)
    d = dictionary.load(dict_path)
    pruned = dictionary.prune(d, threshold)
    out = Path(out_path)
    out.parent.mkdir(parents=True, exist_ok=True)
    dictionary.save(pruned, out)
    manifest.write(str(out) + ".manifest.json")
    click.echo(f"{len(d)} -> {len(pruned)} words (threshold {threshold})")


def _parse_range(text):
    if text is None:
        return None
    try:
        lo, _, hi = text.partition(":")
        return float(lo), float(hi)
    except ValueError:
        raise click.UsageError("--range must look like 'xmin:xmax'") from None


@cli.command("stats")
@click.argument("dict_path", type=click.Path(dir_okay=False))
@click.option("--range", "fit_range", default=None,
              help="Restrict the tail fit to xmin:xmax.")
@click.option("--out", "out_dir", type=click.Path(file_okay=False), required=True)
def cmd_stats(dict_path, fit_range, out_dir):
    """Histogram, cumulative and tail curves plus the power-law fit."""
    rng = _parse_range(fit_range)
    manifest = RunManifest(sys.argv[1:] or ["stats"])
    manifest.add_input(dict_path)
    d = dictionary.load(dict_path)
    if not len(d):
        raise InputError("empty dictionary")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    hist = lexstats.histogram(d)
    cum = lexstats.cumulative(hist)
    tail = lexstats.tail(hist)

    with open(out / "histogram.csv", "w", encoding="utf-8") as f:
        f.write("documents,words\n")
        for n in sorted(hist.counts):
            f.write(f"{n},{hist.counts[n]}\n")
    with open(out / "cumulative.csv", "w", encoding="utf-8") as f:
        f.write("documents,words_at_or_below\n")
        for n, g in cum:
            f.write(f"{n},{g}\n")

    fit = None
    fit_error = None
    try:
        fit = lexstats.fit_pareto(tail, rng)
    except ValueError as e:
        fit_error = str(e)
        click.echo(f"warning: tail fit skipped ({e})", err=True)

    with open(out / "tail.csv", "w", encoding="utf-8") as f:
        f.write("documents,words_above,fitted\n")
        for x, n_x in tail.points:
            fitted = f"{fit.beta / x ** fit.alpha:.6f}" if fit else ""
            f.write(f"{x},{n_x},{fitted}\n")
    with open(out / "tail_loglog.csv", "w", encoding="utf-8") as f:
        f.write("documents,words_above,log_documents,log_words_above\n")
        for x, n_x in tail.points:
            if n_x > 0:
                f.write(f"{x},{n_x},{math.log(x):.9f},{math.log(n_x):.9f}\n")

    with open(out / "pareto_fit.txt", "w", encoding="utf-8") as f:
        f.write(f"requested_range\t{fit_range if fit_range else 'full positive tail'}\n")
        if fit:
            f.write(f"alpha\t{fit.alpha:.6f}\n")
            f.write(f"beta\t{fit.beta:.6f}\n")
            f.write(f"mse\t{fit.mse:.6f}\n")
            f.write(f"fit_range\t{fit.fit_range[0]:g}:{fit.fit_range[1]:g}\n")
            f.write(f"x_m\t{fit.x_m:g}\n")
            f.write(f"n_points\t{fit.n_points}\n")
            slope = lexstats.loglog_slope(tail, rng)
            f.write(f"loglog_slope\t{slope:.6f}\n")
        else:
            f.write(f"fit\tunavailable ({fit_error})\n")
    manifest.write(out / "manifest.json")
    if fit:
        click.echo(f"alpha={fit.alpha:.4f} beta={fit.beta:.1f} mse={fit.mse:.1f}")


def _parse_int_list(text):
    if text is None:
        return None
    try:
        return [int(v) for v in text.replace(" ", "").split(",") if v]
    except ValueError:
        raise click.UsageError("expected a comma-separated list of integers") from None


@cli.command("compare")
@click.argument("dict_path", type=click.Path(dir_okay=False))
@click.argument("wordlist_path", type=click.Path(dir_okay=False))
@click.option("--widths", default=None, help="Interval widths (comma-separated).")
@click.option("--tops", default=None, help="Top/bottom-n sizes (comma-separated).")
@click.option("--fragments", default=None, help="Dictionary fragment sizes.")
@click.option("--out", "out_dir", type=click.Path(file_okay=False), required=True)
def cmd_compare(dict_path, wordlist_path, widths, tops, fragments, out_dir):
    """Coverage, overlap and rank agreement against a headword list."""
    manifest = RunManifest(sys.argv[1:] or ["compare"])
    manifest.add_input(dict_path)
    manifest.add_input(wordlist_path)
    d = dictionary.load(dict_path)
    with open(wordlist_path, encoding="utf-8") as f:
        raw_list = listcompare.read_word_list(f)
    if not len(raw_list):
        raise InputError("empty word list")
    stemmed = listcompare.stem_merge(raw_list)
    report = listcompare.compare(
        d, stemmed,
        widths=_parse_int_list(widths),
        tops=_parse_int_list(tops),
        fragment_ks=_parse_int_list(fragments),
    )
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_comparison(report, out)
    manifest.write(out / "manifest.json")
    click.echo(f"coverage {report.coverage_count}/{report.n_stems} "
               f"({_fmt_pct(report.coverage_pct)})")


def _write_comparison(report: listcompare.ComparisonReport, out: Path) -> None:
    with open(out / "coverage.tsv", "w", encoding="utf-8") as f:
        f.write("headwords\tstems\tcovered\tcoverage_pct\n")
        f.write(f"{report.n_headwords}\t{report.n_stems}\t{report.coverage_count}"
                f"\t{_fmt_pct(report.coverage_pct)}\n")
        for w in report.missing_words:
            f.write(f"missing\t{w}\n")
    with open(out / "fragments.tsv", "w", encoding="utf-8") as f:
        f.write("fragment_size\tfound\tpct\tnewly_added\n")
        for k, found, pct, added in report.fragment_table:
            f.write(f"{k}\t{found}\t{_fmt_pct(pct)}\t{', '.join(added)}\n")
    with open(out / "last_position.tsv", "w", encoding="utf-8") as f:
        f.write("list_fragment\tlast_position\tpct_of_dictionary\n")
        for m, pos, pct in report.last_position_table:
            f.write(f"{m}\t{pos}\t{_fmt_pct(pct)}\n")
    with open(out / "interval_overlaps.tsv", "w", encoding="utf-8") as f:
        f.write("width\tintervals\toverlap_pct\n")
        n = len(report.common_words)
        for w, frac in sorted(report.interval_overlaps.items()):
            f.write(f"{w}\t{-(-n // w) if w else 0}\t{_fmt_pct(frac)}\n")
    with open(out / "top_bottom_overlap.tsv", "w", encoding="utf-8") as f:
        f.write("n\ttop_common\tbottom_common\n")
        for n_ in sorted(report.top_overlap):
            f.write(f"{n_}\t{report.top_overlap[n_]}\t{report.bottom_overlap.get(n_, '')}\n")
    with open(out / "correlations.tsv", "w", encoding="utf-8") as f:
        f.write("test\tstatistic\n")
        if report.pcc is not None:
            f.write(f"PCC\t{report.pcc:.2f}\n")
        if report.src is not None:
            f.write(f"SRC\t{report.src:.2f}\n")
        if report.pcc_log is not None:
            f.write(f"PCC-log\t{report.pcc_log:.2f}\n")
    with open(out / "same_rank.tsv", "w", encoding="utf-8") as f:
        f.write("word\tposition\n")
        for w, pos in report.same_rank_words:
            f.write(f"{w}\t{pos}\n")
    summary = {
        "headwords": report.n_headwords,
        "stems": report.n_stems,
        "dictionary_words": report.n_dict_words,
        "coverage_count": report.coverage_count,
        "coverage_pct": round(report.coverage_pct * 100, 1),
        "missing_words": report.missing_words,
        "src": report.src,
        "pcc": report.pcc,
        "pcc_log": report.pcc_log,
        "same_rank_count": len(report.same_rank_words),
        "top_overlap": {str(k): v for k, v in sorted(report.top_overlap.items())},
        "bottom_overlap": {str(k): v for k, v in sorted(report.bottom_overlap.items())},
        "interval_overlap_pct": {str(k): round(v * 100, 1)
                                 for k, v in sorted(report.interval_overlaps.items())},
    }
    (out / "summary.json").write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")


@cli.command("gen")
@click.option("--vocab", type=int, default=5000, help="Vocabulary size.")
@click.option("--docs", type=int, required=True, help="Number of documents.")
@click.option("--zipf", type=float, default=1.0, help="Rank-frequency exponent.")
@click.option("--length", "doc_len", type=int, default=200, help="Words per document.")
@click.option("--seed", type=int, default=0)
@click.option("--out", "out_path", type=click.Path(dir_okay=False), required=True)
def cmd_gen(vocab, docs, zipf, doc_len, seed, out_path):
    """Generate a synthetic corpus with Zipfian word frequencies."""
    if docs < 1 or vocab < 1 or doc_len < 1:
        raise click.UsageError("--docs, --vocab and --length must be positive")
    manifest = RunManifest(sys.argv[1:] or ["gen"], seed=seed)
    out = Path(out_path)
    out.parent.mkdir(parents=True, exist_ok=True)
    records = []
    for doc_id, tokens in lexstats.gen_synthetic_corpus(vocab, docs, zipf, seed, doc_len):
        records.append(ingest.RawRecord(
            authors=["Synthetic, A"],
            title=f"Synthetic document {doc_id}",
            abstract=" ".join(tokens),
            categories=["Synthetic"],
            research_areas=["Synthetic"],
        ))
    with open(out, "w", encoding="utf-8") as f:
        ingest.write_corpus(records, f)
    manifest.write(str(out) + ".manifest.json")
    click.echo(f"{docs} synthetic documents written to {out}")


@cli.command("dump-config")
@click.option("--config", "config_dir", type=click.Path(file_okay=False), default=None)
@click.option("--out", "out_dir", type=click.Path(file_okay=False), required=True)
def cmd_dump_config(config_dir, out_dir):
    """Write the active rule tables as editable config files."""
    cfg = _load_cfg(config_dir)
    manifest = RunManifest(sys.argv[1:] or ["dump-config"], cfg.config_hash())
    written = dump_config(cfg, out_dir)
    for path in written:
        click.echo(str(path))
    manifest.write(Path(out_dir) / "manifest.json")


@cli.command("pipeline")
@click.argument("input_path", type=click.Path(dir_okay=False))
@click.option("--config", "config_dir", type=click.Path(file_okay=False), default=None)
@click.option("--min-len", type=int, default=None)
@click.option("--max-len", type=int, default=None)
@click.option("--threshold", type=int, default=None)
@click.option("--out", "out_dir", type=click.Path(file_okay=False), required=True)
@click.pass_context
def cmd_pipeline(ctx, input_path, config_dir, min_len, max_len, threshold, out_dir):
    """Chain ingest, build, prune and stats over one input file."""
    out = Path(out_dir)
    ctx.invoke(cmd_ingest, input_path=input_path, config_dir=config_dir,
               min_len=min_len, max_len=max_len, out_dir=str(out))
    ctx.invoke(cmd_build, corpus_path=str(out / "corpus.tsv"),
               config_dir=config_dir, out_path=str(out / "dictionary.tsv"))
    if threshold is None:
        threshold = default_config().prune_threshold
    ctx.invoke(cmd_prune, dict_path=str(out / "dictionary.tsv"),
               threshold=threshold, out_path=str(out / "dictionary_pruned.tsv"))
    ctx.invoke(cmd_stats, dict_path=str(out / "dictionary_pruned.tsv"),
               fit_range=None, out_dir=str(out / "stats"))


def main(argv=None) -> int:
    """Entry point with the documented exit-code mapping."""
    try:
        cli.main(args=argv, standalone_mode=False)
        return 0
    except click.UsageError as e:
        click.echo(f"usage error: {e.format_message()}", err=True)
        return 1
    except click.ClickException as e:
        e.show()
        return 1
    except click.Abort:
        return 1
    except (FileNotFoundError, IsADirectoryError, PermissionError,
            UnicodeDecodeError, InputError) as e:
        click.echo(f"input error: {e}", err=True)
        return 2
    except (ValueError, ArithmeticError) as e:
        click.echo(f"computation error: {e}", err=True)
        return 3


if __name__ == "__main__":
    sys.exit(main())
