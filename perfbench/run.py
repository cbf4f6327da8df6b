"""End-to-end benchmark of lexicorp on one workload.

Usage, from the root of a lexicorp checkout:

    python3 perfbench/run.py --workload synth-zipf --seed 7 --seconds 30 --trace 0

The inputs are generated from the seed before anything is timed. The run
then starts the workload's command sequence in a fresh interpreter
(`child.py`) again and again for `--seconds` seconds, one at a time
(closed loop, one client), and checks every run's outputs against those
of the frozen seed-commit copy in `seedref/`. With `--trace 0` the last
line printed is the JSON result with the end-to-end metrics; with
`--trace 1` the runs alternate between untraced and traced, and the
result holds the per-layer metrics of the median traced run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
SEEDREF = HERE / "seedref"
STEM_VOCAB = ROOT / "tests" / "data" / "stem_vocab.tsv"
WORK = ROOT / ".perfbench"

# Set-up runs per benchmark run, after one discarded warm-up that also
# writes the bytecode caches. Timed runs add one set-up sample each.
SETUP_RUNS = 5
CHILD_TIMEOUT_S = 150
# Relative tolerance of the fitted numbers (alpha, beta, mse, tail.csv
# "fitted"); the absolute floor covers rounding in the sixth decimal.
FIT_REL_TOL = 1e-3
FIT_ABS_TOL = 2e-6
TOLERANT_FILES = ("pareto_fit.txt", "tail.csv")
# What a benchmark run that cannot produce a result raises.
ERRORS = (OSError, RuntimeError, ValueError, subprocess.SubprocessError)


@dataclass(frozen=True)
class Workload:
    name: str
    make_inputs: Callable[[int, Path], list[Path]]
    commands: Callable[[list[Path], Path], list[list[str]]]


# Inputs are generated in child processes: Linux carries the resident set
# of the process that starts a run over into the run's ru_maxrss, so the
# benchmark process itself must stay small.

def _synth_inputs(seed: int, d: Path) -> list[Path]:
    path = d / "synthetic.tsv"
    argv = ["gen", "--docs", "10000", "--vocab", "20000", "--length", "200",
            "--zipf", "1.0", "--seed", str(seed), "--out", str(path)]
    subprocess.run([sys.executable, "-m", "lexicorp.cli", *argv], check=True, cwd=d,
                   env=_env(SEEDREF), stdout=subprocess.DEVNULL)
    (d / "synthetic.tsv.manifest.json").unlink()
    return [path]


def _generated(name: str, files: tuple[str, ...]) -> Callable[[int, Path], list[Path]]:
    def make_inputs(seed: int, d: Path) -> list[Path]:
        subprocess.run([sys.executable, str(HERE / "inputs.py"), name, str(seed),
                        str(STEM_VOCAB), str(d)], check=True)
        return [d / f for f in files]
    return make_inputs


def _pipeline(inputs: list[Path], out: Path) -> list[list[str]]:
    return [["pipeline", str(inputs[0]), "--out", str(out)]]


def _analyse(inputs: list[Path], out: Path) -> list[list[str]]:
    dictionary, word_list = map(str, inputs)
    pruned = str(out / "dictionary_pruned.tsv")
    return [["prune", dictionary, "--threshold", "10", "--out", pruned],
            ["stats", pruned, "--out", str(out / "stats")],
            ["compare", pruned, word_list, "--out", str(out / "comparison")]]


WORKLOADS = {w.name: w for w in (
    Workload("synth-zipf", _synth_inputs, _pipeline),
    Workload("english-abstracts", _generated("english-abstracts", ("export.tsv",)), _pipeline),
    Workload("analyse", _generated("analyse", ("dictionary.tsv", "wordlist.csv")), _analyse),
)}


def _env(src: Path) -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0")
    env.pop("LEXICORP_CONFIG_DIR", None)
    return env


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _data_files(out: Path) -> dict[str, Path]:
    """Output files by relative path, manifests excluded."""
    return {str(p.relative_to(out)): p for p in sorted(out.rglob("*"))
            if p.is_file() and not p.name.endswith("manifest.json")}


# ------------------------------------------------------------------ runs

def spawn(src: Path, job: dict, result: Path, log: Path) -> tuple[float, dict | None]:
    """Run child.py once; returns (monotonic spawn time, its result or None)."""
    job = dict(job, src=str(src), result=str(result))
    result.unlink(missing_ok=True)
    with open(log, "wb") as out:
        t0 = time.monotonic()
        proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), json.dumps(job)],
                                cwd=ROOT, env=_env(src), stdout=out, stderr=subprocess.STDOUT)
        try:
            rc = proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            return t0, None
    if rc != 0 or not result.exists():
        return t0, None
    return t0, json.loads(result.read_text(encoding="utf-8"))


# ---------------------------------------------------------------- checks

@dataclass
class Reference:
    digests: dict[str, str]
    tolerant: dict[str, str]
    recount: str | None  # sha256 of the dictionary body a recount gives


def _reference(workload: Workload, seed: int, inputs: list[Path], work: Path) -> Reference:
    """Outputs of the seed-commit copy for these inputs, cached per seed."""
    key = hashlib.sha256(b"".join(_sha256(p).encode() for p in inputs))
    cache = WORK / "reference" / f"{workload.name}-{seed}-{key.hexdigest()[:16]}.json"
    if cache.exists():
        return Reference(**json.loads(cache.read_text(encoding="utf-8")))
    out = work / "reference"
    _, res = spawn(SEEDREF, {"commands": workload.commands(inputs, out)},
                   work / "reference.json", work / "reference.log")
    if res is None or any(res["codes"]):
        raise RuntimeError(f"reference run failed, see {work / 'reference.log'}")
    files = _data_files(out)
    ref = Reference(
        digests={k: _sha256(p) for k, p in files.items()},
        tolerant={k: p.read_text(encoding="utf-8") for k, p in files.items()
                  if p.name in TOLERANT_FILES},
        recount=_recount(inputs[0]) if workload.name == "synth-zipf" else None,
    )
    shutil.rmtree(out)
    cache.parent.mkdir(parents=True, exist_ok=True)
    partial = cache.with_suffix(f".{os.getpid()}.tmp")
    partial.write_text(json.dumps(ref.__dict__), encoding="utf-8")
    os.replace(partial, cache)
    return ref


def _recount(corpus: Path) -> str:
    """Digest of the dictionary body recounted straight from the corpus.

    Synthetic tokens carry a digit, so the text pipeline keeps them as
    they are; the dictionary is then a plain count over the abstracts.
    """
    docs, total = Counter(), Counter()
    with open(corpus, encoding="utf-8") as f:
        next(f)
        for line in f:
            tokens = line.split("\t")[2].split()
            total.update(tokens)
            docs.update(set(tokens))
    rows = sorted(total, key=lambda w: (-docs[w], -total[w], w))
    body = "".join(f"{w}\t{docs[w]}\t{total[w]}\n" for w in rows)
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


def _close(a: str, b: str) -> bool:
    try:
        return math.isclose(float(a), float(b), rel_tol=FIT_REL_TOL, abs_tol=FIT_ABS_TOL)
    except ValueError:
        return a == b


def _tolerant_equal(name: str, got: str, want: str) -> bool:
    """Equal lines, except that fitted values may differ within tolerance."""
    got_lines, want_lines = got.splitlines(), want.splitlines()
    if len(got_lines) != len(want_lines):
        return False
    for g, w in zip(got_lines, want_lines):
        if name == "pareto_fit.txt":  # key<TAB>value
            (gk, _, gv), (wk, _, wv) = g.partition("\t"), w.partition("\t")
            ok = gk == wk and (_close(gv, wv) if wk in ("alpha", "beta", "mse") else gv == wv)
        else:  # tail.csv: documents,words_above,fitted
            (gk, _, gv), (wk, _, wv) = g.rpartition(","), w.rpartition(",")
            ok = gk == wk and _close(gv, wv)
        if not ok:
            return False
    return True


def check_outputs(out: Path, ref: Reference) -> list[str]:
    """Problems found in one run's outputs; empty when they are correct."""
    files = _data_files(out)
    problems = [f"missing {k}" for k in ref.digests if k not in files]
    problems += [f"unexpected {k}" for k in files if k not in ref.digests]
    for k, path in files.items():
        if k not in ref.digests:
            continue
        if k in ref.tolerant:
            if not _tolerant_equal(path.name, path.read_text(encoding="utf-8"), ref.tolerant[k]):
                problems.append(f"{k} differs beyond tolerance")
        elif _sha256(path) != ref.digests[k]:
            problems.append(f"{k} differs")
    if ref.recount is not None and "dictionary.tsv" in files:
        body = files["dictionary.tsv"].read_bytes().split(b"\n", 1)[1]
        if hashlib.sha256(body).hexdigest() != ref.recount:
            problems.append("dictionary.tsv differs from a recount of the corpus")
    return problems


# ------------------------------------------------------------- measuring

def tail_percentile(samples: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples above it."""
    n = len(samples)
    if n < 11:
        return None
    p = math.floor(100 * (n - 10) / n)
    return p, statistics.quantiles(samples, n=100, method="inclusive")[p - 1]


def _timing_line(name: str, unit: str, samples: list[float]) -> str:
    tail = tail_percentile(samples)
    tail_text = f"p{tail[0]} {tail[1]:.4f}" if tail else "no percentile has 10 samples beyond it"
    return (f"# {name}: median {statistics.median(samples):.4f} {unit}, {tail_text}, "
            f"n={len(samples)}")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Generate, measure and check one workload; returns the result object."""
    workload = WORKLOADS[name]
    if not (SRC / "lexicorp" / "cli.py").is_file():
        raise RuntimeError(f"no lexicorp sources under {SRC}")
    work = WORK / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "inputs").mkdir(parents=True)
    try:
        inputs = workload.make_inputs(seed, work / "inputs")
        ref = _reference(workload, seed, inputs, work)
        return _measure(workload, seed, seconds, trace, inputs, ref, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _measure(workload, seed, seconds, trace, inputs, ref, work) -> dict:
    input_bytes = sum(p.stat().st_size for p in inputs)
    # A traced benchmark run needs an untraced run and a traced one.
    min_runs = 2 if trace else 1
    setup, runs, attempted, failed = [], [], 0, 0
    for i in range(SETUP_RUNS + 1):
        t0, res = spawn(SRC, {"setup_only": True}, work / "setup.json", work / "setup.log")
        if res is None:
            raise RuntimeError(f"set-up failed: {(work / 'setup.log').read_text()[-2000:]}")
        if i:
            setup.append(res["ready"] - t0)

    began = time.monotonic()
    while True:
        elapsed = time.monotonic() - began
        if attempted >= min_runs and elapsed * (attempted + 1) / attempted > seconds:
            break
        traced = trace and attempted % 2 == 1
        out = work / f"out{attempted}"
        job = {"commands": workload.commands(inputs, out), "trace": traced,
               "run_id": f"{workload.name}-{seed}-{attempted}"}
        t0, res = spawn(SRC, job, work / "run.json", work / "run.log")
        attempted += 1
        problems = (["run did not finish"] if res is None
                    else [f"exit codes {res['codes']}"] if any(res["codes"])
                    else check_outputs(out, ref))
        if problems:
            failed += 1
            log = (work / "run.log").read_text(encoding="utf-8", errors="replace")
            print(f"# run {attempted - 1} failed: {'; '.join(problems[:5])}\n{log[-2000:]}",
                  file=sys.stderr)
        if res is not None and "end" in res:
            setup.append(res["ready"] - t0)
            runs.append(dict(res, traced=traced, ok=not problems))
        shutil.rmtree(out, ignore_errors=True)

    good = [r for r in runs if r["ok"]] or runs
    if not good:
        raise RuntimeError("no run finished")
    plain = [r for r in good if not r["traced"]]
    wall = [r["end"] - r["start"] for r in plain]
    lines = [_timing_line("setup_s", "s", setup)]
    if trace:
        traced = sorted((r for r in good if r["traced"]), key=lambda r: r["end"] - r["start"])
        if not traced:
            raise RuntimeError("no traced run finished")
        rep = traced[(len(traced) - 1) // 2]
        metrics = dict(rep["layers"])
        metrics["trace.wall_s"] = rep["end"] - rep["start"]
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(wall)
        lines.append(_timing_line("trace.wall_s", "s",
                                  [r["end"] - r["start"] for r in traced]))
        if rep.get("untraced"):
            lines.append(f"# not traced (not found): {', '.join(rep['untraced'])}")
        spans = WORK / f"spans-{workload.name}-{seed}.json"
        spans.write_text(json.dumps(rep["spans"]), encoding="utf-8")
        lines.append(f"# spans of the median traced run: {spans}")
    else:
        metrics = {
            "wall_s": statistics.median(wall),
            "input_mb_per_s": input_bytes / 1e6 / statistics.median(wall),
            "cpu_s": statistics.median(r["cpu_s"] for r in plain),
            "peak_rss_mb": statistics.median(r["maxrss_kb"] / 1024 for r in plain),
            "setup_s": statistics.median(setup),
        }
        lines += [_timing_line("wall_s", "s", wall),
                  _timing_line("cpu_s", "s", [r["cpu_s"] for r in plain])]
    lines.append(f"# failed_ratio: {failed / attempted:.4f} ({failed} of {attempted} runs)")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics, "lines": lines}


def metric_units(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        units = metric_units(bool(args.trace))
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except ERRORS as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    missing = sorted(set(units) - set(result["metrics"]))
    if missing:
        print(f"perfbench: metrics not measured: {', '.join(missing)}", file=sys.stderr)
        return 2
    for line in result["lines"]:
        print(line)
    metrics = {k: {"value": result["metrics"][k], "unit": u} for k, u in units.items()}
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
