"""One run of lexicorp in a fresh interpreter: set up, run commands, report.

Usage: python3 child.py '<json job>'

The job names the source directory that must provide `lexicorp`, the
command lines to pass to `lexicorp.cli.main` in order, the result file,
and whether to trace. Set-up (import, `load_config()` and the processed
stop set) ends at `ready`; the commands run from `start` to `end`. CPU
time and peak RSS cover this process and the children it waited for.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def _usage() -> tuple[float, int]:
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime
    return cpu, me.ru_maxrss + kids.ru_maxrss


def _stem_cache(lexicorp) -> tuple[int, int]:
    info = getattr(lexicorp.stemmer.stem, "cache_info", None)
    if info is None:
        return 0, 0
    info = info()
    return info.hits + info.misses, info.misses


def main() -> int:
    job = json.loads(sys.argv[1])
    import lexicorp
    import lexicorp.cli
    from lexicorp import pipeline

    src = Path(job["src"]).resolve()
    if src not in Path(lexicorp.__file__).resolve().parents:
        print(f"lexicorp was imported from {lexicorp.__file__}, not from {src}", file=sys.stderr)
        return 2
    cfg = lexicorp.load_config()
    stop_set = getattr(pipeline, "processed_stop_set", None)
    if stop_set is not None:
        stop_set(cfg)
    ready = time.monotonic()
    result = {"ready": ready}

    if not job.get("setup_only"):
        tracer = None
        if job.get("trace"):
            from tracer import Tracer
            tracer = Tracer(job["run_id"])
            result["untraced"] = tracer.install(lexicorp)
        calls0, misses0 = _stem_cache(lexicorp)
        cpu0, _ = _usage()
        start = time.monotonic()
        codes = []
        for argv in job["commands"]:
            sys.argv = ["lexicorp", *argv]
            codes.append(lexicorp.cli.main(argv))
            if codes[-1] != 0:
                break
        end = time.monotonic()
        cpu1, maxrss_kb = _usage()
        calls1, misses1 = _stem_cache(lexicorp)
        result.update(start=start, end=end, codes=codes, cpu_s=cpu1 - cpu0,
                      maxrss_kb=maxrss_kb)
        if tracer is not None:
            layers = tracer.layer_metrics(end - start)
            calls, misses = calls1 - calls0, misses1 - misses0
            layers["stemmer.calls"] = float(calls)
            layers["stemmer.misses"] = float(misses)
            layers["stemmer.hit_ratio"] = (calls - misses) / calls if calls else 0.0
            result["layers"] = layers
            result["spans"] = tracer.span_records()
    Path(job["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
