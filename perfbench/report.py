"""Run every workload untraced and traced; print every metric with its unit.

Usage, from the root of a lexicorp checkout:

    python3 perfbench/report.py --seed 7 --seconds 30 --json perfbench/baseline.json

Prints one line per workload and metric: the end-to-end metrics and
failed_ratio from an untraced run, then the per-layer metrics from a
traced run, with a check that the layer self times and cli.other_s add
up to the traced wall time. `--json` also writes the numbers to a file.
"""

from __future__ import annotations

import argparse
import json
import sys

import run

SELF_TIME_EXCLUDED = ("trace.wall_s", "trace.overhead_s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--json", dest="json_path", default=None)
    args = parser.parse_args(argv)

    report = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    for name in run.WORKLOADS:
        entry = report["workloads"][name] = {}
        attempted = failed = 0
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            try:
                result = run.run_workload(name, args.seed, args.seconds, trace)
            except run.ERRORS as e:
                print(f"perfbench: {name}: {e}", file=sys.stderr)
                return 2
            attempted += result["attempted"]
            failed += result["failed"]
            entry[key] = {m: {"value": result["metrics"][m], "unit": unit}
                          for m, unit in run.metric_units(trace).items()}
            for line in result["lines"]:
                print(f"{name:18} {line}")
            for m, v in entry[key].items():
                print(f"{name:18} {m:30} {v['value']:16.6f} {v['unit']}")
        entry["failed_ratio"] = {"value": failed / attempted, "unit": "ratio",
                                 "failed": failed, "attempted": attempted}
        print(f"{name:18} {'failed_ratio':30} {failed / attempted:16.6f} ratio "
              f"({failed} of {attempted} runs)")
        layers = entry["per_layer"]
        self_times = sum(v["value"] for m, v in layers.items()
                         if v["unit"] == "s" and m not in SELF_TIME_EXCLUDED)
        print(f"{name:18} layer self times + cli.other_s = {self_times:.6f} s, "
              f"traced wall_s = {layers['trace.wall_s']['value']:.6f} s")
    if args.json_path:
        with open(args.json_path, "w", encoding="utf-8") as f:
            json.dump(report, f, indent=2)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
