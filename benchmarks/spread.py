"""Repeat one workload over several seeds and print each metric's spread.

    python3 benchmarks/spread.py --workload NAME [--runs 10] [--first-seed 0]

Each run is untraced and lasts BENCHMARK.json's run_seconds. For each
end-to-end metric, the spread is the distance between the first and third
quartiles (statistics.quantiles, n=4) as a share of the median, printed
beside the metric's bound. Also prints the share of failed operations, which
must be equal in every set of runs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values: dict[str, list[float]] = {}
    attempted = failed = 0
    for seed in range(args.first_seed, args.first_seed + args.runs):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        result = json.loads(out.stdout.splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: outputs failed their checks\n{out.stderr}", file=sys.stderr)
            return 1
        attempted += result["attempted"]
        failed += result["failed"]
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + ", ".join(f"{k} {v['value']:.6g}" for k, v in result["metrics"].items()),
              flush=True)

    print(f"{args.workload}: {args.runs} runs, failed {failed} of {attempted} operations")
    for name, vals in values.items():
        median = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / median if median else float("nan")
        verdict = "ok" if spread <= bounds[name] else "WIDER"
        print(f"  {name}: median {median:.6g}, spread {spread:.4f}, bound {bounds[name]:.3f} {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
