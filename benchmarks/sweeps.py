"""The synth-sweeps workload's sweep process.

Run as a script, it is the step an untraced run times as a whole: it imports
predlim, runs every sweep of the plan in one process and writes the tables
as JSON. A traced run calls run_plan in-process instead.

    python benchmarks/sweeps.py PLAN_JSON OUTPUT_JSON
"""

from __future__ import annotations

import json
import sys
import time
import traceback


def run_plan(plan: dict, output: str, tracer=None) -> int:
    """Run each sweep of the plan; return how many failed.

    Each entry is {"kind": "difficulty" | "n", "kwargs": {...}}. Failed sweeps
    are left out of the output and their tracebacks go to stderr.
    """
    from predlim import evaluation

    results = []
    failed = 0
    for entry in plan["sweeps"]:
        name = f"run_{entry['kind']}_sweep"
        fn = getattr(evaluation, name)
        start = time.perf_counter()
        try:
            if tracer is None:
                table = fn(**entry["kwargs"])
            else:
                table = tracer.call(f"evaluation.{name}", fn, **entry["kwargs"])
        except Exception:
            traceback.print_exc()
            failed += 1
            continue
        results.append(
            {
                "kind": entry["kind"],
                "kwargs": entry["kwargs"],
                "seconds": time.perf_counter() - start,
                "rows": [vars(r) for r in table.rows],
                "rmse_by_method": table.rmse_by_method,
            }
        )
    with open(output, "w", encoding="utf-8") as fh:
        json.dump({"results": results}, fh)
    return failed


if __name__ == "__main__":
    with open(sys.argv[1], encoding="utf-8") as fh:
        plan = json.load(fh)
    sys.exit(1 if run_plan(plan, sys.argv[2]) else 0)
