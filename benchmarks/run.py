"""predlim's benchmark: one workload, timed end to end or traced layer by layer.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from a checkout of the repository; predlim need not be installed, since
src/ is put on the import path of this process and of every child.

An untraced run runs whole rounds of the steps, each step in its own
process, until another round would end past --seconds (at least one round).
It sets the workload up SETUPS // 2 times before the first round, once before
each round, and again after the last until it has done so SETUPS times.
Set-up time is the median set-up, and each step's time is its median over
the rounds, both scaled to the reference host speed by a speed loop timed
between them (see REF_LOOP_S).

A traced run sets up once, then calls each step in-process three times:
plain, with the tracer's wrappers, and plain again. It reports per-layer self
times and counts.

Both check every output against reference computations in checks.py.

The last line of standard output is a JSON object with keys correct,
attempted, failed and metrics; the line before it holds the run's details.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".benchwork")
STEP_LIMIT_S = 120  # a child still running after this is killed and counted as failed
SETUPS = 11  # set-ups per untraced run, and interpreter starts per traced run
# On a shared host the speed of every process drifts by up to a third over
# minutes, more than any bound. An untraced run therefore times a fixed
# pure-Python loop (SPEED_LOOP_N iterations, median of SPEED_REPEATS) before
# its first set-up and after every set-up and step, and scales its times by
# REF_LOOP_S over the run's median loop time. REF_LOOP_S is about the loop's
# time on the 2-CPU VM the reference figures come from.
SPEED_LOOP_N = 100_000
SPEED_REPEATS = 5
REF_LOOP_S = 0.008


def speed_loop_s() -> float:
    """Median time of the speed loop, which follows the host's current speed."""
    times = []
    for _ in range(SPEED_REPEATS):
        start = time.perf_counter()
        total = 0
        for i in range(SPEED_LOOP_N):
            total += i * i % 7
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run_child(argv: list[str], log_path: str) -> tuple[float, float, int]:
    """Run one child process; return (wall seconds, its own peak RSS in MB, exit code).

    os.wait4 gives the rusage of this child alone, whereas RUSAGE_CHILDREN
    would report the largest of every child so far.
    """
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, cwd=ROOT)
        watchdog = threading.Timer(STEP_LIMIT_S, proc.kill)
        watchdog.start()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def step_argv(step) -> list[str]:
    if step.command == "sweeps":
        return [sys.executable, os.path.join(HERE, "sweeps.py"), *step.argv]
    return [sys.executable, "-m", "predlim.cli", *step.argv]


def subprocess_round(workload, speeds: list[float]) -> dict:
    """One round of the steps, each in its own process, with a speed loop after each."""
    steps = []
    for step in workload.steps():
        log_path = workload.path(f"{step.key}.out")
        if step.command == "sweeps" and os.path.exists(step.argv[1]):
            os.remove(step.argv[1])
        wall, rss, code = run_child(step_argv(step), log_path)
        speeds.append(speed_loop_s())
        failed = 0 if code == 0 else step.ops
        if step.command == "sweeps" and code != 0 and os.path.exists(step.argv[1]):
            with open(step.argv[1], encoding="utf-8") as fh:
                failed = step.ops - len(json.load(fh)["results"])
        if code != 0:
            with open(log_path, encoding="utf-8", errors="replace") as fh:
                print(f"step {step.key} exited {code}:\n{fh.read()[-2000:]}", file=sys.stderr)
        steps.append({"key": step.key, "command": step.command, "wall_s": wall,
                      "peak_rss_mb": rss, "ops": step.ops, "failed": failed})
    return {"steps": steps, "wall_s": sum(s["wall_s"] for s in steps)}


def in_process_step(step, tracer=None) -> tuple[float, int]:
    """Call one step in this process; return (wall seconds, failed operations)."""
    import sweeps
    from predlim import cli

    failed = step.ops
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            if step.command == "sweeps":
                failed = sweeps.run_plan(_load(step.argv[0]), step.argv[1], tracer)
            elif tracer is None:
                failed = step.ops * (cli.main(list(step.argv)) != 0)
            else:
                code = tracer.call(f"cli.{step.command}", cli.main, list(step.argv))
                failed = step.ops * (code != 0)
    except Exception:
        traceback.print_exc()
    return time.perf_counter() - start, failed


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def rounds_until(seconds: float, one_round) -> list:
    """Results of whole rounds, run until the next would end past `seconds`.

    At least one round runs, so a workload whose round is longer than
    `seconds` makes exactly one.
    """
    done = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        done.append(one_round())
        last = time.perf_counter() - t0
        if time.perf_counter() - start + last > seconds:
            return done


def timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def environment() -> dict:
    import numpy

    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = out.stdout.strip() or "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "commit": commit}


def untraced(workload, seconds: float) -> tuple[dict, list, dict]:
    # Set-ups are spread over the run: half of them before the first round,
    # one before each round and the rest after the last, so that their median
    # does not hang on one stretch of host speed.
    speeds = [speed_loop_s()]
    setups = []

    def set_up() -> None:
        setups.append(timed(workload.set_up))
        speeds.append(speed_loop_s())

    def one_round():
        set_up()
        r = subprocess_round(workload, speeds)
        r["digest"] = workload.digest()
        return r

    for _ in range(SETUPS // 2):
        set_up()
    rounds = rounds_until(seconds, one_round)
    while len(setups) < SETUPS:
        set_up()
    events = workload.count_events()
    step_walls = zip(*([s["wall_s"] for s in r["steps"]] for r in rounds))
    chain_s = sum(statistics.median(walls) for walls in step_walls)
    # Wall times become seconds at the reference host speed.
    scale = REF_LOOP_S / statistics.median(speeds)
    metrics = {
        "setup_s": (statistics.median(setups) * scale, "s"),
        "events_per_s": (events / (chain_s * scale), "1/s"),
        "peak_rss_mb": (statistics.median(max(s["peak_rss_mb"] for s in r["steps"]) for r in rounds), "MB"),
    }
    per_command: dict[str, list[float]] = {}
    for r in rounds:
        sums: dict[str, float] = {}
        for s in r["steps"]:
            sums[s["command"]] = sums.get(s["command"], 0.0) + s["wall_s"]
        for command, value in sums.items():
            per_command.setdefault(command, []).append(value)
    detail = {"setup_wall_s": setups, "events": events, "events_per_wall_s": events / chain_s,
              "speed_loop_s": speeds,
              "round_wall_s": [r["wall_s"] for r in rounds],
              "command_s": {c: statistics.median(v) for c, v in per_command.items()},
              "step_peak_rss_mb": {s["key"]: s["peak_rss_mb"] for s in rounds[-1]["steps"]}}
    return metrics, rounds, detail


def traced(workload) -> tuple[dict, list, dict]:
    from tracing import Tracer, layer_metrics

    tracer = Tracer()
    with tracer.installed():
        workload.set_up()
    # Each step runs plain, traced, then plain again, and the traced call is
    # compared with the mean of the two plain ones, so a warm-up or a drift in
    # machine speed does not fall on one side alone.
    before, with_trace, after = ({"steps": [], "wall_s": 0.0, "digest": ()} for _ in range(3))
    for step in workload.steps():
        for r in (before, with_trace, after):
            use = r is with_trace
            with tracer.installed() if use else contextlib.nullcontext():
                wall, failed = in_process_step(step, tracer if use else None)
            r["wall_s"] += wall
            r["steps"].append({"key": step.key, "ops": step.ops, "failed": failed})
            r["digest"] += (workload.digest(),)
    plain_s = (before["wall_s"] + after["wall_s"]) / 2
    starts = [
        run_child([sys.executable, "-c", "import predlim.cli"], workload.path("process-start.out"))[0]
        for _ in range(SETUPS)
    ]
    tracer.write(workload.path("trace.json"))
    values = layer_metrics(tracer)
    values["cli.process_start_s"] = statistics.median(starts)
    values["trace.overhead_s"] = with_trace["wall_s"] - plain_s
    metrics = {k: (v, "s" if k.endswith("_s") else "count") for k, v in values.items()}
    detail = {"untraced_wall_s": plain_s, "traced_wall_s": with_trace["wall_s"],
              "spans": len(tracer.spans)}
    return metrics, [before, with_trace, after], detail


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="small inputs, same checks")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "predlim", "__init__.py")):
        print(f"error: {SRC}/predlim not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    from checks import Failures

    workload = WORKLOADS[args.workload](os.path.join(WORK, args.workload), args.seed, args.smoke)
    if args.trace:
        metrics, rounds, detail = traced(workload)
    else:
        metrics, rounds, detail = untraced(workload, args.seconds)

    failures = Failures()
    failed = sum(s["failed"] for r in rounds for s in r["steps"])
    done = {s["key"] for s in rounds[-1]["steps"] if s["failed"] == 0}
    start = time.perf_counter()
    figures = workload.check(failures, done)
    detail["check_s"] = time.perf_counter() - start
    digests = {r["digest"] for r in rounds}
    failures.expect(failed > 0 or len(digests) == 1, "rounds wrote different outputs")

    detail.update(workload=args.workload, seed=args.seed, seconds=args.seconds, smoke=args.smoke,
                  environment=environment(), reference_figures=figures,
                  check_failures=failures.messages)
    print("detail " + json.dumps(detail))
    print(json.dumps({
        "correct": not failures.messages,
        "attempted": sum(s["ops"] for r in rounds for s in r["steps"]),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, HERE)
    sys.exit(main())
