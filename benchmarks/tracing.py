"""Spans and counters recorded from outside predlim.

A Tracer replaces module attributes with wrappers for as long as it is
installed. Each wrapper sits where the calling module looks the name up (for
example predlim.cli.sampen and predlim.evaluation.sampen are separate
references to one function), so calls made inside the package are seen
without changing it. Spans hold (name, start, end, parent) and stay in memory
until the run writes them out.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import os
import time
from collections import Counter

# (module where the name is looked up, attribute, layer name)
TIMED = [
    ("predlim.cli", "ingest_csv", "sequence_core.ingest_csv"),
    ("predlim.cli", "log_to_json", "sequence_core.log_to_json"),
    ("predlim.sequence_core", "log_to_json", "sequence_core.log_to_json"),
    ("predlim.cli", "log_from_json", "sequence_core.log_from_json"),
    ("predlim.synth", "log_from_sequences", "sequence_core.log_from_sequences"),
    # cmd_score imports transition_fanout from sequence_core at call time
    ("predlim.sequence_core", "transition_fanout", "sequence_core.transition_fanout"),
    ("predlim.predictability", "transition_fanout", "sequence_core.transition_fanout"),
    ("predlim.evaluation", "transition_fanout", "sequence_core.transition_fanout"),
    ("predlim.cli", "sampen", "entropy.sampen"),
    ("predlim.evaluation", "sampen", "entropy.sampen"),
    ("predlim.cli", "lz_entropy", "entropy.lz_entropy"),
    ("predlim.evaluation", "lz_entropy", "entropy.lz_entropy"),
    ("predlim.cli", "perm_entropy", "entropy.perm_entropy"),
    ("predlim.predictability", "perm_entropy", "entropy.perm_entropy"),
    ("predlim.cli", "epl", "predictability.epl"),
    ("predlim.evaluation", "epl", "predictability.epl"),
    ("predlim.cli", "fano_invert", "predictability.fano_invert"),
    ("predlim.predictability", "fano_invert", "predictability.fano_invert"),
    ("predlim.evaluation", "fano_invert", "predictability.fano_invert"),
    ("predlim.cli", "fano_nr", "predictability.fano_nr"),
    ("predlim.cli", "perm_predictability", "predictability.perm_predictability"),
    ("predlim.evaluation", "perm_predictability", "predictability.perm_predictability"),
    ("predlim.synth", "generate", "synth.generate"),
    ("predlim.evaluation", "generate", "synth.generate"),
    ("predlim.cli", "compute_features", "cohort.compute_features"),
    ("predlim.cli", "split_and_aggregate", "cohort.split_and_aggregate"),
    ("predlim.selection", "build_plan", "selection.build_plan"),
    ("predlim.selection", "materialize", "selection.materialize"),
    ("predlim.selection", "write_selection_csv", "selection.write_selection_csv"),
]

# Counted, not timed: fano_forward runs ~40 times per inversion, and timing
# each call would distort the spans around it.
COUNTED = [
    ("predlim.predictability", "fano_forward", "predictability.fano_forward"),
    ("predlim.evaluation", "invert_noise", "synth.invert_noise"),
]

COUNTERS = {
    "entropy.sampen_saturated",
    "entropy.perm_entropy_infeasible",
    "predictability.fano_forward_calls",
    "synth.invert_noise_calls",
}

class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span; spans nest by call order on one thread."""
        index = len(self.spans)
        self.spans.append((name, 0.0, 0.0, self._stack[-1] if self._stack else -1))
        self._stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, self.spans[index][3])

    def _timed(self, name: str, fn):
        def wrapper(*args, **kwargs):
            try:
                result = self.call(name, fn, *args, **kwargs)
            except ValueError:
                if name == "entropy.perm_entropy":
                    self.counts["entropy.perm_entropy_infeasible"] += 1
                raise
            if name == "entropy.sampen" and "saturated" in result.flags:
                self.counts["entropy.sampen_saturated"] += 1
            return result

        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts
        key = f"{name}_calls"

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrappers in place for the body of the with statement."""
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def install(self) -> None:
        for targets, make in ((TIMED, self._timed), (COUNTED, self._counted)):
            for module_name, attr, name in targets:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, make(name, original))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def self_times(self) -> tuple[Counter, Counter]:
        """Per-name self time (duration minus direct children) and span count."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        seconds: Counter = Counter()
        calls: Counter = Counter()
        for (name, _, _, _), value in zip(self.spans, own):
            seconds[name] += value
            calls[name] += 1
        return seconds, calls

    def write(self, path: str) -> None:
        names = sorted({s[0] for s in self.spans})
        code = {n: i for i, n in enumerate(names)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent"],
                    "names": names,
                    "spans": [[code[n], a, b, p] for n, a, b, p in self.spans],
                    "counts": dict(self.counts),
                },
                fh,
            )


def per_layer_names() -> list[str]:
    """Every per-layer metric, in the order BENCHMARK.json declares them."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        return [m["name"] for m in json.load(fh)["per_layer"]]


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Reduce the spans of a traced run (set-up and steps) to per-layer metrics.

    "<layer>_s" is the layer's self time and "<layer>_calls" its span count;
    "cli.<command>.self_s" is the self time of the command's span.
    evaluation.run_*_sweep_s are whole sweep durations, and evaluation.self_s
    is the part of them no child span covers. A layer the workload never
    calls reads 0. cli.process_start_s and trace.overhead_s are measured by
    the caller, which overwrites them.
    """
    seconds, calls = tracer.self_times()
    out: dict[str, float] = {}
    for key in per_layer_names():
        if key in COUNTERS:
            out[key] = tracer.counts.get(key, 0)
        elif key.endswith("_calls"):
            out[key] = calls.get(key[: -len("_calls")], 0)
        elif key.endswith(".self_s"):
            out[key] = seconds.get(key[: -len(".self_s")], 0.0)
        else:
            out[key] = seconds.get(key[: -len("_s")], 0.0)
    sweeps = ("evaluation.run_difficulty_sweep", "evaluation.run_n_sweep")
    for name in sweeps:
        out[f"{name}_s"] = sum((end - start for n, start, end, _ in tracer.spans if n == name), 0.0)
    out["evaluation.self_s"] = sum(seconds.get(name, 0.0) for name in sweeps)
    return out
