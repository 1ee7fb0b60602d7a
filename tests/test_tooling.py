"""The benchmark's tracer wraps names where predlim's modules look them up.

A traced benchmark run replaces each (module, attribute) pair listed in
benchmarks/tracing.py; one that no longer resolves would crash the run.
"""

import importlib
import os

BENCHMARKS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "benchmarks")


def test_every_traced_name_resolves(monkeypatch):
    monkeypatch.syspath_prepend(BENCHMARKS)
    tracing = importlib.import_module("tracing")
    pairs = [(module, attr) for module, attr, _ in tracing.TIMED + tracing.COUNTED]
    assert pairs
    missing = [
        (module, attr)
        for module, attr in pairs
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert missing == []
