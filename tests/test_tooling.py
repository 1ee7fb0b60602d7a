"""Names that other code looks up in predlim's modules still resolve.

A traced benchmark run replaces each (module, attribute) pair listed in
benchmarks/tracing.py; one that no longer resolves would crash the run. A
name left in a module's __all__ after its definition is deleted would break
`from predlim.<module> import *`.
"""

import importlib
import os
import pkgutil

import predlim

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


def test_every_exported_name_resolves():
    modules = [predlim] + [importlib.import_module(f"predlim.{info.name}")
                           for info in pkgutil.iter_modules(predlim.__path__)]
    assert len(modules) > 1
    stale = [(m.__name__, name) for m in modules for name in getattr(m, "__all__", ())
             if not hasattr(m, name)]
    assert stale == []
