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


def test_library_names_the_benchmark_calls_untraced_resolve():
    # benchmarks/workloads.py builds its corpora and checks sweep points through these
    from predlim import evaluation, sequence_core, synth

    for module, names in ((synth, ("generate", "invert_noise", "GeneratorConfig")),
                          (sequence_core, ("log_to_json",)),
                          (evaluation, ("run_difficulty_sweep", "run_n_sweep"))):
        assert all(callable(getattr(module, name, None)) for name in names), module.__name__
    corpus = synth.generate(synth.GeneratorConfig(
        mechanism="repeat_last", n=10, users=3, length=8, seed=0, params={"p": 0.5}))
    seqs = [s.items for s in corpus.log.sequences]
    assert [len(x) for x in seqs] == [8, 8, 8]
    offsets = corpus.log.offsets
    for u, x in enumerate(seqs):
        assert list(x) == list(corpus.log.items[offsets[u]:offsets[u + 1]])
