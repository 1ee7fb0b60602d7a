"""Names that other code looks up in predlim's modules still resolve.

A traced benchmark run replaces each (module, attribute) pair listed in
benchmarks/tracing.py; one that no longer resolves would crash the run, and an
import kept in src only for the tracer (`# noqa: F401`) that it no longer wraps
is dead. A name left in a module's __all__ after its definition is deleted
would break `from predlim.<module> import *`.
"""

import ast
import importlib
import os
import pkgutil

import predlim

BENCHMARKS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "benchmarks")


def traced_pairs(monkeypatch):
    """The (module, attribute) pairs benchmarks/tracing.py wraps."""
    monkeypatch.syspath_prepend(BENCHMARKS)
    tracing = importlib.import_module("tracing")
    return [(module, attr) for module, attr, _ in tracing.TIMED + tracing.COUNTED]


def test_every_traced_name_resolves(monkeypatch):
    pairs = traced_pairs(monkeypatch)
    assert pairs
    missing = [
        (module, attr)
        for module, attr in pairs
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert missing == []


def test_every_tracer_only_import_is_still_wrapped(monkeypatch):
    # a `# noqa: F401` import in src is kept only for the tracer to wrap; one the tracer
    # no longer lists is dead and should go
    wrapped = set(traced_pairs(monkeypatch))
    src = os.path.dirname(predlim.__file__)
    kept = []
    for name in sorted(os.listdir(src)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(src, name), encoding="utf-8") as fh:
            text = fh.read()
        lines = text.splitlines()
        module = "predlim" if name == "__init__.py" else f"predlim.{name[:-3]}"
        kept += [(module, alias.asname or alias.name) for node in ast.walk(ast.parse(text))
                 if isinstance(node, (ast.Import, ast.ImportFrom))
                 and "# noqa: F401" in lines[node.end_lineno - 1] for alias in node.names]
    assert kept
    assert [pair for pair in kept if pair not in wrapped] == []


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
    # benchmarks/sweeps.py reads each sweep row through vars() and rmse_by_method as a dict
    small = dict(methods=("epl", "perm"), reps=1, users=3, length=20)
    for table, rmse_keys in (
        (evaluation.run_difficulty_sweep("repeat_last", targets=(0.5,), n=50, **small),
         {"epl", "perm"}),
        (evaluation.run_n_sweep(n_grid=(100,), **small), set()),
    ):
        assert [set(vars(row)) for row in table.rows] == [
            {"grid_value", "method", "mean", "std", "rep_count"}] * 2
        assert isinstance(table.rmse_by_method, dict)
        assert set(table.rmse_by_method) == rmse_keys


def test_every_lookup_table_row_is_a_plain_dict():
    from predlim.predictability import ESTIMATORS, METHODS
    from predlim.synth import MECHANISMS

    for table in (ESTIMATORS, METHODS, MECHANISMS):
        assert table and all(type(row) is dict for row in table.values())


def _modules_calling(call):
    """The package's module file names, each once per occurrence of call in it."""
    src = os.path.dirname(predlim.__file__)
    found = []
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as fh:
                found += [name] * fh.read().count(call)
    return found


def test_one_csv_writer_in_the_package():
    # every CSV predlim writes goes through sequence_core.write_csv
    assert _modules_calling("csv.writer(") == ["sequence_core.py"]


def test_one_csv_reader_in_the_package():
    # every CSV predlim reads goes through sequence_core._csv_rows, which opens the file,
    # matches the header and names the line of any fault
    assert _modules_calling("csv.reader(") == ["sequence_core.py"]


def test_one_module_imports_csv():
    # every CSV predlim reads or writes goes through sequence_core, under one decoding rule
    src = os.path.dirname(predlim.__file__)
    found = []
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read())
            found += [name for node in ast.walk(tree)
                      if isinstance(node, ast.Import) and "csv" in [a.name for a in node.names]
                      or isinstance(node, ast.ImportFrom) and node.module == "csv"]
    assert found == ["sequence_core.py"]


def test_no_module_parses_json():
    # a log loads from its arrays alone; no module reads JSON back in
    src = os.path.dirname(predlim.__file__)
    found = []
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read())
            found += [(name, node.lineno) for node in ast.walk(tree)
                      if isinstance(node, ast.ImportFrom) and node.module == "json"
                      or isinstance(node, ast.Attribute) and node.attr in ("load", "loads")
                      and getattr(node.value, "id", None) == "json"]
    assert found == []
