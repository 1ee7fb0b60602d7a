"""Scoring dispatch, dataset-level aggregation, consistency statistics, and sweeps.

The CLI and both sweeps estimate a whole log's entropies through
estimate_entropies and score it by one method through score_log, as
predictability.METHODS says; both pass columns, one entry per user.
Per-user predictability scores roll up to one number per dataset via a
weighted mean (weight = prediction events a user defines, T_u - 1, or
uniform). Rank agreement with reference accuracies uses Spearman correlation
with average-rank ties; value agreement uses RMSE. The two sweep harnesses
drive the synthetic generators: a difficulty sweep holds the item space fixed
and varies the oracle ceiling, an N-sweep holds the ceiling fixed and varies
the item-space size across orders of magnitude.
"""

from __future__ import annotations

import csv
import math
import os
import threading
from dataclasses import dataclass, field, replace
from functools import partial
from importlib import resources

import numpy as np

from .entropy import Entropies, lz_entropies, sampen_entropies
from .entropy import lz_entropy, sampen  # noqa: F401  (the benchmark's tracer wraps them)
from .predictability import ESTIMATORS, METHODS, Scores, epl, fano_invert, fano_nr
from .predictability import perm_predictabilities
from .predictability import perm_predictability  # noqa: F401  (the benchmark's tracer wraps it)
from .sequence_core import InteractionLog, write_csv
from .sequence_core import transition_fanout  # noqa: F401  (the benchmark's tracer wraps it)
from .synth import GeneratorConfig, generate, invert_noise, params_for

__all__ = [
    "SweepRow",
    "SweepTable",
    "Scores",
    "aggregate_dataset",
    "spearman",
    "rmse",
    "load_reference",
    "consistency_report",
    "estimate_entropies",
    "score_log",
    "run_difficulty_sweep",
    "run_n_sweep",
    "DIFFICULTY_TARGETS",
    "N_GRID",
]

# Default experiment grids: evenly spread difficulty levels plus a hard 0.05
# point, and half-decade steps across three orders of magnitude.
DIFFICULTY_TARGETS = (0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45,
                      0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9)
N_GRID = (100, 316, 1000, 3162, 10000, 31623, 100000)


def aggregate_dataset(scores, weights) -> float:
    """Weighted mean of per-user predictability values, each in (0, 1].

    Weights are the per-user event counts; pass T_u - 1 so each user counts
    once per next-item prediction they define. Each must be finite and positive.
    """
    values = np.asarray(scores, dtype=float)
    w = np.asarray(weights, dtype=float)
    if len(values) == 0:
        raise ValueError("no scores to aggregate")
    if len(w) != len(values):
        raise ValueError("weights length mismatch")
    if not np.all((values > 0) & (values <= 1)):  # NaN too
        raise ValueError("scores must lie in (0, 1]")
    if not np.all((w > 0) & np.isfinite(w)):
        raise ValueError("weights must be positive and finite")
    return float((values * w).sum() / w.sum())


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """Ranks 1..n with tied values sharing the average of their positions."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2)[inverse]


def spearman(a, b) -> float:
    """Spearman rank correlation: Pearson correlation of average-tie ranks."""
    x = np.asarray(a, dtype=float)
    y = np.asarray(b, dtype=float)
    if len(x) != len(y):
        raise ValueError("length mismatch")
    if len(x) < 2:
        raise ValueError("need at least 2 points")
    if np.isnan(x).any() or np.isnan(y).any():
        raise ValueError("NaN has no rank")
    rx = _average_ranks(x)
    ry = _average_ranks(y)
    dx = rx - rx.mean()
    dy = ry - ry.mean()
    vx = float((dx * dx).sum())
    vy = float((dy * dy).sum())
    if vx == 0.0 or vy == 0.0:
        raise ValueError("rank variance is zero; correlation undefined")
    return float((dx * dy).sum() / math.sqrt(vx * vy))


def rmse(a, b) -> float:
    x = np.asarray(a, dtype=float)
    y = np.asarray(b, dtype=float)
    if x.shape != y.shape:
        raise ValueError("length mismatch")
    if len(x) == 0:
        raise ValueError("need at least 1 point")
    return float(np.sqrt(np.mean((x - y) ** 2)))


def csv_columns(path, columns: dict) -> dict[str, list]:
    """Each of columns of the CSV file at path as a list over its non-blank rows, parsed by
    its type (str, int or float); a header lacking one of columns, a row not as wide as the
    header or a field its type cannot parse raises naming the line."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        missing = [c for c in columns if c not in header]
        if missing:
            raise ValueError(f"{path}: line 1: the header has no {missing[0]} column")
        place = {column: i for i, column in enumerate(header)}  # a repeated name: its last
        out = {column: [] for column in columns}
        for row in filter(None, reader):
            if len(row) != len(header):
                raise ValueError(f"{path}: line {reader.line_num}: expected {len(header)} "
                                 f"fields as in the header, got {len(row)}")
            for column, kind in columns.items():
                try:
                    out[column].append(kind(row[place[column]]))
                except ValueError:
                    noun = "an integer" if kind is int else "a number"
                    raise ValueError(f"{path}: line {reader.line_num}: {column} "
                                     f"{row[place[column]]!r} is not {noun}") from None
    return out


def load_reference(path: str | None = None) -> dict[str, dict]:
    """Best-model reference accuracies shipped with the package.

    Returns {dataset_id: {best_model, hit1, hit20}}. These values are inputs,
    not something the toolkit recomputes. A dataset_id listed twice raises.
    """
    if path is None:
        path = resources.files("predlim").joinpath("reference/best_models.csv")
    out = {}
    columns = {"dataset_id": str, "best_model": str, "hit1": float, "hit20": float}
    for dataset_id, *fields in zip(*csv_columns(path, columns).values()):
        if dataset_id in out:
            raise ValueError(f"{path}: dataset_id {dataset_id!r} is listed twice")
        out[dataset_id] = dict(zip(("best_model", "hit1", "hit20"), fields))
    return out


def consistency_report(method: str, dataset_ids, predictability, reference) -> dict:
    """Rank and value agreement between one method's dataset predictability and reference accuracy.

    The three columns hold one entry per dataset; a reference of None excludes
    its dataset and lists it in warnings. Returns spearman_rho, rmse, pairs
    (both raw values and their average-tie ranks) and warnings. A
    predictability outside (0, 1], a reference that is not finite or a dataset
    listed twice raises, naming the dataset under method.
    """
    seen: set[str] = set()
    for dataset_id, p, ref in zip(dataset_ids, predictability, reference):
        where = f"{dataset_id} under {method}"
        if not 0.0 < p <= 1.0:
            raise ValueError(f"{where}: predictability {p} is not in (0, 1]")
        if ref is not None and not math.isfinite(ref):
            raise ValueError(f"{where}: reference accuracy {ref} is not finite")
        if dataset_id in seen:
            raise ValueError(f"{where}: listed twice")
        seen.add(dataset_id)
    kept = [row for row in zip(dataset_ids, predictability, reference) if row[2] is not None]
    if len(kept) < 2:
        raise ValueError("need at least 2 datasets with reference accuracies")
    ids, p_d, a_d = zip(*kept)
    p_d, a_d = np.array(p_d), np.array(a_d)
    pairs = [
        {"dataset_id": d, "A_d": float(a), "P_d": float(p), "rank_A": float(ra),
         "rank_P": float(rp)}
        for d, a, p, ra, rp in zip(ids, a_d, p_d, _average_ranks(a_d), _average_ranks(p_d))
    ]
    return {"spearman_rho": spearman(a_d, p_d), "rmse": rmse(a_d, p_d), "pairs": pairs,
            "warnings": [f"{d}: no reference accuracy, excluded"
                         for d, ref in zip(dataset_ids, reference) if ref is None]}


@dataclass
class SweepRow:
    grid_value: float
    method: str
    mean: float
    std: float
    rep_count: int


@dataclass
class SweepTable:
    rows: list[SweepRow]
    rmse_by_method: dict[str, float] = field(default_factory=dict)

    def to_csv(self, path: str) -> None:
        write_csv(path, ["grid_value", "method", "mean", "std", "rep_count"],
                  ([r.grid_value, r.method, repr(r.mean), repr(r.std), r.rep_count]
                   for r in self.rows))


def estimate_entropies(items, offsets, estimator: str, m=None) -> Entropies:
    """Each user's entropy by sampen (template length m, ESTIMATORS' if None) or lz."""
    if estimator == "sampen":
        return sampen_entropies(items, offsets, ESTIMATORS["sampen"]["m"] if m is None else m)
    if estimator == "lz":
        return lz_entropies(items, offsets)
    raise ValueError(f"unknown sequence estimator {estimator!r}")


def score_log(
    log: InteractionLog,
    method: str,
    entropy: Entropies | None = None,
    n_scope: str | None = None,
    d_set=None,
    tau: int | None = None,
) -> Scores:
    """Every user's score by one method, as columns in user order.

    entropy holds one estimate per user, in user order, and is read by the
    methods that read entropy: epl, fano_invert at the log's vocabulary, or
    fano_nr over the log. n_scope defaults to the method's first scope; d_set
    and tau default to perm_predictabilities'. A scope, option or entropy the
    method does not read raises, as does entropy for another number of users.
    """
    spec = METHODS.get(method)
    if spec is None:
        raise ValueError(f"unknown method {method!r}")
    if n_scope is not None and n_scope not in spec["scopes"]:
        takes = " or ".join(spec["scopes"]) or "no n_scope"
        raise ValueError(f"method {method} takes {takes}, not n_scope {n_scope!r}")
    if not spec["reads_entropy"]:
        if entropy is not None:
            raise ValueError(f"method {method} reads no entropy")
        given = {k: v for k, v in (("d_set", d_set), ("tau", tau)) if v is not None}
        return perm_predictabilities(log.items, log.offsets, **given)
    if d_set is not None or tau is not None:
        raise ValueError(f"method {method} takes no d_set or tau")
    if entropy is None:
        raise ValueError(f"method {method} needs entropy estimates")
    if len(entropy) != log.num_users:
        raise ValueError(f"{len(entropy)} entropy estimates for {log.num_users} users")
    if method == "epl":
        return epl(entropy)
    if method == "fano":
        return fano_invert(entropy, log.num_items)
    return fano_nr(entropy, log.items, log.offsets, (n_scope or spec["scopes"][0]) == "per-user")


def _corpus_means(config: GeneratorConfig, methods, estimator: str, m: int) -> dict[str, float]:
    """Unweighted per-user mean of each method's score on the corpus config generates.

    All synthetic users share one length, so uniform and event weighting agree;
    each method scores at its default scope, so the Fano candidate size is the
    corpus vocabulary (the generator's n) and N_r is pooled across the corpus.
    """
    log = generate(config).log
    reads = {meth for meth in methods if METHODS[meth]["reads_entropy"]}
    entropy = estimate_entropies(log.items, log.offsets, estimator, m) if reads else None
    return {meth: float(np.mean(score_log(log, meth, entropy if meth in reads else None).value))
            for meth in methods}


def _rep_seed(base_seed: int, grid_index: int, rep: int) -> int:
    # Independent substream per (grid point, repetition), stable across runs.
    return int(np.random.SeedSequence([base_seed, grid_index, rep]).generate_state(1, np.uint64)[0])


def _map_corpora(score, configs) -> list:
    """score of each config, in order, on up to one forked worker per CPU this process may use;
    in-process for one CPU or one config, without fork, or while other threads run (a forked
    child inherits none of them, but every lock they hold)."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(cpus, len(configs))
    if workers > 1 and threading.active_count() == 1:
        import multiprocessing  # here, so that importing predlim does not pay for it
        if "fork" in multiprocessing.get_all_start_methods():
            with multiprocessing.get_context("fork").Pool(workers) as pool:
                return list(pool.imap(score, configs))  # the first error in config order
    return list(map(score, configs))


def _sweep(mechanism, points, fixed, methods, reps, users, length, seed, estimator,
           m) -> SweepTable:
    """The grid x rep loop shared by both sweeps.

    At each (grid value, n, target) point the noise is inverted once to pin the oracle
    ceiling at target over n items; each rep regenerates the corpus under its own seed.
    Every point is inverted before any corpus is generated; _map_corpora scores them all.
    """
    methods = list(methods)
    for meth in methods:
        if meth not in METHODS:
            raise ValueError(f"unknown method {meth!r}")
    if len(set(methods)) < len(methods):
        raise ValueError(f"a method is listed twice in {methods}")
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    if not points or len({value for value, _, _ in points}) < len(points):
        raise ValueError("a sweep grid needs one or more values, each listed once")
    configs = []
    for gi, (_, n, target) in enumerate(points):
        params = params_for(mechanism, invert_noise(mechanism, target, n=n, **fixed), **fixed)
        config = GeneratorConfig(mechanism, int(n), users, length, seed, params)
        configs += [replace(config, seed=_rep_seed(seed, gi, rep)) for rep in range(reps)]
    means = _map_corpora(partial(_corpus_means, methods=methods, estimator=estimator, m=m),
                         configs)
    rows: list[SweepRow] = []
    for gi, (value, _, _) in enumerate(points):
        for meth in methods:
            vals = np.array([corpus[meth] for corpus in means[gi * reps:(gi + 1) * reps]])
            std = float(vals.std(ddof=1)) if len(vals) >= 2 else 0.0
            rows.append(SweepRow(float(value), meth, float(vals.mean()), std, reps))
    return SweepTable(rows)


def run_difficulty_sweep(
    mechanism: str,
    targets=DIFFICULTY_TARGETS,
    methods=tuple(METHODS),
    reps: int = 10,
    n: int = 10000,
    users: int = 300,
    length: int = 200,
    seed: int = 0,
    estimator: str = "sampen",
    m: int | None = None,
    rho: float | None = None,
    m_latent: int | None = None,
    c: int | None = None,
    m_c: int | None = None,
    s: float | None = None,
) -> SweepTable:
    """Estimate-vs-truth sweep across oracle difficulty levels.

    For each target the mechanism's noise parameter is inverted to pin the
    oracle ceiling, reps corpora are generated, and each method's per-corpus
    mean is recorded as mean +/- std over reps. rmse_by_method compares the
    per-target means against the targets themselves. A fixed parameter left
    None takes the mechanism's default from synth.MECHANISMS, and one the
    mechanism does not read is ignored; m is sampen's template length.
    """
    methods = list(methods)
    fixed = dict(m=m_latent, rho=rho, c=c, m_c=m_c, s=s)
    table = _sweep(mechanism, [(t, n, t) for t in targets], fixed, methods, reps, users, length,
                   seed, estimator, m)
    for meth in methods:
        means = [row.mean for row in table.rows if row.method == meth]
        table.rmse_by_method[meth] = rmse(means, list(targets))
    return table


def run_n_sweep(
    n_grid=N_GRID,
    target_hit1: float = 0.10,
    methods=tuple(METHODS),
    reps: int = 10,
    users: int = 300,
    length: int = 200,
    seed: int = 7,
    estimator: str = "sampen",
    m: int | None = None,
    c: int | None = None,
    m_c: int | None = None,
    s: float | None = None,
) -> SweepTable:
    """Item-space-size sweep at a fixed oracle ceiling (context_switch).

    At each N the in-context noise is re-inverted so the oracle ceiling stays
    at target_hit1 while the candidate space grows; a size-insensitive
    estimate should stay flat across the grid. Defaults as in
    run_difficulty_sweep.
    """
    return _sweep("context_switch", [(n, n, target_hit1) for n in n_grid],
                  dict(c=c, m_c=m_c, s=s), methods, reps, users, length, seed, estimator, m)
