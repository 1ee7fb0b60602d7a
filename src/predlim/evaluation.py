"""Scoring dispatch, dataset-level aggregation, consistency statistics, and sweeps.

The CLI and both sweeps pick an estimator through estimate_user and score a
whole log by one method through score_log, as predictability.METHODS says.
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
from dataclasses import dataclass, field, replace
from importlib import resources

import numpy as np

from .entropy import EntropyEstimate, lz_entropy, sampen
from .predictability import ESTIMATORS, METHODS, PredictabilityScore, epl, fano_invert
from .predictability import perm_predictabilities
from .predictability import perm_predictability  # noqa: F401  (the benchmark's tracer wraps it)
from .sequence_core import InteractionLog, transition_fanout
from .synth import GeneratorConfig, generate, invert_noise, params_for

__all__ = [
    "DatasetScore",
    "ConsistencyReport",
    "SweepRow",
    "SweepTable",
    "aggregate_dataset",
    "spearman",
    "rmse",
    "load_reference",
    "consistency_report",
    "estimate_user",
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


@dataclass
class DatasetScore:
    dataset_id: str
    predictability: float
    method: str
    reference_accuracy: float | None = None


@dataclass
class ConsistencyReport:
    method: str
    spearman_rho: float
    rmse: float
    pairs: list[dict]
    warnings: list[str] = field(default_factory=list)


def aggregate_dataset(scores, weights) -> float:
    """Weighted mean of per-user predictability values.

    Weights are the per-user event counts; pass T_u - 1 so each user counts
    once per next-item prediction they define.
    """
    values = np.asarray([getattr(s, "value", s) for s in scores], dtype=float)
    w = np.asarray(weights, dtype=float)
    if len(values) == 0:
        raise ValueError("no scores to aggregate")
    if len(w) != len(values):
        raise ValueError("weights length mismatch")
    if np.any(w <= 0):
        raise ValueError("weights must be positive")
    return float((values * w).sum() / w.sum())


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """Ranks 1..n with tied values sharing the average of their positions."""
    order = np.argsort(values, kind="stable")
    sorted_vals = values[order]
    ranks = np.empty(len(values), dtype=float)
    positions = np.arange(1, len(values) + 1, dtype=float)
    start = 0
    for i in range(1, len(values) + 1):
        if i == len(values) or sorted_vals[i] != sorted_vals[start]:
            ranks[order[start:i]] = positions[start:i].mean()
            start = i
    return ranks


def spearman(a, b) -> float:
    """Spearman rank correlation: Pearson correlation of average-tie ranks."""
    x = np.asarray(a, dtype=float)
    y = np.asarray(b, dtype=float)
    if len(x) != len(y):
        raise ValueError("length mismatch")
    if len(x) < 2:
        raise ValueError("need at least 2 points")
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


def load_reference(path: str | None = None) -> dict[str, dict]:
    """Best-model reference accuracies shipped with the package.

    Returns {dataset_id: {best_model, hit1, hit20}}. These values are inputs,
    not something the toolkit recomputes.
    """
    if path is None:
        ref = resources.files("predlim").joinpath("reference/best_models.csv")
        text = ref.read_text(encoding="utf-8")
    else:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    out = {}
    for row in csv.DictReader(text.splitlines()):
        out[row["dataset_id"]] = {
            "best_model": row["best_model"],
            "hit1": float(row["hit1"]),
            "hit20": float(row["hit20"]),
        }
    return out


def consistency_report(dataset_scores: list[DatasetScore]) -> ConsistencyReport:
    """Rank and value agreement between predictability and reference accuracy.

    Scores lacking a reference accuracy are excluded and listed in warnings.
    Pairs carry both raw values and their average-tie ranks.
    """
    if not dataset_scores:
        raise ValueError("no dataset scores")
    methods = {s.method for s in dataset_scores}
    if len(methods) != 1:
        raise ValueError(f"mixed methods in one report: {sorted(methods)}")
    kept = [s for s in dataset_scores if s.reference_accuracy is not None]
    warnings = [
        f"{s.dataset_id}: no reference accuracy, excluded"
        for s in dataset_scores
        if s.reference_accuracy is None
    ]
    if len(kept) < 2:
        raise ValueError("need at least 2 datasets with reference accuracies")
    p_d = np.array([s.predictability for s in kept])
    a_d = np.array([s.reference_accuracy for s in kept])
    rank_p = _average_ranks(p_d)
    rank_a = _average_ranks(a_d)
    pairs = [
        {
            "dataset_id": s.dataset_id,
            "A_d": float(a),
            "P_d": float(p),
            "rank_A": float(ra),
            "rank_P": float(rp),
        }
        for s, a, p, ra, rp in zip(kept, a_d, p_d, rank_a, rank_p)
    ]
    return ConsistencyReport(
        method=next(iter(methods)),
        spearman_rho=spearman(a_d, p_d),
        rmse=rmse(a_d, p_d),
        pairs=pairs,
        warnings=warnings,
    )


@dataclass
class SweepRow:
    grid_value: float
    method: str
    mean: float
    std: float
    rep_count: int


@dataclass
class SweepTable:
    kind: str
    rows: list[SweepRow]
    rmse_by_method: dict[str, float] = field(default_factory=dict)

    def to_csv(self, path: str) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["grid_value", "method", "mean", "std", "rep_count"])
            for row in self.rows:
                writer.writerow(
                    [row.grid_value, row.method, repr(row.mean), repr(row.std), row.rep_count]
                )

    def means(self, method: str) -> list[tuple[float, float]]:
        return [(r.grid_value, r.mean) for r in self.rows if r.method == method]


def estimate_user(items: np.ndarray, estimator: str, m: int | None = None) -> EntropyEstimate:
    """One user's entropy by sampen (template length m, ESTIMATORS' if None) or lz."""
    if estimator == "sampen":
        return sampen(items, m=ESTIMATORS["sampen"]["m"] if m is None else m)
    if estimator == "lz":
        return lz_entropy(items)
    raise ValueError(f"unknown sequence estimator {estimator!r}")


def score_log(
    log: InteractionLog,
    method: str,
    estimates: dict[int, EntropyEstimate] | None = None,
    n_scope: str | None = None,
    d_set=None,
    tau: int | None = None,
) -> list[PredictabilityScore]:
    """Every user's score by one method, in user order.

    estimates maps user_index to an entropy estimate and is read by the
    methods that read entropy. n_scope defaults to the method's first scope;
    d_set and tau default to perm_predictability's. A scope or option the
    method does not read raises, as does a user without an estimate.
    """
    spec = METHODS.get(method)
    if spec is None:
        raise ValueError(f"unknown method {method!r}")
    if n_scope is not None and n_scope not in spec.scopes:
        takes = " or ".join(spec.scopes) or "no n_scope"
        raise ValueError(f"method {method} takes {takes}, not n_scope {n_scope!r}")
    sequences = log.sequences
    if not spec.reads_entropy:
        given = {k: v for k, v in (("d_set", d_set), ("tau", tau)) if v is not None}
        return perm_predictabilities([s.items for s in sequences], **given)
    if d_set is not None or tau is not None:
        raise ValueError(f"method {method} takes no d_set or tau")
    if estimates is None:
        raise ValueError(f"method {method} needs entropy estimates")
    missing = [s.user_index for s in sequences if s.user_index not in estimates]
    if missing:
        raise ValueError(f"no entropy estimate for user {missing[0]}")
    ests = [estimates[s.user_index] for s in sequences]
    if method == "epl":
        return [epl(e) for e in ests]
    if method == "fano":
        return [fano_invert(e, len(log.vocabulary)) for e in ests]
    if (n_scope or spec.scopes[0]) == "pooled":
        n_r = [transition_fanout(sequences)] * len(sequences)
    else:
        n_r = [transition_fanout([s]) for s in sequences]
    return [replace(fano_invert(e, max(n, 2)), method="fano_nr") for e, n in zip(ests, n_r)]


def _corpus_means(log: InteractionLog, methods, estimator: str, m: int) -> dict[str, float]:
    """Unweighted per-user mean of each method's score on one corpus.

    All synthetic users share one length, so uniform and event weighting agree;
    each method scores at its default scope, so the Fano candidate size is the
    corpus vocabulary (the generator's n) and N_r is pooled across the corpus.
    """
    estimates = None
    if any(METHODS[meth].reads_entropy for meth in methods):
        estimates = {s.user_index: estimate_user(s.items, estimator, m) for s in log.sequences}
    return {
        meth: float(np.mean([score.value for score in score_log(log, meth, estimates)]))
        for meth in methods
    }


def _rep_seed(base_seed: int, grid_index: int, rep: int) -> int:
    # Independent substream per (grid point, repetition), stable across runs.
    return int(np.random.SeedSequence([base_seed, grid_index, rep]).generate_state(1, np.uint64)[0])


def _sweep(kind, grid, config_at, methods, reps, seed, estimator, m) -> SweepTable:
    """The grid x rep loop shared by both sweeps.

    config_at(value) gives the corpus configuration at one grid point, noise
    inverted once; each rep regenerates it under its own seed substream.
    """
    methods = list(methods)
    for meth in methods:
        if meth not in METHODS:
            raise ValueError(f"unknown method {meth!r}")
    if len(set(methods)) < len(methods):
        raise ValueError(f"a method is listed twice in {methods}")
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    rows: list[SweepRow] = []
    for gi, value in enumerate(grid):
        config = config_at(value)
        rep_vals: dict[str, list[float]] = {meth: [] for meth in methods}
        for rep in range(reps):
            corpus = generate(replace(config, seed=_rep_seed(seed, gi, rep)))
            for meth, val in _corpus_means(corpus.log, methods, estimator, m).items():
                rep_vals[meth].append(val)
        for meth in methods:
            vals = np.array(rep_vals[meth])
            std = float(vals.std(ddof=1)) if len(vals) >= 2 else 0.0
            rows.append(SweepRow(float(value), meth, float(vals.mean()), std, reps))
    return SweepTable(kind=kind, rows=rows)


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
    fixed = dict(m=m_latent, rho=rho, c=c, m_c=m_c, s=s)

    def config_at(target: float) -> GeneratorConfig:
        noise = invert_noise(mechanism, target, n=n, **fixed)
        params = params_for(mechanism, noise, **fixed)
        return GeneratorConfig(mechanism, n, users, length, seed, params)

    methods = list(methods)
    table = _sweep("difficulty", targets, config_at, methods, reps, seed, estimator, m)
    for meth in methods:
        means = [mean for _, mean in table.means(meth)]
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
    fixed = dict(c=c, m_c=m_c, s=s)

    def config_at(n) -> GeneratorConfig:
        eps = invert_noise("context_switch", target_hit1, n=n, **fixed)
        params = params_for("context_switch", eps, **fixed)
        return GeneratorConfig("context_switch", int(n), users, length, seed, params)

    return _sweep("n", n_grid, config_at, methods, reps, seed, estimator, m)
