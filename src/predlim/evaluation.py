"""Scoring dispatch, dataset-level aggregation, consistency statistics, and sweeps.

The CLI and both sweeps estimate a whole log's entropies through
estimate_entropies and score it by one method through score_log, as
predictability.METHODS says.
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

from .entropy import EntropyEstimate, lz_entropies, sampen_entropies
from .entropy import lz_entropy, sampen  # noqa: F401  (the benchmark's tracer wraps them)
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


def csv_rows(path, columns: dict):
    """Each non-blank row of the CSV file at path as a dict, each of columns parsed by its
    type (str, int or float); a header lacking one of columns, a row not as wide as the
    header or a field its type cannot parse raises naming the line."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        missing = [c for c in columns if c not in header]
        if missing:
            raise ValueError(f"{path}: line 1: the header has no {missing[0]} column")
        for row in filter(None, reader):
            if len(row) != len(header):
                raise ValueError(f"{path}: line {reader.line_num}: expected {len(header)} "
                                 f"fields as in the header, got {len(row)}")
            fields = dict(zip(header, row))
            for column, kind in columns.items():
                try:
                    fields[column] = kind(fields[column])
                except ValueError:
                    noun = "an integer" if kind is int else "a number"
                    raise ValueError(f"{path}: line {reader.line_num}: {column} "
                                     f"{fields[column]!r} is not {noun}") from None
            yield fields


def load_reference(path: str | None = None) -> dict[str, dict]:
    """Best-model reference accuracies shipped with the package.

    Returns {dataset_id: {best_model, hit1, hit20}}. These values are inputs,
    not something the toolkit recomputes. A dataset_id listed twice raises.
    """
    if path is None:
        path = resources.files("predlim").joinpath("reference/best_models.csv")
    out = {}
    columns = {"dataset_id": str, "best_model": str, "hit1": float, "hit20": float}
    for row in csv_rows(path, columns):
        if row["dataset_id"] in out:
            raise ValueError(f"{path}: dataset_id {row['dataset_id']!r} is listed twice")
        out[row["dataset_id"]] = {k: row[k] for k in ("best_model", "hit1", "hit20")}
    return out


def consistency_report(dataset_scores: list[DatasetScore]) -> ConsistencyReport:
    """Rank and value agreement between predictability and reference accuracy.

    Scores lacking a reference accuracy are excluded and listed in warnings.
    Pairs carry both raw values and their average-tie ranks. A predictability
    outside (0, 1], a reference accuracy that is not finite or a dataset
    listed twice raises.
    """
    if not dataset_scores:
        raise ValueError("no dataset scores")
    methods = {s.method for s in dataset_scores}
    if len(methods) != 1:
        raise ValueError(f"mixed methods in one report: {sorted(methods)}")
    seen: set[str] = set()
    for s in dataset_scores:
        where, ref = f"{s.dataset_id} under {s.method}", s.reference_accuracy
        if not 0.0 < s.predictability <= 1.0:
            raise ValueError(f"{where}: predictability {s.predictability} is not in (0, 1]")
        if ref is not None and not math.isfinite(ref):
            raise ValueError(f"{where}: reference accuracy {ref} is not finite")
        if s.dataset_id in seen:
            raise ValueError(f"{where}: listed twice")
        seen.add(s.dataset_id)
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


def estimate_entropies(items, offsets, estimator: str, m=None) -> list[EntropyEstimate]:
    """Each user's entropy by sampen (template length m, ESTIMATORS' if None) or lz."""
    if estimator == "sampen":
        return sampen_entropies(items, offsets, ESTIMATORS["sampen"]["m"] if m is None else m)
    if estimator == "lz":
        return lz_entropies(items, offsets)
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
    method does not read raises, as does a user without an estimate or an
    estimate for no user of the log.
    """
    spec = METHODS.get(method)
    if spec is None:
        raise ValueError(f"unknown method {method!r}")
    if n_scope is not None and n_scope not in spec.scopes:
        takes = " or ".join(spec.scopes) or "no n_scope"
        raise ValueError(f"method {method} takes {takes}, not n_scope {n_scope!r}")
    if not spec.reads_entropy:
        given = {k: v for k, v in (("d_set", d_set), ("tau", tau)) if v is not None}
        return perm_predictabilities(log.items, log.offsets, **given)
    if d_set is not None or tau is not None:
        raise ValueError(f"method {method} takes no d_set or tau")
    if estimates is None:
        raise ValueError(f"method {method} needs entropy estimates")
    ests = [estimates.get(u) for u in range(log.num_users)]
    if None in ests:
        raise ValueError(f"no entropy estimate for user {ests.index(None)}")
    extra = estimates.keys() - set(range(log.num_users))
    if extra:
        raise ValueError(f"entropy estimate for user {min(extra)}, who is not in the log")
    if method == "epl":
        return [epl(e) for e in ests]
    if method == "fano":
        ns = [len(log.vocabulary)] * len(ests)
    else:
        per_user = (n_scope or spec.scopes[0]) == "per-user"
        n_r = transition_fanout(log.items, log.offsets, log.num_items, per_user)
        ns = np.maximum(n_r, 2).tolist() if per_user else [max(n_r, 2)] * len(ests)
    keys = [(e.bits, n) for e, n in zip(ests, ns)]  # a Fano value depends on these alone
    value = {key: fano_invert(e, key[1]) for key, e in dict(zip(keys, ests)).items()}
    return [replace(value[key], method=method, entropy=e) for key, e in zip(keys, ests)]


def _corpus_means(log: InteractionLog, methods, estimator: str, m: int) -> dict[str, float]:
    """Unweighted per-user mean of each method's score on one corpus.

    All synthetic users share one length, so uniform and event weighting agree;
    each method scores at its default scope, so the Fano candidate size is the
    corpus vocabulary (the generator's n) and N_r is pooled across the corpus.
    """
    estimates = None
    if any(METHODS[meth].reads_entropy for meth in methods):
        estimates = dict(enumerate(estimate_entropies(log.items, log.offsets, estimator, m)))
    return {
        meth: float(np.mean([score.value for score in score_log(log, meth, estimates)]))
        for meth in methods
    }


def _rep_seed(base_seed: int, grid_index: int, rep: int) -> int:
    # Independent substream per (grid point, repetition), stable across runs.
    return int(np.random.SeedSequence([base_seed, grid_index, rep]).generate_state(1, np.uint64)[0])


def _sweep(kind, mechanism, points, fixed, methods, reps, users, length, seed, estimator,
           m) -> SweepTable:
    """The grid x rep loop shared by both sweeps.

    At each (grid value, n, target) point the noise is inverted once to pin the oracle
    ceiling at target over n items; each rep regenerates the corpus under its own seed.
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
    rows: list[SweepRow] = []
    for gi, (value, n, target) in enumerate(points):
        params = params_for(mechanism, invert_noise(mechanism, target, n=n, **fixed), **fixed)
        config = GeneratorConfig(mechanism, int(n), users, length, seed, params)
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
    methods = list(methods)
    fixed = dict(m=m_latent, rho=rho, c=c, m_c=m_c, s=s)
    table = _sweep("difficulty", mechanism, [(t, n, t) for t in targets], fixed, methods, reps,
                   users, length, seed, estimator, m)
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
    return _sweep("n", "context_switch", [(n, n, target_hit1) for n in n_grid],
                  dict(c=c, m_c=m_c, s=s), methods, reps, users, length, seed, estimator, m)
