"""Mapping entropy estimates to next-item predictability scores.

Three routes from uncertainty to a score in (0, 1]:

- epl: exp(-S) with S in nats, the reciprocal of the effective candidate size
  exp(S). A lower bound on attainable accuracy that needs no candidate count.
- fano_values / fano_invert / fano_nr: numerically invert the Fano relation
  S_F(Pi) = -Pi log2 Pi - (1-Pi) log2(1-Pi) + (1-Pi) log2(N-1)
  for Pi given a candidate-set size N (the global vocabulary, or the observed
  successor fan-out N_r).
- perm_predictability: 1 minus the minimum normalized permutation entropy over
  a set of embedding dimensions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .entropy import EntropyEstimate, perm_entropies
from .entropy import perm_entropy  # noqa: F401  (the benchmark's tracer wraps it here)
from .sequence_core import transition_fanout

__all__ = [
    "PredictabilityScore",
    "epl",
    "fano_forward",
    "fano_invert",
    "fano_nr",
    "fano_values",
    "perm_predictability",
    "perm_predictabilities",
]

# Every entropy estimator and the options it reads, with their defaults. Those
# with a unit measure an entropy, which epl and the Fano routes can map.
ESTIMATORS = {
    "sampen": {"m": 2, "unit": "nats"},
    "lz": {"unit": "nats"},
    "perm": {"d": (3, 4, 5), "tau": 1},
}
_PERM = ESTIMATORS["perm"]  # the defaults of the perm functions below


@dataclass(frozen=True)
class MethodSpec:
    """What a scoring method reads besides the log."""

    reads_entropy: bool
    scopes: tuple[str, ...] = ()  # accepted n_scope values, the default first


# Every scoring method. The Fano candidate size N is the global vocabulary for
# fano, and the pooled or per-user successor fan-out, clamped to 2, for
# fano_nr. perm reads the sequence itself, through d_set and tau.
METHODS = {
    "epl": MethodSpec(reads_entropy=True),
    "fano": MethodSpec(reads_entropy=True, scopes=("global",)),
    "fano_nr": MethodSpec(reads_entropy=True, scopes=("pooled", "per-user")),
    "perm": MethodSpec(reads_entropy=False),
}


@dataclass(frozen=True)
class PredictabilityScore:
    """A predictability value in (0, 1] tagged with the producing method.

    effective_size = exp(S) is recorded for epl only; n is the candidate
    size used by the Fano methods (absent otherwise).
    """

    value: float
    method: str
    entropy: EntropyEstimate | None = None
    n: int | None = None
    effective_size: float | None = None

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {tuple(METHODS)}, got {self.method!r}")
        if not (0.0 < self.value <= 1.0):
            raise ValueError(f"predictability must lie in (0, 1], got {self.value}")
        if METHODS[self.method].scopes:  # a Fano method, so it records its candidate size
            if self.n is None or self.n < 2:
                raise ValueError("fano scores must record n >= 2")
            if self.value < 1.0 / self.n - 1e-12:
                raise ValueError("fano score below 1/n")


def epl(s: EntropyEstimate) -> PredictabilityScore:
    """Entropy-induced lower bound exp(-S), with S converted to nats.

    Rejects normalized permutation input: its value is not an entropy in nats,
    so exponentiating it would be meaningless. So is an entropy whose exp(S)
    overflows a float (above about 709.78 nats).
    """
    if s.unit is None:
        raise ValueError("normalized permutation entropy cannot be mapped by epl")
    s_nats = s.nats
    try:
        size = math.exp(s_nats)
    except OverflowError:
        raise ValueError(f"entropy {s.value!r} {s.unit} is too large for epl: "
                         "exp(S) overflows a float") from None
    return PredictabilityScore(math.exp(-s_nats), "epl", s, effective_size=size)


_TINY = np.finfo(float).tiny  # the smallest normal float, below every positive 1 - Pi


def fano_forward(pi, n):
    """S_F(Pi) in bits for each (Pi, n), with 0 log 0 = 0 at both endpoints."""
    pi, n = np.asarray(pi, dtype=float), np.asarray(n)
    if n.min(initial=2) < 2:
        raise ValueError("n must be >= 2")
    if not (pi.min(initial=1.0) > 0.0 and pi.max(initial=1.0) <= 1.0):  # NaN fails too
        raise ValueError("Pi must lie in (0, 1]")
    return _fano_forward(pi, _log2(n - 1))[()]


def _fano_forward(pi: np.ndarray, log2_rest):
    """S_F at each Pi given log2(n - 1), its inputs unchecked."""
    q = 1.0 - pi  # 0 only at Pi = 1, where the floor below keeps 0 * log2 q at 0
    return q * log2_rest - (pi * np.log2(pi) + q * np.log2(np.maximum(q, _TINY)))


def _log2(n: np.ndarray):
    """math.log2 of each integer in n; np.log2 can be an ulp off (log2(1621), for one)."""
    if n.size == 1:
        return math.log2(n.item())
    distinct, inverse = np.unique(n, return_inverse=True)
    return np.array([math.log2(k) for k in distinct.tolist()])[inverse].reshape(n.shape)


def fano_values(s_bits, n) -> np.ndarray:
    """For each entropy in bits, the unique Pi in [1/n, 1] with S_F(Pi) equal to it.

    n is one candidate size for every entropy, or one per entropy. S_F is
    strictly decreasing on [1/n, 1] for n >= 2, so bisection converges
    unconditionally. All entropies are bisected at once, one S_F evaluation per
    step, with the inputs checked and each log2(n - 1) taken once before the
    first; each narrows its bracket from [1/n, 1] to width <= 1e-12 and stops.
    S_F flattens toward the uniform endpoint, so a residual-based stop
    there could leave Pi errors far above the width-based bound; running to
    full width keeps round-trips accurate everywhere on (1/n, 1).
    Out-of-range entropies clamp: S <= 0 gives Pi = 1, S >= log2 n gives 1/n.
    """
    s_bits, n = np.asarray(s_bits, dtype=float), np.asarray(n, dtype=np.int64).reshape(-1)
    if n.min(initial=2) < 2:
        raise ValueError("n must be >= 2")
    if not np.isfinite(s_bits).all():
        raise ValueError("entropy must be finite")
    out = np.where(s_bits <= 0.0, 1.0, 1.0 / n)
    idx = np.flatnonzero((s_bits > 0.0) & (s_bits < _log2(n)))
    lo, hi, s_bits = out[idx], np.ones(len(idx)), s_bits[idx]  # S_F(lo) = log2 n > s_bits
    rest = _log2(n - 1) if n.size == 1 else _log2(n[idx] - 1)
    while len(idx):
        mid = 0.5 * (lo + hi)
        above = _fano_forward(mid, rest) > s_bits
        np.copyto(lo, mid, where=above)
        np.copyto(hi, mid, where=~above)
        done = hi - lo <= 1e-12
        if np.count_nonzero(done):
            out[idx[done]] = 0.5 * (lo[done] + hi[done])
            idx, lo, hi, s_bits = (a[~done] for a in (idx, lo, hi, s_bits))
            rest = rest[~done] if np.ndim(rest) else rest
    return out


def fano_invert(s: EntropyEstimate, n: int) -> PredictabilityScore:
    """The Fano score of one estimate at candidate size n: fano_values of its bits."""
    return PredictabilityScore(float(fano_values([s.bits], n)[0]), "fano", s, n)


def fano_nr(s: EntropyEstimate, items, offsets) -> PredictabilityScore:
    """Fano inversion against the observed successor fan-out.

    N_r is transition_fanout's pooled N_r over the users (items, offsets):
    pass a log's arrays, or one user's items and [0, len(items)] for that
    user alone. A fan-out of 1 is clamped to 2 where the Fano relation is
    defined (a deterministic sequence still maps to Pi = 1 through the
    S <= 0 clamp).
    """
    n_r = transition_fanout(items, offsets)
    return replace(fano_invert(s, max(n_r, 2)), method="fano_nr")


def perm_predictability(items, d_set=_PERM["d"], tau=_PERM["tau"]) -> PredictabilityScore:
    """1 minus the minimum normalized permutation entropy over d_set.

    Dimensions whose length precondition fails are skipped so short sequences
    degrade gracefully; only when every d is infeasible does this error. A
    value of exactly 0 (all feasible scales exactly pattern-uniform) is clamped
    to the smallest positive float to stay within (0, 1].
    """
    table = perm_entropies(np.asarray(items), np.array([0, len(items)]), d_set, tau)
    value = _perm_values(table, d_set)[0]
    best = int(np.nanargmin(table[0]))  # the first d on ties
    entropy = EntropyEstimate(float(table[0, best]), None, "perm_normalized",
                              {"d": d_set[best], "tau": tau})
    return PredictabilityScore(float(value), "perm", entropy)


def perm_predictabilities(items, offsets, d_set=_PERM["d"], tau=_PERM["tau"]) -> np.ndarray:
    """perm_predictability's value of each user's items, in order, from one perm_entropies
    table."""
    return _perm_values(perm_entropies(items, offsets, d_set, tau), d_set)


def _perm_values(table: np.ndarray, d_set) -> np.ndarray:
    if np.isnan(table).all(axis=1).any():
        raise ValueError(f"no feasible embedding dimension in {tuple(d_set)}")
    return np.maximum(1.0 - np.nanmin(table, axis=1), _TINY)
