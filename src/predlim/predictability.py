"""Mapping entropy estimates to next-item predictability scores.

Three routes from uncertainty to a score in (0, 1]:

- epl: exp(-S) with S in nats, the reciprocal of the effective candidate size
  exp(S). A lower bound on attainable accuracy that needs no candidate count.
- fano_invert / fano_nr: numerically invert the Fano relation
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

    effective_size = 1 / value is recorded for epl only; n is the candidate
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
    so exponentiating it would be meaningless.
    """
    if s.unit is None:
        raise ValueError("normalized permutation entropy cannot be mapped by epl")
    s_nats = s.nats
    return PredictabilityScore(
        value=math.exp(-s_nats),
        method="epl",
        entropy=s,
        effective_size=math.exp(s_nats),
    )


def fano_forward(pi: float, n: int) -> float:
    """S_F(Pi) in bits, with 0 log 0 = 0 at both endpoints."""
    if n < 2:
        raise ValueError("n must be >= 2")
    if not (0.0 < pi <= 1.0):
        raise ValueError("Pi must lie in (0, 1]")
    h = 0.0
    if 0.0 < pi < 1.0:
        h = -pi * math.log2(pi) - (1.0 - pi) * math.log2(1.0 - pi)
    return h + (1.0 - pi) * math.log2(n - 1) if pi < 1.0 else 0.0


def fano_invert(s: EntropyEstimate, n: int) -> PredictabilityScore:
    """The unique Pi in [1/n, 1] with S_F(Pi) equal to the estimate, in bits.

    S_F is strictly decreasing on [1/n, 1] for n >= 2, so bisection converges
    unconditionally. The bracket is narrowed to width <= 1e-12: S_F flattens
    toward the uniform endpoint, so a residual-based stop there could leave Pi
    errors far above the width-based bound; running to full width keeps
    round-trips accurate everywhere on (1/n, 1).
    Out-of-range entropies clamp: S <= 0 gives Pi = 1, S >= log2 n gives 1/n.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    s_bits = s.bits
    if not math.isfinite(s_bits):
        raise ValueError("entropy must be finite")
    lo_pi = 1.0 / n
    if s_bits <= 0.0:
        return PredictabilityScore(value=1.0, method="fano", entropy=s, n=n)
    if s_bits >= math.log2(n):
        return PredictabilityScore(value=lo_pi, method="fano", entropy=s, n=n)
    lo, hi = lo_pi, 1.0  # S_F(lo) = log2 n > s_bits > 0 = S_F(hi)
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if fano_forward(mid, n) > s_bits:
            lo = mid
        else:
            hi = mid
    return PredictabilityScore(value=0.5 * (lo + hi), method="fano", entropy=s, n=n)


def fano_nr(s: EntropyEstimate, items, offsets, n: int) -> PredictabilityScore:
    """Fano inversion against the observed successor fan-out.

    N_r is transition_fanout's pooled N_r over the users (items, offsets),
    with every item below n: pass a log's arrays, or one user's items and
    [0, len(items)] for that user alone. A fan-out of 1 is clamped to 2 where
    the Fano relation is defined (a deterministic sequence still maps to
    Pi = 1 through the S <= 0 clamp).
    """
    n_r = transition_fanout(items, offsets, n)
    return replace(fano_invert(s, max(n_r, 2)), method="fano_nr")


def perm_predictability(items, d_set=_PERM["d"], tau=_PERM["tau"]) -> PredictabilityScore:
    """1 minus the minimum normalized permutation entropy over d_set.

    Dimensions whose length precondition fails are skipped so short sequences
    degrade gracefully; only when every d is infeasible does this error. A
    value of exactly 0 (all feasible scales exactly pattern-uniform) is clamped
    to the smallest positive float to stay within (0, 1].
    """
    return perm_predictabilities(np.asarray(items), np.array([0, len(items)]), d_set, tau)[0]


def perm_predictabilities(items, offsets, d_set=_PERM["d"], tau=_PERM["tau"]) -> list:
    """perm_predictability of each user's items, in order, from one perm_entropies table."""
    table = perm_entropies(items, offsets, d_set, tau)
    if np.isnan(table).all(axis=1).any():
        raise ValueError(f"no feasible embedding dimension in {tuple(d_set)}")
    best = np.nanargmin(table, axis=1)  # the first d on ties
    values = table[np.arange(len(table)), best].tolist()
    tiny = np.finfo(float).tiny
    scores = []
    for j, v in zip(best.tolist(), values):
        entropy = EntropyEstimate(v, None, "perm_normalized", {"d": d_set[j], "tau": tau})
        scores.append(PredictabilityScore(max(1.0 - v, tiny), "perm", entropy))
    return scores
