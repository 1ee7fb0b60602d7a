"""Mapping entropy estimates to next-item predictability scores.

Three routes from uncertainty to a score in (0, 1]:

- epl: exp(-S) with S in nats, the reciprocal of the effective candidate size
  exp(S). A lower bound on attainable accuracy that needs no candidate count.
- fano_values / fano_invert / fano_nr: numerically invert the Fano relation
  S_F(Pi) = -Pi log2 Pi - (1-Pi) log2(1-Pi) + (1-Pi) log2(N-1)
  for Pi given a candidate-set size N (the global vocabulary, or the observed
  successor fan-out N_r).
- perm_predictabilities: 1 minus the minimum normalized permutation entropy
  over a set of embedding dimensions.

Each maps every user of an Entropies, or of a log's (items, offsets), to a
Scores in user order; perm_predictability is the one-row call on one array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .entropy import Entropies, perm_entropies
from .entropy import perm_entropy  # noqa: F401  (the benchmark's tracer wraps it here)
from .sequence_core import transition_fanout

__all__ = [
    "Scores",
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


# Every scoring method: whether it reads entropy, and the n_scope values it takes, the default
# first. The Fano candidate size N is the global vocabulary for fano, and the pooled or per-user
# successor fan-out, clamped to 2, for fano_nr. perm reads the sequence, through d_set and tau.
METHODS = {
    "epl": {"reads_entropy": True, "scopes": ()},
    "fano": {"reads_entropy": True, "scopes": ("global",)},
    "fano_nr": {"reads_entropy": True, "scopes": ("pooled", "per-user")},
    "perm": {"reads_entropy": False, "scopes": ()},
}


@dataclass(frozen=True)
class Scores:
    """One method's score of each user, as columns in user order.

    effective_size = exp(S) is recorded for epl only, and the candidate size n
    for the Fano methods only.
    """

    value: np.ndarray
    effective_size: np.ndarray | None = None
    n: np.ndarray | None = None


def epl(entropy: Entropies) -> Scores:
    """Entropy-induced lower bound exp(-S) of each user, with S converted to nats.

    An entropy whose exp(S) overflows a float (above about 709.78 nats)
    raises, naming the first such user's value in its own unit.
    """
    nats = entropy.to("nats").value.tolist()
    size = []
    for u, s in enumerate(nats):
        try:
            size.append(math.exp(s))
        except OverflowError:
            unit = np.broadcast_to(entropy.unit, len(nats))[u]
            raise ValueError(f"entropy {entropy.value[u].item()!r} {unit} is too large for epl: "
                             "exp(S) overflows a float") from None
    return Scores(np.array([math.exp(-s) for s in nats]), effective_size=np.array(size))


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
    s_bits, n = np.asarray(s_bits, dtype=float), np.asarray(n, dtype=np.int64)
    if n.min(initial=2) < 2:
        raise ValueError("n must be >= 2")
    if not np.isfinite(s_bits).all():
        raise ValueError("entropy must be finite")
    n = np.broadcast_to(n, s_bits.shape)
    out = np.where(s_bits <= 0.0, 1.0, 1.0 / n)
    idx = np.flatnonzero((s_bits > 0.0) & (s_bits < _log2(n)))
    lo, hi, s_bits = out[idx], np.ones(len(idx)), s_bits[idx]  # S_F(lo) = log2 n > s_bits
    rest = _log2(n[idx] - 1)
    while len(idx):
        mid = 0.5 * (lo + hi)
        above = _fano_forward(mid, rest) > s_bits
        np.copyto(lo, mid, where=above)
        np.copyto(hi, mid, where=~above)
        done = hi - lo <= 1e-12
        if np.count_nonzero(done):
            out[idx[done]] = 0.5 * (lo[done] + hi[done])
            idx, lo, hi, s_bits, rest = (a[~done] for a in (idx, lo, hi, s_bits, rest))
    return out


def fano_invert(entropy: Entropies, n) -> Scores:
    """Each user's Fano score at candidate size n, one for all or one per user: fano_values of
    the entropies in bits."""
    values = fano_values(entropy.to("bits").value, n)
    return Scores(values, n=np.broadcast_to(n, len(values)))


def fano_nr(entropy: Entropies, items, offsets, per_user: bool = False) -> Scores:
    """Fano inversion against the observed successor fan-out.

    N_r is transition_fanout's N_r of the users (items, offsets), pooled over
    them or, with per_user, each user's own. A fan-out of 1 is clamped to 2
    where the Fano relation is defined (a deterministic sequence still maps to
    Pi = 1 through the S <= 0 clamp).
    """
    return fano_invert(entropy, np.maximum(transition_fanout(items, offsets, per_user), 2))


def perm_predictability(items, d_set=_PERM["d"], tau=_PERM["tau"]) -> Scores:
    """perm_predictabilities of one array: a one-row Scores."""
    return perm_predictabilities(np.asarray(items), np.array([0, len(items)]), d_set, tau)


def perm_predictabilities(items, offsets, d_set=_PERM["d"], tau=_PERM["tau"]) -> Scores:
    """1 minus each user's minimum normalized permutation entropy over d_set.

    Dimensions whose length precondition fails are skipped so short sequences
    degrade gracefully; only a user for whom every d is infeasible raises. A
    value of exactly 0 (all feasible scales exactly pattern-uniform) is clamped
    to the smallest positive float to stay within (0, 1].
    """
    table = perm_entropies(items, offsets, d_set, tau)
    if np.isnan(table).all(axis=1).any():
        raise ValueError(f"no feasible embedding dimension in {tuple(d_set)}")
    return Scores(np.maximum(1.0 - np.nanmin(table, axis=1), _TINY))
