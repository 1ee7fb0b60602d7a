"""Entropy estimators for symbolic sequences.

Four estimators with explicit unit bookkeeping: exact plug-in entropy over a
known distribution, sample entropy (exact template matching, suited to
categorical ids), a match-length estimator in the Lempel-Ziv family, and
normalized permutation entropy over ordinal patterns. Sample entropy and the
match-length estimator measure the sequence's conditional surprise and carry a
unit (nats or bits); permutation entropy is normalized to [0, 1] and is
deliberately unitless.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "EntropyEstimate",
    "Distribution",
    "plugin_entropy",
    "sampen",
    "lz_entropy",
    "perm_entropy",
    "perm_entropies",
]

LN2 = math.log(2.0)
UNITS = ("nats", "bits")
# Embedding vectors counted per np.unique call. A chunk's temporaries take about
# 150 bytes a vector, so a CLI step's peak stays that of loading its log.
PERM_CHUNK_WINDOWS = 1 << 13


@dataclass(frozen=True)
class EntropyEstimate:
    """A scalar uncertainty with its unit and the estimator that produced it.

    unit is "nats" or "bits", except for the normalized permutation estimator
    whose value lives in [0, 1] and has unit None; converting such an estimate
    raises instead of silently reinterpreting it.
    """

    value: float
    unit: str | None
    estimator: str
    params: dict = field(default_factory=dict)
    flags: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not math.isfinite(self.value) or self.value < 0:
            raise ValueError(f"entropy value must be finite and >= 0, got {self.value}")
        if self.estimator == "perm_normalized":
            if self.unit is not None:
                raise ValueError("normalized permutation entropy is unitless")
            if self.value > 1.0:
                raise ValueError("normalized entropy must lie in [0, 1]")
        elif self.unit not in UNITS:
            raise ValueError(f"unit must be one of {UNITS}, got {self.unit!r}")

    def to(self, unit: str) -> "EntropyEstimate":
        """Convert between nats and bits (bits = nats / ln 2)."""
        if unit not in UNITS:
            raise ValueError(f"unit must be one of {UNITS}, got {unit!r}")
        if self.unit is None:
            raise ValueError("normalized permutation entropy has no convertible unit")
        if unit == self.unit:
            return self
        value = self.value / LN2 if unit == "bits" else self.value * LN2
        return EntropyEstimate(value, unit, self.estimator, dict(self.params), self.flags)

    @property
    def nats(self) -> float:
        return self.to("nats").value

    @property
    def bits(self) -> float:
        return self.to("bits").value


@dataclass(frozen=True)
class Distribution:
    """Explicit probability vector; probabilities must sum to 1 within 1e-9."""

    probs: np.ndarray
    support_size: int

    def __post_init__(self) -> None:
        probs = np.asarray(self.probs, dtype=float)
        object.__setattr__(self, "probs", probs)
        if probs.ndim != 1 or len(probs) != self.support_size:
            raise ValueError("probs must be 1-d of length support_size")
        if np.any(probs < 0):
            raise ValueError("probabilities must be non-negative")
        if abs(float(probs.sum()) - 1.0) > 1e-9:
            raise ValueError(f"probabilities sum to {probs.sum()}, not 1")

    @classmethod
    def from_probs(cls, probs) -> "Distribution":
        probs = np.asarray(probs, dtype=float)
        return cls(probs=probs, support_size=len(probs))

    @property
    def p_max(self) -> float:
        return float(self.probs.max())


def plugin_entropy(d: Distribution, unit: str = "nats") -> EntropyEstimate:
    """Shannon entropy -sum p log p of an explicit distribution.

    Zero-probability entries contribute nothing (0 log 0 = 0).
    """
    p = d.probs[d.probs > 0]
    h_nats = float(-(p * np.log(p)).sum())
    h_nats = max(h_nats, 0.0)  # guard tiny negative rounding on point masses
    est = EntropyEstimate(h_nats, "nats", "plugin", {"support_size": d.support_size})
    return est.to(unit)


def _window_match_pairs(windows: np.ndarray, n_symbols: int) -> int:
    """Number of index pairs i < j whose rows are identical.

    Rows are packed into single integers when the window fits in 63 bits,
    otherwise counted via row-wise unique.
    """
    k, w = windows.shape
    if k < 2:
        return 0
    bits = max(int(n_symbols - 1).bit_length(), 1)
    if w * bits <= 63:
        weights = (1 << (bits * np.arange(w - 1, -1, -1))).astype(np.int64)
        packed = windows @ weights
        _, counts = np.unique(packed, return_counts=True)
    else:
        _, counts = np.unique(windows, axis=0, return_counts=True)
    counts = counts.astype(np.int64)
    return int((counts * (counts - 1) // 2).sum())


def sampen(items: np.ndarray, m: int = 2) -> EntropyEstimate:
    """Sample entropy with exact template matching, in nats.

    B counts index pairs i < j whose length-m windows are identical, A the same
    for length m+1; both window sets range over the first T-m starting
    positions, so every (m+1)-match is also an m-match and -ln(A/B) >= 0. Item
    ids are categorical, so matching is exact equality (tolerance r = 0 under
    the discrete metric). Degenerate inputs return the cap ln(pair count):
    flags carry "saturated", plus "no_regularity" when even B is zero.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    x = np.ascontiguousarray(items, dtype=np.int64)
    t = len(x)
    if t < m + 2:
        raise ValueError(f"sequence length {t} is below m + 2 = {m + 2}")
    n_symbols = int(x.max()) + 1
    starts = t - m
    wins_m = np.lib.stride_tricks.sliding_window_view(x, m)[:starts]
    wins_m1 = np.lib.stride_tricks.sliding_window_view(x, m + 1)
    b = _window_match_pairs(wins_m, n_symbols)
    a = _window_match_pairs(wins_m1, n_symbols)
    params = {"m": m, "A": a, "B": b}
    cap = math.log(starts * (starts - 1) // 2)
    if b == 0:
        return EntropyEstimate(cap, "nats", "sampen", params, ("saturated", "no_regularity"))
    if a == 0:
        return EntropyEstimate(cap, "nats", "sampen", params, ("saturated",))
    return EntropyEstimate(math.log(b / a), "nats", "sampen", params)


def _suffix_array(x: np.ndarray) -> np.ndarray:
    """Suffix array by prefix doubling over lexsort."""
    n = len(x)
    rank = np.unique(x, return_inverse=True)[1].astype(np.int64)
    k = 1
    while True:
        if int(rank.max()) == n - 1:
            sa = np.empty(n, dtype=np.int64)
            sa[rank] = np.arange(n)
            return sa
        key2 = np.full(n, -1, dtype=np.int64)
        key2[: n - k] = rank[k:]
        order = np.lexsort((key2, rank))
        boundary = np.empty(n, dtype=np.int64)
        boundary[0] = 0
        boundary[1:] = (rank[order[1:]] != rank[order[:-1]]) | (
            key2[order[1:]] != key2[order[:-1]]
        )
        rank[order] = np.cumsum(boundary)
        k *= 2


def _lcp_array(x: np.ndarray, sa: np.ndarray) -> np.ndarray:
    """Kasai: lcp[i] = common prefix length of suffixes sa[i-1] and sa[i]."""
    n = len(x)
    rank = np.empty(n, dtype=np.int64)
    rank[sa] = np.arange(n)
    lcp = np.zeros(n, dtype=np.int64)
    h = 0
    for j in range(n):
        r = rank[j]
        if r == 0:
            h = 0
            continue
        p = sa[r - 1]
        while j + h < n and p + h < n and x[j + h] == x[p + h]:
            h += 1
        lcp[r] = h
        if h:
            h -= 1
    return lcp


def _longest_previous_match(x: np.ndarray) -> np.ndarray:
    """For each position j, the longest prefix of x[j:] occurring at some p < j.

    Occurrences may overlap position j. Stack pass over the suffix array
    (Crochemore-Ilie); lpf[0] = 0 by definition.
    """
    n = len(x)
    sa = _suffix_array(x)
    lcp = _lcp_array(x, sa)
    sa_ext = np.empty(n + 1, dtype=np.int64)
    sa_ext[:n] = sa
    sa_ext[n] = -1  # sentinel below every position
    lcp_ext = np.empty(n + 1, dtype=np.int64)
    lcp_ext[:n] = lcp
    lcp_ext[n] = 0
    lpf = np.zeros(n, dtype=np.int64)
    stack: list[int] = []
    for i in range(n + 1):
        cur = lcp_ext[i]
        while stack and (
            sa_ext[i] < sa_ext[stack[-1]]
            or (sa_ext[i] > sa_ext[stack[-1]] and cur <= lcp_ext[stack[-1]])
        ):
            top = stack.pop()
            if sa_ext[i] < sa_ext[top]:
                lpf[sa_ext[top]] = max(lcp_ext[top], cur)
                cur = min(lcp_ext[top], cur)
            else:
                lpf[sa_ext[top]] = lcp_ext[top]
        if i < n:
            stack.append(i)
            lcp_ext[i] = cur
    return lpf


def lz_entropy(items: np.ndarray) -> EntropyEstimate:
    """Match-length entropy estimate in bits.

    For position i (1-based), Lambda_i is the length of the shortest substring
    starting at i that never occurs starting before i; when even the full
    suffix occurs earlier, Lambda_i = T - i + 2. Both cases equal one plus the
    longest previous match, so Lambda = lpf + 1 with Lambda_1 = 1. The estimate
    is T log2(T) / sum_i Lambda_i.
    """
    x = np.ascontiguousarray(items, dtype=np.int64)
    t = len(x)
    if t < 2:
        raise ValueError("need at least 2 events")
    lam = _longest_previous_match(x) + 1
    value = t * math.log2(t) / float(lam.sum())
    return EntropyEstimate(value, "bits", "lz", {"lambda_sum": int(lam.sum())})


def perm_entropy(items: np.ndarray, d: int, tau: int = 1) -> EntropyEstimate:
    """Normalized permutation entropy of ordinal patterns, in [0, 1].

    Embedding vectors (x_i, x_{i+tau}, ..., x_{i+(d-1)tau}) map to ordinal
    patterns by ascending stable sort, so equal values rank by position. The
    Shannon entropy of the pattern frequencies is divided by log(d!).
    """
    value = perm_entropies([items], (d,), tau)[0, 0]
    if math.isnan(value):
        n_vec = max(len(items) - (d - 1) * tau, 0)
        raise ValueError(
            f"length {len(items)} gives {n_vec} embedding vectors; need >= 5 at d={d}, tau={tau}"
        )
    return EntropyEstimate(float(value), None, "perm_normalized", {"d": d, "tau": tau})


def perm_entropies(arrays: list[np.ndarray], d_set, tau: int = 1) -> np.ndarray:
    """perm_entropy's value for each item array (rows) at each d in d_set (columns).

    NaN marks a d the array is too short for; an empty d_set, a d outside
    {3, 4, 5} or a tau below 1 raises. A stable argsort row p is coded as the
    integer sum_k p[k] d^(d-1-k), which sorts as the rows do. Arrays are
    batched whole into chunks of at most PERM_CHUNK_WINDOWS embedding vectors
    (a longer array is a chunk of its own); one np.unique over packed (array,
    code) keys counts a chunk, and each array sums its own slice of the
    frequency terms in code order, as counting it alone would.
    """
    if not d_set or any(d not in (3, 4, 5) for d in d_set):
        raise ValueError(f"d must be one or more of 3, 4, 5, got {list(d_set)}")
    if tau < 1:
        raise ValueError(f"tau must be >= 1, got {tau}")
    out = np.full((len(arrays), len(d_set)), np.nan)
    lengths = np.array([len(a) for a in arrays], dtype=np.int64)
    for k, d in enumerate(d_set):
        span = (d - 1) * tau + 1
        n_vec = lengths - (span - 1)
        feasible = np.flatnonzero((n_vec >= 5) & (n_vec >= tau + 1))  # the latter: T >= d*tau + 1
        ends = np.cumsum(n_vec[feasible])
        norm = math.log(math.factorial(d))
        lo = 0
        while lo < len(feasible):
            limit = ends[lo] - n_vec[feasible[lo]] + PERM_CHUNK_WINDOWS
            hi = max(lo + 1, int(np.searchsorted(ends, limit, side="right")))
            chunk, lo = feasible[lo:hi], hi
            x = np.concatenate([np.asarray(arrays[u], dtype=np.int64) for u in chunk])
            owner = np.repeat(np.arange(len(chunk)), n_vec[chunk])
            rows = np.arange(len(owner)) + (span - 1) * owner  # skip windows across two arrays
            vectors = np.lib.stride_tricks.sliding_window_view(x, span)[rows, ::tau]
            codes = np.argsort(vectors, axis=1, kind="stable") @ d ** np.arange(d - 1, -1, -1)
            keys, counts = np.unique(owner * d**d + codes, return_counts=True)
            freqs = counts / n_vec[chunk][keys // d**d]
            terms = freqs * np.log(freqs)
            bounds = np.searchsorted(keys, np.arange(len(chunk) + 1) * d**d).tolist()
            for u, a, b in zip(chunk.tolist(), bounds, bounds[1:]):
                out[u, k] = min(max(float(-terms[a:b].sum()) / norm, 0.0), 1.0)
    return out
