"""Entropy estimators for symbolic sequences.

Four estimators with explicit unit bookkeeping: exact plug-in entropy over a
known distribution, sample entropy (exact template matching, suited to
categorical ids), a match-length estimator in the Lempel-Ziv family, and
normalized permutation entropy over ordinal patterns. Sample entropy and the
match-length estimator measure the sequence's conditional surprise and carry a
unit (nats or bits); permutation entropy is normalized to [0, 1] and is
deliberately unitless. The *_entropies take a log's (items, offsets) arrays and
return columns, one entry per user; sampen and lz_entropy are their one-row
calls on one array, and perm_entropy returns a float.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

__all__ = [
    "Entropies",
    "plugin_entropy",
    "sampen",
    "sampen_entropies",
    "lz_entropy",
    "lz_entropies",
    "perm_entropy",
    "perm_entropies",
]

LN2 = math.log(2.0)
UNITS = ("nats", "bits")
# Symbols (events, plus lz's one separator per array) in a chunk of whole arrays
# that one pass counts; a longer array is a chunk of its own. README gives the timings.
CHUNK_SYMBOLS = 1 << 13


@dataclass(frozen=True)
class Entropies:
    """Each user's entropy by one estimator, as columns in user order.

    unit and estimator are one for every user, or an array of one per user (an
    entropy CSV may mix them), and flags joins each user's flags by ";". A params
    value is shared, as sampen's m is, or an array of one per user, as the
    integer evidence is: sampen's A and B, lz's lambda_sum.
    """

    value: np.ndarray
    unit: str | np.ndarray
    estimator: str | np.ndarray
    flags: np.ndarray
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        bad_value = ~(np.isfinite(self.value) & (self.value >= 0))
        bad = bad_value | ~np.isin(self.unit, UNITS)
        if bad.any():  # the first bad row, its value checked before its unit
            u = int(np.argmax(bad))
            if bad_value[u]:
                raise ValueError(f"entropy value must be finite and >= 0, got {self.value[u]}")
            unit = np.broadcast_to(self.unit, bad.shape).tolist()[u]
            raise ValueError(f"unit must be one of {UNITS}, got {unit!r}")

    def __len__(self) -> int:
        return len(self.value)

    def to(self, unit: str) -> "Entropies":
        """Every value in unit: bits = nats / ln 2; one past the float range raises."""
        with np.errstate(over="ignore"):
            other = self.value / LN2 if unit == "bits" else self.value * LN2
        value = np.where(np.asarray(self.unit) == unit, self.value, other)
        if not np.isfinite(value).all():  # named by the first such user's value, in its unit
            u, own = int(np.argmin(np.isfinite(value))), np.broadcast_to(self.unit, len(value))
            raise ValueError(f"entropy {self.value[u].item()!r} {own[u]} is too large for "
                             f"{unit}: the converted value overflows a float")
        return replace(self, value=value, unit=unit)


def plugin_entropy(probs, unit: str = "nats") -> Entropies:
    """Shannon entropy -sum p log p of an explicit probability vector.

    probs must be 1-d, non-negative and sum to 1 within 1e-9. Zero-probability
    entries contribute nothing (0 log 0 = 0).
    """
    probs = np.asarray(probs, dtype=float)
    if probs.ndim != 1:
        raise ValueError("probs must be 1-d")
    if np.any(probs < 0):
        raise ValueError("probabilities must be non-negative")
    if not abs(float(probs.sum()) - 1.0) <= 1e-9:  # a NaN entry fails too
        raise ValueError(f"probabilities sum to {probs.sum()}, not 1")
    p = probs[probs > 0]
    h_nats = float(-(p * np.log(p)).sum())
    h_nats = max(0.0, h_nats)  # a point mass gives -0.0, and rounding can give a tiny negative
    return Entropies(np.array([h_nats]), "nats", "plugin", np.array([""])).to(unit)


def sampen(items: np.ndarray, m: int = 2) -> Entropies:
    """Sample entropy with exact template matching, in nats, as a one-row Entropies.

    B counts index pairs i < j whose length-m windows are identical, A the same
    for length m+1; both window sets range over the first T-m starting
    positions, so every (m+1)-match is also an m-match and -ln(A/B) >= 0. Item
    ids are categorical, so matching is exact equality (tolerance r = 0 under
    the discrete metric). Degenerate inputs return the cap ln(pair count):
    flags carry "saturated", plus "no_regularity" when even B is zero.
    """
    return sampen_entropies(items, np.array([0, len(items)]), m)


def sampen_entropies(items: np.ndarray, offsets: np.ndarray, m: int = 2) -> Entropies:
    """sampen of each user's items, in order; m below 1 or a user shorter than m + 2 raises.

    Users are batched whole into chunks of at most CHUNK_SYMBOLS events. Each
    of a user's first T-m starts is named by extension: the user's index at
    width 0, then name * base + code for each next item, its code in [0, base)
    (see _codes). Names sort as (user, window) do, and are densified, order
    kept, only when the next extension would overflow int64. One sort of the
    width-(m+1) names groups equal windows into runs: A's runs are equal keys,
    B's equal key // base; a run of r starts holds r(r-1)/2 pairs. A and B are
    integers, so each value is the user's alone, to the bit.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    items = np.asarray(items)
    lengths = np.diff(offsets)
    short = lengths[lengths < m + 2]
    if len(short):
        raise ValueError(f"sequence length {short[0]} is below m + 2 = {m + 2}")
    pairs = np.zeros((2, len(lengths)), dtype=np.int64)  # B, then A
    for lo, hi in _chunks(lengths, CHUNK_SYMBOLS):
        t = lengths[lo:hi]
        code, base = _codes(items[offsets[lo]:offsets[hi]])
        owner = np.repeat(np.arange(len(t)), t - m)
        starts = np.arange(len(owner)) + m * owner  # each user's first T-m, in the chunk
        name, top = owner, len(t)  # every name lies below top
        for w in range(m + 1):
            if top * base > 1 << 63:
                vocab, name = np.unique(name, return_inverse=True)
                top = len(vocab)
            name = name * base + code[starts + w]
            top *= base
        key = np.sort(name)
        at = np.arange(len(key))
        bounds = np.cumsum(t - m) - (t - m)
        for row, run in enumerate((key // base, key)):
            new = np.concatenate(([True], run[1:] != run[:-1]))
            pairs[row, lo:hi] = np.add.reduceat(at - np.maximum.accumulate(np.where(new, at, 0)),
                                                bounds)  # each start pairs with its run's earlier
    value = [math.log(b / a) if a else math.log((t - m) * (t - m - 1) // 2)
             for t, b, a in zip(lengths.tolist(), *pairs.tolist())]
    b, a = pairs  # indexed by how many of B and A are positive; A > 0 implies B > 0
    flags = np.array(["saturated;no_regularity", "saturated", ""])[np.sign(b) + np.sign(a)]
    return Entropies(np.array(value, dtype=float), "nats", "sampen", flags,
                     {"m": m, "A": a, "B": b})


def _codes(x: np.ndarray) -> tuple[np.ndarray, int]:
    """x's items as codes in [0, base), equal where the items are, and base.

    int64 items less the least of them, when base * len(x) stays within 2^63,
    so that a name below len(x) extends by one code without overflow; else
    the items' dense ranks.
    """
    if x.dtype == np.int64:
        least = int(x.min())
        base = int(x.max()) - least + 1
        if base * len(x) <= 1 << 63:
            return x - least, base
    vocab, code = np.unique(x, return_inverse=True)
    return code, len(vocab)


def _chunks(sizes: np.ndarray, budget: int, most: int | None = None):
    """(lo, hi) of each run of consecutive sizes within budget and, if given, of at most
    most sizes; a larger size runs alone."""
    ends = np.cumsum(sizes)
    lo = 0
    while lo < len(sizes):
        limit = ends[lo] - sizes[lo] + budget
        hi = max(lo + 1, int(np.searchsorted(ends, limit, side="right")))
        hi = min(hi, lo + most) if most else hi
        yield lo, hi
        lo = hi


def _suffix_ranks(s: np.ndarray, dtype) -> list[np.ndarray]:
    """Prefix doubling: ranks[k][i] ranks s[i:i + 2^k] among s's length-2^k substrings.

    s holds dense ranks 0..max and ends in a symbol found nowhere else. Each
    round ranks the pairs (ranks[k][i], ranks[k][i + 2^k]) with one np.unique
    over a packed key, a pair running off the end ranking below any other; it
    stops when the ranks are all distinct, so ranks[-1] is the inverse suffix
    array and no two suffixes share a prefix of 2^(len(ranks) - 1) symbols.
    """
    n = len(s)
    ranks = [s.astype(dtype)]
    while int(ranks[-1].max()) < n - 1:
        rank, k = ranks[-1], 1 << (len(ranks) - 1)
        key = rank * np.int64(n + 1)
        key[: n - k] += rank[k:] + 1
        ranks.append(np.unique(key, return_inverse=True)[1].astype(dtype))
    return ranks


def _common_prefix(ranks: list[np.ndarray], i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Common prefix length of the suffixes at i and at j, pair by pair (i != j).

    Binary lifting over the doubling ranks (Manber & Myers 1993): from the
    longest block down, extend by 2^k where the next 2^k symbols agree.
    """
    length = np.zeros(len(i), dtype=np.int64)
    for k in range(len(ranks) - 2, -1, -1):
        rank = ranks[k]
        length += (rank[i + length] == rank[j + length]).astype(np.int64) << k
    return length


def _longest_previous_match(s: np.ndarray, owner: np.ndarray) -> np.ndarray:
    """For each position j, the longest prefix of s[j:] starting at a p < j of j's owner.

    owner is non-decreasing, and each owner's run ends in a symbol found
    nowhere else in s, so no match runs past it. Suffixes are sorted by
    (owner, rank); in that order the best earlier start is one of the two
    nearest entries above and below j that start before it (Crochemore & Ilie
    2008). A sparse table of range minima over the starts and a binary descent
    find both for every j at once; one owned by another user is rejected. Ranks,
    pos and the table are int32 below 2^31 symbols; above and below stay intp, as
    numpy converts an int32 index array on each lookup.
    """
    n = len(s)
    dtype = np.int32 if n < 1 << 31 else np.int64
    ranks = _suffix_ranks(s, dtype)
    pos = np.argsort(owner * n + ranks[-1]).astype(dtype)
    mins = [pos]  # mins[k][r] = min(pos[r:r + 2^k])
    while 1 << len(mins) <= n:
        h = 1 << (len(mins) - 1)
        mins.append(np.minimum(mins[-1][:-h], mins[-1][h:]))
    above = np.arange(n)  # pos[above:r] all start after pos[r]
    below = np.arange(n)  # pos[r + 1:below + 1] all start after pos[r]
    for k in range(len(mins) - 1, -1, -1):
        h = 1 << k
        start = above - h
        skip = (start >= 0) & (mins[k][np.maximum(start, 0)] > pos)
        above = np.where(skip, start, above)
        fits = below + 1 + h <= n
        skip = fits & (mins[k][np.where(fits, below + 1, 0)] > pos)
        below = np.where(skip, below + h, below)
    lpf = np.zeros(n, dtype=np.int64)
    for nearest in (above - 1, below + 1):
        r = np.flatnonzero((nearest >= 0) & (nearest < n))
        r = r[owner[pos[nearest[r]]] == owner[pos[r]]]
        j = pos[r]
        lpf[j] = np.maximum(lpf[j], _common_prefix(ranks, j, pos[nearest[r]]))
    return lpf


def lz_entropy(items: np.ndarray) -> Entropies:
    """Match-length entropy estimate in bits, as a one-row Entropies.

    For position i (1-based), Lambda_i is the length of the shortest substring
    starting at i that never occurs starting before i; when even the full
    suffix occurs earlier, Lambda_i = T - i + 2. Both cases equal one plus the
    longest previous match, so Lambda = lpf + 1 with Lambda_1 = 1. The estimate
    is T log2(T) / sum_i Lambda_i.
    """
    return lz_entropies(items, np.array([0, len(items)]))


def lz_entropies(items: np.ndarray, offsets: np.ndarray) -> Entropies:
    """lz_entropy of each user's items, in order; a user of fewer than 2 events raises.

    Users are batched whole into chunks of at most CHUNK_SYMBOLS symbols,
    events and separators; a longer user is a chunk of its own. A chunk holds
    its users' items, relabelled densely, each user's followed by a separator
    of its own above every item, so one suffix sort serves every user in it
    and no match crosses a user's end. Lambda sums are integers, so each
    value is what the user alone gives, to the bit.
    """
    lengths = np.diff(offsets)
    if np.any(lengths < 2):
        raise ValueError("need at least 2 events")
    sums = np.zeros(len(lengths), dtype=np.int64)
    for lo, hi in _chunks(lengths + 1, CHUNK_SYMBOLS):  # one separator after each user
        t = lengths[lo:hi]
        vocab, codes = np.unique(items[offsets[lo]:offsets[hi]], return_inverse=True)
        s = np.insert(codes, np.cumsum(t), len(vocab) + np.arange(len(t)))
        lpf = _longest_previous_match(s, np.repeat(np.arange(len(t)), t + 1))
        starts = np.cumsum(t + 1) - (t + 1)
        sums[lo:hi] = np.add.reduceat(lpf, starts) + t  # a separator's lpf is 0
    value = [t * math.log2(t) / float(lam) for t, lam in zip(lengths.tolist(), sums.tolist())]
    return Entropies(np.array(value, dtype=float), "bits", "lz", np.full(len(value), ""),
                     {"lambda_sum": sums})


def perm_entropy(items: np.ndarray, d: int, tau: int = 1) -> float:
    """Normalized permutation entropy of ordinal patterns, in [0, 1].

    Embedding vectors (x_i, x_{i+tau}, ..., x_{i+(d-1)tau}) map to ordinal
    patterns by ascending stable sort, so equal values rank by position. The
    Shannon entropy of the pattern frequencies is divided by log(d!).
    """
    value = perm_entropies(np.asarray(items), np.array([0, len(items)]), (d,), tau)[0, 0]
    if math.isnan(value):
        n_vec = max(len(items) - (d - 1) * tau, 0)
        raise ValueError(
            f"length {len(items)} gives {n_vec} embedding vectors; need >= 5 at d={d}, tau={tau}"
        )
    return float(value)


@functools.cache  # built on first use: importing builds nothing
def _pattern_ranks(d: int) -> np.ndarray:
    """table[bits] ranks the ordinal pattern with those pair bits (see _pair_bits) among
    the d! stable argsort rows, in lexicographic order; -1 where no order has them.

    Rows sort as their codes sum_k p[k] d^(d-1-k) do. Built once, about 0.6 ms at d = 5.
    """
    table = [-1] * (1 << d * (d - 1) // 2)
    for r, p in enumerate(itertools.permutations(range(d))):
        rank = [p.index(i) for i in range(d)]
        table[sum((rank[j] < rank[i]) << (j * (j - 1) // 2 + i)
                  for j in range(d) for i in range(j))] = r
    return np.array(table)


def _pair_bits(x: np.ndarray, d: int, tau: int) -> np.ndarray:
    """Each start s's pair bits: bit j(j-1)/2 + i is x[s + j tau] < x[s + i tau], i < j < d.

    Pairs are ordered by j, then i, so the low d'(d'-1)/2 bits are those of
    d' < d. A pair whose later value lies past x's end reads 0. Comparisons
    are made in x's own dtype, from d - 1 lags.
    """
    n = len(x)
    bits = np.zeros(n, dtype=np.int16)  # d = 5 has 10 bits; int16 halves the time of int64's ORs
    later_below = []  # at lag k: x[p + k tau] < x[p]
    for j in range(1, d):
        if j * tau >= n:
            break
        later_below.append(x[j * tau:] < x[: n - j * tau])
        for i in range(j):
            bit = np.int16(j * (j - 1) // 2 + i)
            bits[: n - j * tau] |= later_below[j - i - 1][i * tau:] << bit
    return bits.astype(np.intp)  # table lookups index faster with intp


def perm_entropies(items: np.ndarray, offsets: np.ndarray, d_set, tau: int = 1) -> np.ndarray:
    """perm_entropy's value for each user's items (rows) at each d in d_set (columns).

    NaN marks a d the user is too short for; an empty d_set, a d outside
    {3, 4, 5}, a d listed twice, a tau below 1, or a window whose comparisons
    no order of values gives (a NaN's can), raises. Users are batched whole
    into chunks of at most CHUNK_SYMBOLS events (a longer user is a chunk of
    its own; one too short at d has no windows). A chunk's pair bits are
    computed once, for the largest d; each d reads its windows' low bits,
    _pattern_ranks(d) ranks them in the order the patterns' argsort rows sort,
    and one np.bincount over (user, rank) counts the chunk. One
    np.add.reduceat sums each user's frequency terms in rank order, as it sums
    the user's terms counted alone.
    """
    if not d_set or any(d not in (3, 4, 5) for d in d_set):
        raise ValueError(f"d must be one or more of 3, 4, 5, got {list(d_set)}")
    if len(set(d_set)) < len(d_set):
        raise ValueError(f"each d must be listed once, got {list(d_set)}")
    if tau < 1:
        raise ValueError(f"tau must be >= 1, got {tau}")
    lengths = np.diff(offsets)
    tau = min(tau, int(lengths.max(initial=0)) + 1)  # any longer lag leaves every user too short
    out = np.full((len(lengths), len(d_set)), np.nan)
    n_vecs = []
    for d in d_set:
        n_vec = lengths - (d - 1) * tau
        n_vec[(n_vec < 5) | (n_vec < tau + 1)] = 0  # the latter: T >= d*tau + 1
        n_vecs.append(n_vec)
    for lo, hi in _chunks(lengths, CHUNK_SYMBOLS):
        bits = _pair_bits(items[offsets[lo]:offsets[hi]], max(d_set), tau)
        first = offsets[lo:hi] - offsets[lo]
        for k, d in enumerate(d_set):
            v, f = n_vecs[k][lo:hi], math.factorial(d)
            owner = np.repeat(np.arange(hi - lo), v)
            # each window's start in the chunk; none runs across two users
            starts = np.arange(len(owner)) + (first - (np.cumsum(v) - v))[owner]
            rank = _pattern_ranks(d)[bits[starts] & ((1 << d * (d - 1) // 2) - 1)]
            if rank.min(initial=0) < 0:  # no order of d values compares so: a NaN's doing
                raise ValueError("perm needs items with a total order, and NaN has none")
            counts = np.bincount(owner * f + rank, minlength=(hi - lo) * f)
            keys = np.flatnonzero(counts > 0)  # on bools, numpy finds them about 3x faster
            freqs = counts[keys] / v[keys // f]
            terms = freqs * np.log(freqs)
            bounds = np.searchsorted(keys, np.arange(hi - lo + 1) * f)
            has = np.flatnonzero(np.diff(bounds))  # a user too short at d has no terms: NaN
            if len(has):
                out[lo + has, k] = np.clip(-np.add.reduceat(terms, bounds[has]) / math.log(f),
                                           0.0, 1.0)
    return out
