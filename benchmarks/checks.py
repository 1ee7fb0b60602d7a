"""Reference computations for the benchmark's output checks.

Nothing here imports predlim. Each function recomputes a quantity from the
benchmark's own inputs, or from the files the program wrote, by a method other
than the program's: Counter-based pair counting for sample entropy, a
str.find scan for the longest previous match, pairwise comparisons for
ordinal patterns, Python sets for successor fan-out and a vectorised
bisection for the Fano relation. None of it runs inside a timed region.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from collections import Counter

import numpy as np

LN2 = math.log(2.0)


class Failures:
    """Collects failed expectations; the run is correct when none were added."""

    def __init__(self) -> None:
        self.messages: list[str] = []

    def expect(self, ok: bool, message: str) -> bool:
        if not ok:
            self.messages.append(message)
            print(f"check failed: {message}", file=sys.stderr)
        return ok

    def close(self, what: str, got: float, want: float, rel: float = 1e-12) -> bool:
        ok = math.isclose(got, want, rel_tol=rel, abs_tol=rel)
        return self.expect(ok, f"{what}: got {got!r}, want {want!r}")


def read_log(path: str) -> dict:
    """The log JSON as plain data, with each user's items as an int64 array."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    payload["sequences"] = [np.asarray(u["items"], dtype=np.int64) for u in payload["users"]]
    payload["user_ids"] = [u["user_id"] for u in payload["users"]]
    return payload


def read_rows(path: str) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def by_user(rows: list[dict]) -> dict[int, dict]:
    return {int(r["user_index"]): r for r in rows}


def expected_log(users: np.ndarray, items: np.ndarray, ts: np.ndarray, min_length: int) -> dict:
    """What ingest must produce from the raw arrays, recomputed with numpy.

    Events are ordered by timestamp with file order breaking ties, users
    shorter than min_length are dropped, and users and items are numbered by
    first appearance in the surviving stream.
    """
    order = np.argsort(ts, kind="stable")
    u, it = users[order], items[order]
    keep = np.bincount(u)[u] >= min_length
    u, it = u[keep], it[keep]
    uniq_users, first_u = np.unique(u, return_index=True)
    user_order = uniq_users[np.argsort(first_u)]
    uniq_items, first_i = np.unique(it, return_index=True)
    item_order = uniq_items[np.argsort(first_i)]
    rank = np.empty(int(users.max()) + 1, dtype=np.int64)
    rank[user_order] = np.arange(len(user_order))
    by_user_order = np.argsort(rank[u], kind="stable")
    return {
        "user_order": user_order,
        "item_order": item_order,
        "item_counts": np.bincount(it, minlength=int(items.max()) + 1)[item_order],
        "items_flat": it[by_user_order],
        "lengths": np.bincount(rank[u], minlength=len(user_order)),
    }


def sampen_ref(x: np.ndarray, m: int) -> tuple[float, tuple[str, ...]]:
    """Sample entropy in nats from Counter-based counts of equal window pairs."""
    seq = x.tolist()
    starts = len(seq) - m

    def pairs(w: int) -> int:
        counts = Counter(tuple(seq[i:i + w]) for i in range(starts))
        return sum(c * (c - 1) // 2 for c in counts.values())

    b, a = pairs(m), pairs(m + 1)
    cap = math.log(starts * (starts - 1) // 2)
    if b == 0:
        return cap, ("saturated", "no_regularity")
    if a == 0:
        return cap, ("saturated",)
    return math.log(b / a), ()


def lz_bits_ref(x: np.ndarray) -> float:
    """Match-length entropy in bits from a str.find longest-previous-match scan.

    lpf[j] is the longest prefix of x[j:] that also starts at some p < j
    (overlap allowed). It never drops by more than one from j to j + 1, so
    each step starts from lpf[j - 1] - 1 and extends while an earlier
    occurrence exists.
    """
    s = "".join(map(chr, x.tolist()))
    t = len(s)
    total = 0
    length = 0
    for j in range(1, t):
        length = max(length - 1, 0)
        while j + length < t and s.find(s[j:j + length + 1], 0, j + length) != -1:
            length += 1
        total += length
    return t * math.log2(t) / float(total + t)


def perm_ref(x: np.ndarray, d: int) -> float | None:
    """Normalised permutation entropy from pairwise-comparison ranks.

    The rank of element k in a window is the number of elements smaller than
    it, or equal and earlier. Rank tuples are in bijection with the stable
    ascending sort order, so their frequencies give the same entropy. Returns
    None where the program must skip the dimension.
    """
    t = len(x)
    n_vec = t - (d - 1)
    if t < d + 1 or n_vec < 5:
        return None
    win = np.lib.stride_tricks.sliding_window_view(x, d)
    ranks = np.zeros((n_vec, d), dtype=np.int64)
    for k in range(d):
        for j in range(d):
            if j != k:
                ranks[:, k] += (win[:, j] < win[:, k]) | ((win[:, j] == win[:, k]) & (j < k))
    codes = ranks @ (d ** np.arange(d))
    counts = np.unique(codes, return_counts=True)[1]
    freqs = counts / n_vec
    h = float(-(freqs * np.log(freqs)).sum())
    return min(max(h / math.log(math.factorial(d)), 0.0), 1.0)


def perm_score_ref(x: np.ndarray, ds=(3, 4, 5)) -> float:
    values = [v for v in (perm_ref(x, d) for d in ds) if v is not None]
    score = 1.0 - min(values)
    return score if score > 0.0 else float(np.finfo(float).tiny)


def _successors(seqs) -> dict[int, set]:
    succ: dict[int, set] = {}
    for x in seqs:
        seq = x.tolist()
        for a, b in zip(seq, seq[1:]):
            succ.setdefault(a, set()).add(b)
    return succ


def fanout_pooled(seqs) -> int:
    return max(len(s) for s in _successors(seqs).values())


def fanout_per_user(x: np.ndarray) -> int:
    return max((len(s) for s in _successors([x]).values()), default=0)


def fano_ref(s_bits: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Pi in [1/n, 1] solving S_F(Pi) = s_bits, by vectorised bisection.

    S_F(Pi) = -Pi log2 Pi - (1 - Pi) log2(1 - Pi) + (1 - Pi) log2(n - 1) is
    decreasing on [1/n, 1]; S <= 0 maps to 1 and S >= log2 n to 1/n.
    """
    s_bits = np.asarray(s_bits, dtype=float)
    n = np.asarray(n, dtype=float)
    lo, hi = 1.0 / n, np.ones_like(n)
    with np.errstate(divide="ignore", invalid="ignore"):  # mid reaches 1 only where S <= 0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            s_f = -mid * np.log2(mid) - (1 - mid) * np.log2(1 - mid) + (1 - mid) * np.log2(n - 1)
            above = s_f > s_bits
            lo = np.where(above, mid, lo)
            hi = np.where(above, hi, mid)
    pi = 0.5 * (lo + hi)
    pi = np.where(s_bits >= np.log2(n), 1.0 / n, pi)
    return np.where(s_bits <= 0.0, 1.0, pi)


def rmse_ref(a, b) -> float:
    return math.sqrt(math.fsum((x - y) ** 2 for x, y in zip(a, b)) / len(a))
