"""User-level behavioral features and median-split cohort aggregation.

Three features per user: novelty preference (mean of -log pop(i) over the
user's history, pop being an item's global relative frequency), long-tail
exposure (fraction of the history outside the smallest head set of items
covering a given share of all interactions), and activity (sequence length).
Users are split at the feature median into Q1/Q2 and per-group predictability
statistics reported.
"""

from __future__ import annotations

import math

import numpy as np

from .sequence_core import InteractionLog

__all__ = [
    "compute_features",
    "split_and_aggregate",
]

# Every split dimension, each a feature compute_features returns.
DIMENSIONS = ("novelty", "longtail", "activity")


def _tail_items(counts: np.ndarray, tail_mass: float) -> np.ndarray:
    """Boolean mask of long-tail items.

    Items are ranked by descending count with index breaking ties; the head is
    the smallest prefix whose counts cover tail_mass of all interactions, and
    everything outside it is tail.
    """
    total = counts.sum()
    order = np.lexsort((np.arange(len(counts)), -counts))
    covered = np.cumsum(counts[order])
    head_size = int(np.searchsorted(covered, tail_mass * total, side="left")) + 1
    tail = np.ones(len(counts), dtype=bool)
    tail[order[:head_size]] = False
    return tail


def compute_features(log: InteractionLog, tail_mass: float = 0.8) -> dict[str, np.ndarray]:
    """Per-user novelty, long-tail exposure, and activity, each an array in user order.

    pop(i) = counts[i] / num_interactions over the whole log; novelty uses the
    natural log. tail_mass is the share of interactions the head set must
    cover; items outside that head are the long tail.
    """
    if not (0.0 < tail_mass < 1.0):
        raise ValueError("tail_mass must lie in (0, 1)")
    counts = log.counts
    pop = counts / counts.sum()
    tail = _tail_items(counts, tail_mass)
    starts, lengths = log.offsets[:-1], np.diff(log.offsets)
    novelty = np.add.reduceat(-np.log(pop[log.items]), starts) / lengths
    exposure = np.add.reduceat(tail[log.items], starts, dtype=np.int64) / lengths
    return {"novelty": novelty, "longtail": exposure, "activity": lengths}


def _group_stats(label: str, users: np.ndarray, scores: np.ndarray) -> dict:
    values = scores[users]
    std = float(values.std(ddof=1)) if len(values) >= 2 else 0.0
    return {
        "label": label,
        "user_count": len(users),
        "mean_predictability": float(values.mean()),
        "std": std,
        "stderr": std / math.sqrt(len(values)),
        "per_user_scores": list(zip(users.tolist(), values.tolist())),
    }


def split_and_aggregate(
    features: dict[str, np.ndarray],
    scores: np.ndarray,
    dimension: str,
) -> dict:
    """Median-split users on one feature and aggregate scores per group.

    Returns the dict `predlim cohort` writes: {"dimension": ..., "groups": [Q1, Q2]},
    each group's keys label, user_count, mean_predictability, std, stderr and
    per_user_scores, its (user_index, score) pairs.

    features are compute_features' arrays and scores an array in the same user
    order, NaN for a user without a score, which raises. Q1 takes the lower
    feature values for novelty and longtail and the higher values for
    activity. The split is a rank cut at ceil(n/2) with user_index breaking
    feature ties, which realizes the tie rule (boundary ties fall to
    Q1) while keeping group sizes within one of each other even when every
    user shares one feature value.
    """
    if dimension not in DIMENSIONS:
        raise ValueError(f"dimension must be one of {DIMENSIONS}")
    feature = features[dimension]
    if len(feature) < 2:
        raise ValueError("need at least 2 users to split")
    cover = "features and scores must cover identical user sets"
    if len(scores) != len(feature):
        raise ValueError(f"{cover}: {len(feature)} users with features, {len(scores)} scores")
    if np.isnan(scores).any():
        raise ValueError(f"{cover}: no score for user {np.isnan(scores).argmax()}")

    # a stable sort breaks ties by user index; Q1 = more active
    order = np.argsort(-feature if dimension == "activity" else feature, kind="stable")
    cut = math.ceil(len(order) / 2)
    return {"dimension": dimension,
            "groups": [_group_stats(label, part, scores)
                       for label, part in (("Q1", order[:cut]), ("Q2", order[cut:]))]}
