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
from dataclasses import dataclass

import numpy as np

from .sequence_core import InteractionLog

__all__ = [
    "UserFeature",
    "CohortGroup",
    "CohortReport",
    "compute_features",
    "split_and_aggregate",
]

# Every split dimension and the UserFeature field it splits on.
DIMENSIONS = {"novelty": "novelty", "longtail": "longtail_exposure", "activity": "activity"}


@dataclass(frozen=True)
class UserFeature:
    user_index: int
    novelty: float
    longtail_exposure: float
    activity: int


@dataclass
class CohortGroup:
    label: str
    user_count: int
    mean_predictability: float
    std: float
    stderr: float
    per_user_scores: list[tuple[int, float]]


@dataclass
class CohortReport:
    dimension: str
    groups: list[CohortGroup]


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


def compute_features(log: InteractionLog, tail_mass: float = 0.8) -> list[UserFeature]:
    """Per-user novelty, long-tail exposure, and activity.

    pop(i) = counts[i] / num_interactions over the whole log; novelty uses the
    natural log. tail_mass is the share of interactions the head set must
    cover; items outside that head are the long tail.
    """
    if not log.sequences:
        raise ValueError("empty log")
    if not (0.0 < tail_mass < 1.0):
        raise ValueError("tail_mass must lie in (0, 1)")
    counts = log.vocabulary.counts.astype(float)
    pop = counts / counts.sum()
    tail = _tail_items(log.vocabulary.counts, tail_mass)
    features = []
    for seq in log.sequences:
        items = seq.items
        novelty = float(np.mean(-np.log(pop[items])))
        exposure = float(np.mean(tail[items]))
        features.append(
            UserFeature(
                user_index=seq.user_index,
                novelty=novelty,
                longtail_exposure=exposure,
                activity=seq.length,
            )
        )
    return features


def _group_stats(label: str, members: list[tuple[int, float]]) -> CohortGroup:
    values = np.array([v for _, v in members], dtype=float)
    mean = float(values.mean())
    std = float(values.std(ddof=1)) if len(values) >= 2 else 0.0
    return CohortGroup(
        label=label,
        user_count=len(members),
        mean_predictability=mean,
        std=std,
        stderr=std / math.sqrt(len(values)),
        per_user_scores=members,
    )


def split_and_aggregate(
    features: list[UserFeature],
    scores: dict[int, float],
    dimension: str,
) -> CohortReport:
    """Median-split users on one feature and aggregate scores per group.

    Q1 takes the lower feature values for novelty and longtail and the higher
    values for activity. The split is a rank cut at ceil(n/2) with user_index
    breaking feature ties, which realizes the tie rule (boundary ties fall to
    Q1) while keeping group sizes within one of each other even when every
    user shares one feature value.
    """
    if dimension not in DIMENSIONS:
        raise ValueError(f"dimension must be one of {tuple(DIMENSIONS)}")
    if len(features) < 2:
        raise ValueError("need at least 2 users to split")
    feature_users = {f.user_index for f in features}
    if feature_users != set(scores):
        raise ValueError("features and scores must cover identical user sets")

    keyed = [(getattr(f, DIMENSIONS[dimension]), f.user_index) for f in features]
    reverse = dimension == "activity"  # Q1 = more active
    keyed.sort(key=lambda kv: ((-kv[0] if reverse else kv[0]), kv[1]))
    cut = math.ceil(len(keyed) / 2)
    q1 = [(u, float(scores[u])) for _, u in keyed[:cut]]
    q2 = [(u, float(scores[u])) for _, u in keyed[cut:]]
    return CohortReport(
        dimension=dimension,
        groups=[_group_stats("Q1", q1), _group_stats("Q2", q2)],
    )
