"""Predictability-guided training-data selection.

Users eligible by length are partitioned into disjoint eval and candidate
pools. A strategy then picks a budgeted subset of candidates: the most
predictable users (high_pi), the least predictable (low_pi), or a seeded
uniform sample (random). Materialization writes a train set holding every eval
user's prefix plus the selected candidates' full sequences, and a test set
holding each eval user's final next-item instance. The eval partition depends
only on (seed, eval_fraction), never on the strategy or budget, so test files
are byte-identical across strategies.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from itertools import chain, repeat

import numpy as np

from .sequence_core import InteractionLog, write_csv

__all__ = ["build_plan", "materialize", "write_selection_csv"]

STRATEGIES = ("high_pi", "random", "low_pi")
Row = tuple[str, str, int]  # user_id, item_id, timestamp


def build_plan(
    log: InteractionLog,
    scores: np.ndarray,
    budget_fraction: float,
    strategy: str,
    seed: int,
    eval_fraction: float = 0.5,
    min_length: int = 5,
) -> dict:
    """Partition eligible users and select a budgeted candidate subset.

    The plan is the dict plan.json holds: strategy, budget_fraction, seed, then the ascending
    user-index arrays eval_users, candidate_users (disjoint from eval) and selected.

    Eligibility requires length >= max(min_length, 2): an eval user must have
    a prefix and a final instance. The eval set is a seeded draw of
    round(eval_fraction * eligible) users from substream (seed, 1). scores holds one
    value per user of the log, NaN for a user without a score, which raises for a
    candidate (callers cannot know the partition). k = round(budget_fraction * pool).
    high_pi and low_pi take opposite ends of one (score, user_index) ordering,
    so at 2k <= pool they never overlap; random draws k from substream
    (seed, 2), keeping the partition itself strategy-independent.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"strategy must be one of {STRATEGIES}")
    if not (0.0 < budget_fraction <= 1.0):
        raise ValueError("budget_fraction must lie in (0, 1]")
    if not (0.0 < eval_fraction < 1.0):
        raise ValueError("eval_fraction must lie in (0, 1)")
    if len(scores) != log.num_users:
        raise ValueError(f"{len(scores)} scores for a log of {log.num_users} users")
    eligible = np.flatnonzero(np.diff(log.offsets) >= max(min_length, 2))
    if len(eligible) < 2:
        raise ValueError("need at least 2 eligible users")
    rng = np.random.default_rng([seed, 1])
    perm = rng.permutation(len(eligible))
    n_eval = round(eval_fraction * len(eligible))
    n_eval = min(max(n_eval, 1), len(eligible) - 1)  # both pools stay non-empty
    eval_users = np.sort(eligible[perm[:n_eval]])
    candidates = np.sort(eligible[perm[n_eval:]])

    missing = candidates[np.isnan(scores[candidates])]
    if len(missing):
        raise ValueError(f"scores missing for candidate users {missing[:5].tolist()}")
    k = round(budget_fraction * len(candidates))

    order = candidates[np.argsort(scores[candidates], kind="stable")]  # ties: user ascending
    if strategy == "high_pi":
        chosen = order[len(order) - k:]
    elif strategy == "low_pi":
        chosen = order[:k]
    else:
        draw_rng = np.random.default_rng([seed, 2])
        chosen = draw_rng.choice(candidates, size=k, replace=False)
    return {"strategy": strategy, "budget_fraction": budget_fraction, "seed": seed,
            "eval_users": eval_users, "candidate_users": candidates, "selected": np.sort(chosen)}


def materialize(plan: dict, log: InteractionLog) -> tuple[Iterator[Row], list[Row]]:
    """Rows for train.csv and test.csv under the plan build_plan returns.

    Train holds each eval user's first T_u - 1 events plus every selected
    candidate's full sequence; test holds one row per eval user, the held-out
    final item. Rows are (user_id, item_id, timestamp) with the within-user
    position as timestamp, ordered by user_index then position. Train is an
    iterator that makes each user's rows as the writer reaches them.
    """
    reverse, ids, offsets = log.item_ids, log.user_ids, log.offsets.tolist()
    eval_set = set(plan["eval_users"].tolist())

    def user_rows(u: int) -> Iterator[Row]:
        start, end = offsets[u], offsets[u + 1] - (u in eval_set)
        names = map(reverse.__getitem__, log.items[start:end].tolist())
        return zip(repeat(ids[u]), names, range(end - start))

    train = chain.from_iterable(map(user_rows, sorted(eval_set.union(plan["selected"].tolist()))))
    test = [(ids[u], reverse[log.items[offsets[u + 1] - 1]], offsets[u + 1] - offsets[u] - 1)
            for u in plan["eval_users"].tolist()]
    return train, test


def write_selection_csv(rows: Iterable[Row], path: str) -> None:
    write_csv(path, ["user_id", "item_id", "timestamp"], rows)
