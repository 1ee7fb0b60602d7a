"""Interaction-log ingestion and per-user integer-encoded sequences.

Raw data is a CSV of (user_id, item_id, timestamp) triples. Ingestion sorts by
timestamp (stable, so equal timestamps keep file order), optionally truncates to
the first max_events rows, drops users shorter than min_length, and encodes item
ids as dense integers in first-appearance order. Every estimator downstream
operates on the integer sequences only.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ItemVocabulary",
    "UserSequence",
    "InteractionLog",
    "ingest_csv",
    "log_from_sequences",
    "log_to_json",
    "log_from_json",
    "transition_fanout",
]

LOG_SCHEMA = "predlim-log-v1"


@dataclass
class ItemVocabulary:
    """Dense item encoding: reverse[index] is the item id at that index."""

    reverse: list[str]
    counts: np.ndarray  # interactions per item index

    def __len__(self) -> int:
        return len(self.reverse)

    def validate(self) -> None:
        if len(set(self.reverse)) != len(self.reverse):
            raise ValueError("duplicate item ids in vocabulary")
        if len(self.counts) != len(self.reverse):
            raise ValueError("counts length mismatch")


@dataclass
class UserSequence:
    user_index: int
    user_id: str
    items: np.ndarray  # item indices, time order

    @property
    def length(self) -> int:
        return int(len(self.items))


@dataclass
class InteractionLog:
    vocabulary: ItemVocabulary
    sequences: list[UserSequence]
    stats: dict = field(default_factory=dict)

    @property
    def num_users(self) -> int:
        return len(self.sequences)

    @property
    def num_items(self) -> int:
        return len(self.vocabulary)

    def compute_stats(self) -> dict:
        n_inter = int(sum(s.length for s in self.sequences))
        n_users = len(self.sequences)
        return {
            "num_users": n_users,
            "num_items": len(self.vocabulary),
            "num_interactions": n_inter,
            "avg_length": n_inter / n_users if n_users else 0.0,
        }

    def validate(self) -> None:
        self.vocabulary.validate()
        if self.compute_stats() != self.stats:
            raise ValueError("stored stats disagree with sequences")
        n_items = len(self.vocabulary)
        for pos, seq in enumerate(self.sequences):
            if seq.user_index != pos:
                raise ValueError("sequences not sorted by user_index")
            if seq.length < 1:
                raise ValueError("empty user sequence")
            if seq.length and int(seq.items.max()) >= n_items:
                raise ValueError("item index out of vocabulary range")
        total = int(self.vocabulary.counts.sum())
        if total != self.stats["num_interactions"]:
            raise ValueError("vocabulary counts do not sum to interactions")


def _build_log(rows: list[tuple[str, str, int]]) -> InteractionLog:
    """Encode filtered, ordered rows into an InteractionLog.

    Rows must already be in final order; vocabulary indices follow first
    appearance in that order, user indices follow first appearance of the user.
    """
    index: dict[str, int] = {}
    reverse: list[str] = []
    user_order: dict[str, int] = {}
    per_user: list[list[int]] = []
    for user_id, item_id, _ts in rows:
        idx = index.get(item_id)
        if idx is None:
            idx = len(reverse)
            index[item_id] = idx
            reverse.append(item_id)
        u = user_order.get(user_id)
        if u is None:
            u = len(per_user)
            user_order[user_id] = u
            per_user.append([])
        per_user[u].append(idx)

    counts = np.zeros(len(reverse), dtype=np.int64)
    sequences = []
    for user_id, u in user_order.items():
        items = np.asarray(per_user[u], dtype=np.int64)
        np.add.at(counts, items, 1)
        sequences.append(UserSequence(user_index=u, user_id=user_id, items=items))
    vocab = ItemVocabulary(reverse=reverse, counts=counts)
    log = InteractionLog(vocabulary=vocab, sequences=sequences)
    log.stats = log.compute_stats()
    return log


def ingest_csv(
    path: str,
    min_length: int = 1,
    max_events: int | None = None,
    dedup: bool = False,
) -> InteractionLog:
    """Read a (user_id, item_id, timestamp) CSV into an InteractionLog.

    Rows are sorted by timestamp with file order breaking ties. If max_events is
    set, only the first max_events rows of the sorted stream are kept. With
    dedup, a row repeating the previous surviving (user, item, timestamp) row of
    the same user is dropped. Users with fewer than min_length events are then
    removed; item indices are assigned in first-appearance order over the
    surviving rows so that vocabulary counts sum to the log's interactions.
    """
    if min_length < 1:
        raise ValueError("min_length must be >= 1")
    records: list[tuple[int, str, str, int]] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty file")
        if [c.strip().lower() for c in header] != ["user_id", "item_id", "timestamp"]:
            raise ValueError(f"{path}: line 1: expected header user_id,item_id,timestamp")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3 or not row[0] or not row[1]:
                raise ValueError(f"{path}: line {lineno}: malformed row {row!r}")
            try:
                ts = int(row[2])
            except ValueError:
                raise ValueError(
                    f"{path}: line {lineno}: timestamp {row[2]!r} is not an integer"
                ) from None
            records.append((ts, row[0], row[1], lineno))

    records.sort(key=lambda r: r[0])  # stable: file order breaks timestamp ties
    if max_events is not None:
        records = records[:max_events]

    rows: list[tuple[str, str, int]] = []
    last_by_user: dict[str, tuple[str, int]] = {}
    lengths: dict[str, int] = {}
    for ts, user_id, item_id, _lineno in records:
        if dedup and last_by_user.get(user_id) == (item_id, ts):
            continue
        last_by_user[user_id] = (item_id, ts)
        rows.append((user_id, item_id, ts))
        lengths[user_id] = lengths.get(user_id, 0) + 1

    keep = {u for u, n in lengths.items() if n >= min_length}
    rows = [r for r in rows if r[0] in keep]
    if not rows:
        raise ValueError(f"{path}: no interactions left after filtering")
    return _build_log(rows)


def log_from_sequences(
    item_arrays: list[np.ndarray],
    n_items: int | None = None,
    user_ids: list[str] | None = None,
) -> InteractionLog:
    """Build a log from integer sequences over an identity vocabulary.

    Item k is named str(k); with n_items given, the vocabulary covers indices
    0..n_items-1 even if some never occur (a generator's full item space, or the
    swept candidate size for Fano). Intended for synthetic corpora and tests.
    """
    if not item_arrays:
        raise ValueError("no sequences")
    arrays = [np.asarray(a, dtype=np.int64) for a in item_arrays]
    observed_max = max((int(a.max()) for a in arrays if len(a)), default=-1)
    if n_items is None:
        n_items = observed_max + 1
    if observed_max >= n_items:
        raise ValueError("item index exceeds n_items")
    if user_ids is None:
        user_ids = [f"u{u}" for u in range(len(arrays))]
    counts = np.zeros(n_items, dtype=np.int64)
    sequences = []
    for u, items in enumerate(arrays):
        if len(items) == 0:
            raise ValueError("empty user sequence")
        np.add.at(counts, items, 1)
        sequences.append(UserSequence(user_index=u, user_id=user_ids[u], items=items))
    vocab = ItemVocabulary(reverse=[str(k) for k in range(n_items)], counts=counts)
    log = InteractionLog(vocabulary=vocab, sequences=sequences)
    log.stats = log.compute_stats()
    return log


def log_to_json(log: InteractionLog, path: str) -> None:
    payload = {
        "schema": LOG_SCHEMA,
        "items": log.vocabulary.reverse,
        "counts": log.vocabulary.counts.tolist(),
        "users": [
            {"user_id": s.user_id, "items": s.items.tolist()} for s in log.sequences
        ],
        "stats": log.stats,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def log_from_json(path: str) -> InteractionLog:
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload.get("schema") != LOG_SCHEMA:
        raise ValueError(f"{path}: unknown log schema {payload.get('schema')!r}")
    vocab = ItemVocabulary(list(payload["items"]), np.asarray(payload["counts"], dtype=np.int64))
    sequences = [
        UserSequence(
            user_index=u,
            user_id=entry["user_id"],
            items=np.asarray(entry["items"], dtype=np.int64),
        )
        for u, entry in enumerate(payload["users"])
    ]
    log = InteractionLog(vocabulary=vocab, sequences=sequences, stats=payload["stats"])
    log.validate()
    return log


def transition_fanout(sequences: list[UserSequence], scope: str = "pooled") -> int:
    """Maximum observed successor fan-out N_r.

    For each current item x, N(x) is the set of distinct items ever observed
    immediately after x, and N_r is the largest |N(x)|. Pooled scope unions
    transitions across all sequences; per_user counts successors within each
    user alone and takes the maximum over users.
    """
    if scope not in ("pooled", "per_user"):
        raise ValueError(f"unknown scope {scope!r}")
    if not any(s.length >= 2 for s in sequences):
        raise ValueError("no transitions in scope")

    def _fanout(seqs: list[UserSequence]) -> int:
        succ: dict[int, set[int]] = {}
        for s in seqs:
            items = s.items.tolist()
            for a, b in zip(items, items[1:]):
                succ.setdefault(a, set()).add(b)
        return max(len(nexts) for nexts in succ.values())

    if scope == "pooled":
        return _fanout(sequences)
    return max(_fanout([s]) for s in sequences if s.length >= 2)
