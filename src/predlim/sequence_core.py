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
from dataclasses import dataclass
from itertools import chain

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
    stats: dict

    @property
    def num_users(self) -> int:
        return len(self.sequences)

    @property
    def num_items(self) -> int:
        return len(self.vocabulary)


def _make_log(arrays: list[np.ndarray], item_ids: list[str], user_ids: list[str]) -> InteractionLog:
    """The one constructor of an InteractionLog: user u is user_ids[u].

    arrays[u] holds u's indices into item_ids in time order; counts and stats come from them.
    """
    flat = np.concatenate(arrays) if arrays else np.zeros(0, dtype=np.int64)
    if len(flat) and (flat.min() < 0 or flat.max() >= len(item_ids)):
        raise ValueError("item index out of vocabulary range")
    counts = np.bincount(flat, minlength=len(item_ids))
    del flat  # freed before the per-user objects are made, to keep the peak down
    sequences = [UserSequence(u, uid, a) for u, (uid, a) in enumerate(zip(user_ids, arrays))]
    n_inter = int(counts.sum())
    stats = {
        "num_users": len(sequences),
        "num_items": len(item_ids),
        "num_interactions": n_inter,
        "avg_length": n_inter / len(sequences) if sequences else 0.0,
    }
    return InteractionLog(ItemVocabulary(item_ids, counts), sequences, stats)


def ingest_csv(
    path: str,
    min_length: int = 1,
    max_events: int | None = None,
    dedup: bool = False,
) -> InteractionLog:
    """Read a (user_id, item_id, timestamp) CSV into an InteractionLog.

    A UTF-8 byte-order mark before the header is skipped. Rows are sorted by
    timestamp with file order breaking ties. If max_events is set, only the
    first max_events rows of the sorted stream are kept. With dedup, a row
    repeating the previous surviving (user, item, timestamp) row of the same
    user is dropped. Users with fewer than min_length events are then removed;
    item indices are assigned in first-appearance order over the surviving rows
    so that vocabulary counts sum to the log's interactions.
    """
    if min_length < 1:
        raise ValueError("min_length must be >= 1")
    if max_events is not None and max_events < 0:
        raise ValueError("max_events must be >= 0")
    users: list[str] = []
    items: list[str] = []
    stamps: list[int] = []
    with open(path, newline="", encoding="utf-8-sig") as fh:
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
                stamps.append(int(row[2]))
            except ValueError:
                raise ValueError(
                    f"{path}: line {lineno}: timestamp {row[2]!r} is not an integer"
                ) from None
            users.append(row[0])
            items.append(row[1])

    # stable: file order breaks timestamp ties; max_events None keeps every row
    order = sorted(range(len(stamps)), key=stamps.__getitem__)[:max_events]
    by_user: dict[str, list[int]] = {}  # each user's row indices, time order
    for r in order:
        rows = by_user.setdefault(users[r], [])
        if dedup and rows and items[rows[-1]] == items[r] and stamps[rows[-1]] == stamps[r]:
            continue
        rows.append(r)
    kept = {u: rows for u, rows in by_user.items() if len(rows) >= min_length}
    if not kept:
        raise ValueError(f"{path}: no interactions left after filtering")
    index: dict[str, int] = {}
    for r in order:  # a row dedup dropped repeats an item its user kept
        if users[r] in kept:
            index.setdefault(items[r], len(index))
    arrays = [np.array([index[items[r]] for r in rows], dtype=np.int64) for rows in kept.values()]
    return _make_log(arrays, list(index), list(kept))


def log_from_sequences(item_arrays: list[np.ndarray], n_items: int | None = None) -> InteractionLog:
    """Build a log from integer sequences over an identity vocabulary.

    Item k is named str(k) and user u is named "u{u}"; with n_items given, the
    vocabulary covers indices 0..n_items-1 even if some never occur (a
    generator's full item space, or the swept candidate size for Fano).
    Intended for synthetic corpora and tests.
    """
    if not item_arrays:
        raise ValueError("no sequences")
    arrays = [np.asarray(a, dtype=np.int64) for a in item_arrays]
    if any(len(a) == 0 for a in arrays):
        raise ValueError("empty user sequence")
    if n_items is None:
        n_items = max(int(a.max()) for a in arrays) + 1
    user_ids = [f"u{u}" for u in range(len(arrays))]
    return _make_log(arrays, [str(k) for k in range(n_items)], user_ids)


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
    """Load a log written by log_to_json, rejecting one that disagrees with itself."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    schema = payload.get("schema") if isinstance(payload, dict) else None
    if schema != LOG_SCHEMA:
        raise ValueError(f"{path}: unknown log schema {schema!r}")
    item_ids, users = payload["items"], payload["users"]
    if not (isinstance(item_ids, list) and isinstance(users, list)) or not all(
        isinstance(entry, dict) and isinstance(entry.get("items"), list) for entry in users
    ):
        raise ValueError("items and users must be lists, each user an object with a list of items")
    if len(set(item_ids)) != len(item_ids):
        raise ValueError("duplicate item ids in vocabulary")
    # exact types, since numpy would truncate a float and cast a bool (an int subclass)
    if set(map(type, chain.from_iterable(entry["items"] for entry in users))) - {int}:
        bad = next(v for entry in users for v in entry["items"] if type(v) is not int)
        raise ValueError(f"item index {bad!r} is not an integer")
    try:
        arrays = [np.array(entry["items"], dtype=np.int64) for entry in users]
    except OverflowError:  # beyond int64, so beyond any vocabulary
        raise ValueError("item index out of vocabulary range") from None
    if any(len(a) == 0 for a in arrays):
        raise ValueError("empty user sequence")
    log = _make_log(arrays, item_ids, [entry["user_id"] for entry in users])
    if log.stats != payload["stats"]:
        raise ValueError("stored stats disagree with sequences")
    if log.vocabulary.counts.tolist() != payload["counts"]:
        raise ValueError("stored vocabulary counts disagree with sequences")
    return log


def transition_fanout(sequences: list[UserSequence]) -> int:
    """Maximum observed successor fan-out N_r over the given sequences.

    For each current item x, N(x) is the set of distinct items observed
    immediately after x in any of the sequences, and N_r is the largest |N(x)|.
    Pass a log's sequences for the pooled N_r, or [s] for user s's own.
    """
    succ: dict[int, set[int]] = {}
    for s in sequences:
        items = s.items.tolist()
        for a, b in zip(items, items[1:]):
            succ.setdefault(a, set()).add(b)
    if not succ:
        raise ValueError("no transitions in scope")
    return max(len(nexts) for nexts in succ.values())
