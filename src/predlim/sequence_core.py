"""Interaction-log ingestion and per-user integer-encoded sequences.

Raw data is a CSV of (user_id, item_id, timestamp) triples. Ingestion sorts by
timestamp (stable, so equal timestamps keep file order), optionally truncates to
the first max_events rows, drops users shorter than min_length, and encodes item
ids as dense integers in first-appearance order. Every estimator downstream
operates on the integer sequences only.
"""

from __future__ import annotations

import codecs
import csv
import json
import os
import zlib
from array import array
from collections import Counter
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from itertools import chain

import numpy as np

from . import entropy

__all__ = [
    "UserSequence",
    "InteractionLog",
    "ingest_csv",
    "log_from_sequences",
    "log_to_json",
    "log_from_json",
    "transition_fanout",
    "write_csv",
]

LOG_SCHEMA = "predlim-log-v1"
_HEADER = ["user_id", "item_id", "timestamp"]
_LOW_BYTES = np.array([(1 << 8 * k) - 1 for k in range(9)], np.uint64)  # the low k bytes set


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
    item_ids: Sequence[str]  # item_ids[k] is the id of item index k
    items: np.ndarray  # every user's item indices, user after user, each in time order
    offsets: np.ndarray  # user u's items are items[offsets[u]:offsets[u + 1]]
    user_ids: list[str]

    def __post_init__(self) -> None:
        """Check the layout; every way of building a log raises these errors."""
        lengths = np.diff(self.offsets)
        if not self.user_ids:
            raise ValueError("no sequences")
        if (self.offsets[:1].tolist() != [0] or self.offsets[-1] != len(self.items)
                or (lengths < 1).any() or len(lengths) != len(self.user_ids)):
            raise ValueError("offsets do not split items into a non-empty user per user id")
        if len(set(self.user_ids)) < len(self.user_ids):
            twice = next(uid for uid, n in Counter(self.user_ids).items() if n > 1)
            raise ValueError(f"user id {twice!r} is given twice")
        if self.items.min() < 0 or self.items.max() >= len(self.item_ids):
            raise ValueError("item index out of vocabulary range")

    @property
    def sequences(self) -> list[UserSequence]:
        """Each user's UserSequence, built on each access; its items are views into items."""
        bounds = self.offsets.tolist()
        return [UserSequence(u, uid, self.items[a:b])
                for u, (uid, a, b) in enumerate(zip(self.user_ids, bounds, bounds[1:]))]

    @property
    def num_users(self) -> int:
        return len(self.user_ids)

    @property
    def num_items(self) -> int:
        return len(self.item_ids)

    @property
    def counts(self) -> np.ndarray:
        """Interactions per item index."""
        return np.bincount(self.items, minlength=self.num_items)

    @property
    def stats(self) -> dict:
        return {"num_users": self.num_users, "num_items": self.num_items,
                "num_interactions": len(self.items), "avg_length": len(self.items) / self.num_users}


def ingest_csv(
    path: str,
    min_length: int = 1,
    max_events: int | None = None,
    dedup: bool = False,
) -> InteractionLog:
    """Read a (user_id, item_id, timestamp) CSV into an InteractionLog.

    A UTF-8 byte-order mark before the header is skipped. Ids are kept as integer
    codes while reading, and a timestamp may be any integer. Rows are sorted by
    timestamp with file order breaking ties. If max_events is set, only the first
    max_events rows of the sorted stream are kept. With dedup, a row repeating the
    previous surviving (user, item, timestamp) row of the same user is dropped.
    Users with fewer than min_length events are then removed; item indices are
    assigned in first-appearance order over the surviving rows so that vocabulary
    counts sum to the log's interactions. A plain file (see _read_plain) is read
    by array code, any other by the csv module; the log, or the error, is the same.
    A file that is not UTF-8 raises a ValueError naming the line and the byte.
    """
    if min_length < 1:
        raise ValueError("min_length must be >= 1")
    if max_events is not None and max_events < 0:
        raise ValueError("max_events must be >= 0")
    try:
        users, items, stamps, user_ids, item_ids = _read_plain(path) or _read_rows(path)
    except UnicodeDecodeError:
        raise ValueError(f"{path}: {_bad_utf8(path)}") from None
    # stable: file order breaks timestamp ties; max_events None keeps every row
    order = _stable_order(stamps)[:max_events]
    if dedup:  # each row's timestamp rank, in time order
        stamps = stamps[order]
        tick = np.cumsum(np.r_[False, stamps[1:] != stamps[:-1]])
    del stamps
    user, item = users[order], items[order]
    del users, items, order
    first = np.full(len(user_ids), len(user))  # each user code's first time position
    np.minimum.at(first, user, np.arange(len(user)))
    by_first = np.argsort(first)  # user codes in order of their first event, absent ones last
    user = np.argsort(by_first)[user]  # each row's user, ranked by first event
    at = _stable_order(user)  # time positions, grouped by user rank
    user, grouped = user[at], item[at]
    if dedup:  # drop a row equal to its predecessor in (user, item, timestamp rank)
        keep = np.any([np.diff(a, prepend=-1) != 0 for a in (user, grouped, tick[at])], axis=0)
        user, grouped, at = user[keep], grouped[keep], at[keep]
    counts = np.bincount(user, minlength=len(user_ids))
    long = counts >= min_length
    if not long.any():
        raise ValueError(f"{path}: no interactions left after filtering")
    grouped, at = grouped[long[user]], at[long[user]]
    # each kept item's first time position; a row dedup dropped repeats an item kept before it
    first = np.full(len(item_ids), len(item))
    np.minimum.at(first, grouped, at)
    item_order = np.argsort(first)[:np.count_nonzero(first < len(item))]  # by first appearance
    place = np.zeros(len(item_ids), dtype=np.int64)
    place[item_order] = np.arange(len(item_order))
    return InteractionLog([item_ids[k] for k in item_order.tolist()], place[grouped],
                          np.r_[0, np.cumsum(counts[long])],
                          [user_ids[k] for k in by_first[long].tolist()])


def _stable_order(keys: np.ndarray) -> np.ndarray:
    """np.argsort(keys, kind="stable"). Integer keys in int64 are packed with their row into
    one int64 (by rank if their span is too wide) for one plain sort, several times faster."""
    n = len(keys)
    if keys.dtype == object or not n:  # Python ints beyond int64
        return np.argsort(keys, kind="stable")
    low = int(keys.min())
    if (int(keys.max()) - low + 1) * n >= 1 << 63:
        keys, low = np.unique(keys, return_inverse=True)[1], 0
    packed = (keys - low) * n + np.arange(n)
    packed.sort()
    return packed % n


def _read_rows(path: str):
    """ingest_csv's columns by the csv module: user codes, item codes and timestamps, row by
    row, then the user and the item ids, each numbered in file order."""
    user_code, item_code = {}, {}  # id -> integer code
    users, items, stamps = array("q"), array("q"), array("q")
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty file")
        if [c.strip().lower() for c in header] != _HEADER:
            raise ValueError(f"{path}: line 1: expected header user_id,item_id,timestamp")
        for row in reader:  # reader.line_num: the line a row ends on, past any quoted newline
            if not row:
                continue
            if len(row) != 3 or not row[0] or not row[1]:
                raise ValueError(f"{path}: line {reader.line_num}: malformed row {row!r}")
            try:
                stamps.append(int(row[2]))
            except ValueError:
                raise ValueError(
                    f"{path}: line {reader.line_num}: timestamp {row[2]!r} is not an integer"
                ) from None
            except OverflowError:  # beyond int64: Python ints from here on
                stamps = [*stamps, int(row[2])]
            users.append(user_code.setdefault(row[0], len(user_code)))
            items.append(item_code.setdefault(row[1], len(item_code)))
    # a list only once a timestamp is beyond int64: then compared as Python ints
    stamps = np.array(stamps, object) if type(stamps) is list else np.frombuffer(stamps, np.int64)
    return (np.frombuffer(users, np.int64), np.frombuffer(items, np.int64), stamps,
            list(user_code), list(item_code))


def _read_plain(path: str):
    """_read_rows's columns by array code, ids numbered in an order of their own, from a
    plain file; None for any other, which _read_rows then reads to the same log or error.

    Plain: no quote, no NUL and no CR but before LF; the header (after an optional BOM)
    matched as _read_rows matches it; then every line blank or a non-empty user, a comma,
    a non-empty item, a comma and a timestamp -?[0-9]{1,18}; no field longer than
    csv.field_size_limit(). Bytes that are not UTF-8 raise UnicodeDecodeError, as there.
    """
    with open(path, "rb") as fh:
        raw = bytearray(os.fstat(fh.fileno()).st_size + 8)  # zeros past the end: see _codes
        size = fh.readinto(memoryview(raw)[:-8])
    skip = len(codecs.BOM_UTF8) if raw.startswith(codecs.BOM_UTF8) else 0
    buf = np.frombuffer(raw, np.uint8)[skip:]  # positions below are in buf
    text = buf[:size - skip]
    if not len(text) or (text == ord('"')).any() or (text == 0).any():
        return None
    if (buf[np.flatnonzero(text == ord("\r")) + 1] != ord("\n")).any():
        return None
    position = np.int32 if len(buf) < 1 << 31 else np.int64  # at half the memory, if it fits
    lf = np.flatnonzero(text == ord("\n")).astype(position)
    if text[-1] != ord("\n"):  # a last line without a newline
        lf = np.r_[lf, len(text)].astype(position)
    ends = lf - (buf[lf - 1] == ord("\r"))  # buf[-1] is a zero
    starts = np.r_[0, lf[:-1] + 1].astype(position)
    del lf
    header = bytes(buf[:ends[0]]).decode("utf-8").split(",")
    limit = csv.field_size_limit()
    if max(map(len, header)) > limit or [c.strip().lower() for c in header] != _HEADER:
        return None
    filled = ends > starts  # blank lines are skipped
    filled[0] = False
    starts, ends = starts[filled], ends[filled]
    commas = np.flatnonzero(text == ord(",")).astype(position)[2:]  # past the header's two
    if not len(starts) or len(commas) != 2 * len(starts):
        return None
    first, second = commas[0::2], commas[1::2]
    # comma pair k lies in line k; with two commas a line in all, no line holds more
    if not ((starts < first) & (first + 1 < second) & (second < ends)).all():
        return None
    stamps = _stamps(buf, second + 1, ends)
    user_len, item_len = first - starts, second - first - 1
    del ends, second
    if stamps is None or max(user_len.max(), item_len.max()) > limit:
        return None
    users, user_ids = _codes(buf, starts, user_len)
    del starts, user_len
    items, item_ids = _codes(buf, first + 1, item_len)
    return users, items, stamps, user_ids, item_ids


def _stamps(buf: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray | None:
    """The integers buf[starts[r]:ends[r]] as int64; None unless each is -?[0-9]{1,18}."""
    minus = buf[starts] == ord("-")
    digits = ends - starts - minus
    if digits.min() < 1 or digits.max() > 18:
        return None
    stamps = np.zeros(len(ends), np.int64)
    for j in range(int(digits.max()), 0, -1):  # the digit j places from the end, in a column
        digit = buf[ends - j] - np.uint8(ord("0"))  # wraps: a byte not a digit is above 9
        digit[digits < j] = 0
        if (digit > 9).any():
            return None
        stamps *= 10
        stamps += digit
    return np.negative(stamps, out=stamps, where=minus)


def _codes(buf: np.ndarray, starts: np.ndarray, lengths: np.ndarray):
    """Codes of the ids buf[starts[r]:starts[r] + lengths[r]], 0.. and equal where the bytes
    are, and the ids they code, each decoded once.

    An id's bytes are read 8 at a time, as one word masked to the id's end (no id holds a
    NUL, so the mask tells "u" from "u\\0"); the ids are ranked by their first word, then a
    longer id by its code so far and its next word, over only the rows still that long.
    The 8 bytes past the text in buf keep every word inside it.
    """
    windows = np.lib.stride_tricks.sliding_window_view(buf, 8)

    def word(rows, at: int) -> np.ndarray:
        mask = _LOW_BYTES[np.minimum(lengths[rows] - at, 8)]
        return windows[starts[rows] + at].view("<u8")[:, 0] & mask

    code = _rank(word(slice(None), 0))
    rows, at = np.flatnonzero(lengths > 8), 8
    while len(rows):  # new codes past the others: a code the rows leave keeps the shorter ids
        code[rows] = code.max() + 1 + _rank(word(rows, at), code[rows])
        at += 8
        rows = rows[lengths[rows] > at]
    if at > 8:  # the codes left by a longer id's rows are gaps: close them
        code = _rank(code)
    held = np.empty(code.max() + 1, np.int64)  # one row holding each code
    held[code] = np.arange(len(code))
    ends = np.cumsum(lengths[held])  # of each code's id, in the ids' bytes one after another
    ids = buf[np.arange(ends[-1]) + np.repeat(starts[held] - ends + lengths[held], lengths[held])]
    return code, _unpack(ids, ends, "strict")


def _rank(*keys: np.ndarray) -> np.ndarray:
    """Each row's dense rank under keys, the last key the primary one, as np.lexsort reads them."""
    order = np.lexsort(keys) if len(keys) > 1 else np.argsort(keys[0])
    step = np.zeros(len(order), bool)  # where the rank goes up, in order
    for key in keys:
        step[1:] |= np.diff(key[order]) != 0
    rank = np.empty(len(order), np.int64)
    rank[order] = np.cumsum(step)
    return rank


def _bad_utf8(path: str) -> str:
    """Where the file at path first fails to decode as UTF-8: its line and byte."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        return f"line {line}: invalid UTF-8 (byte 0x{data[exc.start]:02x})"
    return "invalid UTF-8"


def write_csv(path: str, header: list[str], rows: Iterable) -> None:
    """Write the header, then each of rows (read once, as the writer reaches it), as UTF-8 CSV."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(chain([header], rows))


def log_from_sequences(item_arrays, n_items: int | None = None) -> InteractionLog:
    """Build a log from integer sequences over an identity vocabulary.

    item_arrays is a list of integer arrays, or a 2-d array of equal-length rows,
    which the log takes without a copy if it is int64. Item k is named str(k) and
    user u is named "u{u}"; with n_items given, the vocabulary covers indices
    0..n_items-1 even if some never occur (a generator's full item space, or the
    swept candidate size for Fano), each name made on access, so memory does not
    grow with it. For synthetic corpora and tests.
    """
    if isinstance(item_arrays, np.ndarray) and item_arrays.ndim == 2:
        items = item_arrays.astype(np.int64, copy=False).reshape(-1)
    else:
        items = np.concatenate([np.zeros(0, np.int64), *item_arrays]).astype(np.int64, copy=False)
    if n_items is None:  # the log rejects no arrays and an empty one
        n_items = int(items.max(initial=-1)) + 1
    lengths = np.array([len(a) for a in item_arrays], dtype=np.int64)
    user_ids = [f"u{u}" for u in range(len(item_arrays))]
    return InteractionLog(_Names(range(n_items)), items, np.r_[0, np.cumsum(lengths)], user_ids)


@dataclass(frozen=True)
class _Names(Sequence):
    ks: range  # item k is named str(k), made on access; indexing goes through ks, as a list's

    def __len__(self) -> int:
        return len(self.ks)

    def __getitem__(self, k):
        ks = self.ks[k]  # a slice gives a range, returned as a list of names
        return list(map(str, ks)) if isinstance(ks, range) else str(ks)

    def __iter__(self):
        return map(str, self.ks)  # at C speed, where Sequence's would call __getitem__ per item


def log_to_json(log: InteractionLog, path: str) -> None:
    """Write the log as json.dump would, through json.dumps's C encoder one user at a time,
    or a piece of entropy.CHUNK_SYMBOLS items at a time of a longer user; then its arrays,
    for log_from_json to load without parsing, to path + ".npy" (see _RECORDS)."""
    head = {"schema": LOG_SCHEMA, "items": list(log.item_ids), "counts": log.counts.tolist(),
            "users": []}
    piece = entropy.CHUNK_SYMBOLS
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(head)[:-2])  # up to the opening bracket of the users list
        bounds = log.offsets.tolist()
        for k, (uid, a, b) in enumerate(zip(log.user_ids, bounds, bounds[1:])):
            user = json.dumps({"user_id": uid, "items": log.items[a:min(b, a + piece)].tolist()})
            fh.write((", " if k else "") + (user if b - a <= piece else user[:-2]))
            for lo in range(a + piece, b, piece):  # a longer user's other pieces, then "]}"
                fh.write(", " + json.dumps(log.items[lo:min(b, lo + piece)].tolist())[1:-1])
            if b - a > piece:
                fh.write("]}")
        fh.write("], " + json.dumps({"stats": log.stats})[1:])
    _save_arrays(log, path)


# path + ".npy" holds np.save records of these dtypes: the JSON's byte length and CRC-32 (its
# binding), items, offsets, then the item and the user ids, each as UTF-8 bytes and end offsets
_RECORDS = (np.int64, np.int64, np.int64, np.uint8, np.int64, np.uint8, np.int64)


def _binding(path: str) -> np.ndarray:
    """The byte length and CRC-32 of the file at path, read 64 KiB at a time."""
    crc = 0
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            crc = zlib.crc32(block, crc)
        return np.array([fh.tell(), crc], np.int64)


def _save_arrays(log: InteractionLog, path: str) -> None:
    """Write path + ".npy", bound to the JSON at path; ids keep a lone surrogate, as JSON does."""
    records = [_binding(path), log.items, log.offsets]
    for ids in (log.item_ids, log.user_ids):
        encoded = [s.encode("utf-8", "surrogatepass") for s in ids]
        records += [np.frombuffer(b"".join(encoded), np.uint8), np.cumsum([*map(len, encoded)])]
    with open(path + ".npy", "wb") as fh:
        for record, dtype in zip(records, _RECORDS):  # through tofile, without a copy
            np.save(fh, np.asarray(record, dtype), allow_pickle=False)


def _unpack(blob: np.ndarray, ends: np.ndarray, errors: str = "surrogatepass") -> list[str]:
    """The ids whose UTF-8 bytes end at ends in blob, decoded with the errors handler given."""
    bounds = np.r_[0, ends]
    if bounds[-1] != len(blob) or (np.diff(bounds) < 0).any():
        raise ValueError("id end offsets do not split the id bytes")
    if len(ends) and not (blob == 0).any():  # a NUL put at each end splits them at C speed
        return np.insert(blob, ends[:-1], 0).tobytes().decode("utf-8", errors).split("\0")
    data, bounds = blob.tobytes(), bounds.tolist()
    return [data[a:b].decode("utf-8", errors) for a, b in zip(bounds, bounds[1:])]


def log_from_json(path: str) -> InteractionLog:
    """Load the log that log_to_json wrote to path from its arrays, path + ".npy" (see _RECORDS),
    bound to the JSON at path as it is now; the JSON is not parsed. A missing, stale or damaged
    .npy raises one ValueError that names it; the log checks its own layout as it is built."""
    binding = _binding(path)
    try:
        if not os.path.exists(path + ".npy"):
            raise ValueError("no such file")
        records = []
        with open(path + ".npy", "rb") as fh:
            for dtype in _RECORDS:
                records.append(np.lib.format.read_array(fh, allow_pickle=False))
                if records[-1].dtype != dtype or records[-1].ndim != 1:
                    raise ValueError(f"record {len(records)} is not a 1-d {np.dtype(dtype)} array")
                if len(records) == 1 and not np.array_equal(records[0], binding):
                    raise ValueError(f"bound to other bytes than {path}")
        _, items, offsets, *ids = records
        item_ids = _unpack(*ids[:2])
        if len(set(item_ids)) != len(item_ids):
            raise ValueError("duplicate item ids in vocabulary")
        return InteractionLog(item_ids, items, offsets, _unpack(*ids[2:]))
    except ValueError as exc:
        raise ValueError(f"{path}.npy: {exc}; re-run ingest") from None


def transition_fanout(items: np.ndarray, offsets: np.ndarray, per_user: bool = False):
    """Maximum successor fan-out N_r of the users (items, offsets).

    N(x) is the set of distinct items seen right after x within a user, and N_r
    the largest |N(x)|: pooled over all users (an int), or per_user each user's
    own (an int64 array). A scope without transitions raises, as per user does a
    one-event user, and so does a negative item. With n = items.max() + 1 (N_r is
    the same for any n above every item), a transition a -> b is the key a * n + b,
    made in entropy's chunks of users (per user plus owner * n^2, few enough users to
    keep keys below 2^63); once sorted and deduplicated, a state's distinct successors
    are a run of equal key // n. Pooled keeps each chunk's distinct keys and counts
    the runs once over them all.
    """
    items, offsets = np.asarray(items, np.int64), np.asarray(offsets)
    if items.min(initial=0) < 0:
        raise ValueError(f"item {items.min()} is negative")
    n = int(items.max(initial=0)) + 1
    if n * n >= 1 << 63:
        raise ValueError(f"item {n - 1} is too large for int64 transition keys")
    lengths = np.diff(offsets)
    if per_user and np.any(lengths < 2):
        raise ValueError("no transitions in scope")
    fanout, distinct = np.zeros(len(lengths), dtype=np.int64), []
    most = ((1 << 63) - 1) // (n * n) if per_user else None
    for lo, hi in entropy._chunks(lengths, entropy.CHUNK_SYMBOLS, most):
        x = items[offsets[lo]:offsets[hi]]
        keys = x[:-1] * n + x[1:]
        if per_user and hi - lo > 1:  # a pair takes its first event's owner
            keys += np.repeat(np.arange(hi - lo) * (n * n), lengths[lo:hi])[:-1]
        cuts = offsets[lo + 1:hi] - offsets[lo] - 1  # the pair across each user boundary
        keys = np.delete(keys, cuts[(cuts >= 0) & (cuts < len(keys))])  # an empty user has none
        if per_user:
            states, runs = _runs(keys, n)
            np.maximum.at(fanout[lo:hi], states // n, runs)
        elif len(keys):
            distinct.append(_distinct(keys))
    if per_user:
        return fanout
    if not distinct:
        raise ValueError("no transitions in scope")
    return int(_runs(np.concatenate(distinct), n)[1].max())


def _distinct(keys: np.ndarray) -> np.ndarray:
    """The distinct keys, in order; sorts keys in place."""
    keys.sort()  # np.unique hashes int64 keys first, several times slower here
    return keys[np.concatenate(([True], keys[1:] != keys[:-1]))]


def _runs(keys: np.ndarray, n: int):
    """Each distinct key // n and the number of distinct keys sharing it; sorts keys in place."""
    states = _distinct(keys) // n
    first = np.flatnonzero(np.concatenate(([True], states[1:] != states[:-1])))
    return states[first], np.diff(first, append=len(states))
