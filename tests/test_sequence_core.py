import contextlib
import csv
import io
import json
import math
import os
import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from predlim import entropy, sequence_core
from predlim.sequence_core import (
    InteractionLog,
    UserSequence,
    ingest_csv,
    log_from_json,
    log_from_sequences,
    log_to_json,
    transition_fanout,
)
from predlim.synth import GeneratorConfig, generate


def fanout_table(sequences):
    """Per-state successor fan-out by direct enumeration: {state: |N(state)|}."""
    succ = {}
    for s in sequences:
        for a, b in zip(s.items[:-1], s.items[1:]):
            succ.setdefault(int(a), set()).add(int(b))
    return {state: len(nexts) for state, nexts in succ.items()}


def fanout_oracle(sequences, scope):
    """N_r from the per-state tables: pooled over all users, or per user then maxed."""
    if scope == "pooled":
        return max(fanout_table(sequences).values())
    table = {}
    for s in sequences:
        for state, fan in fanout_table([s]).items():
            table[state] = max(fan, table.get(state, 0))
    return max(table.values())


def write_csv(path, rows, header="user_id,item_id,timestamp"):
    lines = [header] + [",".join(str(c) for c in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def test_shuffled_timestamps_sort_into_time_order(tmp_path):
    path = write_csv(tmp_path / "log.csv", [("u1", "b", 5), ("u1", "a", 1), ("u1", "c", 9)])
    log = ingest_csv(path)
    assert log.num_users == 1
    seq = log.sequences[0]
    assert [log.item_ids[i] for i in seq.items] == ["a", "b", "c"]


@pytest.mark.parametrize("past", [1 << 63, -(1 << 63) - 1])
def test_timestamps_that_pass_int64_partway_through_the_file_sort_as_python_ints(tmp_path, past):
    # int64 holds the first rows; past it, ingest falls back to Python ints for every row
    stamps = [7, -(1 << 63), (1 << 63) - 1, 7, 0, past, -1, past, (1 << 63) - 1, 3 * past, 0]
    rows = [("u1", f"i{k}", t) for k, t in enumerate(stamps)]
    log = ingest_csv(write_csv(tmp_path / "log.csv", rows))
    in_time = [item for _, item, _ in sorted(rows, key=lambda row: row[2])]  # stable
    assert [log.item_ids[i] for i in log.items] == in_time


def test_min_length_filter_drops_short_users(tmp_path):
    path = write_csv(tmp_path / "log.csv", [("u1", "a", 1), ("u1", "b", 2), ("u2", "a", 5)])
    log = ingest_csv(path, min_length=2)
    assert log.num_users == 1
    assert log.num_items == 2
    assert log.stats["num_interactions"] == 2


def test_vocabulary_built_after_filtering(tmp_path):
    # u2's item c must not claim a vocabulary slot once u2 is dropped
    path = write_csv(tmp_path / "log.csv", [("u2", "c", 0), ("u1", "a", 1), ("u1", "b", 2)])
    log = ingest_csv(path, min_length=2)
    assert log.item_ids == ["a", "b"]
    assert int(log.counts.sum()) == log.stats["num_interactions"]


def test_timestamp_ties_break_by_file_order(tmp_path):
    path = write_csv(tmp_path / "log.csv", [("u1", "x", 7), ("u1", "y", 7), ("u1", "z", 7)])
    log = ingest_csv(path)
    assert [log.item_ids[i] for i in log.sequences[0].items] == ["x", "y", "z"]


def test_max_events_truncates_in_time_order(tmp_path):
    rows = [("u1", "a", 3), ("u1", "b", 1), ("u1", "c", 2)]
    path = write_csv(tmp_path / "log.csv", rows)
    log = ingest_csv(path, max_events=2)
    assert log.stats["num_interactions"] == 2
    assert [log.item_ids[i] for i in log.sequences[0].items] == ["b", "c"]


def test_dedup_is_opt_in(tmp_path):
    rows = [("u1", "a", 1), ("u1", "a", 1), ("u1", "a", 2)]
    path = write_csv(tmp_path / "log.csv", rows)
    assert ingest_csv(path).stats["num_interactions"] == 3
    deduped = ingest_csv(str(path), dedup=True)
    # the exact (user, item, timestamp) repeat goes; the later re-consumption stays
    assert deduped.stats["num_interactions"] == 2


@pytest.mark.parametrize("body, line", [
    ("u1,a,1\nu1,a\n", 3),
    ('"a\nb",x,1\nu,v\n', 4),  # after a quoted field that spans two lines
], ids=["plain", "after-quoted-newline"])
def test_malformed_row_names_line_number(tmp_path, body, line):
    path = tmp_path / "bad.csv"
    path.write_text("user_id,item_id,timestamp\n" + body, encoding="utf-8")
    with pytest.raises(ValueError, match=f"line {line}: malformed row"):
        ingest_csv(str(path))


@pytest.mark.parametrize("body, line", [
    ("u1,a,noon\n", 2),
    ('"a\nb",x,1\nu,v,noon\n', 4),  # after a quoted field that spans two lines
], ids=["plain", "after-quoted-newline"])
def test_non_integer_timestamp_names_line_number(tmp_path, body, line):
    path = tmp_path / "bad.csv"
    path.write_text("user_id,item_id,timestamp\n" + body, encoding="utf-8")
    with pytest.raises(ValueError, match=f"line {line}: timestamp 'noon' is not an integer"):
        ingest_csv(str(path))


def test_wrong_header_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("user,item,ts\nu1,a,1\n", encoding="utf-8")
    with pytest.raises(ValueError, match="header"):
        ingest_csv(str(path))


def test_empty_after_filtering_errors(tmp_path):
    path = write_csv(tmp_path / "log.csv", [("u1", "a", 1)])
    with pytest.raises(ValueError, match="filtering"):
        ingest_csv(path, min_length=5)


def test_ingestion_is_deterministic(tmp_path):
    rows = [("u2", "b", 4), ("u1", "a", 1), ("u1", "b", 4), ("u3", "c", 2)]
    path = write_csv(tmp_path / "log.csv", rows)
    out1, out2 = tmp_path / "log1.json", tmp_path / "log2.json"
    log_to_json(ingest_csv(path), str(out1))
    log_to_json(ingest_csv(path), str(out2))
    assert out1.read_bytes() == out2.read_bytes()


def test_vocabulary_round_trip_and_stats(tmp_path):
    rows = [("u1", "a", 1), ("u1", "b", 2), ("u2", "b", 3), ("u2", "a", 4)]
    log = ingest_csv(write_csv(tmp_path / "log.csv", rows))
    assert log.item_ids == ["a", "b"]
    assert log.counts.tolist() == [2, 2]
    assert log.stats == {
        "num_users": 2, "num_items": 2, "num_interactions": 4, "avg_length": 2.0,
    }


def test_json_round_trip(tmp_path):
    rows = [("u1", "a", 1), ("u1", "b", 2), ("u2", "a", 3)]
    log = ingest_csv(write_csv(tmp_path / "log.csv", rows))
    path = tmp_path / "log.json"
    log_to_json(log, str(path))
    loaded = log_from_json(str(path))
    assert loaded.item_ids == log.item_ids
    assert loaded.stats == log.stats
    for a, b in zip(loaded.sequences, log.sequences):
        assert a.user_id == b.user_id
        assert np.array_equal(a.items, b.items)


def test_each_user_sequence_is_a_view_of_the_log_items(tmp_path):
    rows = [("u2", "b", 4), ("u1", "a", 1), ("u1", "b", 4), ("u3", "c", 2), ("u2", "a", 5)]
    path = write_csv(tmp_path / "log.csv", rows)
    log_to_json(ingest_csv(path), str(tmp_path / "log.json"))
    logs = [
        ingest_csv(path),
        log_from_json(str(tmp_path / "log.json")),
        log_from_sequences([np.array([0, 3]), np.array([2]), np.array([1, 1, 1])]),
        generate(GeneratorConfig("repeat_last", 20, 4, 30, 1, {"p": 0.5})).log,
    ]
    for log in logs:
        assert log.offsets[0] == 0
        assert log.offsets[-1] == log.stats["num_interactions"] == len(log.items)
        assert [s.user_index for s in log.sequences] == list(range(log.num_users))
        assert [s.user_id for s in log.sequences] == log.user_ids
        for s, start, end in zip(log.sequences, log.offsets, log.offsets[1:]):
            assert np.shares_memory(s.items, log.items)
            assert np.array_equal(s.items, log.items[start:end]) and s.length == end - start


LONG = 200_000  # events in the memory tests below: 1.6 MB as int64


def peak_bytes_per_event(fn, events):
    """tracemalloc's peak while fn runs, above what was traced before it, per event."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return (tracemalloc.get_traced_memory()[1] - before) / events
    finally:
        tracemalloc.stop()


def test_log_to_json_holds_one_piece_of_a_long_user_as_python_ints(tmp_path):
    # One 200k-event user over 1,000 items. Encoding the whole user through tolist
    # peaked at 54.0 bytes an event; a piece of entropy.CHUNK_SYMBOLS items at a time
    # reads about 4.9. Bound: the items' own int64 array, 8 bytes an event.
    items = np.random.default_rng(0).integers(0, 1000, LONG)
    log = log_from_sequences([items], n_items=1000)
    path = tmp_path / "log.json"
    assert peak_bytes_per_event(lambda: log_to_json(log, str(path)), LONG) < 8
    payload = {"schema": "predlim-log-v1", "items": list(log.item_ids),
               "counts": log.counts.tolist(), "users": [{"user_id": "u0", "items": items.tolist()}],
               "stats": log.stats}
    assert path.read_text() == json.dumps(payload)  # the bytes json.dump writes


@pytest.mark.parametrize("users", [200, 1])
def test_log_from_json_never_holds_the_log_as_python_ints(tmp_path, users):
    # 200 users of 1,000 events, or one user of 200k, over 1,000 items. Python ints for the
    # whole log peaked at 38.3 bytes an event. The log is the .npy's records as loaded,
    # plus the ids as Python strings: about 8.7 is read.
    items = np.random.default_rng(0).integers(0, 1000, LONG)
    log = log_from_sequences(items.reshape(users, -1), n_items=1000)
    path = tmp_path / "log.json"
    log_to_json(log, str(path))
    bound = (tmp_path / "log.json.npy").stat().st_size / LONG + 1
    assert peak_bytes_per_event(lambda: log_from_json(str(path)), LONG) < bound
    assert np.array_equal(log_from_json(str(path)).items, items)


def test_per_user_fanout_of_a_long_user_holds_few_int64_arrays():
    # One 200k-event user over 1,000 items. Keys over the whole log, np.delete's copy,
    # owner keys and diffs peaked at 45.8 bytes an event; one chunk's keys sorted in
    # place, and its deduplicated states, read about 17.1. Bound: three int64 arrays.
    items = np.random.default_rng(0).integers(0, 1000, LONG)
    offsets = np.array([0, LONG])
    fanout = []
    assert peak_bytes_per_event(
        lambda: fanout.append(transition_fanout(items, offsets, per_user=True)), LONG) < 24
    assert fanout[0].tolist() == [transition_fanout(items, offsets)]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.lists(st.integers(min_value=0, max_value=5), min_size=2, max_size=25),
             min_size=1, max_size=10),
    st.sampled_from([6, 1 << 31, math.isqrt(((1 << 63) - 1) // 3)]),
)
def test_per_user_fanout_across_chunk_boundaries(user_lists, n):
    # an 8-event budget puts chunk boundaries all through the log and a longer user in a
    # chunk of its own; at the two large n, keys allow one and three users per chunk
    values = np.array([0, 1, 2, n - 3, n - 2, n - 1])
    arrays = [values[u] for u in user_lists]
    arrays[0][-1] = n - 1  # so that the key base items.max() + 1 is n
    items, offsets = np.concatenate(arrays), np.cumsum([0] + [len(a) for a in arrays])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(entropy, "CHUNK_SYMBOLS", 8)
        got = transition_fanout(items, offsets, per_user=True).tolist()
    successors = [{} for _ in arrays]  # each user's successor sets, by direct enumeration
    for sets, a in zip(successors, arrays):
        for x, y in zip(a.tolist(), a[1:].tolist()):
            sets.setdefault(x, set()).add(y)
    assert got == [max(map(len, sets.values())) for sets in successors]


def _saved_log(tmp_path):
    """A saved two-user log: items [a, b], users u1 [0, 1] and u2 [0]."""
    rows = [("u1", "a", 1), ("u1", "b", 2), ("u2", "a", 3)]
    path = tmp_path / "log.json"
    log_to_json(ingest_csv(write_csv(tmp_path / "log.csv", rows)), str(path))
    return path


def _id_records(k, *names):
    """Records k and k + 1 for these ids: their UTF-8 bytes and their end offsets."""
    data = [name.encode() for name in names]
    return {k: np.frombuffer(b"".join(data), np.uint8), k + 1: np.cumsum([0, *map(len, data)])[1:]}


def _rewrite_records(npy, change):
    """Write the np.save records of npy again, record k replaced by change[k] (None drops it);
    the binding, record 0, is kept, so the arrays are still read."""
    with open(npy, "rb") as fh:
        records = [np.load(fh) for _ in range(7)]
    with open(npy, "wb") as fh:
        for record in (change.get(k, record) for k, record in enumerate(records)):
            if record is not None:
                np.save(fh, record, allow_pickle=True)


@pytest.mark.parametrize("change, message", [
    ({2: [0, 3, 3]}, "offsets do not split items into a non-empty user per user id"),
    ({1: [0, 2, 0]}, "item index out of vocabulary range"),
    ({1: [0, 1, -1]}, "item index out of vocabulary range"),
    # indices that are not int64: a fraction, a bool, a string, a scalar
    ({1: np.array([0, 1.5, 0])}, "record 2 is not a 1-d int64 array"),
    ({1: np.array([False, True, False])}, "record 2 is not a 1-d int64 array"),
    ({1: np.array(["0", "1", "0"])}, "record 2 is not a 1-d int64 array"),
    ({1: np.int64(5)}, "record 2 is not a 1-d int64 array"),
    ({1: np.zeros(0, np.int64), 2: [0], **_id_records(5)}, "no sequences"),
    (_id_records(5, "u1", "u1"), "user id 'u1' is given twice"),
    (_id_records(3, "a", "a"), "duplicate item ids in vocabulary"),
    ({3: np.array([7, 8])}, "record 4 is not a 1-d uint8 array"),  # ids as numbers
    ({5: None, 6: None}, "EOF: reading magic string"),  # no user ids
], ids=["empty-user", "index-past-vocabulary", "negative-index", "fraction", "bool", "string",
        "scalar", "no-users", "user-twice", "item-twice", "numeric-ids", "no-user-ids"])
def test_arrays_that_disagree_with_themselves_are_rejected(tmp_path, change, message):
    path = _saved_log(tmp_path)
    assert log_from_json(str(path)).user_ids == ["u1", "u2"]
    _rewrite_records(f"{path}.npy", change)
    with pytest.raises(ValueError) as info:
        log_from_json(str(path))
    assert str(info.value).startswith(f"{path}.npy: ") and message in str(info.value)
    assert str(info.value).endswith("; re-run ingest")


@pytest.mark.parametrize("damage, message", [
    (lambda path: os.remove(f"{path}.npy"), "no such file"),
    (lambda path: path.write_text(path.read_text().replace("u1", "v1")),
     "bound to other bytes than {path}"),
], ids=["missing", "stale"])
def test_a_log_without_current_arrays_is_not_loaded(tmp_path, damage, message):
    # the JSON is never parsed: without arrays bound to its bytes there is no log
    path = _saved_log(tmp_path)
    damage(path)
    with pytest.raises(ValueError) as info:
        log_from_json(str(path))
    assert str(info.value) == f"{path}.npy: {message.format(path=path)}; re-run ingest"


def assert_same_log(got, want):
    assert type(got.item_ids) is list and got.item_ids == list(want.item_ids)
    assert type(got.user_ids) is list and got.user_ids == list(want.user_ids)
    for a, b in ((got.items, want.items), (got.offsets, want.offsets)):
        assert a.dtype == np.int64 and np.array_equal(a, b)


def assert_matches_its_json(log, path):
    """Every field of the JSON at path, read by json.load, says what log holds."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    bounds = log.offsets.tolist()
    assert payload == {
        "schema": "predlim-log-v1", "items": list(log.item_ids), "counts": log.counts.tolist(),
        "users": [{"user_id": uid, "items": log.items[a:b].tolist()}
                  for uid, a, b in zip(log.user_ids, bounds, bounds[1:])],
        "stats": log.stats,
    }


@pytest.mark.parametrize("item_ids, items, offsets, user_ids, message", [
    (["a", "b"], [0, 1, 0, 1, 1], [0, 4], ["u"], "offsets do not split items"),
    (["a", "b"], [0, 1, 0], [1, 3], ["u"], "offsets do not split items"),
    (["a", "b"], [0, 1, 0], [0, 2, 2, 3], ["u", "v", "w"], "offsets do not split items"),
    (["a", "b"], [0, 1, 0], [0, 3], ["u", "v"], "offsets do not split items"),
    (["a", "b"], [0, 1, 0], [0, 1, 3], ["u", "u"], "user id 'u' is given twice"),
    (["a"], [0, 3], [0, 2], ["u"], "item index out of vocabulary range"),
    (["a"], [], [0], [], "no sequences"),
], ids=["ends-early", "starts-late", "user-without-events", "user-without-span", "user-twice",
        "index-past-vocabulary", "no-users"])
def test_a_log_built_with_a_broken_layout_raises(item_ids, items, offsets, user_ids, message):
    # a log that builds is one log_from_json would load back after log_to_json
    with pytest.raises(ValueError, match=message):
        InteractionLog(item_ids, np.array(items, np.int64), np.array(offsets), user_ids)


@pytest.mark.parametrize("names", [
    ["a,b", 'say "hi"', "two\nlines", "日本", "é", "x"],  # split at a NUL put after each id
    ["a,b", 'say "hi"', "two\nlines", "日本", "trailing\0", "\0"],  # ids that hold a NUL
])
def test_the_arrays_give_the_log_the_json_gives(tmp_path, names):
    items = np.array([0, 1, 2, 3, 4, 4, 5, 0, 3], np.int64)
    log = InteractionLog(names, items, np.array([0, 2, 5, 9]), names[3:][::-1])
    path = tmp_path / "log.json"
    log_to_json(log, str(path))
    loaded = log_from_json(str(path))
    assert_same_log(loaded, log)
    assert_matches_its_json(loaded, path)


def test_a_generated_log_gives_the_same_log_from_its_arrays(tmp_path):
    log = generate(GeneratorConfig("repeat_last", 20, 4, 30, 1, {"p": 0.5})).log
    path = tmp_path / "log.json"
    log_to_json(log, str(path))
    assert_same_log(log_from_json(str(path)), log)
    log_to_json(log, str(tmp_path / "again.json"))  # the same log gives the same bytes
    assert (tmp_path / "again.json.npy").read_bytes() == (tmp_path / "log.json.npy").read_bytes()


def fanouts(log, per_user=False):
    return transition_fanout(log.items, log.offsets, per_user)


def test_fanout_direct_enumeration():
    log = log_from_sequences([np.array([0, 1, 0, 2])])
    assert fanouts(log) == 2
    assert fanout_table(log.sequences) == {0: 2, 1: 1}


def test_fanout_constant_sequence():
    log = log_from_sequences([np.array([0, 0, 0])])
    assert fanouts(log) == 1


def test_fanout_pooled_vs_per_user():
    log = log_from_sequences([np.array([0, 1]), np.array([0, 2])])
    assert fanouts(log) == 2
    assert fanouts(log, per_user=True).tolist() == [1, 1]


def test_fanout_ignores_pairs_across_users():
    # 0 -> 2 and 0 -> 3 would only follow 0 across a user boundary
    log = log_from_sequences([np.array([0, 1, 0]), np.array([2, 5, 0]), np.array([3, 4])])
    assert fanouts(log) == 1 == fanout_oracle(log.sequences, "pooled")
    assert fanouts(log, per_user=True).tolist() == [1, 1, 1]


def test_fanout_requires_transitions():
    log = log_from_sequences([np.array([0]), np.array([1])])
    with pytest.raises(ValueError, match="transitions"):
        fanouts(log)
    with pytest.raises(ValueError, match="transitions"):
        transition_fanout(log.items[:1], np.array([0, 1]))
    mixed = log_from_sequences([np.array([0, 1, 0]), np.array([1])])
    assert fanouts(mixed) == 1
    with pytest.raises(ValueError, match="transitions"):
        fanouts(mixed, per_user=True)  # one event is no transition of its own


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(min_value=0, max_value=6), min_size=2, max_size=20),
        min_size=1,
        max_size=6,
    )
)
def test_fanout_bounds_property(user_lists):
    log = log_from_sequences([np.array(u) for u in user_lists], n_items=7)
    pooled = fanouts(log)
    per_user = max(fanouts(log, per_user=True))
    assert 1 <= per_user <= pooled <= log.num_items


def test_log_from_sequences_pads_vocabulary():
    log = log_from_sequences([np.array([0, 3])], n_items=10)
    assert log.num_items == 10
    assert int(log.counts.sum()) == 2
    assert list(log.item_ids) == [str(k) for k in range(10)]
    with pytest.raises(TypeError):  # names are made on access, and no log can rename one
        log.item_ids[0] = "renamed"
    with pytest.raises(ValueError):
        log_from_sequences([np.array([11])], n_items=10)
    with pytest.raises(ValueError):
        log_from_sequences([])


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=25),
        min_size=1,
        max_size=6,
    ).filter(lambda users: any(len(u) >= 2 for u in users))
)
def test_fanout_matches_enumeration_oracle(user_lists):
    log = log_from_sequences([np.array(u) for u in user_lists], n_items=6)
    assert fanouts(log) == fanout_oracle(log.sequences, "pooled")
    two = log_from_sequences([np.array(u) for u in user_lists if len(u) >= 2], n_items=6)
    per_user = max(fanouts(two, per_user=True))
    assert per_user == fanout_oracle(log.sequences, "per_user")
    each = [fanout_oracle([s], "pooled") for s in two.sequences]
    assert fanouts(two, per_user=True).tolist() == each


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.integers(min_value=0, max_value=5), max_size=12), min_size=1,
                max_size=8))
@example([[0, 1, 2], []])  # a trailing empty user: no boundary pair past the end
@example([[], [0, 1, 0, 2]])  # a leading one: the last pair stays, so N_r is 2
def test_pooled_fanout_with_empty_users_matches_set_reference(user_lists):
    items = np.array([x for u in user_lists for x in u], dtype=np.int64)
    offsets = np.cumsum([0] + [len(u) for u in user_lists])
    successors = {}
    for u in user_lists:
        for x, y in zip(u, u[1:]):
            successors.setdefault(x, set()).add(y)
    if not successors:
        with pytest.raises(ValueError, match="transitions"):
            transition_fanout(items, offsets)
    else:
        assert transition_fanout(items, offsets) == max(map(len, successors.values()))


@pytest.mark.parametrize("n", [1 << 31, math.isqrt(((1 << 63) - 1) // 3)])
def test_fanout_near_the_int64_key_limit(n):
    # one user per key chunk at n = 2^31, three at the second n; the largest item is n - 1,
    # so the key base items.max() + 1 is n
    rng = np.random.default_rng(7)
    values = np.array([0, 1, n - 2, n - 1])
    arrays = [values[rng.integers(0, 4, int(t))] for t in rng.integers(2, 30, 7)]
    arrays[0][-1] = n - 1
    items, offsets = np.concatenate(arrays), np.cumsum([0] + [len(a) for a in arrays])
    seqs = [UserSequence(u, f"u{u}", a) for u, a in enumerate(arrays)]
    assert transition_fanout(items, offsets) == fanout_oracle(seqs, "pooled")
    got = transition_fanout(items, offsets, per_user=True).tolist()
    assert got == [fanout_oracle([s], "pooled") for s in seqs]
    with pytest.raises(ValueError, match="too large"):
        transition_fanout(np.array([0, (1 << 32) - 1]), np.array([0, 2]))


def read_by(read):
    """A context in which ingest_csv reads a file as named: "csv-only" makes the array reader
    decline every file, so the csv loop reads it; "array" fails the test if the csv loop runs;
    "as-is" leaves the choice to ingest_csv."""
    if read == "csv-only":
        return mock.patch.object(sequence_core, "_read_plain", lambda path: None)
    if read == "array":
        return mock.patch.object(sequence_core, "_read_rows",
                                 side_effect=AssertionError("the csv loop read the file"))
    return contextlib.nullcontext()


def reference_ingest(text, min_length, max_events, dedup):
    """ingest_csv's rules by the csv module, sorted and dicts: ({user: items}, vocabulary)."""
    rows = [r for r in csv.reader(io.StringIO(text.removeprefix("\ufeff"), newline=""))][1:]
    events = sorted(((int(ts), u, i) for u, i, ts in filter(None, rows)), key=lambda e: e[0])
    events = events[:max_events]
    seqs = {}
    for ts, user, item in events:
        seq = seqs.setdefault(user, [])
        if not (dedup and seq and seq[-1] == (item, ts)):
            seq.append((item, ts))
    seqs = {u: [item for item, _ in seq] for u, seq in seqs.items() if len(seq) >= min_length}
    vocabulary = list(dict.fromkeys(item for _, user, item in events if user in seqs))
    return seqs, vocabulary


@settings(max_examples=150, deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            st.sampled_from(["u1", "u,2", 'u"3', " u4 "]),
            st.sampled_from(["a", "b,c", 'd"', " e", "F"]),
            st.one_of(st.integers(-3, 3), st.integers(-(2**70), 2**70)),
        ),
        max_size=25,
    ),
    header=st.sampled_from([
        "user_id,item_id,timestamp",
        "User_ID, Item_Id ,TIMESTAMP",
        ' user_id\t,"item_id",timestamp ',
    ]),
    eol=st.sampled_from(["\n", "\r\n"]),
    quoting=st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL]),
    blank_after=st.sets(st.integers(0, 25)),
    bom=st.booleans(),
    min_length=st.integers(1, 4),
    max_events=st.one_of(st.none(), st.integers(-2, 30)),
    dedup=st.booleans(),
)
@pytest.mark.parametrize("read", ["as-is", "csv-only"])
def test_ingest_matches_a_reference_parser(
    tmp_path_factory, read, rows, header, eol, quoting, blank_after, bom, min_length, max_events,
    dedup
):
    body = io.StringIO()
    writer = csv.writer(body, lineterminator=eol, quoting=quoting)
    for k, row in enumerate(rows):
        writer.writerow(row)
        if k in blank_after:
            body.write(eol)
    text = ("\ufeff" if bom else "") + header + eol + body.getvalue()
    path = tmp_path_factory.getbasetemp() / "fuzz.csv"
    path.write_bytes(text.encode("utf-8"))

    def ingest():
        return ingest_csv(str(path), min_length=min_length, max_events=max_events, dedup=dedup)

    if max_events is not None and max_events < 0:
        with pytest.raises(ValueError, match="max_events"):
            ingest()
        return
    with read_by(read):
        assert_ingest_matches_reference(ingest, text, min_length, max_events, dedup)


def assert_ingest_matches_reference(ingest, text, min_length, max_events, dedup):
    seqs, vocabulary = reference_ingest(text, min_length, max_events, dedup)
    if not seqs:
        with pytest.raises(ValueError, match="filtering"):
            ingest()
        return
    log = ingest()
    reverse = log.item_ids
    assert {s.user_id: [reverse[k] for k in s.items] for s in log.sequences} == seqs
    assert [s.user_id for s in log.sequences] == list(seqs)
    assert reverse == vocabulary
    assert dict(zip(reverse, log.counts.tolist())) == Counter(
        item for seq in seqs.values() for item in seq
    )


@settings(max_examples=60, deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            st.integers(0, 59),
            st.integers(0, 79),
            st.one_of(st.integers(0, 4), st.integers(-(2**70), 2**70)),  # heavy ties, or huge
        ),
        max_size=300,
    ),
    repeats=st.lists(st.tuples(st.integers(0, 299), st.integers(0, 1)), max_size=60),
    min_length=st.integers(1, 6),
    max_events=st.one_of(st.none(), st.integers(0, 400)),
    dedup=st.booleans(),
)
@pytest.mark.parametrize("read", ["as-is", "csv-only"])
def test_ingest_matches_a_reference_parser_on_many_users_and_items(
    tmp_path_factory, read, rows, repeats, min_length, max_events, dedup
):
    for k, later in repeats:
        if rows:  # a row given twice in a row, which dedup drops, or one tick later
            user, item, stamp = rows[k % len(rows)]
            rows.insert(k % len(rows), (user, item, stamp + later))
    body = io.StringIO()
    writer = csv.writer(body)
    writer.writerow(["user_id", "item_id", "timestamp"])
    writer.writerows((f"u{u}", f"i,{i}" if i % 7 else f'"{i}', t) for u, i, t in rows)
    text = body.getvalue()
    path = tmp_path_factory.getbasetemp() / "many.csv"
    path.write_bytes(text.encode("utf-8"))

    def ingest():
        return ingest_csv(str(path), min_length=min_length, max_events=max_events, dedup=dedup)

    with read_by(read):
        assert_ingest_matches_reference(ingest, text, min_length, max_events, dedup)


def test_log_to_json_writes_the_bytes_json_dump_wrote(tmp_path):
    rows = [("ü,1", 'é"x', 3), ('u"2', "a,b", 1), ("ü,1", "日本", 2), ('u"2', 'é"x', 5),
            ("ü,1", "a,b", 4)]
    with open(tmp_path / "events.csv", "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([("user_id", "item_id", "timestamp"), *rows])
    log = ingest_csv(str(tmp_path / "events.csv"))
    log_to_json(log, str(tmp_path / "log.json"))
    payload = {
        "schema": "predlim-log-v1",
        "items": log.item_ids,
        "counts": log.counts.tolist(),
        "users": [{"user_id": s.user_id, "items": s.items.tolist()} for s in log.sequences],
        "stats": log.stats,
    }
    with open(tmp_path / "dumped.json", "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    assert (tmp_path / "log.json").read_bytes() == (tmp_path / "dumped.json").read_bytes()
    assert log.item_ids == ['a,b', "日本", 'é"x']


# ids that end inside, at and past an 8-byte word, that differ only after byte 8 or 16, and
# whose multi-byte characters straddle a word boundary ("abcdefgé" puts é at bytes 7-8)
PLAIN_IDS = st.builds(
    str.__add__,
    st.sampled_from(["", "u", "abcdefg", "abcdefgé", "abcdefgh", "abcdefghijklmnop", "日本語",
                     "x" * 60]),
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters='",\r\n\0'),
            max_size=16),
).filter(lambda s: 1 <= len(s.encode()) <= 70)


@settings(max_examples=150, deadline=None)
@given(
    users=st.lists(PLAIN_IDS, min_size=6, max_size=6, unique=True),
    items=st.lists(PLAIN_IDS, min_size=8, max_size=8, unique=True),
    rows=st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 7),
                  st.one_of(st.integers(-3, 3), st.integers(-(10**18) + 1, 10**18 - 1))),
        min_size=1, max_size=60,
    ),
    stamp_format=st.sampled_from(["{}", "{:03d}"]),
    header=st.sampled_from(["user_id,item_id,timestamp", "User_ID, Item_Id ,TIMESTAMP",
                            " user_id\t,item_id,timestamp "]),
    eol=st.sampled_from(["\n", "\r\n"]),
    blank_after=st.sets(st.integers(0, 60)),
    final_eol=st.booleans(),
    bom=st.booleans(),
    min_length=st.integers(1, 4),
    max_events=st.one_of(st.none(), st.integers(0, 70)),
    dedup=st.booleans(),
)
def test_the_array_reader_takes_plain_files_and_matches_a_reference_parser(
    tmp_path_factory, users, items, rows, stamp_format, header, eol, blank_after, final_eol, bom,
    min_length, max_events, dedup
):
    lines = [header]
    for k, (u, i, t) in enumerate(rows):
        lines.append(f"{users[u]},{items[i]},{stamp_format.format(t)}")
        lines += [""] * (k in blank_after)
    text = ("\ufeff" if bom else "") + eol.join(lines) + (eol if final_eol else "")
    path = tmp_path_factory.getbasetemp() / "plain.csv"
    path.write_bytes(text.encode("utf-8"))

    def ingest():
        return ingest_csv(str(path), min_length=min_length, max_events=max_events, dedup=dedup)

    with read_by("array"):
        assert_ingest_matches_reference(ingest, text, min_length, max_events, dedup)


def ingest_outcome(path, read="as-is"):
    """ingest_csv's log at path as plain data, or its error's type and message."""
    try:
        with read_by(read):
            log = ingest_csv(str(path))
    except (ValueError, csv.Error) as exc:
        return type(exc).__name__, str(exc)
    return log.user_ids, list(log.item_ids), log.items.tolist(), log.offsets.tolist()


HEADER = b"user_id,item_id,timestamp\n"
LIMIT = csv.field_size_limit()
DECLINED = {  # each file after the header; the csv loop gives a log or an error
    "quote": b'u1,"a",1\n',
    "lone CR": b"u1,a,1\ru2,b,2\n",
    "CR at the end": b"u1,a,1\r",
    "NUL": b"u1,a\0,1\n",
    "19-digit timestamp": b"u1,a,1000000000000000000\n",
    "plus sign": b"u1,a,+5\n",
    "leading space": b"u1,a, 5\n",
    "underscore": b"u1,a,1_0\n",
    "minus alone": b"u1,a,-\n",
    "empty user": b",a,5\n",
    "empty item": b"u1,,5\n",
    "empty timestamp": b"u1,a,\n",
    "2 fields": b"u1,a\n",
    "4 fields": b"u1,a,5,6\n",
    "field past the limit": b"u1," + b"x" * (LIMIT + 1) + b",5\n",
    "header only": b"",
}


@pytest.mark.parametrize("body", DECLINED.values(), ids=DECLINED.keys())
def test_the_array_reader_declines_what_the_csv_loop_must_read(tmp_path, body):
    path = tmp_path / "events.csv"
    path.write_bytes(HEADER + body)
    assert sequence_core._read_plain(str(path)) is None
    assert ingest_outcome(path) == ingest_outcome(path, "csv-only")


@pytest.mark.parametrize("data", [
    b"",  # an empty file
    b"\xef\xbb\xbf",  # a byte-order mark alone
    b"user,item,ts\nu1,a,5\n",
    b"user_id,item_id,timestamp,x\nu1,a,5\n",
    b"user_id,item_id,timestamp" + b" " * LIMIT + b"\nu1,a,5\n",  # a header field past the limit
    b"\nuser_id,item_id,timestamp\nu1,a,5\n",  # a blank first line is the header
], ids=["empty", "BOM alone", "other names", "4 names", "past the limit", "blank first line"])
def test_a_header_the_array_reader_declines_gives_the_csv_loops_error(tmp_path, data):
    path = tmp_path / "events.csv"
    path.write_bytes(data)
    assert sequence_core._read_plain(str(path)) is None
    assert ingest_outcome(path)[0] in ("ValueError", "Error")  # csv.Error past the limit
    assert ingest_outcome(path) == ingest_outcome(path, "csv-only")


@pytest.mark.parametrize("data", [
    HEADER.replace(b"\n", b"\r\n") + b"u1,a,5\r\n\r\nu1,b,-0\r\n",
    b"\xef\xbb\xbf" + HEADER + b"\n\nu1,a,007\n\nu2,a,-999999999999999999",
    HEADER + b"u1," + b"x" * LIMIT + b",999999999999999999\nu1,b,3\n",  # at the limit
    HEADER + b"u 1,\xc3\xa9 ,5\n\xc2\x85u1,\xe2\x80\xa8,5\n",  # spaces and Unicode breaks are data
], ids=["CRLF, blank lines, -0", "BOM, 007, 18 digits, no final newline", "field at the limit",
        "spaces and Unicode line breaks"])
def test_the_array_reader_takes_plain_files_as_the_csv_loop_reads_them(tmp_path, data):
    path = tmp_path / "events.csv"
    path.write_bytes(data)
    assert ingest_outcome(path, "array") == ingest_outcome(path, "csv-only")


@pytest.mark.parametrize("read", ["as-is", "csv-only"])
@pytest.mark.parametrize("header, line", [(HEADER, 20_002), (b"user_id,item_\xffid,timestamp\n", 1)])
def test_invalid_utf8_names_the_file_line_and_byte(tmp_path, read, header, line):
    # the bad byte of the body lies past the first 64 KiB, where the decoder's own position
    # is one inside a chunk
    rows = "".join(f"u{k % 50},i{k},{k}\n" for k in range(20_000)).encode()
    path = tmp_path / "events.csv"
    path.write_bytes(header + rows + b"u1,caf\xff,5\n")
    assert len(header + rows) > 1 << 16
    with read_by(read), pytest.raises(ValueError) as raised:
        ingest_csv(str(path))
    assert str(raised.value) == f"{path}: line {line}: invalid UTF-8 (byte 0xff)"
