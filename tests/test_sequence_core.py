import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from predlim.sequence_core import (
    ingest_csv,
    log_from_json,
    log_from_sequences,
    log_to_json,
    transition_fanout,
)


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
    assert [log.vocabulary.reverse[i] for i in seq.items] == ["a", "b", "c"]


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
    assert log.vocabulary.reverse == ["a", "b"]
    assert int(log.vocabulary.counts.sum()) == log.stats["num_interactions"]


def test_timestamp_ties_break_by_file_order(tmp_path):
    path = write_csv(tmp_path / "log.csv", [("u1", "x", 7), ("u1", "y", 7), ("u1", "z", 7)])
    log = ingest_csv(path)
    assert [log.vocabulary.reverse[i] for i in log.sequences[0].items] == ["x", "y", "z"]


def test_max_events_truncates_in_time_order(tmp_path):
    rows = [("u1", "a", 3), ("u1", "b", 1), ("u1", "c", 2)]
    path = write_csv(tmp_path / "log.csv", rows)
    log = ingest_csv(path, max_events=2)
    assert log.stats["num_interactions"] == 2
    assert [log.vocabulary.reverse[i] for i in log.sequences[0].items] == ["b", "c"]


def test_dedup_is_opt_in(tmp_path):
    rows = [("u1", "a", 1), ("u1", "a", 1), ("u1", "a", 2)]
    path = write_csv(tmp_path / "log.csv", rows)
    assert ingest_csv(path).stats["num_interactions"] == 3
    deduped = ingest_csv(str(path), dedup=True)
    # the exact (user, item, timestamp) repeat goes; the later re-consumption stays
    assert deduped.stats["num_interactions"] == 2


def test_malformed_row_names_line_number(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("user_id,item_id,timestamp\nu1,a,1\nu1,a\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 3"):
        ingest_csv(str(path))


def test_non_integer_timestamp_names_line_number(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("user_id,item_id,timestamp\nu1,a,noon\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 2"):
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
    vocab = log.vocabulary
    assert vocab.reverse == ["a", "b"]
    assert int(vocab.counts.sum()) == log.stats["num_interactions"]
    assert log.stats == log.compute_stats()
    log.validate()


def test_json_round_trip(tmp_path):
    rows = [("u1", "a", 1), ("u1", "b", 2), ("u2", "a", 3)]
    log = ingest_csv(write_csv(tmp_path / "log.csv", rows))
    path = tmp_path / "log.json"
    log_to_json(log, str(path))
    loaded = log_from_json(str(path))
    assert loaded.vocabulary.reverse == log.vocabulary.reverse
    assert loaded.stats == log.stats
    for a, b in zip(loaded.sequences, log.sequences):
        assert a.user_id == b.user_id
        assert np.array_equal(a.items, b.items)


def test_vocabulary_rejects_duplicate_item_ids(tmp_path):
    log = ingest_csv(write_csv(tmp_path / "log.csv", [("u1", "a", 1), ("u1", "b", 2)]))
    log.vocabulary.reverse[1] = "a"
    with pytest.raises(ValueError, match="duplicate"):
        log.validate()


def test_json_rejects_unknown_schema(tmp_path):
    path = tmp_path / "log.json"
    path.write_text(json.dumps({"schema": "other"}), encoding="utf-8")
    with pytest.raises(ValueError, match="schema"):
        log_from_json(str(path))


def test_fanout_direct_enumeration():
    log = log_from_sequences([np.array([0, 1, 0, 2])])
    assert transition_fanout(log.sequences) == 2
    assert fanout_table(log.sequences) == {0: 2, 1: 1}


def test_fanout_constant_sequence():
    log = log_from_sequences([np.array([0, 0, 0])])
    assert transition_fanout(log.sequences) == 1


def test_fanout_pooled_vs_per_user():
    log = log_from_sequences([np.array([0, 1]), np.array([0, 2])])
    pooled = transition_fanout(log.sequences, scope="pooled")
    per_user = transition_fanout(log.sequences, scope="per_user")
    assert pooled == 2
    assert per_user == 1


def test_fanout_requires_transitions():
    log = log_from_sequences([np.array([0]), np.array([1])])
    with pytest.raises(ValueError, match="transitions"):
        transition_fanout(log.sequences)
    with pytest.raises(ValueError, match="scope"):
        transition_fanout(log.sequences, scope="both")


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
    pooled = transition_fanout(log.sequences, scope="pooled")
    per_user = transition_fanout(log.sequences, scope="per_user")
    assert 1 <= per_user <= pooled <= len(log.vocabulary)


def test_log_from_sequences_pads_vocabulary():
    log = log_from_sequences([np.array([0, 3])], n_items=10)
    assert log.num_items == 10
    assert int(log.vocabulary.counts.sum()) == 2
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
    for scope in ("pooled", "per_user"):
        assert transition_fanout(log.sequences, scope=scope) == fanout_oracle(log.sequences, scope)
