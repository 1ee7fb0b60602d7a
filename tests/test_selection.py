import csv
from dataclasses import replace

import numpy as np
import pytest

from predlim.selection import STRATEGIES, build_plan, materialize, write_selection_csv
from predlim.sequence_core import ingest_csv, log_from_sequences


def toy_log(n_users=12, base_len=6, seed=0):
    rng = np.random.default_rng(seed)
    seqs = [rng.integers(0, 20, size=base_len + u % 4) for u in range(n_users)]
    return log_from_sequences(seqs, n_items=20)


def toy_scores(log, seed=1):
    rng = np.random.default_rng(seed)
    return rng.random(log.num_users)


def test_full_budget_selects_entire_pool_for_every_strategy():
    log = toy_log()
    scores = toy_scores(log)
    for strategy in STRATEGIES:
        plan = build_plan(log, scores, budget_fraction=1.0, strategy=strategy, seed=9)
        assert np.array_equal(plan["selected"], plan["candidate_users"])


def test_extremes_pick_top_and_bottom_k():
    log = toy_log()
    scores = toy_scores(log)
    high = build_plan(log, scores, budget_fraction=0.25, strategy="high_pi", seed=9)
    low = build_plan(log, scores, budget_fraction=0.25, strategy="low_pi", seed=9)
    assert np.array_equal(high["candidate_users"], low["candidate_users"])
    pool = [int(u) for u in high["candidate_users"]]
    ordered = sorted(pool, key=lambda u: (scores[u], u))
    k = len(high["selected"])
    assert k == len(low["selected"]) == round(0.25 * len(pool))
    assert set(map(int, low["selected"])) == set(ordered[:k])
    assert set(map(int, high["selected"])) == set(ordered[-k:])
    if 2 * k <= len(pool):
        assert not set(map(int, high["selected"])) & set(map(int, low["selected"]))


def test_plans_are_deterministic():
    log = toy_log()
    scores = toy_scores(log)
    for strategy in STRATEGIES:
        a = build_plan(log, scores, budget_fraction=0.5, strategy=strategy, seed=3)
        b = build_plan(log, scores, budget_fraction=0.5, strategy=strategy, seed=3)
        assert np.array_equal(a["selected"], b["selected"])
        assert np.array_equal(a["eval_users"], b["eval_users"])


def test_eval_partition_is_strategy_independent():
    log = toy_log()
    scores = toy_scores(log)
    plans = [
        build_plan(log, scores, budget_fraction=0.3, strategy=s, seed=11)
        for s in STRATEGIES
    ]
    for plan in plans[1:]:
        assert np.array_equal(plan["eval_users"], plans[0]["eval_users"])
        assert np.array_equal(plan["candidate_users"], plans[0]["candidate_users"])
    eval_set = set(map(int, plans[0]["eval_users"]))
    assert eval_set.isdisjoint(map(int, plans[0]["candidate_users"]))


def test_random_strategy_draws_from_candidates_only():
    log = toy_log(n_users=30)
    scores = toy_scores(log)
    plan = build_plan(log, scores, budget_fraction=0.4, strategy="random", seed=17)
    chosen = list(map(int, plan["selected"]))
    assert set(chosen) <= set(map(int, plan["candidate_users"]))
    assert len(set(chosen)) == len(chosen)


def test_materialize_row_counts_and_holdout():
    log = toy_log()
    scores = toy_scores(log)
    plan = build_plan(log, scores, budget_fraction=0.5, strategy="high_pi", seed=2)
    train, test = materialize(plan, log)
    train = list(train)  # an iterator, read once

    lengths = {seq.user_index: seq.length for seq in log.sequences}
    expected_train = sum(lengths[int(u)] - 1 for u in plan["eval_users"])
    expected_train += sum(lengths[int(u)] for u in plan["selected"])
    assert len(train) == expected_train
    assert len(test) == len(plan["eval_users"])

    by_id = {seq.user_id: seq for seq in log.sequences}
    for user_id, item_id, ts in test:
        seq = by_id[user_id]
        assert ts == seq.length - 1
        assert item_id == log.item_ids[int(seq.items[-1])]
    train_users = {row[0] for row in train}
    by_index = {seq.user_index: seq.user_id for seq in log.sequences}
    for u in plan["eval_users"]:
        assert by_index[int(u)] in train_users


def test_materialize_train_prefix_excludes_eval_last_item():
    log = toy_log()
    scores = toy_scores(log)
    plan = build_plan(log, scores, budget_fraction=0.2, strategy="low_pi", seed=4)
    train, _ = materialize(plan, log)
    positions = {}
    for user_id, _, ts in train:
        positions.setdefault(user_id, set()).add(ts)
    by_index = {seq.user_index: seq for seq in log.sequences}
    for u in plan["eval_users"]:
        seq = by_index[int(u)]
        assert positions[seq.user_id] == set(range(seq.length - 1))
    for u in plan["selected"]:
        seq = by_index[int(u)]
        assert positions[seq.user_id] == set(range(seq.length))


def test_selection_csv_round_trips_through_ingest(tmp_path):
    plain = toy_log()
    # ids holding a comma, a double quote and non-ASCII text: the writer must quote them
    quoted = replace(plain, item_ids=[f'item {k}, "ü"' for k in range(plain.num_items)],
                     user_ids=[f'Nutzer "{u}", 東京' for u in range(plain.num_users)])
    for log in (plain, quoted):
        scores = toy_scores(log)
        plan = build_plan(log, scores, budget_fraction=0.5, strategy="high_pi", seed=2)
        train, test = materialize(plan, log)
        train = list(train)  # an iterator, read once
        train_path = tmp_path / "train.csv"
        write_selection_csv(train, str(train_path))
        write_selection_csv(test, str(tmp_path / "test.csv"))
        with open(train_path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["user_id", "item_id", "timestamp"]
        assert len(rows) == len(train) + 1
        assert rows[1:] == [[user, item, str(ts)] for user, item, ts in train]
        reread = ingest_csv(str(train_path))
        enrolled = len(set(map(int, plan["eval_users"])) | set(map(int, plan["selected"])))
        assert len(reread.sequences) == enrolled
        assert reread.stats["num_interactions"] == len(train)
        written = {}
        for user, item, _ in train:
            written.setdefault(user, []).append(item)
        assert {s.user_id: [reread.item_ids[k] for k in s.items.tolist()]
                for s in reread.sequences} == written


def test_test_set_is_byte_identical_across_strategies(tmp_path):
    log = toy_log()
    scores = toy_scores(log)
    blobs = []
    for strategy in STRATEGIES:
        plan = build_plan(log, scores, budget_fraction=0.3, strategy=strategy, seed=21)
        _, test = materialize(plan, log)
        path = tmp_path / f"test_{strategy}.csv"
        write_selection_csv(test, str(path))
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]


def test_missing_candidate_score_errors():
    log = toy_log()
    scores = toy_scores(log)
    plan = build_plan(log, scores, budget_fraction=0.5, strategy="high_pi", seed=2)
    incomplete = scores.copy()
    incomplete[plan["candidate_users"][0]] = np.nan
    with pytest.raises(ValueError, match="scores missing"):
        build_plan(log, incomplete, budget_fraction=0.5, strategy="high_pi", seed=2)


def test_extra_scores_are_ignored():
    # scores for log users outside the candidate pool (eval users) are allowed and unread
    log = toy_log()
    scores = toy_scores(log)
    plan = build_plan(log, scores, budget_fraction=0.5, strategy="high_pi", seed=2)
    pool_only = np.full(log.num_users, np.nan)
    pool_only[plan["candidate_users"]] = scores[plan["candidate_users"]]
    scores[plan["eval_users"]] = 2.0  # would top the high_pi order if it were read
    again = build_plan(log, scores, budget_fraction=0.5, strategy="high_pi", seed=2)
    assert np.array_equal(again["selected"], plan["selected"])
    trimmed = build_plan(log, pool_only, budget_fraction=0.5, strategy="high_pi", seed=2)
    assert np.array_equal(trimmed["selected"], plan["selected"])


@pytest.mark.parametrize("length", [11, 13])
def test_scores_not_one_per_log_user_are_rejected(length):
    log = toy_log()
    scores = np.resize(toy_scores(log), length)
    with pytest.raises(ValueError, match=f"{length} scores for a log of 12 users"):
        build_plan(log, scores, budget_fraction=0.5, strategy="high_pi", seed=2)


def test_short_sequences_are_excluded():
    seqs = [np.arange(3), np.arange(8), np.arange(9), np.arange(10), np.arange(11)]
    log = log_from_sequences(seqs, n_items=11)
    scores = np.full(log.num_users, 0.5)
    plan = build_plan(log, scores, budget_fraction=1.0, strategy="random", seed=0)
    enrolled = set(map(int, plan["eval_users"])) | set(map(int, plan["candidate_users"]))
    assert 0 not in enrolled
    assert enrolled == {1, 2, 3, 4}


def test_build_plan_validation():
    log = toy_log()
    scores = toy_scores(log)
    with pytest.raises(ValueError, match="strategy"):
        build_plan(log, scores, budget_fraction=0.5, strategy="middling", seed=0)
    for bad in (0.0, -0.1, 1.5):
        with pytest.raises(ValueError, match="budget"):
            build_plan(log, scores, budget_fraction=bad, strategy="random", seed=0)
    with pytest.raises(ValueError, match="eval_fraction"):
        build_plan(
            log, scores, budget_fraction=0.5, strategy="random", seed=0,
            eval_fraction=1.0,
        )
    tiny = log_from_sequences([np.arange(8)], n_items=8)
    with pytest.raises(ValueError, match="eligible"):
        build_plan(tiny, np.array([0.5]), budget_fraction=0.5, strategy="random", seed=0)
