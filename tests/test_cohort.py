import math

import numpy as np
import pytest

from predlim.cohort import compute_features, split_and_aggregate
from predlim.entropy import sampen
from predlim.predictability import epl
from predlim.sequence_core import log_from_sequences
from predlim.synth import GeneratorConfig, generate


def test_single_repeated_item_has_zero_novelty():
    log = log_from_sequences([np.zeros(5, dtype=int)])
    feats = compute_features(log)
    assert feats["novelty"][0] == 0.0  # pop = 1
    assert feats["activity"][0] == 5


def test_novelty_is_mean_log_inverse_popularity():
    # user 0 touches only an item holding a quarter of all interactions
    log = log_from_sequences([np.array([0]), np.array([1, 1, 1])])
    feats = compute_features(log)
    assert feats["novelty"][0] == pytest.approx(math.log(4), abs=1e-12)
    assert feats["novelty"][1] == pytest.approx(math.log(4 / 3), abs=1e-12)


def test_longtail_exposure_on_ninety_ten_split():
    # item 0 covers 90% >= the 80% head mass, so item 1 is the whole tail
    log = log_from_sequences([np.zeros(9, dtype=int), np.array([1])])
    feats = compute_features(log)
    assert feats["longtail"][0] == 0.0
    assert feats["longtail"][1] == 1.0


def test_tail_mass_is_configurable():
    log = log_from_sequences([np.zeros(9, dtype=int), np.array([1])])
    # with a 95% head requirement both items are needed in the head
    feats = compute_features(log, tail_mass=0.95)
    assert feats["longtail"][1] == 0.0
    with pytest.raises(ValueError):
        compute_features(log, tail_mass=1.5)


def test_feature_bounds():
    rng = np.random.default_rng(0)
    log = log_from_sequences([rng.integers(0, 20, size=rng.integers(2, 30)) for _ in range(15)])
    feats = compute_features(log)
    assert len(feats["novelty"]) == len(feats["longtail"]) == len(feats["activity"]) == 15
    assert np.all(feats["novelty"] >= 0.0)
    assert np.all((0.0 <= feats["longtail"]) & (feats["longtail"] <= 1.0))
    assert np.all(feats["activity"] >= 1)


def features_for(values, dimension="novelty"):
    """compute_features-shaped arrays: values on dimension, the other features constant."""
    n = len(values)
    feats = {"novelty": np.zeros(n), "longtail": np.zeros(n), "activity": np.ones(n, dtype=int)}
    feats[dimension] = np.asarray(values, dtype=feats[dimension].dtype)
    return feats


def test_four_user_split_means():
    feats = features_for([1.0, 2.0, 3.0, 4.0])
    scores = np.array([0.1, 0.2, 0.3, 0.4])
    report = split_and_aggregate(feats, scores, "novelty")
    q1, q2 = report["groups"]
    assert q1["label"] == "Q1" and q2["label"] == "Q2"
    assert q1["mean_predictability"] == pytest.approx(0.15)
    assert q2["mean_predictability"] == pytest.approx(0.35)


def test_identical_features_split_by_ceil():
    for n in (4, 5, 7):
        feats = features_for([2.5] * n)
        scores = np.full(n, 0.5)
        report = split_and_aggregate(feats, scores, "novelty")
        assert report["groups"][0]["user_count"] == math.ceil(n / 2)
        assert report["groups"][1]["user_count"] == n // 2


def test_split_is_a_partition():
    rng = np.random.default_rng(1)
    feats = features_for(rng.random(11))
    scores = rng.random(11)
    report = split_and_aggregate(feats, scores, "novelty")
    q1, q2 = report["groups"]
    q1_users = {u for u, _ in q1["per_user_scores"]}
    q2_users = {u for u, _ in q2["per_user_scores"]}
    assert q1_users | q2_users == set(range(11))
    assert q1_users & q2_users == set()
    assert abs(q1["user_count"] - q2["user_count"]) <= 1


def test_activity_labels_are_reversed():
    feats = features_for([10, 1, 7, 3], dimension="activity")
    scores = 0.1 * (np.arange(4) + 1)
    report = split_and_aggregate(feats, scores, "activity")
    q1_users = {u for u, _ in report["groups"][0]["per_user_scores"]}
    assert q1_users == {0, 2}  # Q1 takes the more active users


def test_group_stats_recompute():
    rng = np.random.default_rng(2)
    feats = features_for(rng.random(9))
    scores = rng.random(9)
    report = split_and_aggregate(feats, scores, "novelty")
    for group in report["groups"]:
        vals = np.array([v for _, v in group["per_user_scores"]])
        assert group["mean_predictability"] == pytest.approx(vals.mean(), abs=1e-12)
        expected_std = vals.std(ddof=1) if len(vals) >= 2 else 0.0
        assert group["std"] == pytest.approx(expected_std, abs=1e-12)
        assert group["stderr"] == pytest.approx(expected_std / math.sqrt(len(vals)), abs=1e-12)


def test_split_validation():
    feats = features_for([1.0])
    with pytest.raises(ValueError, match="2 users"):
        split_and_aggregate(feats, np.array([0.5]), "novelty")
    feats = features_for([1.0, 2.0])
    with pytest.raises(ValueError, match="identical user sets"):
        split_and_aggregate(feats, np.array([0.5, 0.5, 0.5]), "novelty")
    with pytest.raises(ValueError, match="identical user sets: no score for user 1"):
        split_and_aggregate(feats, np.array([0.5, np.nan]), "novelty")
    with pytest.raises(ValueError, match="dimension"):
        split_and_aggregate(feats, np.array([0.5, 0.5]), "profit")


def test_generator_controlled_activity_ordering():
    # more active users are built more repetitive, so Q1 (active) must score higher
    steady = generate(
        GeneratorConfig("repeat_last", n=50, users=10, length=120, seed=3, params={"p": 0.9})
    )
    churny = generate(
        GeneratorConfig("repeat_last", n=50, users=10, length=40, seed=4, params={"p": 0.1})
    )
    arrays = [s.items for s in steady.log.sequences] + [s.items for s in churny.log.sequences]
    log = log_from_sequences(arrays, n_items=50)
    feats = compute_features(log)
    scores = np.concatenate([epl(sampen(s.items, m=2)).value for s in log.sequences])
    report = split_and_aggregate(feats, scores, "activity")
    q1, q2 = report["groups"]
    assert {u for u, _ in q1["per_user_scores"]} == set(range(10))
    assert q1["mean_predictability"] > q2["mean_predictability"]


def test_features_deterministic_and_relabel_invariant():
    rng = np.random.default_rng(5)
    arrays = [rng.integers(0, 12, size=20) for _ in range(6)]
    log = log_from_sequences(arrays, n_items=12)
    relabel = rng.permutation(12)
    relabeled = log_from_sequences([relabel[a] for a in arrays], n_items=12)
    f, g = compute_features(log), compute_features(relabeled)
    assert f["novelty"] == pytest.approx(g["novelty"], abs=1e-12)
    assert np.array_equal(f["activity"], g["activity"])
