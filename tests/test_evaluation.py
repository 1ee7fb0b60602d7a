import csv
import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from predlim.evaluation import (
    DatasetScore,
    aggregate_dataset,
    consistency_report,
    estimate_user,
    load_reference,
    rmse,
    run_difficulty_sweep,
    run_n_sweep,
    score_log,
    spearman,
)
from predlim.predictability import epl, fano_invert, fano_nr, perm_predictability
from predlim.sequence_core import log_from_sequences

# Independent references: textbook rank arithmetic and a plain accumulation loop.


def brute_ranks(values):
    ranks = []
    for v in values:
        smaller = sum(1 for w in values if w < v)
        equal = sum(1 for w in values if w == v)
        ranks.append(smaller + (equal + 1) / 2)
    return ranks


def brute_spearman(a, b):
    ra, rb = brute_ranks(a), brute_ranks(b)
    n = len(ra)
    ma, mb = sum(ra) / n, sum(rb) / n
    cov = sum((x - ma) * (y - mb) for x, y in zip(ra, rb))
    va = sum((x - ma) ** 2 for x in ra)
    vb = sum((y - mb) ** 2 for y in rb)
    return cov / math.sqrt(va * vb)


def brute_rmse(a, b):
    total = 0.0
    for x, y in zip(a, b):
        total += (x - y) ** 2
    return math.sqrt(total / len(a))


# aggregation


def test_aggregate_equal_weights_is_mean():
    assert aggregate_dataset([0.2, 0.4, 0.9], [2, 2, 2]) == pytest.approx(0.5)


def test_aggregate_hand_computed():
    assert aggregate_dataset([0.2, 0.8], [1, 3]) == pytest.approx(0.65, abs=1e-12)


def test_aggregate_event_weighting_convention():
    # lengths (2, 3): weighting by T-1 gives 2/3, by T would give 0.7
    scores, lengths = [1.0, 0.5], [2, 3]
    events = [t - 1 for t in lengths]
    assert aggregate_dataset(scores, events) == pytest.approx(2 / 3, abs=1e-12)
    assert aggregate_dataset(scores, lengths) == pytest.approx(0.7, abs=1e-12)


def test_aggregate_stays_within_score_range():
    rng = np.random.default_rng(0)
    for _ in range(50):
        vals = rng.random(8)
        w = rng.integers(1, 30, size=8)
        agg = aggregate_dataset(vals, w)
        assert vals.min() - 1e-12 <= agg <= vals.max() + 1e-12


def test_aggregate_validation():
    with pytest.raises(ValueError):
        aggregate_dataset([], [])
    with pytest.raises(ValueError):
        aggregate_dataset([0.5], [0])
    with pytest.raises(ValueError):
        aggregate_dataset([0.5, 0.6], [1])


# spearman


def test_spearman_identical_orderings():
    assert spearman([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0)


def test_spearman_reversed():
    assert spearman([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)


def test_spearman_hand_computed_case_is_exact():
    assert spearman([1, 2, 3, 4], [1, 3, 2, 4]) == 0.8


def test_spearman_matches_brute_force_with_ties():
    rng = np.random.default_rng(1)
    checked = 0
    while checked < 300:
        n = int(rng.integers(2, 13))
        a = rng.integers(0, 6, size=n).astype(float)
        b = rng.integers(0, 6, size=n).astype(float)
        if len(set(a)) < 2 or len(set(b)) < 2:
            continue
        assert spearman(a, b) == pytest.approx(brute_spearman(a, b), abs=1e-12)
        checked += 1


def test_spearman_agrees_with_scipy():
    rng = np.random.default_rng(2)
    for _ in range(50):
        a = rng.random(10)
        b = rng.integers(0, 4, size=10).astype(float)
        if len(set(b)) < 2:
            continue
        expected = scipy.stats.spearmanr(a, b).statistic
        assert spearman(a, b) == pytest.approx(expected, abs=1e-12)


def test_spearman_invariant_under_monotone_transform():
    rng = np.random.default_rng(3)
    a, b = rng.random(15), rng.random(15)
    base = spearman(a, b)
    assert spearman(np.exp(5 * a), b) == pytest.approx(base, abs=1e-12)
    assert spearman(a, 100 + 3 * b) == pytest.approx(base, abs=1e-12)


def test_spearman_degenerate_input_errors():
    with pytest.raises(ValueError, match="variance"):
        spearman([1, 1, 1], [1, 2, 3])
    with pytest.raises(ValueError):
        spearman([1, 2], [1, 2, 3])
    with pytest.raises(ValueError):
        spearman([1], [2])


# rmse


def test_rmse_identity_and_unit_cases():
    assert rmse([1, 2, 3], [1, 2, 3]) == 0.0
    assert rmse([0, 1], [1, 0]) == pytest.approx(1.0)


def test_rmse_matches_naive_loop_and_is_symmetric():
    rng = np.random.default_rng(4)
    for _ in range(100):
        n = int(rng.integers(1, 13))
        a, b = rng.random(n), rng.random(n)
        assert rmse(a, b) == pytest.approx(brute_rmse(a, b), abs=1e-12)
        assert rmse(a, b) == rmse(b, a)


def test_rmse_length_mismatch():
    with pytest.raises(ValueError):
        rmse([1, 2], [1])
    with pytest.raises(ValueError):
        rmse([], [])


# reference file


def test_reference_round_trips_published_values():
    ref = load_reference()
    assert len(ref) == 11
    assert ref["Bridge"]["hit20"] == 0.6798
    assert ref["Algebra"]["hit20"] == 0.7317
    assert ref["AOTM"]["best_model"] == "SASRec"
    assert ref["MovieLens-1M"]["hit1"] == 0.0677


# consistency report


def scores_from(pairs, method="epl"):
    return [
        DatasetScore(dataset_id=d, predictability=p, method=method, reference_accuracy=a)
        for d, p, a in pairs
    ]


def test_consistency_perfect_agreement():
    report = consistency_report(
        scores_from([("a", 0.2, 0.2), ("b", 0.5, 0.5), ("c", 0.9, 0.9)])
    )
    assert report.spearman_rho == pytest.approx(1.0)
    assert report.rmse == 0.0
    assert report.warnings == []


def test_consistency_hand_calculation():
    pairs = [("a", 0.1, 0.4), ("b", 0.6, 0.3), ("c", 0.5, 0.5), ("d", 0.9, 0.8)]
    report = consistency_report(scores_from(pairs))
    p = [0.1, 0.6, 0.5, 0.9]
    a = [0.4, 0.3, 0.5, 0.8]
    assert report.spearman_rho == pytest.approx(brute_spearman(a, p), abs=1e-12)
    assert report.rmse == pytest.approx(brute_rmse(a, p), abs=1e-12)
    by_id = {pair["dataset_id"]: pair for pair in report.pairs}
    assert by_id["d"]["rank_A"] == 4.0 and by_id["d"]["rank_P"] == 4.0


def test_consistency_excludes_missing_references_with_warning():
    report = consistency_report(
        scores_from([("a", 0.2, 0.1), ("b", 0.5, 0.6), ("mystery", 0.4, None)])
    )
    assert len(report.pairs) == 2
    assert any("mystery" in w for w in report.warnings)


def test_consistency_validation():
    with pytest.raises(ValueError):
        consistency_report([])
    mixed = scores_from([("a", 0.2, 0.1)]) + scores_from([("b", 0.5, 0.6)], method="fano")
    with pytest.raises(ValueError, match="mixed"):
        consistency_report(mixed)
    with pytest.raises(ValueError, match="at least 2"):
        consistency_report(scores_from([("a", 0.2, 0.1), ("b", 0.5, None)]))


# sweep harnesses (small-scale behavior; full-scale runs live in the acceptance suite)


def small_difficulty_kwargs():
    return dict(
        targets=(0.3, 0.6),
        methods=("epl", "fano"),
        reps=2,
        n=50,
        users=12,
        length=60,
        seed=123,
    )


def test_difficulty_sweep_is_reproducible():
    a = run_difficulty_sweep("repeat_last", **small_difficulty_kwargs())
    b = run_difficulty_sweep("repeat_last", **small_difficulty_kwargs())
    assert a.rows == b.rows
    assert a.rmse_by_method == b.rmse_by_method


def test_difficulty_sweep_table_shape():
    table = run_difficulty_sweep("repeat_last", **small_difficulty_kwargs())
    assert len(table.rows) == 2 * 2  # targets x methods
    assert set(table.rmse_by_method) == {"epl", "fano"}
    for row in table.rows:
        assert row.rep_count == 2
        assert 0.0 < row.mean <= 1.0
    grid_epl = table.means("epl")
    assert [g for g, _ in grid_epl] == [0.3, 0.6]


def test_n_sweep_table_shape():
    table = run_n_sweep(
        n_grid=(20, 60),
        target_hit1=0.2,
        methods=("epl", "perm"),
        reps=2,
        users=10,
        length=40,
        seed=5,
    )
    assert len(table.rows) == 4
    assert {row.method for row in table.rows} == {"epl", "perm"}


def test_sweep_csv_round_trip(tmp_path):
    table = run_difficulty_sweep("repeat_last", **small_difficulty_kwargs())
    path = tmp_path / "sweep.csv"
    table.to_csv(str(path))
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(table.rows)
    assert float(rows[0]["mean"]) == table.rows[0].mean


def test_sweep_rejects_unknown_method():
    for methods, reps, match in (
        (("epl", "magic"), 1, "unknown method"),
        (("epl", "perm", "epl"), 1, "listed twice"),
        (("epl",), 0, "reps must be >= 1"),
    ):
        with pytest.raises(ValueError, match=match):
            run_difficulty_sweep(
                "repeat_last", targets=(0.5,), methods=methods, reps=reps,
                n=30, users=5, length=30,
            )


# score_log against the public per-user functions


def outcome(score_all):
    """The scores as comparable tuples, or the error they raise."""
    try:
        scores = score_all()
    except ValueError as exc:
        return ("error", str(exc))
    return [(sc.value, sc.method, sc.n, sc.effective_size) for sc in scores]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(min_value=0, max_value=7), min_size=2, max_size=30),
        min_size=1,
        max_size=6,
    ),
    st.sampled_from(["sampen", "lz"]),
)
def test_score_log_matches_per_user_functions(users, estimator):
    log = log_from_sequences([np.array(u) for u in users], n_items=8)
    seqs = log.sequences
    # users shorter than m + 2 = 4 have no sampen estimate; lz covers them
    estimates = {
        s.user_index: estimate_user(s.items, estimator if s.length >= 4 else "lz", 2)
        for s in seqs
    }
    ests = [estimates[s.user_index] for s in seqs]
    expected = {
        ("epl", None): lambda: [epl(e) for e in ests],
        ("fano", None): lambda: [fano_invert(e, 8) for e in ests],
        ("fano", "global"): lambda: [fano_invert(e, 8) for e in ests],
        ("fano_nr", None): lambda: [fano_nr(e, seqs) for e in ests],
        ("fano_nr", "pooled"): lambda: [fano_nr(e, seqs) for e in ests],
        ("fano_nr", "per-user"): lambda: [fano_nr(e, [s]) for e, s in zip(ests, seqs)],
    }
    for (method, scope), reference in expected.items():
        got = outcome(lambda: score_log(log, method, estimates, n_scope=scope))
        assert got == outcome(reference), (method, scope)
    # perm: short users make some dimensions, or all of them, infeasible
    assert outcome(lambda: score_log(log, "perm")) == outcome(
        lambda: [perm_predictability(s.items) for s in seqs]
    )
    assert outcome(lambda: score_log(log, "perm", d_set=(3, 5), tau=2)) == outcome(
        lambda: [perm_predictability(s.items, d_set=(3, 5), tau=2) for s in seqs]
    )


def test_score_log_rejects_what_the_method_does_not_read():
    log = log_from_sequences([np.array([0, 1, 2, 0, 1, 2, 0, 1])])
    est = {0: estimate_user(log.sequences[0].items, "lz", 2)}
    with pytest.raises(ValueError, match="n_scope"):
        score_log(log, "fano_nr", est, n_scope="global")
    with pytest.raises(ValueError, match="n_scope"):
        score_log(log, "epl", est, n_scope="pooled")
    with pytest.raises(ValueError, match="d_set or tau"):
        score_log(log, "fano", est, tau=2)
    with pytest.raises(ValueError, match="needs entropy"):
        score_log(log, "epl")
    with pytest.raises(ValueError, match="no entropy estimate for user 0"):
        score_log(log, "epl", {})
    with pytest.raises(ValueError, match="unknown method"):
        score_log(log, "magic", est)
