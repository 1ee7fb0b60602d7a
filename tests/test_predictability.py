import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from predlim.entropy import EntropyEstimate, perm_entropy
from predlim.predictability import (
    PredictabilityScore,
    epl,
    fano_forward,
    fano_invert,
    fano_nr,
    perm_predictabilities,
    perm_predictability,
)
from predlim.sequence_core import log_from_sequences


def nats(value):
    return EntropyEstimate(value, "nats", "sampen")


def bits(value):
    return EntropyEstimate(value, "bits", "lz")


# epl


def test_epl_zero_entropy():
    score = epl(nats(0.0))
    assert score.value == 1.0
    assert score.effective_size == 1.0


def test_epl_uniform_over_four():
    score = epl(nats(math.log(4)))
    assert abs(score.value - 0.25) < 1e-12
    assert abs(score.effective_size - 4.0) < 1e-12


def test_epl_unit_conversion_path():
    assert abs(epl(bits(2.0)).value - 0.25) < 1e-12


def test_epl_rejects_normalized_perm():
    est = perm_entropy(np.random.default_rng(0).integers(0, 9, size=40), d=3)
    with pytest.raises(ValueError, match="perm"):
        epl(est)


def test_score_validation():
    with pytest.raises(ValueError):
        PredictabilityScore(value=0.0, method="epl")
    with pytest.raises(ValueError):
        PredictabilityScore(value=1.5, method="epl")
    with pytest.raises(ValueError):
        PredictabilityScore(value=0.5, method="guess")
    with pytest.raises(ValueError):
        PredictabilityScore(value=0.5, method="fano")  # n missing
    with pytest.raises(ValueError):
        PredictabilityScore(value=0.01, method="fano", n=10)  # below 1/n


# Fano forward relation


def test_fano_forward_endpoints():
    assert fano_forward(1.0, 1000) == 0.0
    assert abs(fano_forward(1 / 1000, 1000) - math.log2(1000)) < 1e-9


def test_fano_forward_is_strictly_decreasing():
    n = 1000
    grid = np.linspace(1 / n, 1.0, 400)
    values = [fano_forward(p, n) for p in grid]
    assert all(a > b for a, b in zip(values, values[1:]))


# Fano inversion


def test_fano_invert_endpoints_exact():
    assert fano_invert(bits(0.0), 50).value == 1.0
    assert fano_invert(bits(math.log2(50)), 50).value == 1.0 / 50
    assert fano_invert(bits(99.0), 50).value == 1.0 / 50  # beyond-uniform clamp


def test_fano_invert_forward_residual():
    score = fano_invert(bits(4.0), 1000)
    assert abs(fano_forward(score.value, 1000) - 4.0) < 1e-9
    # a fine grid brackets the same root
    grid = np.linspace(1 / 1000, 1.0, 20000)
    idx = np.searchsorted(-np.array([fano_forward(p, 1000) for p in grid]), -4.0)
    assert grid[idx - 1] <= score.value <= grid[idx + 1]


def test_fano_invert_records_inputs():
    score = fano_invert(bits(3.0), 64)
    assert score.method == "fano"
    assert score.n == 64
    assert score.value >= 1 / 64


def test_fano_invert_rejects_bad_n():
    with pytest.raises(ValueError):
        fano_invert(bits(1.0), 1)


def test_non_finite_entropy_is_unrepresentable():
    with pytest.raises(ValueError):
        bits(float("inf"))


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=3, max_value=10**6), st.floats(min_value=1e-6, max_value=1 - 1e-6))
def test_fano_round_trip_property(n, frac):
    pi = 1 / n + frac * (1 - 1 / n)
    s = fano_forward(pi, n)
    assert abs(fano_invert(bits(s), n).value - pi) <= 1e-8


def test_fano_monotone_in_n_at_fixed_entropy():
    for s in (3.0, 4.0, 5.0):
        values = [fano_invert(bits(s), n).value for n in (10, 100, 1000, 10000)]
        assert all(a < b for a, b in zip(values, values[1:]))


# reachability variant


def test_fano_nr_constant_sequence():
    log = log_from_sequences([np.zeros(10, dtype=int)], n_items=5)
    score = fano_nr(nats(0.0), log.sequences)
    assert score.value == 1.0
    assert score.method == "fano_nr"
    assert score.n == 2  # fan-out 1 clamps to 2


def test_fano_nr_binary_entropy_inverse():
    # N_r = 2 and 1 bit of entropy solve h2(pi) = 1 at pi = 0.5
    log = log_from_sequences([np.array([0, 1, 0, 1, 1, 0])])
    score = fano_nr(bits(1.0), log.sequences)
    assert score.n == 2
    assert abs(score.value - 0.5) < 1e-6


def test_fano_nr_scope_changes_candidate_size():
    log = log_from_sequences([np.array([0, 1, 0, 2]), np.array([0, 3, 0, 4])])
    pooled = fano_nr(bits(1.0), log.sequences)
    per_user = [fano_nr(bits(1.0), [s]) for s in log.sequences]
    assert pooled.n == 4 and [sc.n for sc in per_user] == [2, 2]
    # at fixed entropy the Fano relation is monotone in the candidate size
    assert all(pooled.value > sc.value for sc in per_user)


# permutation predictability


def test_perm_predictability_increasing_sequence():
    assert perm_predictability(np.arange(40)).value == 1.0


def test_perm_predictability_iid_small():
    x = np.random.default_rng(1).integers(0, 10000, size=10000)
    assert perm_predictability(x).value <= 0.02


def test_perm_predictability_skips_infeasible_scales():
    score = perm_predictability(np.arange(7))  # enough vectors for d=3 only
    assert score.entropy.params["d"] == 3
    assert score.value == 1.0


def test_perm_predictability_all_scales_infeasible():
    with pytest.raises(ValueError, match="feasible"):
        perm_predictability(np.arange(6))


def test_perm_rejects_unsupported_options_whatever_the_length():
    # d=7 is unsupported, not infeasible: it raises even beside a feasible d=3
    for items in (np.arange(7), np.arange(400)):
        for d_set, tau in (((3, 7), 1), ((), 1), ((3,), 0)):
            with pytest.raises(ValueError, match="must be"):
                perm_predictability(items, d_set=d_set, tau=tau)


def test_perm_predictability_takes_the_first_d_on_ties():
    # an increasing sequence is pattern-free at every d: the first d listed wins
    for d_set in ((5, 3), (4, 5, 3), (3, 4)):
        score = perm_predictability(np.arange(40), d_set=d_set)
        assert score.entropy.params == {"d": d_set[0], "tau": 1}


def test_perm_predictabilities_equal_each_sequence_scored_alone():
    rng = np.random.default_rng(3)
    arrays = [rng.integers(0, k, size=t) for k, t in ((3, 9), (5, 60), (2, 12), (9, 300), (4, 10))]
    for d_set, tau in (((3, 4, 5), 1), ((5, 3), 2), ((4,), 1)):
        alone = [perm_predictability(x, d_set, tau) for x in arrays]
        assert perm_predictabilities(arrays, d_set, tau) == alone
    with pytest.raises(ValueError, match="feasible"):
        perm_predictabilities(arrays + [np.arange(6)])


def test_perm_predictability_takes_minimum_entropy():
    x = np.random.default_rng(2).integers(0, 40, size=400)
    per_d = {d: perm_entropy(x, d=d).value for d in (3, 4, 5)}
    score = perm_predictability(x)
    assert score.value == pytest.approx(1.0 - min(per_d.values()), abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=30.0),
    st.integers(min_value=2, max_value=10**5),
)
def test_scores_stay_in_unit_interval(s, n):
    assert 0.0 < epl(nats(s)).value <= 1.0
    fano = fano_invert(nats(s), n)
    assert 1 / n <= fano.value <= 1.0
