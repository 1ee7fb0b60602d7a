import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from predlim.entropy import Entropies, perm_entropy
from predlim.evaluation import score_log
from predlim.predictability import (
    epl,
    fano_forward,
    fano_invert,
    fano_nr,
    fano_values,
    perm_predictabilities,
    perm_predictability,
)
from predlim.sequence_core import log_from_sequences


def nats(*values):
    return Entropies(np.array(values, dtype=float), "nats", "sampen", np.full(len(values), ""))


def bits(*values):
    return Entropies(np.array(values, dtype=float), "bits", "lz", np.full(len(values), ""))


# epl


def test_epl_zero_entropy():
    score = epl(nats(0.0))
    assert score.value.tolist() == [1.0]
    assert score.effective_size.tolist() == [1.0]
    assert score.n is None


def test_epl_uniform_over_four():
    score = epl(nats(math.log(4)))
    assert abs(score.value[0] - 0.25) < 1e-12
    assert abs(score.effective_size[0] - 4.0) < 1e-12


def test_epl_unit_conversion_path():
    assert abs(epl(bits(2.0)).value[0] - 0.25) < 1e-12


def test_epl_rejects_normalized_perm():
    # a perm value is a unitless float, and an Entropies without a unit cannot be built
    value = perm_entropy(np.random.default_rng(0).integers(0, 9, size=40), d=3)
    with pytest.raises(ValueError, match="unit must be one of"):
        epl(Entropies(np.array([value]), None, "perm_normalized", np.array([""])))


# Fano forward relation


def test_fano_forward_endpoints():
    assert fano_forward(1.0, 1000) == 0.0
    assert abs(fano_forward(1 / 1000, 1000) - math.log2(1000)) < 1e-9


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: fano_forward(0.5, 1), "n must be >= 2"),
        (lambda: fano_forward(0.5, [10, 1]), "n must be >= 2"),
        (lambda: fano_forward(0.0, 10), "Pi must lie"),
        (lambda: fano_forward(-0.1, 10), "Pi must lie"),
        (lambda: fano_forward(1.5, 10), "Pi must lie"),
        (lambda: fano_forward(float("nan"), 10), "Pi must lie"),
        (lambda: fano_forward([0.5, float("nan")], 10), "Pi must lie"),
        (lambda: fano_values([1.0, float("inf")], 10), "entropy must be finite"),
        (lambda: fano_values([float("nan")], 10), "entropy must be finite"),
    ],
)
def test_fano_forward_and_fano_values_reject_what_they_cannot_map(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_fano_forward_is_strictly_decreasing():
    n = 1000
    grid = np.linspace(1 / n, 1.0, 400)
    values = fano_forward(grid, n)
    assert (np.diff(values) < 0).all()
    assert values.tolist() == [fano_forward(p, n) for p in grid]


# Fano inversion


def test_fano_invert_endpoints_exact():
    # np.log2 is an ulp off math.log2 at n = 1621 and 3242 on some hosts
    for n in (50, 1621, 3242):
        scores = fano_invert(bits(0.0, math.log2(n), 99.0), n)  # 99: the beyond-uniform clamp
        assert scores.value.tolist() == [1.0, 1.0 / n, 1.0 / n]


def fano_invert_reference(s_bits, n):
    """One pair at a time: the scalar S_F and the scalar bisection that fano_values replaced."""

    def forward(pi):
        h = -pi * math.log2(pi) - (1.0 - pi) * math.log2(1.0 - pi)
        return h + (1.0 - pi) * math.log2(n - 1)

    if s_bits <= 0.0:
        return 1.0
    if s_bits >= math.log2(n):
        return 1.0 / n
    lo, hi = 1.0 / n, 1.0
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if forward(mid) > s_bits:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@settings(max_examples=200, deadline=None)
@given(st.lists(
    st.tuples(
        st.one_of(st.sampled_from([2, 1621, 10**6]), st.integers(min_value=2, max_value=10**6)),
        st.one_of(  # the entropy as a fraction of log2 n, near both ends and beyond them
            st.floats(min_value=0.0, max_value=1.0),
            st.sampled_from([-0.5, 0.0, 1e-15, 1e-9, 1 - 1e-9, 1 - 1e-15, 1.0, 1.5]),
        ),
    ),
    min_size=1, max_size=20,
))
def test_fano_values_match_the_scalar_bisection(pairs):
    n = [k for k, _ in pairs]
    s_bits = [frac * math.log2(k) for k, frac in pairs]
    got = fano_values(s_bits, n).tolist()
    assert all(1 / k <= v <= 1.0 for v, k in zip(got, n))
    want = [fano_invert_reference(s, k) for s, k in zip(s_bits, n)]
    assert all(abs(g - w) <= 1e-12 for g, w in zip(got, want)), (got, want)


def test_fano_invert_forward_residual():
    score = fano_invert(bits(4.0), 1000)
    assert abs(fano_forward(score.value[0], 1000) - 4.0) < 1e-9
    # a fine grid brackets the same root
    grid = np.linspace(1 / 1000, 1.0, 20000)
    idx = np.searchsorted(-np.array([fano_forward(p, 1000) for p in grid]), -4.0)
    assert grid[idx - 1] <= score.value[0] <= grid[idx + 1]


def test_fano_invert_records_inputs():
    score = fano_invert(bits(3.0, 6.0), 64)  # log2(64) = 6 bits: uniform, so 1/64
    assert score.n.tolist() == [64, 64]
    assert score.effective_size is None
    assert score.value[0] >= 1 / 64 and score.value[1] == 1 / 64
    per_user = fano_invert(bits(3.0, 3.0), np.array([64, 8]))
    assert per_user.n.tolist() == [64, 8] and per_user.value[1] == 1 / 8  # log2(8) = 3 bits


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
    assert abs(fano_invert(bits(s), n).value[0] - pi) <= 1e-8


def test_fano_monotone_in_n_at_fixed_entropy():
    for s in (3.0, 4.0, 5.0):
        values = [fano_invert(bits(s), n).value[0] for n in (10, 100, 1000, 10000)]
        assert all(a < b for a, b in zip(values, values[1:]))


# reachability variant


def test_fano_nr_constant_sequence():
    log = log_from_sequences([np.zeros(10, dtype=int)], n_items=5)
    score = fano_nr(nats(0.0), log.items, log.offsets)
    assert score.value.tolist() == [1.0]
    assert score.n.tolist() == [2]  # fan-out 1 clamps to 2


def test_fano_nr_binary_entropy_inverse():
    # N_r = 2 and 1 bit of entropy solve h2(pi) = 1 at pi = 0.5
    log = log_from_sequences([np.array([0, 1, 0, 1, 1, 0])])
    score = fano_nr(bits(1.0), log.items, log.offsets)
    assert score.n.tolist() == [2]
    assert abs(score.value[0] - 0.5) < 1e-6


def test_fano_nr_scope_changes_candidate_size():
    log = log_from_sequences([np.array([0, 1, 0, 2]), np.array([0, 3, 0, 4])])
    pooled = fano_nr(bits(1.0, 1.0), log.items, log.offsets)
    per_user = fano_nr(bits(1.0, 1.0), log.items, log.offsets, per_user=True)
    alone = [fano_nr(bits(1.0), s.items, [0, s.length]) for s in log.sequences]
    assert pooled.n.tolist() == [4, 4] and per_user.n.tolist() == [2, 2]
    assert per_user.value.tolist() == [sc.value[0] for sc in alone]
    # at fixed entropy the Fano relation is monotone in the candidate size
    assert (pooled.value > per_user.value).all()


def test_fano_nr_takes_its_key_base_from_the_items():
    # state 0 has successors 1, 2 and 3; a stated item bound of 2 used to merge keys into 2
    log = log_from_sequences([np.array([0, 1, 0, 2, 0, 3])])
    (s,) = log.sequences
    assert fano_nr(bits(1.0), log.items, log.offsets).n.tolist() == [3]
    assert fano_nr(bits(1.0), s.items, [0, s.length], per_user=True).n.tolist() == [3]
    for scope in ("pooled", "per-user"):
        entropy = Entropies(np.array([1.0]), "bits", "lz", np.array([""]))
        assert score_log(log, "fano_nr", entropy, scope).n.tolist() == [3]
    with pytest.raises(ValueError, match="negative"):
        fano_nr(bits(1.0), np.array([-1, 1, -1, 2]), [0, 4])


# permutation predictability


def test_perm_predictability_increasing_sequence():
    assert perm_predictability(np.arange(40)).value.tolist() == [1.0]


def test_perm_predictability_iid_small():
    x = np.random.default_rng(1).integers(0, 10000, size=10000)
    assert perm_predictability(x).value[0] <= 0.02


def test_perm_predictability_skips_infeasible_scales():
    x = np.arange(7)  # enough vectors for d=3 only
    with pytest.raises(ValueError, match="embedding vectors"):
        perm_entropy(x, d=4)
    assert perm_predictability(x).value.tolist() == [1.0 - perm_entropy(x, d=3)] == [1.0]


def test_perm_predictability_all_scales_infeasible():
    with pytest.raises(ValueError, match="feasible"):
        perm_predictability(np.arange(6))


def test_perm_rejects_unsupported_options_whatever_the_length():
    # d=7 is unsupported, not infeasible: it raises even beside a feasible d=3
    for items in (np.arange(7), np.arange(400)):
        for d_set, tau in (((3, 7), 1), ((), 1), ((3,), 0), ((3, 3), 1), ((4, 5, 4), 1)):
            with pytest.raises(ValueError, match="must be"):
                perm_predictability(items, d_set=d_set, tau=tau)


def test_perm_predictability_does_not_depend_on_the_order_of_d_set():
    x = np.random.default_rng(5).integers(0, 6, size=60)
    values = {perm_predictability(x, d_set=d_set).value[0]
              for d_set in ((3, 4, 5), (5, 3, 4), (4, 5, 3), (5, 4, 3))}
    assert len(values) == 1


def test_perm_predictabilities_equal_each_sequence_scored_alone():
    rng = np.random.default_rng(3)
    arrays = [rng.integers(0, k, size=t) for k, t in ((3, 9), (5, 60), (2, 12), (9, 300), (4, 10))]
    log = log_from_sequences(arrays)
    for d_set, tau in (((3, 4, 5), 1), ((5, 3), 2), ((4,), 1)):
        alone = [perm_predictability(x, d_set, tau).value[0] for x in arrays]
        assert perm_predictabilities(log.items, log.offsets, d_set, tau).value.tolist() == alone
    short = log_from_sequences(arrays + [np.arange(6)])
    with pytest.raises(ValueError, match="feasible"):
        perm_predictabilities(short.items, short.offsets)


def test_perm_predictability_takes_minimum_entropy():
    x = np.random.default_rng(2).integers(0, 40, size=400)
    per_d = {d: perm_entropy(x, d=d) for d in (3, 4, 5)}
    score = perm_predictability(x)
    assert score.value[0] == pytest.approx(1.0 - min(per_d.values()), abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=30.0),
    st.integers(min_value=2, max_value=10**5),
)
def test_scores_stay_in_unit_interval(s, n):
    assert 0.0 < epl(nats(s)).value[0] <= 1.0
    fano = fano_invert(nats(s), n)
    assert 1 / n <= fano.value[0] <= 1.0
