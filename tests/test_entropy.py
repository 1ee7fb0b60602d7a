import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from predlim import entropy
from predlim.entropy import (
    Entropies,
    lz_entropies,
    lz_entropy,
    perm_entropies,
    perm_entropy,
    plugin_entropy,
    sampen,
    sampen_entropies,
)

# Independent reference implementations. These deliberately take the slow,
# literal route so they share nothing with the library code paths.


def flat(corpus):
    """A corpus of item lists as the cores take it: every item in one array, and offsets."""
    items = np.array([v for x in corpus for v in x], dtype=np.int64)
    return items, np.cumsum([0, *map(len, corpus)])


def brute_sampen_counts(x, m):
    """Match-pair counts via explicit O(T^2) pair enumeration."""
    x = list(x)
    starts = len(x) - m
    b = a = 0
    for i in range(starts):
        for j in range(i + 1, starts):
            if x[i : i + m] == x[j : j + m]:
                b += 1
            if x[i : i + m + 1] == x[j : j + m + 1]:
                a += 1
    return a, b


def brute_match_lengths(x):
    """Shortest-absent-substring lengths by literal O(T^3) search."""
    x = list(x)
    t = len(x)
    lam = [1]
    for i in range(1, t):
        value = (t - i) + 1  # every substring here occurs earlier
        for ell in range(1, t - i + 1):
            sub = x[i : i + ell]
            if not any(x[p : p + ell] == sub for p in range(i)):
                value = ell
                break
        lam.append(value)
    return lam


def brute_lz(x):
    lam = brute_match_lengths(x)
    return len(x) * math.log2(len(x)) / sum(lam)


def row(ests, u):
    """User u's value, unit, estimator, flags and params of an Entropies, as plain values."""
    def at(x):
        return x[u].item() if isinstance(x, np.ndarray) else x

    fields = (ests.value, ests.unit, ests.estimator, ests.flags)
    return (*map(at, fields), {k: at(v) for k, v in ests.params.items()})


def one(value, unit="nats", estimator="sampen"):
    return Entropies(np.array([value]), unit, estimator, np.array([""]))


# plugin entropy


def test_plugin_uniform_eight():
    assert abs(plugin_entropy(np.full(8, 1 / 8), unit="bits").value[0] - 3.0) < 1e-12


def test_plugin_point_mass():
    h = plugin_entropy([1.0, 0.0, 0.0]).value[0]
    assert h == 0.0 and math.copysign(1.0, h) == 1.0  # not -0.0


def test_plugin_hand_computed():
    assert abs(plugin_entropy([0.5, 0.25, 0.25], unit="bits").value[0] - 1.5) < 1e-12


def test_distribution_validation():
    with pytest.raises(ValueError):
        plugin_entropy([0.5, 0.6])
    with pytest.raises(ValueError):
        plugin_entropy([1.5, -0.5])
    with pytest.raises(ValueError, match="sum to nan"):
        plugin_entropy([np.nan, 1.0])


def test_plugin_bounded_by_log_support():
    rng = np.random.default_rng(3)
    for _ in range(300):
        k = int(rng.integers(2, 50))
        d = rng.dirichlet(np.ones(k))
        h = plugin_entropy(d).value[0]
        assert h <= math.log(k) + 1e-9
        assert math.exp(-h) <= d.max() + 1e-12  # min-entropy bound


def test_plugin_uniform_attains_log_support():
    for k in (2, 5, 64):
        d = np.full(k, 1 / k)
        assert abs(plugin_entropy(d).value[0] - math.log(k)) < 1e-9
        assert abs(math.exp(-plugin_entropy(d).value[0]) - d.max()) < 1e-9


# unit bookkeeping


def test_unit_conversion_round_trip():
    e = one(1.7)
    assert abs(e.to("bits").value[0] - 1.7 / math.log(2)) < 1e-12
    assert abs(e.to("bits").to("nats").value[0] - 1.7) < 1e-12
    assert e.to("nats").value.tolist() == [1.7]


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: one(1.0).to("kelvin"), "unit must be one of"),
        (lambda: plugin_entropy([1.0], unit="kelvin"),
         "unit must be one of"),
        (lambda: plugin_entropy(np.array([[0.5, 0.5]])), "1-d"),
        (lambda: plugin_entropy(np.array([[0.5], [0.5]])), "1-d"),
        (lambda: Entropies(np.array([0.5, -1.0]), "nats", "lz", np.array(["", ""])),
         "finite and >= 0, got -1.0"),
        (lambda: Entropies(np.array([0.5]), np.array(["furlongs"]), "lz", np.array([""])),
         "unit must be one of"),
        (lambda: lz_entropies(np.array([0, 1, 0]), np.array([0, 3])).to("kelvin"),
         "unit must be one of"),
        (lambda: Entropies(np.array([0.5]), None, "perm_normalized", np.array([""])),
         r"unit must be one of \('nats', 'bits'\), got None"),
    ],
)
def test_conversion_and_distribution_reject_bad_shapes_and_units(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_estimate_validation():
    # the first bad row raises, its value checked before its unit
    cases = [
        (([0.5, -0.5], "nats"), "finite and >= 0, got -0.5"),
        (([float("nan")], "nats"), "finite and >= 0, got nan"),
        (([float("inf")], "bits"), "finite and >= 0, got inf"),
        (([1.0], "furlongs"), r"unit must be one of \('nats', 'bits'\), got 'furlongs'"),
        (([-1.0], "furlongs"), "finite and >= 0, got -1.0"),
        (([0.5, -1.0], np.array(["furlongs", "nats"])), "got 'furlongs'"),
        (([0.5, 1.0, -1.0], np.array(["bits", "kelvin", "nats"])), "got 'kelvin'"),
    ]
    for (values, unit), message in cases:
        with pytest.raises(ValueError, match=message):
            Entropies(np.array(values), unit, "sampen", np.full(len(values), ""))


# sample entropy


def test_sampen_perfectly_regular():
    est = sampen(np.zeros(6, dtype=int), m=2)
    assert est.value.tolist() == [0.0]
    assert est.flags.tolist() == [""]


def test_sampen_alternation_matches_pair_enumeration():
    x = np.array([0, 1, 0, 1, 0, 1])
    a, b = brute_sampen_counts(x.tolist(), 2)
    est = sampen(x, m=2)
    assert (est.params["A"].tolist(), est.params["B"].tolist()) == ([a], [b])
    assert abs(est.value[0] - (-math.log(a / b))) < 1e-12


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=4), min_size=4, max_size=28),
    st.integers(min_value=1, max_value=3),
)
def test_sampen_matches_brute_force(items, m):
    if len(items) < m + 2:
        return
    x = np.array(items)
    a, b = brute_sampen_counts(items, m)
    est = sampen(x, m=m)
    assert (est.params["A"].tolist(), est.params["B"].tolist()) == ([a], [b])
    starts = len(items) - m
    if b == 0 or a == 0:
        assert est.value[0] == pytest.approx(math.log(starts * (starts - 1) / 2))
        assert "saturated" in est.flags[0].split(";")
    else:
        assert est.value[0] == pytest.approx(-math.log(a / b), abs=1e-12)
        assert est.value[0] >= 0.0  # every (m+1)-match is an m-match


def test_sampen_iid_uniform_recovers_log_alphabet():
    values = []
    for seed in range(10):
        x = np.random.default_rng(seed).integers(0, 4, size=2000)
        values.append(sampen(x, m=1).value[0])
    assert abs(np.mean(values) - math.log(4)) < 0.1


def test_sampen_rejects_short_input():
    with pytest.raises(ValueError, match="length"):
        sampen(np.array([0, 1, 2]), m=2)


def test_sampen_no_regularity_cap():
    x = np.arange(8)  # all windows distinct
    est = sampen(x, m=2)
    assert est.flags.tolist() == ["saturated;no_regularity"]
    assert est.value[0] == pytest.approx(math.log(6 * 5 / 2))


def test_sampen_no_extension_cap():
    x = np.array([0, 1, 0, 2])  # one m=1 match, no m=2 match
    est = sampen(x, m=1)
    assert est.params["B"].tolist() == [1] and est.params["A"].tolist() == [0]
    assert est.flags.tolist() == ["saturated"]
    assert est.value[0] == pytest.approx(math.log(3))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=5), min_size=5, max_size=24))
def test_sampen_alphabet_relabeling_invariant(items):
    x = np.array(items)
    relabel = np.random.default_rng(0).permutation(50)
    assert sampen(x, m=1).value[0] == pytest.approx(sampen(relabel[x], m=1).value[0], abs=1e-12)


def test_sampen_wide_window_fallback_agrees():
    # force the row-unique path by exceeding the 63-bit packing budget
    rng = np.random.default_rng(5)
    x = rng.integers(0, 2**40, size=40)
    x[7:12] = x[0:5]
    a, b = brute_sampen_counts(x.tolist(), 2)
    est = sampen(x, m=2)
    assert (est.params["A"].tolist(), est.params["B"].tolist()) == ([a], [b])


SYMBOLS = st.sampled_from([0, 1, 2, -5, 2**62])  # sampen and lz accept any int64
RUNS = st.lists(st.tuples(SYMBOLS, st.integers(2, 10)), min_size=1, max_size=5).map(
    lambda runs: [v for v, n in runs for _ in range(n)]
)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=1, max_value=3).flatmap(
        lambda m: st.tuples(
            st.just(m),
            st.lists(
                st.one_of(
                    st.lists(SYMBOLS, min_size=m + 2, max_size=m + 2),
                    st.lists(SYMBOLS, min_size=m + 2, max_size=30),
                    RUNS.filter(lambda x: len(x) >= m + 2),
                ),
                max_size=12,
            ),
        )
    ),
    st.lists(st.integers(min_value=0, max_value=2), min_size=40, max_size=90),
    st.integers(min_value=0, max_value=12),
)
def test_sampen_entropies_equal_each_sequence_counted_alone(m_corpus, long, at):
    # a 24-event budget puts chunk boundaries all through the corpus, and the
    # long sequence in a chunk of its own
    m, corpus = m_corpus
    corpus = corpus[:at] + [long] + corpus[at:]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(entropy, "CHUNK_SYMBOLS", 24)
        ests = sampen_entropies(*flat(corpus), m)
    assert len(ests) == len(corpus) and (ests.unit, ests.estimator) == ("nats", "sampen")
    for u, x in enumerate(corpus):
        a, b = brute_sampen_counts(x, m)
        assert (ests.params["m"], ests.params["A"][u], ests.params["B"][u]) == (m, a, b)
        starts = len(x) - m
        if a == 0:
            assert ests.value[u] == math.log(starts * (starts - 1) // 2)
            assert ests.flags[u] == ("saturated" if b else "saturated;no_regularity")
        else:
            assert ests.value[u] == math.log(b / a)
            assert ests.flags[u] == ""
        assert row(ests, u) == row(sampen(np.array(x), m), 0)


def periodic_corpus(rng, symbols, users, m):
    """Users of repeated short motifs over symbols, with a few changed items: many matches."""
    corpus = []
    for _ in range(users):
        motif = rng.choice(symbols, size=rng.integers(1, 4))
        x = np.resize(motif, rng.integers(m + 2, m + 24))
        x[rng.integers(0, len(x), 2)] = rng.choice(symbols, 2)
        corpus.append(x.tolist())
    return corpus


@pytest.mark.parametrize(
    "symbols, m",
    [
        pytest.param([-3, -2, -1, 0, 1, 2], 2, id="negative-items-shifted"),
        pytest.param([-(2**62), 2**62, 0, 1], 2, id="span-too-wide-dense-ranks"),
        pytest.param([2**40 - 3, 2**40, 2**40 + 9, 2**39, 2], 6, id="m6-names-densified"),
    ],
)
def test_sampen_entropies_count_every_code_path_as_pair_enumeration(symbols, m):
    rng = np.random.default_rng(0)
    corpus = periodic_corpus(rng, symbols, 30, m)
    corpus += [[symbols[0], symbols[1]] * (m + 2)]  # both extremes in one chunk
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(entropy, "CHUNK_SYMBOLS", 40)
        ests = sampen_entropies(*flat(corpus), m)
    counts = [brute_sampen_counts(x, m) for x in corpus]
    assert list(zip(ests.params["A"].tolist(), ests.params["B"].tolist())) == counts
    assert sum(a for a, _ in counts) > 0  # the corpus has matches at m + 1


def test_sampen_entropies_reject_a_short_sequence_anywhere():
    assert len(sampen_entropies(*flat([]), 2)) == 0
    with pytest.raises(ValueError, match="length 3 is below m \\+ 2 = 4"):
        sampen_entropies(*flat([range(6), range(3)]), 2)
    with pytest.raises(ValueError, match="m must be >= 1"):
        sampen_entropies(*flat([range(6)]), 0)


# match-length estimator


def test_lz_alternating_pair():
    est = lz_entropy(np.array([0, 1, 0, 1]))
    assert est.params["lambda_sum"].tolist() == [7]  # lengths (1, 1, 3, 2)
    assert abs(est.value[0] - 8 / 7) < 1e-12


def test_lz_constant_sequence_near_zero():
    est = lz_entropy(np.zeros(100, dtype=int))
    expected = 100 * math.log2(100) / 5050  # arithmetic-series match lengths
    assert abs(est.value[0] - expected) < 1e-12
    assert est.value[0] < 0.2


def test_lz_matches_naive_substring_search():
    rng = np.random.default_rng(11)
    for _ in range(120):
        t = int(rng.integers(2, 50))
        x = rng.integers(0, rng.integers(1, 6), size=t)
        assert lz_entropy(x).value[0] == pytest.approx(brute_lz(x), abs=1e-12)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=3), min_size=2, max_size=40))
def test_lz_brute_force_property(items):
    x = np.array(items)
    assert lz_entropy(x).value[0] == pytest.approx(brute_lz(items), abs=1e-12)


def test_lz_rejects_single_event():
    with pytest.raises(ValueError):
        lz_entropy(np.array([0]))


def test_lz_alphabet_relabeling_invariant():
    rng = np.random.default_rng(2)
    x = rng.integers(0, 8, size=300)
    relabel = rng.permutation(8)
    assert lz_entropy(x).value[0] == lz_entropy(relabel[x]).value[0]


@settings(max_examples=80, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.lists(SYMBOLS, min_size=2, max_size=2),
            st.lists(SYMBOLS, min_size=2, max_size=30),
            RUNS,
        ),
        max_size=12,
    ),
    st.one_of(st.lists(st.integers(min_value=0, max_value=2), min_size=40, max_size=90), RUNS),
    st.integers(min_value=0, max_value=12),
)
def test_lz_entropies_equal_each_sequence_alone(corpus, long, at):
    # a 24-symbol budget puts chunk boundaries all through the corpus, and a
    # 40-event sequence in a chunk of its own
    corpus = corpus[:at] + [long] + corpus[at:]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(entropy, "CHUNK_SYMBOLS", 24)
        ests = lz_entropies(*flat(corpus))
    assert len(ests) == len(corpus) and (ests.unit, ests.estimator) == ("bits", "lz")
    for u, x in enumerate(corpus):
        assert ests.params["lambda_sum"][u] == sum(brute_match_lengths(x))
        assert ests.value[u] == brute_lz(x)
        assert row(ests, u) == row(lz_entropy(np.array(x)), 0)
        assert ests.flags[u] == ""


def test_lz_chunk_longer_than_the_budget_matches_the_match_length_oracle():
    # a 16-symbol budget makes the 82-event user a chunk of its own, five times the budget;
    # its repeated period needs several doubling rounds, and its ranks, suffix starts and
    # sparse table run in int32 (below 2^31 symbols), its packed keys in int64
    rng = np.random.default_rng(5)
    long = np.concatenate([np.tile(rng.integers(0, 3, 7), 6), rng.integers(0, 3, 40)])
    corpus = [rng.integers(0, 3, 5).tolist(), long.tolist(), rng.integers(0, 3, 9).tolist()]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(entropy, "CHUNK_SYMBOLS", 16)
        ests = lz_entropies(*flat(corpus))
    assert ests.params["lambda_sum"].tolist() == [sum(brute_match_lengths(x)) for x in corpus]
    assert ests.value.tolist() == [brute_lz(x) for x in corpus]


def test_lz_entropies_reject_a_single_event_anywhere():
    assert len(lz_entropies(*flat([]))) == 0
    with pytest.raises(ValueError, match="at least 2 events"):
        lz_entropies(*flat([[0, 1, 0], [4]]))


# permutation entropy


def brute_perm_entropy(x, d, tau):
    """Normalized permutation entropy by matching every vector to each of the d! orders.

    A vector follows order pi when its values ascend along pi, equal values
    ascending by position; exactly one order fits each vector.
    """
    x = list(x)
    vectors = [
        [x[i + k * tau] for k in range(d)] for i in range(len(x) - (d - 1) * tau)
    ]
    counts = []
    for pi in itertools.permutations(range(d)):
        fits = sum(
            all((v[a], a) < (v[b], b) for a, b in zip(pi, pi[1:])) for v in vectors
        )
        if fits:
            counts.append(fits)
    assert sum(counts) == len(vectors)
    h = -sum(c / len(vectors) * math.log(c / len(vectors)) for c in counts)
    return h / math.log(math.factorial(d))


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=60),
    st.integers(min_value=3, max_value=5),
    st.integers(min_value=1, max_value=4),
)
def test_perm_matches_ordinal_pattern_oracle(x, d, tau):
    if len(x) < d * tau + 1 or len(x) - (d - 1) * tau < 5:
        with pytest.raises(ValueError):
            perm_entropy(np.array(x), d=d, tau=tau)
        return
    assert perm_entropy(np.array(x), d=d, tau=tau) == pytest.approx(
        brute_perm_entropy(x, d, tau), abs=1e-12)


def rowwise_perm_entropy(x, d, tau):
    """Normalized permutation entropy counted the row-wise way: np.unique(axis=0) over
    each vector's stable argsort, one sequence at a time, in x's own dtype. The terms are
    summed by np.add.reduceat, in the order the library sums each sequence's."""
    x = np.asarray(x)
    n_vec = len(x) - (d - 1) * tau
    idx = np.arange(n_vec)[:, None] + tau * np.arange(d)[None, :]
    _, counts = np.unique(np.argsort(x[idx], axis=1, kind="stable"), axis=0, return_counts=True)
    freqs = counts / n_vec
    h = float(-np.add.reduceat(freqs * np.log(freqs), [0])[0])
    return min(max(h / math.log(math.factorial(d)), 0.0), 1.0)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.lists(st.integers(min_value=0, max_value=3), max_size=40), max_size=12),
    st.lists(st.integers(min_value=0, max_value=2), min_size=40, max_size=90),
    st.integers(min_value=0, max_value=12),
    st.lists(st.sampled_from([3, 4, 5]), min_size=1, max_size=3, unique=True),
    st.integers(min_value=1, max_value=4),
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=14),
                  st.lists(st.integers(min_value=0, max_value=3), max_size=6)),
        max_size=4,
    ),
)
def test_perm_entropies_equal_each_sequence_counted_alone(corpus, long, at, d_set, tau, shorts):
    # a 16-event budget puts chunk boundaries all through the corpus, and the
    # long sequence in a chunk of its own
    corpus = corpus[:at] + [long] + corpus[at:] + [[2, 1, 0, 1]]  # the last: too short at any d
    for k, short in shorts:  # at most 6 events, too short at any d, wherever a chunk may span it
        corpus.insert(k, short)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(entropy, "CHUNK_SYMBOLS", 16)
        table = perm_entropies(*flat(corpus), d_set, tau)
    assert table.shape == (len(corpus), len(d_set))
    for x, row in zip(corpus, table.tolist()):
        for d, got in zip(d_set, row):
            if len(x) < d * tau + 1 or len(x) - (d - 1) * tau < 5:
                assert math.isnan(got)
                with pytest.raises(ValueError, match="embedding vectors"):
                    perm_entropy(np.array(x), d=d, tau=tau)
                continue
            assert got == perm_entropy(np.array(x), d=d, tau=tau)
            assert got == rowwise_perm_entropy(x, d, tau)
            assert got == pytest.approx(brute_perm_entropy(x, d, tau), abs=1e-12)
    assert np.isnan(table[-1]).all()


@pytest.mark.parametrize("tau", [1, 3])
@pytest.mark.parametrize(
    "values",
    [
        pytest.param(np.array([-2.5, -0.0, 0.0, 1.25, 7.0, -np.inf]), id="float64-ties-negatives"),
        pytest.param(np.array([2**63, 2**63 + 5, 2**64 - 1, 3], dtype=np.uint64), id="uint64"),
    ],
)
def test_perm_entropies_compare_in_the_items_own_dtype(values, tau):
    # an int64 cast misorders 2^64 - 1 and 3, a float64 cast ties 2^63 and 2^63 + 5
    rng = np.random.default_rng(tau)
    corpus = [rng.choice(values, size=rng.integers(10, 40)) for _ in range(12)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(entropy, "CHUNK_SYMBOLS", 16)
        table = perm_entropies(np.concatenate(corpus), np.cumsum([0, *map(len, corpus)]),
                               (3, 4, 5), tau)
    scored = 0
    for x, row in zip(corpus, table.tolist()):
        for d, got in zip((3, 4, 5), row):
            if len(x) < d * tau + 1 or len(x) - (d - 1) * tau < 5:
                assert math.isnan(got)
                continue
            assert got == rowwise_perm_entropy(x, d, tau)
            scored += 1
    assert scored >= 24


@pytest.mark.parametrize("d", [3, 4, 5])
def test_pattern_ranks_give_each_order_its_rank_in_stable_argsort_code_order(d):
    # the rows' codes sum_k p[k] d^(d-1-k), sorted, give each order its rank;
    # a window of values 0..d-1 placed at p's positions has p as its stable argsort
    rows = sorted(itertools.permutations(range(d)),
                  key=lambda p: sum(v * d ** (d - 1 - k) for k, v in enumerate(p)))
    want = np.full(2 ** (d * (d - 1) // 2), -1)
    for r, p in enumerate(rows):
        x = np.empty(d)
        x[list(p)] = np.arange(d)
        assert np.argsort(x, kind="stable").tolist() == list(p)
        bits = sum(int(x[j] < x[i]) << (j * (j - 1) // 2 + i) for j in range(d) for i in range(j))
        assert entropy._pair_bits(x, d, 1)[0] == bits
        want[bits] = r
    assert np.array_equal(entropy._pattern_ranks(d), want)
    assert (want >= 0).sum() == math.factorial(d)


def test_perm_rejects_a_window_no_order_compares_as():
    # in (1, NaN, 0), 0 < 1 but neither 1 nor 0 compares below NaN
    with pytest.raises(ValueError, match="total order"):
        perm_entropy(np.array([1.0, np.nan, 0.0, 2.0, 3.0, 4.0, 5.0]), d=3)


def test_perm_entropies_of_no_sequences_is_an_empty_table():
    assert perm_entropies(*flat([]), (3, 5)).shape == (0, 2)
    with pytest.raises(ValueError):
        perm_entropies(*flat([]), (6,))


def test_perm_strictly_increasing_is_zero():
    value = perm_entropy(np.arange(30), d=3)
    assert value == 0.0 and type(value) is float  # unitless, so not an Entropies


def test_perm_constant_is_zero_via_tie_break():
    assert perm_entropy(np.zeros(30, dtype=int), d=3) == 0.0


def test_perm_iid_near_one():
    x = np.random.default_rng(0).integers(0, 10000, size=10000)
    assert perm_entropy(x, d=3) >= 0.99


def test_perm_requires_enough_vectors():
    with pytest.raises(ValueError, match="vectors"):
        perm_entropy(np.arange(6), d=3)  # only 4 embedding vectors
    # 6 vectors are enough; the rule that fails is length >= d * tau + 1 = 31
    with pytest.raises(ValueError, match=r"gives 6 embedding vectors; need >= 5 at d=3, "
                                         r"tau=10, and length >= d\*tau \+ 1 = 31$"):
        perm_entropy(np.arange(26) % 7, d=3, tau=10)
    with pytest.raises(ValueError):
        perm_entropy(np.arange(30), d=6)
    with pytest.raises(ValueError):
        perm_entropy(np.arange(30), d=3, tau=0)


@pytest.mark.parametrize("tau", [31, 2 ** 62, 10 ** 20, 2 ** 70])
def test_perm_tau_beyond_every_sequence_is_infeasible(tau):
    # a lag past the longest sequence leaves no windows, however large it is
    with pytest.raises(ValueError, match=f"gives 0 embedding vectors; need >= 5 at d=3, tau={tau}"):
        perm_entropy(np.arange(30), d=3, tau=tau)
    table = perm_entropies(np.arange(50), np.array([0, 30, 50]), (3, 4, 5), tau)
    assert table.shape == (2, 3) and np.isnan(table).all()


def test_perm_order_preserving_relabel_invariant():
    x = np.random.default_rng(4).integers(0, 50, size=200)
    assert perm_entropy(x, d=4) == perm_entropy(3 * x + 7, d=4)


def test_perm_tau_spacing():
    # with tau=2 the alternating pair looks constant per coordinate
    x = np.tile([5, 9], 20)
    assert perm_entropy(x, d=3, tau=2) == 0.0


def test_estimators_are_deterministic():
    x = np.random.default_rng(9).integers(0, 12, size=120)
    assert sampen(x, m=2).value[0] == sampen(x.copy(), m=2).value[0]
    assert lz_entropy(x).value[0] == lz_entropy(x.copy()).value[0]
    assert perm_entropy(x, d=3) == perm_entropy(x.copy(), d=3)
