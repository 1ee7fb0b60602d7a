import math

import numpy as np
import pytest
from scipy import stats

from predlim.synth import (
    GeneratorConfig,
    generate,
    invert_noise,
    oracle_hit1,
    simulate_oracle,
)


def config(mechanism, n=100, users=5, length=50, seed=0, **params):
    return GeneratorConfig(
        mechanism=mechanism, n=n, users=users, length=length, seed=seed, params=params
    )


# closed forms


def test_oracle_repeat_last_direct_substitution():
    cfg = config("repeat_last", n=1000, p=0.5)
    assert abs(oracle_hit1(cfg) - 0.5005) < 1e-12


def test_oracle_session_reset_noiseless():
    cfg = config("session_reset", m=1, rho=0.1, eps=0.0)
    assert oracle_hit1(cfg) == 1.0


def test_oracle_context_switch_arithmetic():
    cfg = config("context_switch", n=100, c=5, m_c=5, s=0.05, eps=0.5)
    assert abs(oracle_hit1(cfg) - 0.105) < 1e-12


# noise inversion


def test_invert_repeat_last():
    assert abs(invert_noise("repeat_last", 0.5005, n=1000) - 0.5) < 1e-12


def test_invert_session_reset_trivial():
    assert invert_noise("session_reset", 1.0, n=50, m=1) == 0.0


def test_invert_context_switch():
    assert abs(invert_noise("context_switch", 0.105, n=100, m_c=5) - 0.5) < 1e-12


def test_invert_round_trip_random_configs():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        mech = ("session_reset", "repeat_last", "context_switch")[int(rng.integers(3))]
        n = int(rng.integers(2, 100000))
        if mech == "repeat_last":
            lo, hi = 1.0 / n, 1.0
            fixed = {"n": n}
            build = lambda v: config("repeat_last", n=n, p=v)
        elif mech == "session_reset":
            m = int(rng.integers(1, min(n, 20) + 1))
            lo, hi = min(1.0 / m, 1.0 / n), max(1.0 / m, 1.0 / n)
            fixed = {"n": n, "m": m}
            build = lambda v: config("session_reset", n=n, m=m, rho=0.05, eps=v)
        else:
            m_c = int(rng.integers(1, min(n, 20) + 1))
            lo, hi = min(1.0 / m_c, 1.0 / n), max(1.0 / m_c, 1.0 / n)
            fixed = {"n": n, "m_c": m_c}
            build = lambda v: config("context_switch", n=n, c=5, m_c=m_c, s=0.05, eps=v)
        target = lo + rng.random() * (hi - lo)
        noise = invert_noise(mech, target, **fixed)
        assert abs(oracle_hit1(build(noise)) - target) <= 1e-12


def test_invert_rejects_unreachable_targets():
    with pytest.raises(ValueError, match="feasible"):
        invert_noise("repeat_last", 0.0001, n=100)  # below 1/n
    with pytest.raises(ValueError, match="feasible"):
        invert_noise("session_reset", 0.9, n=100, m=2)  # above 1/m
    with pytest.raises(ValueError, match="feasible"):
        invert_noise("context_switch", 0.5, n=100, m_c=5)


# config validation


def test_config_validation():
    with pytest.raises(ValueError):
        config("drift", p=0.5)
    with pytest.raises(ValueError):
        config("repeat_last", p=1.5)
    with pytest.raises(ValueError):
        config("repeat_last")  # missing p
    with pytest.raises(ValueError):
        config("session_reset", n=5, m=9, rho=0.1, eps=0.1)  # m > n
    with pytest.raises(ValueError):
        config("context_switch", c=1, m_c=2, s=0.1, eps=0.1)
    with pytest.raises(ValueError):
        config("repeat_last", p=0.5, length=1)
    with pytest.raises(ValueError):
        config("repeat_last", p=0.5, seed=-1)


# generation semantics


def test_repeat_always_gives_constant_users():
    corpus = generate(config("repeat_last", p=1.0, users=4, length=30))
    for seq in corpus.log.sequences:
        assert len(np.unique(seq.items)) == 1


def test_generation_is_deterministic():
    cfg = config("context_switch", c=4, m_c=3, s=0.1, eps=0.2, users=6, length=40, seed=11)
    a, b = generate(cfg), generate(cfg)
    for sa, sb in zip(a.log.sequences, b.log.sequences):
        assert np.array_equal(sa.items, sb.items)


def test_user_substreams_do_not_depend_on_corpus_size():
    small = generate(config("session_reset", m=3, rho=0.1, eps=0.2, users=3, seed=5))
    large = generate(config("session_reset", m=3, rho=0.1, eps=0.2, users=8, seed=5))
    for u in range(3):
        assert np.array_equal(small.log.sequences[u].items, large.log.sequences[u].items)


def session_reset_by_choice(cfg):
    """Each user's sequence and sets as drawn with one rng.choice per period, on (seed, 0, u)."""
    n, t, m, rho, eps = cfg.n, cfg.length, cfg.params["m"], cfg.params["rho"], cfg.params["eps"]
    sequences, sets_trace = [], []
    for u in range(cfg.users):
        rng = np.random.default_rng([cfg.seed, 0, u])
        resets = rng.random(t) < rho
        resets[0] = True
        period = np.cumsum(resets) - 1
        sets = np.array([rng.choice(n, m, replace=False) for _ in range(period[-1] + 1)])
        member = rng.integers(0, m, size=t)
        noise = rng.random(t) < eps
        uniform = rng.integers(0, n, size=t)
        sequences.append(np.where(noise, uniform, sets[period, member]))
        sets_trace.append(sets)
    return sequences, sets_trace


@pytest.mark.parametrize("n", [2, 100, 10**4, 10**5])
def test_session_reset_single_sets_draw_as_choice(n):
    # one integers draw per user for every m = 1 set leans on numpy's stream layout
    for seed in range(200):
        corpus = generate(config("session_reset", n=n, m=1, rho=0.2, eps=0.3, users=2,
                                 length=40, seed=seed))
        sequences, sets = session_reset_by_choice(corpus.config)
        assert all(np.array_equal(s.items, x) for s, x in zip(corpus.log.sequences, sequences))
        assert all(np.array_equal(a, b) for a, b in zip(corpus.latent_trace["sets"], sets))


def test_session_reset_larger_sets_draw_as_choice():
    corpus = generate(config("session_reset", n=100, m=3, rho=0.2, eps=0.3, seed=9))
    sequences, sets = session_reset_by_choice(corpus.config)
    assert all(np.array_equal(s.items, x) for s, x in zip(corpus.log.sequences, sequences))
    assert all(np.array_equal(a, b) for a, b in zip(corpus.latent_trace["sets"], sets))


def test_full_noise_is_uniform_chi_square():
    n = 20
    corpus = generate(config("session_reset", n=n, m=1, rho=0.05, eps=1.0, users=40, length=250, seed=2))
    observed = np.bincount(
        np.concatenate([s.items for s in corpus.log.sequences]), minlength=n
    )
    expected = observed.sum() / n
    stat = float(((observed - expected) ** 2 / expected).sum())
    assert stat < stats.chi2.ppf(0.99, df=n - 1)


def test_emitted_indices_within_item_space():
    for mech, params in [
        ("session_reset", {"m": 4, "rho": 0.2, "eps": 0.3}),
        ("repeat_last", {"p": 0.4}),
        ("context_switch", {"c": 3, "m_c": 4, "s": 0.2, "eps": 0.3}),
    ]:
        corpus = generate(config(mech, n=17, users=6, length=60, seed=3, **params))
        for seq in corpus.log.sequences:
            assert seq.items.min() >= 0 and seq.items.max() < 17
        assert len(corpus.log.vocabulary) == 17


def test_latent_sets_have_no_duplicates():
    corpus = generate(config("session_reset", n=30, m=6, rho=0.3, eps=0.2, users=5, length=50))
    for sets in corpus.latent_trace["sets"]:
        for row in sets:
            assert len(set(row.tolist())) == len(row)
    ctx = generate(config("context_switch", n=30, c=4, m_c=6, s=0.1, eps=0.2, users=3))
    for row in ctx.latent_trace["contexts"]:
        assert len(set(row.tolist())) == len(row)


def test_context_switch_always_moves():
    corpus = generate(
        config("context_switch", n=50, c=5, m_c=2, s=1.0, eps=0.0, users=4, length=80, seed=9)
    )
    for cid in corpus.latent_trace["context"]:
        assert (cid[1:] != cid[:-1]).all()  # s=1 switches every step


def test_corpus_records_recomputable_ceiling():
    cfg = config("repeat_last", n=200, p=0.3, users=3)
    corpus = generate(cfg)
    assert corpus.oracle_hit1 == oracle_hit1(cfg)


# oracle simulation


def test_simulate_oracle_perfect_repeat():
    corpus = generate(config("repeat_last", p=1.0, users=4, length=30))
    assert simulate_oracle(corpus) == 1.0


def test_simulate_oracle_requires_trace():
    corpus = generate(config("repeat_last", p=0.5, users=2, length=20))
    corpus.latent_trace = None
    with pytest.raises(ValueError, match="trace"):
        simulate_oracle(corpus)


def se3(h, events):
    return 3 * math.sqrt(h * (1 - h) / events)


def test_simulate_oracle_repeat_last_monte_carlo():
    cfg = config("repeat_last", n=1000, p=0.5, users=300, length=200, seed=0)
    h = oracle_hit1(cfg)
    assert abs(simulate_oracle(generate(cfg)) - h) <= se3(h, 300 * 199)


def test_simulate_oracle_context_switch_monte_carlo():
    eps = invert_noise("context_switch", 0.10, n=1000, m_c=5)
    cfg = config(
        "context_switch", n=1000, c=5, m_c=5, s=0.05, eps=eps, users=300, length=200, seed=1
    )
    assert abs(simulate_oracle(generate(cfg)) - 0.10) <= se3(0.10, 300 * 199)


def test_simulate_oracle_validates_general_m_session_form():
    # the m > 1 closed form is a derivation; the simulation is its check
    cfg = config("session_reset", n=500, m=3, rho=0.1, eps=0.25, users=300, length=200, seed=4)
    h = oracle_hit1(cfg)
    assert abs(simulate_oracle(generate(cfg)) - h) <= se3(h, 300 * 199)


def test_invert_checks_parameter_ranges_first():
    # each of these once divided by zero or named a nonsense feasible interval
    for mechanism, n, fixed, name in [
        ("session_reset", 100, {"m": 0}, "m"),
        ("session_reset", 100, {"m": -1}, "m"),
        ("session_reset", 100, {"m": 101}, "m"),
        ("session_reset", 100, {"rho": 1.5}, "rho"),
        ("context_switch", 100, {"m_c": 0}, "m_c"),
        ("context_switch", 100, {"c": 1}, "c"),
        ("repeat_last", 0, {}, "n"),
        ("repeat_last", 1, {}, "n"),
        ("context_switch", 1, {}, "n"),
    ]:
        with pytest.raises(ValueError, match=rf"^{name} must"):
            invert_noise(mechanism, 0.5, n=n, **fixed)
