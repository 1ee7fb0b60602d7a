"""Why two acceptance criteria fail: each explanation in the README, pinned as a passing test.

test_acceptance.py keeps criteria 4, 5(c) and 9 as they are, failing. These tests check the
explanation for each instead, so an estimator change that breaks the explanation shows up
here. Every tolerance is three standard errors of the quantity it bounds, with the standard
error taken from that quantity's own spread over seeds or users, as measured and stated below.
"""

import math

import numpy as np

from predlim.entropy import lz_entropies, perm_entropies
from predlim.evaluation import DIFFICULTY_TARGETS, N_GRID, _rep_seed, rmse, run_difficulty_sweep
from predlim.synth import GeneratorConfig, generate, invert_noise, params_for


def test_criterion_09_lz_converges_slowly_from_below_on_iid_uniform_256(capsys):
    # Criterion 9 gates lz's mean on iid uniform-256 input at T = 10^4 within [7.5, 8.5] bits.
    # The match-length estimator converges logarithmically in T, so at any feasible T it reads
    # well below log2(256) = 8: its mean over seeds 0-4 rises with T and stays below 8 bits.
    # Measured: 5.673, 6.499 and 6.677 bits at T = 10^3, 10^4 and 10^5, with standard
    # deviations over the 5 seeds of 0.0115, 0.0078 and 0.0014 bits.
    means, errors = [], []
    for t in (10**3, 10**4, 10**5):
        values = np.array([lz_entropies(np.random.default_rng(seed).integers(0, 256, size=t),
                                        np.array([0, t])).value[0] for seed in range(5)])
        means.append(values.mean())
        errors.append(values.std(ddof=1) / math.sqrt(len(values)))
    rises = all(means[k + 1] - means[k] > 3 * math.hypot(errors[k], errors[k + 1])
                for k in range(2))
    below = means[-1] + 3 * errors[-1] < 8.0
    with capsys.disabled():
        print(f"criterion 9 explanation {'confirmed' if rises and below else 'UNCONFIRMED'}: "
              f"lz iid-256 means {', '.join(f'{m:.3f}' for m in means)} bits at T = 1e3, 1e4, "
              f"1e5; rises {rises}, below 8 bits {below}")
    assert rises and below, (means, errors)


def plugin_expectation(d: int, windows: int) -> float:
    """E[1 - H_norm] of the plug-in entropy of windows draws, each uniform over the d! ordinal
    patterns: each pattern's count is Binomial(windows, 1/d!), so E[H] is d! times one binomial
    sum of -(k/windows) log(k/windows)."""
    patterns, p = math.factorial(d), 1 / math.factorial(d)
    term = sum(math.comb(windows, k) * p**k * (1 - p) ** (windows - k)
               * (k / windows) * math.log(k / windows) for k in range(1, windows + 1))
    return 1 + patterns * term / math.log(patterns)


def test_criterion_05c_perm_reads_the_plugin_bias_of_uniform_patterns(capsys):
    # Criterion 5(c) gates perm's sweep mean below 0.05 on the 200-event context-switch corpora
    # of the item-space sweep. Take a source whose ordinal patterns are uniform: a length-200
    # user has 200 - (d - 1) windows, and the plug-in entropy of so few draws is biased low,
    # so 1 - H_norm cannot be expected below 0.0071, 0.0188 and 0.0733 at d = 3, 4 and 5.
    # The sweep's first corpus (seed 7, rep 0) at N = 100, 1000 and 1e5 reads each of these
    # to within 3 standard errors of its mean over 300 users; the users' standard deviations
    # are 0.0050-0.0054, 0.0069-0.0073 and 0.0105-0.0108, so 3 standard errors is about
    # 0.0009, 0.0012 and 0.0019.
    expected = [plugin_expectation(d, 200 - (d - 1)) for d in (3, 4, 5)]
    assert [round(e, 4) for e in expected] == [0.0071, 0.0188, 0.0733]
    readings, errors = [], []
    for n in (100, 1000, 100_000):
        params = params_for("context_switch", invert_noise("context_switch", 0.10, n=n))
        seed = _rep_seed(7, N_GRID.index(n), 0)
        log = generate(GeneratorConfig("context_switch", n, 300, 200, seed, params)).log
        table = 1.0 - perm_entropies(log.items, log.offsets, (3, 4, 5))
        readings.append(table.mean(axis=0))
        errors.append(table.std(axis=0, ddof=1) / math.sqrt(len(table)))
    within = (abs(np.array(readings) - expected) <= 3 * np.array(errors)).all()
    with capsys.disabled():
        print(f"criterion 5(c) explanation {'confirmed' if within else 'UNCONFIRMED'}: perm "
              f"1 - H_norm at d = 3, 4, 5 expected {', '.join(f'{e:.4f}' for e in expected)}; "
              "read " + "; ".join(", ".join(f"{v:.4f}" for v in r) for r in readings)
              + " at N = 100, 1000, 1e5")
    assert within, (readings, errors)


def test_criterion_04_session_reset_epl_reads_the_squared_ceiling(capsys):
    # Criterion 4's session-reset half gates epl's RMSE against the targets at 0.15. sampen's
    # A/B is a conditional collision probability C, and any next-item distribution with top
    # probability p_max has p_max^2 <= C <= p_max. On session-reset C reads about the square of
    # the ceiling, so epl = exp(-S) lies below every target and tracks target^2; on
    # repeat-last it tracks the target itself. Run on the criterion's own sweeps (the
    # run_difficulty_sweep defaults, epl only). Measured: session-reset RMSE 0.0160 against
    # target^2 and 0.1951 against the target; repeat-last 0.0318 against the target and
    # 0.1687 against target^2. The per-target std over the 10 reps is at most 0.0086, and the
    # RMS standard error of the 18 per-target means is about 0.0015. Rerunning moves the
    # means by about that RMS standard error, and so, by the triangle inequality, moves an
    # RMSE against a fixed curve by no more. Each half must therefore be nearer one curve than
    # the other by more than 2 x 3 RMS standard errors, taken from the run's own spread; and
    # every session-reset mean must lie 3 standard errors below its target.
    targets = np.array(DIFFICULTY_TARGETS)
    found = {}
    for mechanism in ("session_reset", "repeat_last"):
        rows = run_difficulty_sweep(mechanism, methods=("epl",)).rows
        means = np.array([r.mean for r in rows])
        errors = np.array([r.std / math.sqrt(r.rep_count) for r in rows])
        found[mechanism] = (means, errors, rmse(means, targets), rmse(means, targets**2),
                            3 * math.sqrt(np.mean(errors**2)))
    means, errors, to_target, to_square, margin = found["session_reset"]
    session_ok = to_target - to_square > 2 * margin and (means + 3 * errors < targets).all()
    means, errors, repeat_to_target, repeat_to_square, repeat_margin = found["repeat_last"]
    repeat_ok = repeat_to_square - repeat_to_target > 2 * repeat_margin
    verdict = "confirmed" if session_ok and repeat_ok else "UNCONFIRMED"
    with capsys.disabled():
        print(f"criterion 4 explanation {verdict}: epl rmse vs target, target^2: "
              f"session_reset {to_target:.4f}, {to_square:.4f}; "
              f"repeat_last {repeat_to_target:.4f}, {repeat_to_square:.4f}")
    assert session_ok, found["session_reset"]
    assert repeat_ok, found["repeat_last"]
