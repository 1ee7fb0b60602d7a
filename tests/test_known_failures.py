"""Why two acceptance criteria fail: each explanation in the README, pinned as a passing test.

test_acceptance.py keeps criteria 5(c) and 9 as they are, failing. These tests check the
explanation for each instead, so an estimator change that breaks the explanation shows up
here. Every tolerance is three standard errors of the quantity it bounds, with the standard
error taken from that quantity's own spread over seeds or users, as measured and stated below.
"""

import math

import numpy as np

from predlim.entropy import lz_entropies, perm_entropies
from predlim.evaluation import N_GRID, _rep_seed
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
