"""End-to-end acceptance suite.

Each test checks one release criterion at full scale, prints a single
"criterion N: PASS/FAIL - ..." verdict line (bypassing capture so it always
reaches the terminal), and then asserts the gates. A failing criterion shows
up both in its verdict line and as an ordinary pytest failure.
"""

import math
import time

import numpy as np
import pytest

from predlim.entropy import (
    Entropies,
    lz_entropy,
    perm_entropy,
    plugin_entropy,
    sampen,
)
from predlim.evaluation import (
    consistency_report,
    load_reference,
    rmse,
    run_difficulty_sweep,
    run_n_sweep,
    spearman,
)
from predlim.predictability import fano_forward, fano_invert
from predlim.selection import STRATEGIES, build_plan, materialize, write_selection_csv
from predlim.sequence_core import log_from_sequences
from predlim.synth import GeneratorConfig, generate, simulate_oracle


def verdict(capsys, number: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}")


def bits_estimate(value: float) -> Entropies:
    return Entropies(np.array([value]), "bits", "plugin", np.array([""]))


def test_criterion_01_entropy_lower_bound(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240901)
    violations = 0
    worst_slack = 0.0
    worst_uniform_gap = 0.0
    uniform_draws = 0
    for i in range(10_000):
        k = int(rng.integers(2, 1001))
        kind = i % 3
        if kind == 0:
            probs = rng.dirichlet(np.ones(k))
        elif kind == 1:
            probs = rng.dirichlet(np.full(k, 0.1))
        else:
            probs = np.full(k, 1.0 / k)
        bound = math.exp(-plugin_entropy(probs).value[0])
        slack = bound - probs.max()
        worst_slack = max(worst_slack, slack)
        if slack > 1e-12:
            violations += 1
        if kind == 2:
            uniform_draws += 1
            worst_uniform_gap = max(worst_uniform_gap, abs(bound - probs.max()))
    elapsed = time.perf_counter() - t0

    ok = violations == 0 and worst_uniform_gap <= 1e-9 and elapsed < 5.0
    verdict(
        capsys, 1, ok,
        f"10000 distributions, {violations} bound violations "
        f"(worst slack {worst_slack:.2e}), uniform gap {worst_uniform_gap:.2e} "
        f"over {uniform_draws} uniforms, {elapsed:.2f}s",
    )
    assert violations == 0
    assert worst_uniform_gap <= 1e-9
    assert elapsed < 5.0


def test_criterion_02_fano_round_trip(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(1_000):
        n = int(round(10 ** rng.uniform(math.log10(3.0), 6.0)))
        n = min(max(n, 3), 10**6)
        lo = 1.0 / n
        pi = lo + (1.0 - lo) * rng.uniform(1e-9, 1.0 - 1e-9)
        back = fano_invert(bits_estimate(fano_forward(pi, n)), n).value[0]
        worst = max(worst, abs(back - pi))
    endpoints_exact = True
    for n in (3, 7, 100, 4096, 10**6):
        endpoints_exact &= fano_invert(bits_estimate(0.0), n).value[0] == 1.0
        endpoints_exact &= fano_invert(bits_estimate(math.log2(n)), n).value[0] == 1.0 / n
    elapsed = time.perf_counter() - t0

    ok = worst <= 1e-8 and endpoints_exact and elapsed < 2.0
    verdict(
        capsys, 2, ok,
        f"1000 round-trips, worst error {worst:.2e}, "
        f"endpoints exact {endpoints_exact}, {elapsed:.2f}s",
    )
    assert worst <= 1e-8
    assert endpoints_exact
    assert elapsed < 2.0


def test_criterion_03_oracle_closed_forms(capsys):
    t0 = time.perf_counter()
    mechanisms = {
        "session_reset": {"n": 1000, "params": {"m": 1, "rho": 0.05, "eps": 0.4}},
        "repeat_last": {"n": 1000, "params": {"p": 0.5}},
        "context_switch": {"n": 100, "params": {"c": 5, "m_c": 5, "s": 0.05, "eps": 0.5}},
    }
    users, length = 300, 200
    predictions = users * (length - 1)
    details = []
    all_ok = True
    for mechanism, setup in mechanisms.items():
        hits = 0
        for seed in range(10):
            config = GeneratorConfig(
                mechanism=mechanism, n=setup["n"], users=users, length=length,
                seed=seed, params=setup["params"],
            )
            corpus = generate(config)
            h = corpus.oracle_hit1
            se = math.sqrt(h * (1.0 - h) / predictions)
            if abs(simulate_oracle(corpus) - h) <= 3.0 * se:
                hits += 1
        details.append(f"{mechanism} {hits}/10")
        all_ok &= hits >= 9
    elapsed = time.perf_counter() - t0

    ok = all_ok and elapsed < 30.0
    verdict(capsys, 3, ok, f"within 3 SE: {', '.join(details)}, {elapsed:.1f}s")
    assert all_ok, details
    assert elapsed < 30.0


def test_criterion_04_difficulty_sweep(capsys):
    t0 = time.perf_counter()
    repeat = run_difficulty_sweep("repeat_last").rmse_by_method
    session = run_difficulty_sweep("session_reset").rmse_by_method
    elapsed = time.perf_counter() - t0

    repeat_ok = (
        repeat["epl"] < min(repeat["fano"], repeat["fano_nr"], repeat["perm"])
        and repeat["epl"] <= 0.10
    )
    session_ok = (
        session["epl"] < session["fano_nr"] < session["fano"]
        and session["epl"] <= 0.15
    )
    ok = repeat_ok and session_ok and elapsed < 300.0
    verdict(
        capsys, 4, ok,
        f"repeat_last rmse epl {repeat['epl']:.3f} vs fano {repeat['fano']:.3f} "
        f"fano_nr {repeat['fano_nr']:.3f} perm {repeat['perm']:.3f} "
        f"[{'ok' if repeat_ok else 'fail'}]; "
        f"session_reset rmse epl {session['epl']:.3f} vs fano {session['fano']:.3f} "
        f"fano_nr {session['fano_nr']:.3f} perm {session['perm']:.3f} "
        f"[{'ok' if session_ok else 'fail'}]; {elapsed:.0f}s",
    )
    assert repeat_ok, repeat
    assert session_ok, session
    assert elapsed < 300.0


def test_criterion_05_item_space_sweep(capsys):
    t0 = time.perf_counter()
    table = run_n_sweep()
    elapsed = time.perf_counter() - t0

    epl_means, fano_means, perm_means = (
        [r.mean for r in table.rows if r.method == meth] for meth in ("epl", "fano", "perm"))

    epl_spread = max(epl_means) - min(epl_means)
    flat_ok = epl_spread < 0.05
    increasing = all(b > a for a, b in zip(fano_means, fano_means[1:]))
    top_fano = next(r.mean for r in table.rows if r.method == "fano" and r.grid_value == 100_000)
    fano_ok = increasing and top_fano > 0.10
    perm_ok = max(perm_means) < 0.05
    ok = flat_ok and fano_ok and perm_ok and elapsed < 300.0
    verdict(
        capsys, 5, ok,
        f"epl spread {epl_spread:.4f} [{'ok' if flat_ok else 'fail'}]; "
        f"fano increasing {increasing}, at N=1e5 {top_fano:.3f} "
        f"[{'ok' if fano_ok else 'fail'}]; "
        f"perm max {max(perm_means):.4f} [{'ok' if perm_ok else 'fail'}]; {elapsed:.0f}s",
    )
    assert flat_ok, epl_means
    assert fano_ok, fano_means
    assert perm_ok, perm_means
    assert elapsed < 300.0


def test_criterion_06_fano_n_monotonicity(capsys):
    t0 = time.perf_counter()
    decades = [10, 100, 1_000, 10_000, 100_000, 1_000_000]
    all_increasing = True
    for s_bits in (3.0, 4.0, 5.0):
        values = [fano_invert(bits_estimate(s_bits), n).value[0] for n in decades]
        all_increasing &= all(b > a for a, b in zip(values, values[1:]))
    elapsed = time.perf_counter() - t0

    ok = all_increasing and elapsed < 1.0
    verdict(
        capsys, 6, ok,
        f"strictly increasing over N decades for S in 3,4,5 bits: "
        f"{all_increasing}, {elapsed:.3f}s",
    )
    assert all_increasing
    assert elapsed < 1.0


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
    return math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)) / len(a))


def test_criterion_07_statistics_oracles(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    spearman_checked = 0
    worst_s = 0.0
    worst_r = 0.0
    while spearman_checked < 1_000:
        n = int(rng.integers(2, 13))
        a = rng.integers(0, 6, size=n).astype(float)
        b = rng.integers(0, 6, size=n).astype(float)
        worst_r = max(worst_r, abs(rmse(a, b) - brute_rmse(a, b)))
        if len(set(a)) < 2 or len(set(b)) < 2:
            continue
        worst_s = max(worst_s, abs(spearman(a, b) - brute_spearman(a, b)))
        spearman_checked += 1
    exact_case = spearman([1, 2, 3, 4], [1, 3, 2, 4]) == 0.8
    elapsed = time.perf_counter() - t0

    ok = worst_s <= 1e-12 and worst_r <= 1e-12 and exact_case
    verdict(
        capsys, 7, ok,
        f"1000 vectors: spearman err {worst_s:.2e}, rmse err {worst_r:.2e}, "
        f"0.8 case exact {exact_case}, {elapsed:.2f}s",
    )
    assert worst_s <= 1e-12
    assert worst_r <= 1e-12
    assert exact_case


TABLE_EXPECTED = {
    "AOTM": ("SASRec", 0.0000, 0.1485),
    "Delicious": ("BERT4Rec", 0.0000, 0.0217),
    "Online Retail": ("SASRec", 0.0271, 0.3254),
    "Personality": ("SHAN", 0.0000, 0.1818),
    "LastFM": ("FOSSIL", 0.0926, 0.2534),
    "TaFeng": ("FOSSIL", 0.0090, 0.1317),
    "MovieLens-100K": ("LightSANs", 0.0180, 0.2460),
    "MovieLens-1M": ("GRU4Rec", 0.0677, 0.3874),
    "MovieLens-20M": ("GRU4Rec", 0.0482, 0.2867),
    "Algebra": ("BERT4Rec", 0.4146, 0.7317),
    "Bridge": ("GRU4Rec", 0.4546, 0.6798),
}


def test_criterion_08_reference_consistency(capsys):
    ref = load_reference()
    round_trip = set(ref) == set(TABLE_EXPECTED) and all(
        ref[k]["best_model"] == model
        and ref[k]["hit1"] == hit1
        and ref[k]["hit20"] == hit20
        for k, (model, hit1, hit20) in TABLE_EXPECTED.items()
    )

    ids = ["AOTM", "Online Retail", "LastFM", "MovieLens-1M", "Bridge"]
    supplied = [0.12, 0.29, 0.34, 0.41, 0.66]
    accuracies = [ref[d]["hit20"] for d in ids]
    report = consistency_report("epl", ids, supplied, accuracies)
    rho_err = abs(report["spearman_rho"] - brute_spearman(supplied, accuracies))
    rmse_err = abs(report["rmse"] - brute_rmse(supplied, accuracies))

    ok = round_trip and rho_err <= 1e-12 and rmse_err <= 1e-12
    verdict(
        capsys, 8, ok,
        f"reference round-trip {round_trip}, report rho err {rho_err:.2e}, "
        f"rmse err {rmse_err:.2e} (rho {report['spearman_rho']:.3f})",
    )
    assert round_trip
    assert rho_err <= 1e-12
    assert rmse_err <= 1e-12


def test_criterion_09_estimator_sanity(capsys):
    t0 = time.perf_counter()
    constant_zero = sampen(np.zeros(500, dtype=np.int64)).value[0] == 0.0

    lz_values = []
    perm_values = []
    for seed in range(10):
        rng = np.random.default_rng(seed)
        x = rng.integers(0, 256, size=10_000)
        lz_values += lz_entropy(x).value.tolist()
        perm_values.append(perm_entropy(rng.integers(0, 100_000, size=10_000), d=3))
    lz_in_range = all(7.5 <= v <= 8.5 for v in lz_values)
    perm_ok = all(v >= 0.99 for v in perm_values)

    rng = np.random.default_rng(99)
    x = rng.integers(0, 40, size=600)
    bijection = rng.permutation(40)
    relabeled = bijection[x]
    monotone = 3 * x + 7
    relabel_ok = (
        sampen(x).value[0] == sampen(relabeled).value[0]
        and lz_entropy(x).value[0] == lz_entropy(relabeled).value[0]
        and perm_entropy(x, d=3) == perm_entropy(monotone, d=3)
    )
    elapsed = time.perf_counter() - t0

    lz_mean = sum(lz_values) / len(lz_values)
    ok = constant_zero and lz_in_range and perm_ok and relabel_ok and elapsed < 30.0
    verdict(
        capsys, 9, ok,
        f"sampen(const)==0 {constant_zero}; lz iid-256 mean {lz_mean:.3f} bits "
        f"in [7.5,8.5] {lz_in_range}; perm iid min {min(perm_values):.4f} "
        f">=0.99 {perm_ok}; relabel invariant {relabel_ok}; {elapsed:.1f}s",
    )
    assert constant_zero
    assert lz_in_range, lz_values
    assert perm_ok, perm_values
    assert relabel_ok
    assert elapsed < 30.0


def test_criterion_10_selection_protocol(capsys, tmp_path):
    t0 = time.perf_counter()
    rng = np.random.default_rng(12)
    seqs = [rng.integers(0, 30, size=int(rng.integers(6, 14))) for _ in range(40)]
    log = log_from_sequences(seqs, n_items=30)
    scores = rng.random(log.num_users)

    all_ok = True
    notes = []
    for budget in (0.1, 0.3, 0.5):
        plans = {
            s: build_plan(log, scores, budget_fraction=budget, strategy=s, seed=5)
            for s in STRATEGIES
        }
        blobs = set()
        counts = set()
        for strategy, plan in plans.items():
            _, test_rows = materialize(plan, log)
            path = tmp_path / f"test_{budget}_{strategy}.csv"
            write_selection_csv(test_rows, str(path))
            blobs.add(path.read_bytes())
            counts.add(len(plan["selected"]))
        identical = len(blobs) == 1
        equal_counts = len(counts) == 1
        k = len(plans["high_pi"]["selected"])
        pool = len(plans["high_pi"]["candidate_users"])
        high = set(map(int, plans["high_pi"]["selected"]))
        low = set(map(int, plans["low_pi"]["selected"]))
        disjoint = (not high & low) if 2 * k <= pool else True
        all_ok &= identical and equal_counts and disjoint
        notes.append(
            f"budget {budget}: identical {identical}, k {counts}, disjoint {disjoint}"
        )
    elapsed = time.perf_counter() - t0

    ok = all_ok and elapsed < 5.0
    verdict(capsys, 10, ok, f"{'; '.join(notes)}; {elapsed:.2f}s")
    assert all_ok, notes
    assert elapsed < 5.0
