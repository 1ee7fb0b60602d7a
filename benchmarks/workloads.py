"""The benchmark's three workloads: inputs made from the seed, the timed steps
and the checks of the program's outputs.

Each workload owns a work directory inside the checkout. set_up() makes the
inputs there; steps() lists the timed steps, each a CLI command (or, for
synth-sweeps, the sweep process) that the runner starts in its own process or
calls in-process; check() verifies what the steps wrote.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass

import numpy as np

import checks
from checks import LN2, Failures

MIN_LENGTH = 5  # ingest --min-length on the fixture
SAMPEN_M = 2
PERM_DS = (3, 4, 5)
METHODS = ["epl", "fano", "fano_nr", "perm"]


@dataclass(frozen=True)
class Step:
    key: str  # names the step's output
    command: str  # CLI subcommand, or "sweeps"
    argv: tuple[str, ...]  # predlim's CLI arguments, or the sweep process's
    ops: int = 1  # operations the step attempts


class Workload:
    name = ""

    def __init__(self, work: str, seed: int) -> None:
        self.work = work
        self.seed = seed
        shutil.rmtree(work, ignore_errors=True)  # no output of an earlier run survives
        os.makedirs(work)

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)

    def set_up(self) -> None:
        raise NotImplementedError

    def count_events(self) -> int:
        """Events the timed steps process, for events_per_s."""
        raise NotImplementedError

    def steps(self) -> list[Step]:
        raise NotImplementedError

    def check(self, f: Failures, done: set[str]) -> dict:
        """Check the outputs of the steps in done; return reference figures."""
        raise NotImplementedError

    def digest(self) -> str:
        """Hash of every output, to compare rounds that must agree exactly."""
        h = hashlib.sha256()
        for name in sorted(os.listdir(self.work)):
            full = self.path(name)
            paths = [os.path.join(full, n) for n in sorted(os.listdir(full))] if os.path.isdir(full) else [full]
            for p in paths:
                if not p.endswith(".out"):  # the steps' own console output
                    with open(p, "rb") as fh:
                        h.update(fh.read())
        return h.hexdigest()


def _sample(seed: int, population: int, size: int) -> list[int]:
    rng = np.random.default_rng([seed, 99])
    return sorted(rng.choice(population, size=min(size, population), replace=False).tolist())


def _entropy_nats(path: str) -> dict[int, float]:
    return {u: float(r["value"]) for u, r in checks.by_user(checks.read_rows(path)).items()}


def check_entropy(f: Failures, path: str, estimator: str, users: int, expected: dict) -> None:
    """One row per user in nats; expected maps sampled users to (value, flags)."""
    rows = checks.by_user(checks.read_rows(path))
    f.expect(sorted(rows) == list(range(users)), f"{path}: not one row per user")
    for u, (value, flags) in expected.items():
        row = rows.get(u, {})
        f.expect(row.get("estimator") == estimator and row.get("unit") == "nats",
                 f"{path}: user {u} row {row}")
        f.close(f"{path} user {u}", float(row.get("value", "nan")), value)
        f.expect(row.get("flags") == ";".join(flags), f"{path}: user {u} flags {row.get('flags')!r}")


def check_scores(f: Failures, path: str, method: str, users: int, expected: dict,
                 n_used: dict | None = None, tol: float = 1e-12) -> None:
    """Score rows against expected values (and, for Fano, candidate sizes)."""
    rows = checks.by_user(checks.read_rows(path))
    f.expect(sorted(rows) == list(range(users)), f"{path}: not one row per user")
    bad = 0
    for u, want in expected.items():
        row = rows.get(u, {})
        got = float(row.get("value", "nan"))
        ok = row.get("method") == method and 0.0 < got <= 1.0 and abs(got - want) <= tol
        if n_used is not None:
            ok = ok and row.get("n_used") == str(n_used[u])
        bad += not ok
        if not ok and bad <= 3:
            f.expect(False, f"{path}: user {u} row {row}, want {want!r} n {n_used and n_used[u]}")
    f.expect(bad == 0, f"{path}: {bad} of {len(expected)} checked rows wrong")


def check_fano(f: Failures, path: str, method: str, entropy: dict[int, float],
               n_used: dict[int, int]) -> None:
    users = sorted(entropy)
    s_bits = np.array([entropy[u] / LN2 for u in users])
    pi = checks.fano_ref(s_bits, np.array([n_used[u] for u in users]))
    check_scores(f, path, method, len(users), dict(zip(users, pi.tolist())), n_used, tol=1e-9)


class FixturePipeline(Workload):
    """The 1M-event fixture through the whole CLI chain, one process a command."""

    name = "fixture-pipeline"

    def __init__(self, work, seed, smoke):
        super().__init__(work, seed)
        self.n_events, self.n_users = (20_000, 400) if smoke else (1_000_000, 20_000)

    def set_up(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.users = rng.integers(0, self.n_users, self.n_events)
        self.items = rng.zipf(1.3, self.n_events) % 200_000
        self.ts = rng.integers(0, 10**9, self.n_events)
        with open(self.path("events.csv"), "w", encoding="utf-8") as fh:
            fh.write("user_id,item_id,timestamp\n")
            fh.write("".join(
                f"u{u},i{i},{t}\n"
                for u, i, t in zip(self.users.tolist(), self.items.tolist(), self.ts.tolist())
            ))

    def count_events(self) -> int:
        return int((np.bincount(self.users)[self.users] >= MIN_LENGTH).sum())

    def steps(self) -> list[Step]:
        log, p = self.path("log.json"), self.path
        sampen = p("estimate-sampen.csv")
        steps = [
            Step("ingest", "ingest", ("ingest", "--input", p("events.csv"), "--min-length",
                                      str(MIN_LENGTH), "--output", log)),
            Step("estimate-sampen", "estimate", ("estimate", "--log", log, "--estimator", "sampen",
                                                 "--m", str(SAMPEN_M), "--output", sampen)),
            Step("estimate-lz", "estimate", ("estimate", "--log", log, "--estimator", "lz",
                                             "--output", p("estimate-lz.csv"))),
        ]
        for key, extra in (("score-epl", ("--method", "epl")),
                           ("score-fano", ("--method", "fano")),
                           ("score-fano_nr-pooled", ("--method", "fano_nr", "--n-scope", "pooled")),
                           ("score-fano_nr-per-user", ("--method", "fano_nr", "--n-scope", "per-user"))):
            steps.append(Step(key, "score", ("score", "--log", log, "--entropy", sampen, *extra,
                                             "--output", p(f"{key}.csv"))))
        steps += [
            Step("score-perm", "score", ("score", "--log", log, "--method", "perm",
                                         "--output", p("score-perm.csv"))),
            Step("cohort", "cohort", ("cohort", "--log", log, "--scores", p("score-epl.csv"),
                                      "--dimension", "novelty", "--output", p("cohort.json"))),
            Step("select", "select", ("select", "--log", log, "--scores", p("score-epl.csv"),
                                      "--strategy", "highpi", "--budget", "0.3",
                                      "--seed", str(self.seed), "--output-dir", p("selection"))),
        ]
        return steps

    def check(self, f: Failures, done: set[str]) -> dict:
        if "ingest" not in done:
            return {}
        log = checks.read_log(self.path("log.json"))
        self._check_ingest(f, log)
        seqs = log["sequences"]
        n = len(seqs)
        sample = _sample(self.seed, n, 2000)
        p = self.path
        if "estimate-sampen" in done:
            check_entropy(f, p("estimate-sampen.csv"), "sampen", n,
                          {u: checks.sampen_ref(seqs[u], SAMPEN_M) for u in sample})
        if "estimate-lz" in done:
            check_entropy(f, p("estimate-lz.csv"), "lz", n,
                          {u: (checks.lz_bits_ref(seqs[u]) * LN2, ()) for u in sample})
        if "estimate-sampen" in done:
            entropy = _entropy_nats(p("estimate-sampen.csv"))
            self._check_scores(f, done, seqs, entropy, len(log["items"]))
        if "score-perm" in done:
            check_scores(f, p("score-perm.csv"), "perm", n,
                         {u: checks.perm_score_ref(seqs[u], PERM_DS) for u in sample})
        if "score-epl" in done:
            epl = {u: float(r["value"]) for u, r in
                   checks.by_user(checks.read_rows(p("score-epl.csv"))).items()}
            if "cohort" in done:
                self._check_cohort(f, log, epl)
            if "select" in done:
                self._check_selection(f, log, epl)
        return {}

    def _check_ingest(self, f: Failures, log: dict) -> None:
        exp = checks.expected_log(self.users, self.items, self.ts, MIN_LENGTH)
        stats = log["stats"]
        f.expect(stats["num_users"] == len(exp["user_order"]), f"num_users {stats['num_users']}")
        f.expect(stats["num_items"] == len(exp["item_order"]), f"num_items {stats['num_items']}")
        f.expect(stats["num_interactions"] == len(exp["items_flat"]),
                 f"num_interactions {stats['num_interactions']}")
        f.expect(log["user_ids"] == [f"u{u}" for u in exp["user_order"].tolist()],
                 "user ids or their order differ")
        f.expect(log["items"] == [f"i{i}" for i in exp["item_order"].tolist()],
                 "item vocabulary or its order differs")
        f.expect(log["counts"] == exp["item_counts"].tolist(), "item counts differ")
        lengths = np.array([len(x) for x in log["sequences"]])
        f.expect(np.array_equal(lengths, exp["lengths"]), "user lengths differ")
        flat = exp["item_order"][np.concatenate(log["sequences"])]
        f.expect(np.array_equal(flat, exp["items_flat"]), "user sequences differ from time order")

    def _check_scores(self, f, done, seqs, entropy, n_items) -> None:
        p = self.path
        n = len(seqs)
        if "score-epl" in done:
            check_scores(f, p("score-epl.csv"), "epl", n,
                         {u: math.exp(-s) for u, s in entropy.items()})
            rows = checks.by_user(checks.read_rows(p("score-epl.csv")))
            bad = sum(not math.isclose(float(rows[u]["effective_size"]), math.exp(s), rel_tol=1e-12)
                      for u, s in entropy.items() if u in rows)
            f.expect(bad == 0, f"epl effective_size wrong for {bad} users")
        if "score-fano" in done:
            check_fano(f, p("score-fano.csv"), "fano", entropy, {u: n_items for u in entropy})
        if "score-fano_nr-pooled" in done:
            pooled = max(checks.fanout_pooled(seqs), 2)
            check_fano(f, p("score-fano_nr-pooled.csv"), "fano_nr", entropy,
                       {u: pooled for u in entropy})
        if "score-fano_nr-per-user" in done:
            check_fano(f, p("score-fano_nr-per-user.csv"), "fano_nr", entropy,
                       {u: max(checks.fanout_per_user(seqs[u]), 2) for u in entropy})

    def _check_cohort(self, f: Failures, log: dict, epl: dict[int, float]) -> None:
        with open(self.path("cohort.json"), encoding="utf-8") as fh:
            report = json.load(fh)
        q1, q2 = report["groups"]
        f.expect(abs(q1["user_count"] - q2["user_count"]) <= 1, "cohort sizes differ by more than 1")
        users1 = [u for u, _ in q1["per_user_scores"]]
        users2 = [u for u, _ in q2["per_user_scores"]]
        f.expect(sorted(users1 + users2) == sorted(epl), "cohort groups do not partition the users")
        for g in (q1, q2):
            f.expect(g["user_count"] == len(g["per_user_scores"]), f"{g['label']}: user_count")
            f.expect(all(epl.get(u) == v for u, v in g["per_user_scores"]),
                     f"{g['label']}: scores differ from the score CSV")
            values = [epl[u] for u, _ in g["per_user_scores"]]
            f.close(f"{g['label']} mean", g["mean_predictability"], math.fsum(values) / len(values))
        counts = np.asarray(log["counts"], dtype=float)
        surprise = -np.log(counts / counts.sum())
        novelty = {u: float(surprise[x].mean()) for u, x in enumerate(log["sequences"])}
        f.expect(max(novelty[u] for u in users1) <= min(novelty[u] for u in users2) + 1e-12,
                 "Q1 is not the lower-novelty half")

    def _check_selection(self, f: Failures, log: dict, scores: dict[int, float]) -> None:
        sel = self.path("selection")
        with open(os.path.join(sel, "plan.json"), encoding="utf-8") as fh:
            plan = json.load(fh)
        seqs = log["sequences"]
        eligible = {u for u, x in enumerate(seqs) if len(x) >= max(MIN_LENGTH, 2)}
        evals, cands, chosen = (set(plan[k]) for k in ("eval_users", "candidate_users", "selected"))
        f.expect(not evals & cands and evals | cands == eligible,
                 "eval and candidate users do not partition the eligible users")
        f.expect(len(evals) == min(max(round(0.5 * len(eligible)), 1), len(eligible) - 1),
                 f"eval pool size {len(evals)}")
        k = round(0.3 * len(cands))
        top = sorted(cands, key=lambda u: (scores[u], u))[len(cands) - k:]
        f.expect(len(chosen) == k and chosen == set(top),
                 "selected users are not the top candidates by (score, index)")
        test = checks.read_rows(os.path.join(sel, "test.csv"))
        ids = log["user_ids"]
        want = sorted((ids[u], log["items"][int(seqs[u][-1])], str(len(seqs[u]) - 1)) for u in evals)
        got = sorted((r["user_id"], r["item_id"], r["timestamp"]) for r in test)
        f.expect(got == want, "test rows are not each eval user's final item")
        train = checks.read_rows(os.path.join(sel, "train.csv"))
        f.expect(len(train) == sum(len(seqs[u]) - 1 for u in evals)
                 + sum(len(seqs[u]) for u in chosen - evals),
                 f"train has {len(train)} rows")


class LongSequences(Workload):
    """A few users with tens of thousands of events each, from session_reset."""

    name = "long-sequences"
    N_ITEMS, SET_SIZE, RHO, TARGET = 10_000, 3, 0.02, 0.2

    def __init__(self, work, seed, smoke):
        super().__init__(work, seed)
        self.n_users, self.length = (3, 3_000) if smoke else (8, 50_000)

    def set_up(self) -> None:
        from predlim import sequence_core, synth

        eps = synth.invert_noise("session_reset", self.TARGET, n=self.N_ITEMS, m=self.SET_SIZE)
        config = synth.GeneratorConfig(
            mechanism="session_reset", n=self.N_ITEMS, users=self.n_users, length=self.length,
            seed=self.seed, params={"m": self.SET_SIZE, "rho": self.RHO, "eps": eps},
        )
        corpus = synth.generate(config)
        sequence_core.log_to_json(corpus.log, self.path("log.json"))

    def count_events(self) -> int:
        return self.n_users * self.length

    def steps(self) -> list[Step]:
        log, p = self.path("log.json"), self.path
        steps = [
            Step(f"estimate-{e}", "estimate", ("estimate", "--log", log, "--estimator", e,
                                               "--output", p(f"estimate-{e}.csv")))
            for e in ("sampen", "lz", "perm")
        ]
        sampen = p("estimate-sampen.csv")
        steps += [
            Step("score-epl", "score", ("score", "--log", log, "--entropy", sampen,
                                        "--method", "epl", "--output", p("score-epl.csv"))),
            Step("score-fano_nr-per-user", "score",
                 ("score", "--log", log, "--entropy", sampen, "--method", "fano_nr",
                  "--n-scope", "per-user", "--output", p("score-fano_nr-per-user.csv"))),
            Step("score-perm", "score", ("score", "--log", log, "--method", "perm",
                                         "--output", p("score-perm.csv"))),
        ]
        return steps

    def check(self, f: Failures, done: set[str]) -> dict:
        log = checks.read_log(self.path("log.json"))
        seqs = log["sequences"]
        f.expect(len(seqs) == self.n_users and all(len(x) == self.length for x in seqs),
                 "generated log has the wrong shape")
        f.expect(len(log["items"]) == self.N_ITEMS, "vocabulary is not the generator's item space")
        n = len(seqs)
        p = self.path
        if "estimate-sampen" in done:
            check_entropy(f, p("estimate-sampen.csv"), "sampen", n,
                          {u: checks.sampen_ref(x, SAMPEN_M) for u, x in enumerate(seqs)})
        if "estimate-lz" in done:
            # the str.find scan is quadratic in the worst case: one user per run
            u = _sample(self.seed, n, 1)[0]
            check_entropy(f, p("estimate-lz.csv"), "lz", n,
                          {u: (checks.lz_bits_ref(seqs[u]) * LN2, ())})
        perm = {u: {d: checks.perm_ref(x, d) for d in PERM_DS} for u, x in enumerate(seqs)}
        if "estimate-perm" in done:
            rows = checks.read_rows(p("estimate-perm.csv"))
            got = sorted((int(r["user_index"]), r["flags"], float(r["value"])) for r in rows)
            want = sorted((u, f"d={d}", v) for u, by_d in perm.items()
                          for d, v in by_d.items() if v is not None)
            f.expect(len(got) == len(want) and all(
                g[:2] == w[:2] and abs(g[2] - w[2]) <= 1e-12 for g, w in zip(got, want)
            ), "perm estimates differ from ordinal-pattern counts")
        if "estimate-sampen" in done:
            entropy = _entropy_nats(p("estimate-sampen.csv"))
            if "score-epl" in done:
                check_scores(f, p("score-epl.csv"), "epl", n,
                             {u: math.exp(-s) for u, s in entropy.items()})
            if "score-fano_nr-per-user" in done:
                check_fano(f, p("score-fano_nr-per-user.csv"), "fano_nr", entropy,
                           {u: max(checks.fanout_per_user(seqs[u]), 2) for u in entropy})
        if "score-perm" in done:
            want = {u: 1.0 - min(v for v in by_d.values() if v is not None) for u, by_d in perm.items()}
            check_scores(f, p("score-perm.csv"), "perm", n, want)
        return {}


class SynthSweeps(Workload):
    """Reduced criterion-4 and criterion-5 sweeps in one process, no file I/O."""

    name = "synth-sweeps"

    def __init__(self, work, seed, smoke):
        super().__init__(work, seed)
        users, reps_d, reps_n = (100, 1, 2) if smoke else (300, 2, 4)
        common = {"users": users, "length": 200, "seed": seed}
        # Decade gaps from N = 100 keep "fano increases with N" far above the
        # corpus-to-corpus noise of reps_n repetitions.
        self.plan = {"sweeps": [
            {"kind": "difficulty", "kwargs": {"mechanism": mech, "targets": [0.1, 0.5, 0.9],
                                              "reps": reps_d, "n": 10_000, "rho": 0.05,
                                              "m_latent": 1, **common}}
            for mech in ("repeat_last", "session_reset")
        ] + [{"kind": "n", "kwargs": {"n_grid": [100, 10_000, 100_000], "reps": reps_n,
                                      "target_hit1": 0.10, "c": 5, "m_c": 5, "s": 0.05,
                                      **common}}]}

    def count_events(self) -> int:
        return sum(
            len(kw.get("targets", kw.get("n_grid"))) * kw["reps"] * kw["users"] * kw["length"]
            for kw in (s["kwargs"] for s in self.plan["sweeps"])
        )

    def set_up(self) -> None:
        """What the sweep process pays before its first corpus: start and import."""
        with open(self.path("plan-sweeps.json"), "w", encoding="utf-8") as fh:
            json.dump(self.plan, fh)
        subprocess.run([sys.executable, "-c", "import predlim.evaluation"], check=True)

    def steps(self) -> list[Step]:
        return [Step("sweeps", "sweeps", (self.path("plan-sweeps.json"), self.path("sweeps.json")),
                     ops=len(self.plan["sweeps"]))]

    def digest(self) -> str:
        with open(self.path("sweeps.json"), encoding="utf-8") as fh:
            results = json.load(fh)["results"]
        for r in results:
            r.pop("seconds")
        return hashlib.sha256(json.dumps(results, sort_keys=True).encode()).hexdigest()

    def check(self, f: Failures, done: set[str]) -> dict:
        if "sweeps" not in done:
            return {}
        with open(self.path("sweeps.json"), encoding="utf-8") as fh:
            results = json.load(fh)["results"]
        methods = METHODS
        by_name = {}
        for r in results:
            kw = r["kwargs"]
            grid = kw.get("targets", kw.get("n_grid"))
            f.expect([(row["grid_value"], row["method"]) for row in r["rows"]]
                     == [(float(g), m) for g in grid for m in methods], f"{r['kind']} sweep rows")
            f.expect(all(row["rep_count"] == kw["reps"] for row in r["rows"]), "rep counts")
            f.expect(all(0.0 < row["mean"] <= 1.0 for row in r["rows"]), "a mean outside (0, 1]")
            means = {m: [row["mean"] for row in r["rows"] if row["method"] == m] for m in methods}
            self._check_first_point(f, r["kind"], kw, means)
            if r["kind"] == "difficulty":
                for m in methods:
                    f.close(f"{kw['mechanism']} rmse {m}", r["rmse_by_method"][m],
                            checks.rmse_ref(means[m], grid))
            by_name[kw.get("mechanism", "n")] = (r, means)
        figures = {}
        if "repeat_last" in by_name:
            rmse = by_name["repeat_last"][0]["rmse_by_method"]
            f.expect(rmse["epl"] <= 0.10 and rmse["epl"] < min(rmse["fano"], rmse["fano_nr"], rmse["perm"]),
                     f"criterion 4 repeat_last: {rmse}")
        if "n" in by_name:
            means = by_name["n"][1]
            fano, epl = means["fano"], means["epl"]
            f.expect(all(b > a for a, b in zip(fano, fano[1:])), f"fano not increasing in N: {fano}")
            f.expect(max(epl) - min(epl) < 0.05, f"epl spread over N: {epl}")
            figures["criterion_5c_perm_max"] = max(means["perm"])  # gate 0.05, fails today
        if "session_reset" in by_name:
            # criterion 4's session_reset half (epl <= 0.15, epl < fano_nr < fano) fails today
            figures["criterion_4_session_reset_rmse"] = by_name["session_reset"][0]["rmse_by_method"]
        return figures

    def _check_first_point(self, f: Failures, kind: str, kw: dict, means: dict) -> None:
        """Recompute a sweep's first grid point from its regenerated corpora.

        The noise parameter comes from the oracle closed form, the corpus seeds
        from the sweeps' (seed, grid index, rep) substreams, and each score from
        checks.py; only the generator is the program's.
        """
        from predlim import synth

        if kind == "difficulty":
            mech, n, target = kw["mechanism"], kw["n"], kw["targets"][0]
        else:
            mech, n, target = "context_switch", kw["n_grid"][0], kw["target_hit1"]
        if mech == "repeat_last":
            params = {"p": (target - 1 / n) / (1 - 1 / n)}
        elif mech == "session_reset":
            m = kw["m_latent"]
            params = {"m": m, "rho": kw["rho"], "eps": (1 / m - target) / (1 / m - 1 / n)}
        else:
            params = {"c": kw["c"], "m_c": kw["m_c"], "s": kw["s"],
                      "eps": (1 / kw["m_c"] - target) / (1 / kw["m_c"] - 1 / n)}
        per_rep = {m: [] for m in METHODS}
        for rep in range(kw["reps"]):
            seed = int(np.random.SeedSequence([kw["seed"], 0, rep]).generate_state(1, np.uint64)[0])
            corpus = synth.generate(synth.GeneratorConfig(
                mechanism=mech, n=n, users=kw["users"], length=kw["length"], seed=seed, params=params))
            seqs = [s.items for s in corpus.log.sequences]
            s_nats = np.array([checks.sampen_ref(x, SAMPEN_M)[0] for x in seqs])
            size = np.full(len(seqs), n)
            pooled = np.full(len(seqs), max(checks.fanout_pooled(seqs), 2))
            per_rep["epl"].append(np.mean(np.exp(-s_nats)))
            per_rep["fano"].append(np.mean(checks.fano_ref(s_nats / LN2, size)))
            per_rep["fano_nr"].append(np.mean(checks.fano_ref(s_nats / LN2, pooled)))
            per_rep["perm"].append(np.mean([checks.perm_score_ref(x, PERM_DS) for x in seqs]))
        for m in METHODS:
            f.close(f"{mech} sweep, first grid point, {m}", means[m][0],
                    float(np.mean(per_rep[m])), rel=1e-9)


WORKLOADS = {w.name: w for w in (FixturePipeline, LongSequences, SynthSweeps)}

