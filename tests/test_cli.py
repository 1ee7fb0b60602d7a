import csv
import json
import subprocess
import sys

from predlim.cli import main
from predlim.sequence_core import log_from_json


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_raw_csv(path):
    rows = [
        ("alice", "apple", 5),
        ("alice", "pear", 6),
        ("alice", "apple", 7),
        ("alice", "plum", 8),
        ("alice", "pear", 9),
        ("bob", "pear", 1),
        ("bob", "pear", 2),
        ("bob", "apple", 3),
        ("bob", "plum", 4),
        ("bob", "apple", 5),
        ("carol", "plum", 2),
        ("carol", "apple", 4),
        ("carol", "plum", 6),
        ("carol", "pear", 8),
        ("carol", "plum", 10),
    ]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["user_id", "item_id", "timestamp"])
        writer.writerows(rows)


def test_ingest_reports_stats_and_writes_log(tmp_path, capsys):
    raw = tmp_path / "raw.csv"
    write_raw_csv(raw)
    out = tmp_path / "log.json"
    code, stdout, _ = run_cli(capsys, "ingest", "--input", str(raw), "--output", str(out))
    assert code == 0
    assert "3 users, 3 items, 15 interactions" in stdout
    log = log_from_json(str(out))
    # user order follows first appearance in timestamp-sorted order
    assert [s.user_id for s in log.sequences] == ["bob", "carol", "alice"]


def test_ingest_malformed_header_fails_cleanly(tmp_path, capsys):
    raw = tmp_path / "bad.csv"
    raw.write_text("user,item,when\na,b,1\n")
    code, _, stderr = run_cli(
        capsys, "ingest", "--input", str(raw), "--output", str(tmp_path / "log.json")
    )
    assert code == 1
    assert stderr.startswith("error:")


def test_synth_requires_exactly_one_noise_setting(tmp_path, capsys):
    base = [
        "synth", "--mechanism", "repeat-last", "--n", "20", "--users", "4",
        "--length", "30", "--output", str(tmp_path / "c"),
    ]
    code, _, stderr = run_cli(capsys, *base, "--target-hit1", "0.3", "--p", "0.2")
    assert code == 1 and "exactly one" in stderr
    code, _, stderr = run_cli(capsys, *base)
    assert code == 1 and "exactly one" in stderr


def test_full_pipeline_on_synthetic_corpus(tmp_path, capsys):
    corpus_dir = tmp_path / "corpus"
    code, stdout, _ = run_cli(
        capsys, "synth", "--mechanism", "repeat-last", "--n", "50", "--users", "8",
        "--length", "40", "--seed", "3", "--target-hit1", "0.3",
        "--output", str(corpus_dir),
    )
    assert code == 0
    assert "oracle hit@1" in stdout
    oracle = json.loads((corpus_dir / "oracle.json").read_text())
    assert abs(oracle["oracle_hit1"] - 0.3) < 1e-12
    assert (corpus_dir / "latent.json").exists()
    log_path = corpus_dir / "log.json"
    log = log_from_json(str(log_path))
    assert len(log.sequences) == 8

    est_path = tmp_path / "entropy.csv"
    code, _, _ = run_cli(
        capsys, "estimate", "--log", str(log_path), "--estimator", "sampen",
        "--output", str(est_path),
    )
    assert code == 0
    with open(est_path, newline="") as fh:
        est_rows = list(csv.DictReader(fh))
    assert len(est_rows) == 8
    assert est_rows[0]["estimator"] == "sampen"
    assert est_rows[0]["unit"] == "nats"

    scores_path = tmp_path / "scores.csv"
    code, _, _ = run_cli(
        capsys, "score", "--log", str(log_path), "--entropy", str(est_path),
        "--method", "epl", "--output", str(scores_path),
    )
    assert code == 0
    with open(scores_path, newline="") as fh:
        score_rows = list(csv.DictReader(fh))
    assert len(score_rows) == 8
    for row in score_rows:
        assert row["method"] == "epl"
        assert 0.0 < float(row["value"]) <= 1.0
        assert float(row["effective_size"]) >= 1.0

    cohort_path = tmp_path / "cohort.json"
    code, stdout, _ = run_cli(
        capsys, "cohort", "--log", str(log_path), "--scores", str(scores_path),
        "--dimension", "novelty", "--output", str(cohort_path),
    )
    assert code == 0
    payload = json.loads(cohort_path.read_text())
    assert payload["dimension"] == "novelty"
    assert sum(g["user_count"] for g in payload["groups"]) == 8

    sel_dir = tmp_path / "sel"
    code, _, _ = run_cli(
        capsys, "select", "--log", str(log_path), "--scores", str(scores_path),
        "--strategy", "highpi", "--budget", "0.5", "--output-dir", str(sel_dir),
    )
    assert code == 0
    plan = json.loads((sel_dir / "plan.json").read_text())
    assert plan["strategy"] == "high_pi"
    with open(sel_dir / "test.csv", newline="") as fh:
        test_rows = list(csv.DictReader(fh))
    assert len(test_rows) == len(plan["eval_users"])
    assert (sel_dir / "train.csv").exists()


def test_estimate_perm_rows_have_dimension_flags(tmp_path, capsys):
    corpus_dir = tmp_path / "corpus"
    run_cli(
        capsys, "synth", "--mechanism", "repeat-last", "--n", "10", "--users", "3",
        "--length", "25", "--seed", "0", "--p", "0.5", "--output", str(corpus_dir),
    )
    est_path = tmp_path / "perm.csv"
    code, _, _ = run_cli(
        capsys, "estimate", "--log", str(corpus_dir / "log.json"),
        "--estimator", "perm", "--d", "3,4", "--output", str(est_path),
    )
    assert code == 0
    with open(est_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 6
    assert {r["flags"] for r in rows} == {"d=3", "d=4"}
    assert all(r["unit"] == "" for r in rows)
    assert all(0.0 <= float(r["value"]) <= 1.0 for r in rows)


def test_score_fano_scopes_report_n_used(tmp_path, capsys):
    corpus_dir = tmp_path / "corpus"
    run_cli(
        capsys, "synth", "--mechanism", "session-reset", "--n", "40", "--users", "5",
        "--length", "60", "--seed", "1", "--eps", "0.3", "--output", str(corpus_dir),
    )
    log_path = corpus_dir / "log.json"
    est_path = tmp_path / "entropy.csv"
    run_cli(capsys, "estimate", "--log", str(log_path), "--output", str(est_path))

    def n_used(method, scope):
        out = tmp_path / f"{method}_{scope}.csv"
        code, _, _ = run_cli(
            capsys, "score", "--log", str(log_path), "--entropy", str(est_path),
            "--method", method, "--n-scope", scope, "--output", str(out),
        )
        assert code == 0
        with open(out, newline="") as fh:
            return [int(r["n_used"]) for r in csv.DictReader(fh)]

    global_n = n_used("fano", "global")
    assert set(global_n) == {40}
    pooled_n = n_used("fano_nr", "pooled")
    assert len(set(pooled_n)) == 1 and pooled_n[0] <= 40
    per_user_n = n_used("fano_nr", "per-user")
    assert all(v <= pooled_n[0] for v in per_user_n)


def test_score_without_entropy_file_errors(tmp_path, capsys):
    corpus_dir = tmp_path / "corpus"
    run_cli(
        capsys, "synth", "--mechanism", "repeat-last", "--n", "10", "--users", "3",
        "--length", "20", "--seed", "0", "--p", "0.5", "--output", str(corpus_dir),
    )
    code, _, stderr = run_cli(
        capsys, "score", "--log", str(corpus_dir / "log.json"), "--method", "epl",
        "--output", str(tmp_path / "x.csv"),
    )
    assert code == 1
    assert "--entropy is required" in stderr


def test_sweep_difficulty_small(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code, stdout, _ = run_cli(
        capsys, "sweep", "--kind", "difficulty", "--mechanism", "repeat-last",
        "--targets", "0.5", "--methods", "epl", "--reps", "1", "--n", "30",
        "--users", "6", "--length", "40", "--seed", "1", "--output", str(out),
    )
    assert code == 0
    assert "rmse vs targets [epl]" in stdout
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert rows[0]["method"] == "epl"


def test_sweep_n_small(tmp_path, capsys):
    out = tmp_path / "nsweep.csv"
    code, _, _ = run_cli(
        capsys, "sweep", "--kind", "n", "--n-grid", "20,40", "--target-hit1", "0.2",
        "--methods", "epl", "--reps", "1", "--users", "6", "--length", "40",
        "--output", str(out),
    )
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2


def test_sweep_difficulty_needs_mechanism(tmp_path, capsys):
    code, _, stderr = run_cli(
        capsys, "sweep", "--kind", "difficulty", "--targets", "0.5",
        "--methods", "epl", "--reps", "1", "--output", str(tmp_path / "x.csv"),
    )
    assert code == 1
    assert "mechanism" in stderr


def test_report_against_shipped_reference(tmp_path, capsys):
    scores_path = tmp_path / "dataset_scores.csv"
    with open(scores_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["dataset_id", "method", "predictability"])
        writer.writerow(["AOTM", "epl", "0.10"])
        writer.writerow(["Bridge", "epl", "0.71"])
        writer.writerow(["Algebra", "epl", "0.69"])
        writer.writerow(["MovieLens-1M", "epl", "0.35"])
        writer.writerow(["NotARealDataset", "epl", "0.5"])
    out = tmp_path / "report.json"
    code, stdout, _ = run_cli(
        capsys, "report", "--scores", str(scores_path), "--output", str(out)
    )
    assert code == 0
    assert "epl: rho" in stdout
    payload = json.loads(out.read_text())
    assert set(payload) == {"epl"}
    assert len(payload["epl"]["pairs"]) == 4
    assert any("NotARealDataset" in w for w in payload["epl"]["warnings"])
    assert -1.0 <= payload["epl"]["spearman_rho"] <= 1.0


def test_module_entry_point_help():
    proc = subprocess.run(
        [sys.executable, "-m", "predlim.cli", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    for sub in ("ingest", "estimate", "score", "synth", "cohort", "sweep", "report", "select"):
        assert sub in proc.stdout


def _session_corpus(tmp_path, capsys):
    corpus_dir = tmp_path / "corpus"
    run_cli(
        capsys, "synth", "--mechanism", "session-reset", "--n", "40", "--users", "5",
        "--length", "60", "--seed", "1", "--eps", "0.3", "--output", str(corpus_dir),
    )
    log_path = str(corpus_dir / "log.json")
    est_path = str(tmp_path / "entropy.csv")
    run_cli(capsys, "estimate", "--log", log_path, "--output", est_path)
    return log_path, est_path


def test_score_n_scope_defaults_to_the_methods_own(tmp_path, capsys):
    log_path, est_path = _session_corpus(tmp_path, capsys)

    def output(method, *extra):
        out = tmp_path / f"{method}{'_'.join(extra)}.csv"
        code, _, _ = run_cli(
            capsys, "score", "--log", log_path, "--entropy", est_path,
            "--method", method, *extra, "--output", str(out),
        )
        assert code == 0
        return out.read_bytes()

    assert output("fano") == output("fano", "--n-scope", "global")
    assert output("fano_nr") == output("fano_nr", "--n-scope", "pooled")
    assert output("fano_nr") != output("fano_nr", "--n-scope", "per-user")


def test_score_rejects_options_the_method_does_not_read(tmp_path, capsys):
    log_path, est_path = _session_corpus(tmp_path, capsys)
    entropy = ("--entropy", est_path)
    cases = [
        ("fano_nr", *entropy, "--n-scope", "global"),
        ("fano", *entropy, "--n-scope", "pooled"),
        ("fano", *entropy, "--n-scope", "per-user"),
        ("epl", *entropy, "--n-scope", "global"),
        ("perm", "--n-scope", "pooled"),
        ("epl", *entropy, "--d", "3"),
        ("fano_nr", *entropy, "--tau", "2"),
        ("perm", *entropy),
        ("perm", "--d", "3,7"),
        ("perm", "--tau", "0"),
    ]
    for method, *extra in cases:
        out = tmp_path / "rejected.csv"
        code, _, stderr = run_cli(
            capsys, "score", "--log", log_path, "--method", method, *extra,
            "--output", str(out),
        )
        assert code == 1, (method, extra)
        assert stderr.startswith("error:") and stderr.count("\n") == 1, stderr
        assert not out.exists()


def test_estimate_rejects_options_the_estimator_does_not_read(tmp_path, capsys):
    log_path, _ = _session_corpus(tmp_path, capsys)
    cases = [
        ("sampen", "--d", "9"),
        ("sampen", "--tau", "0"),
        ("lz", "--m", "7"),
        ("lz", "--d", "3"),
        ("perm", "--m", "7"),
        ("perm", "--unit", "bits"),
        ("perm", "--d", "7"),
        ("perm", "--d", "3,7"),
        ("perm", "--tau", "0"),
    ]
    for estimator, *extra in cases:
        out = tmp_path / "rejected.csv"
        code, _, stderr = run_cli(
            capsys, "estimate", "--log", log_path, "--estimator", estimator, *extra,
            "--output", str(out),
        )
        assert code == 1, (estimator, extra)
        assert stderr.startswith("error:") and stderr.count("\n") == 1, stderr
        assert not out.exists()


def test_estimate_reads_its_own_options(tmp_path, capsys):
    log_path, _ = _session_corpus(tmp_path, capsys)

    def output(estimator, *extra):
        out = tmp_path / f"{estimator}{'_'.join(extra)}.csv"
        code, _, _ = run_cli(
            capsys, "estimate", "--log", log_path, "--estimator", estimator, *extra,
            "--output", str(out),
        )
        assert code == 0, (estimator, extra)
        return out.read_bytes()

    sampen = (tmp_path / "entropy.csv").read_bytes()  # the corpus's default estimate
    assert output("sampen", "--m", "2", "--unit", "nats") == sampen
    assert sampen != output("sampen", "--m", "3") != output("sampen", "--unit", "bits")
    assert output("lz") == output("lz", "--unit", "nats") != output("lz", "--unit", "bits")
    assert output("perm") == output("perm", "--d", "3,4,5", "--tau", "1")
    assert output("perm") != output("perm", "--d", "3", "--tau", "2")


def test_ingest_skips_a_byte_order_mark_and_rejects_negative_max_events(tmp_path, capsys):
    raw = tmp_path / "raw.csv"
    write_raw_csv(raw)
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + raw.read_bytes())
    logs = []
    for path in (raw, bom):
        logs.append(tmp_path / f"{path.stem}.json")
        code, _, _ = run_cli(capsys, "ingest", "--input", str(path), "--output", str(logs[-1]))
        assert code == 0
    assert logs[0].read_bytes() == logs[1].read_bytes()
    code, _, stderr = run_cli(
        capsys, "ingest", "--input", str(raw), "--max-events", "-5",
        "--output", str(tmp_path / "neg.json"),
    )
    assert code == 1 and stderr == "error: max_events must be >= 0\n"


def test_score_perm_reads_d_and_tau(tmp_path, capsys):
    log_path, _ = _session_corpus(tmp_path, capsys)
    out = tmp_path / "perm.csv"
    code, _, _ = run_cli(
        capsys, "score", "--log", log_path, "--method", "perm", "--d", "3",
        "--tau", "2", "--output", str(out),
    )
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 5 and {r["method"] for r in rows} == {"perm"}


def test_estimate_on_a_directory_fails_cleanly(tmp_path, capsys):
    code, _, stderr = run_cli(
        capsys, "estimate", "--log", str(tmp_path), "--output", str(tmp_path / "e.csv")
    )
    assert code == 1
    assert stderr.startswith("error:")


def test_ingest_oversized_field_fails_cleanly(tmp_path, capsys):
    raw = tmp_path / "big.csv"
    raw.write_text("user_id,item_id,timestamp\nu," + "x" * 200_000 + ",1\n")
    code, _, stderr = run_cli(
        capsys, "ingest", "--input", str(raw), "--output", str(tmp_path / "log.json")
    )
    assert code == 1
    assert stderr.startswith("error:") and "field" in stderr


def test_ingest_non_utf8_fails_cleanly(tmp_path, capsys):
    raw = tmp_path / "latin1.csv"
    raw.write_bytes(b"user_id,item_id,timestamp\nu,caf\xe9,1\n")
    code, _, stderr = run_cli(
        capsys, "ingest", "--input", str(raw), "--output", str(tmp_path / "log.json")
    )
    assert code == 1
    assert stderr.startswith("error:")


def test_duplicate_user_rows_are_rejected(tmp_path, capsys):
    log_path, est_path = _session_corpus(tmp_path, capsys)
    scores = tmp_path / "scores.csv"
    run_cli(
        capsys, "score", "--log", log_path, "--entropy", est_path, "--method", "epl",
        "--output", str(scores),
    )
    lines = scores.read_text().splitlines()
    scores.write_text("\n".join(lines + [lines[1]]) + "\n")
    for argv in (
        ("cohort", "--log", log_path, "--scores", str(scores), "--dimension", "novelty",
         "--output", str(tmp_path / "cohort.json")),
        ("select", "--log", log_path, "--scores", str(scores), "--strategy", "highpi",
         "--budget", "0.5", "--output-dir", str(tmp_path / "sel")),
    ):
        code, _, stderr = run_cli(capsys, *argv)
        assert code == 1 and "multiple score rows for user 0" in stderr

    entropy = tmp_path / "dup_entropy.csv"
    lines = open(est_path).read().splitlines()
    entropy.write_text("\n".join(lines + [lines[1]]) + "\n")
    code, _, stderr = run_cli(
        capsys, "score", "--log", log_path, "--entropy", str(entropy), "--method", "epl",
        "--output", str(tmp_path / "x.csv"),
    )
    assert code == 1 and "multiple entropy rows for user 0" in stderr


def test_estimate_rejects_a_log_with_non_integer_item_indices(tmp_path, capsys):
    # each of the first three logs agrees with itself once numpy casts its indices to int64
    cases = [
        ("fraction", [0.7, 1.2], "item index 0.7 is not an integer"),
        ("bool", [True, False], "item index True is not an integer"),
        ("string", ["0", "1"], "item index '0' is not an integer"),
        ("scalar", 5, "items and users must be lists, each user an object with a list of items"),
    ]
    for name, items, message in cases:
        log_path = tmp_path / f"{name}.json"
        log_path.write_text(json.dumps({
            "schema": "predlim-log-v1", "items": ["a", "b"], "counts": [1, 1],
            "users": [{"user_id": "u", "items": items}],
            "stats": {"num_users": 1, "num_items": 2, "num_interactions": 2, "avg_length": 2.0},
        }))
        out = tmp_path / f"{name}.csv"
        code, _, stderr = run_cli(
            capsys, "estimate", "--log", str(log_path), "--estimator", "lz", "--output", str(out)
        )
        assert code == 1, name
        assert stderr == f"error: {message}\n"
        assert not out.exists()


SMALL_SWEEP = ("--methods", "epl,perm", "--reps", "1", "--users", "6", "--length", "40")


def test_sweep_rejects_options_its_kind_does_not_read(tmp_path, capsys):
    cases = [
        ("n", "--mechanism", "session-reset"),
        ("n", "--targets", "0.5"),
        ("n", "--n", "30"),
        ("n", "--rho", "0.9"),
        ("n", "--m-latent", "2"),
        ("difficulty", "--mechanism", "session-reset", "--n-grid", "20"),
        ("difficulty", "--mechanism", "session-reset", "--target-hit1", "0.2"),
        ("difficulty", "--mechanism", "session-reset", "--c", "3"),
        ("difficulty", "--mechanism", "session-reset", "--m-c", "3"),
        ("difficulty", "--mechanism", "session-reset", "--s", "0.1"),
        ("difficulty", "--mechanism", "repeat-last", "--rho", "0.1"),
        ("difficulty", "--mechanism", "repeat-last", "--m-latent", "2"),
        ("difficulty", "--mechanism", "repeat-last", "--c", "3"),
        ("difficulty", "--mechanism", "context-switch", "--rho", "0.1"),
        ("difficulty", "--mechanism", "context-switch", "--m-latent", "2"),
        ("n", "--methods", "perm", "--estimator", "sampen"),
        ("n", "--methods", "perm", "--m", "2"),
        ("difficulty", "--mechanism", "repeat-last", "--methods", "perm", "--estimator", "lz"),
        ("difficulty", "--mechanism", "repeat-last", "--methods", "perm", "--m", "3"),
        ("n", "--estimator", "lz", "--m", "2"),
        ("difficulty", "--mechanism", "session-reset", "--estimator", "lz", "--m", "3"),
    ]
    for kind, *extra in cases:
        out = tmp_path / "rejected.csv"
        code, _, stderr = run_cli(
            capsys, "sweep", "--kind", kind, *SMALL_SWEEP, *extra, "--output", str(out)
        )
        assert code == 1, extra
        assert stderr.startswith("error:") and stderr.count("\n") == 1, stderr
        assert f"not read {extra[-2]}" in stderr
        assert not out.exists()


def test_sweep_reads_its_own_options_with_unchanged_defaults(tmp_path, capsys):
    def output(kind, *extra):
        out = tmp_path / f"{kind}{'_'.join(extra)}.csv"
        code, _, _ = run_cli(
            capsys, "sweep", "--kind", kind, *extra, *SMALL_SWEEP, "--output", str(out)
        )
        assert code == 0, extra
        return out.read_bytes()

    n_grid = ("--n-grid", "20,40")
    assert output("n", *n_grid) == output(
        "n", *n_grid, "--target-hit1", "0.10", "--c", "5", "--m-c", "5", "--s", "0.05"
    )
    assert output("n", *n_grid) != output("n", *n_grid, "--c", "3")
    difficulty = {
        "session-reset": ("--rho", "0.05", "--m-latent", "1"),
        "repeat-last": (),
        "context-switch": ("--c", "5", "--m-c", "5", "--s", "0.05"),
    }
    for mechanism, defaults in difficulty.items():
        given = ("--mechanism", mechanism, "--targets", "0.1")
        explicit = output("difficulty", *given, "--n", "10000", *defaults)
        assert output("difficulty", *given) == explicit
    assert output("difficulty", "--mechanism", "session-reset", "--targets", "0.1") != output(
        "difficulty", "--mechanism", "session-reset", "--targets", "0.1", "--rho", "0.5"
    )


def test_synth_rejects_options_the_mechanism_does_not_read(tmp_path, capsys):
    cases = {
        "repeat-last": ("--rho", "--m", "--c", "--m-c", "--s", "--eps"),
        "session-reset": ("--p", "--c", "--s"),
        "context-switch": ("--rho", "--m", "--p"),
    }
    for mechanism, flags in cases.items():
        for flag in flags:
            out = tmp_path / "rejected"
            code, _, stderr = run_cli(
                capsys, "synth", "--mechanism", mechanism, "--n", "20", "--users", "4",
                "--length", "30", "--target-hit1", "0.3", flag, "2", "--output", str(out),
            )
            assert code == 1, (mechanism, flag)
            assert stderr == f"error: mechanism {mechanism} does not read {flag}\n"
            assert not out.exists()


def test_synth_reads_its_own_options_with_unchanged_defaults(tmp_path, capsys):
    def output(mechanism, *extra):
        out = tmp_path / f"{mechanism}{'_'.join(extra)}"
        code, _, _ = run_cli(
            capsys, "synth", "--mechanism", mechanism, "--n", "40", "--users", "4",
            "--length", "30", "--target-hit1", "0.1", *extra, "--output", str(out),
        )
        assert code == 0, extra
        return [(out / name).read_bytes() for name in ("log.json", "latent.json", "oracle.json")]

    defaults = {
        "session-reset": ("--m", "1", "--rho", "0.05"),
        "repeat-last": (),
        "context-switch": ("--c", "5", "--m-c", "5", "--s", "0.05"),
    }
    for mechanism, explicit in defaults.items():
        assert output(mechanism) == output(mechanism, *explicit)
    assert output("session-reset") != output("session-reset", "--rho", "0.5")
    assert output("context-switch") != output("context-switch", "--c", "3")


def test_cohort_reads_tail_mass_for_longtail_only(tmp_path, capsys):
    log_path, est_path = _session_corpus(tmp_path, capsys)
    scores = str(tmp_path / "scores.csv")
    run_cli(capsys, "score", "--log", log_path, "--entropy", est_path, "--method", "epl",
            "--output", scores)

    def cohort(dimension, *extra):
        out = tmp_path / f"{dimension}{'_'.join(extra)}.json"
        code, _, stderr = run_cli(
            capsys, "cohort", "--log", log_path, "--scores", scores, "--dimension", dimension,
            *extra, "--output", str(out),
        )
        return code, stderr, out

    for dimension in ("novelty", "activity"):
        code, stderr, out = cohort(dimension, "--tail-mass", "0.5")
        assert code == 1 and stderr == f"error: dimension {dimension} does not read --tail-mass\n"
        assert not out.exists()
    code, _, out = cohort("longtail", "--tail-mass", "0.8")
    assert code == 0 and out.read_bytes() == cohort("longtail")[2].read_bytes()
