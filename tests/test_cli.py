import csv
import json
import multiprocessing
import os
import subprocess
import sys
import warnings

import numpy as np

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


def test_sweep_rejects_an_empty_or_repeated_grid(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    small = ("--methods", "epl", "--reps", "1", "--users", "6", "--length", "40")
    for grid, given in (("--n-grid", ","), ("--n-grid", "20,20")):
        code, stdout, stderr = run_cli(capsys, "sweep", "--kind", "n", grid, given, *small,
                                       "--output", str(out))
        assert (code, stdout) == (1, "") and stderr.startswith("error: a sweep grid needs")
        assert not out.exists()
    for targets in (",", "0.3,0.30"):
        code, stdout, stderr = run_cli(
            capsys, "sweep", "--kind", "difficulty", "--mechanism", "repeat-last", "--n", "30",
            "--targets", targets, *small, "--output", str(out),
        )
        assert (code, stdout) == (1, "") and stderr.startswith("error: a sweep grid needs")
        assert not out.exists()


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


def test_report_rejects_a_bad_row(tmp_path, capsys):
    # the bad rows sit under fano, which is reported after epl's good ones
    good = [("AOTM", "fano", "0.10"), ("Bridge", "fano", "0.71"), ("Algebra", "fano", "0.69")]
    reference = tmp_path / "reference.csv"
    reference.write_text("dataset_id,best_model,hit1,hit20\nAOTM,SASRec,0.0,0.1485\n"
                         "Bridge,GRU4Rec,0.1,0.9\nAlgebra,GRU4Rec,0.1,nan\n")
    cases = [
        ([("AOTM", "fano", "nan")], (), "AOTM under fano: predictability nan is not in (0, 1]"),
        ([("AOTM", "fano", "7")], (), "AOTM under fano: predictability 7.0 is not in (0, 1]"),
        ([("AOTM", "fano", "0.2")], (), "AOTM under fano: listed twice"),
        ([], ("--reference", str(reference)),
         "Algebra under fano: reference accuracy nan is not finite"),
    ]
    for rows, extra, message in cases:
        scores_path = tmp_path / "dataset_scores.csv"
        with open(scores_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["dataset_id", "method", "predictability"])
            writer.writerows([("AOTM", "epl", "0.2"), ("Bridge", "epl", "0.5")])
            writer.writerows(good + rows)
        out = tmp_path / "report.json"
        code, stdout, stderr = run_cli(
            capsys, "report", "--scores", str(scores_path), *extra, "--output", str(out)
        )
        assert (code, stdout, stderr) == (1, "", f"error: {message}\n")
        assert not out.exists()
    scores_path.write_text("dataset_id,method,predictability\n")  # a header and no rows
    code, stdout, stderr = run_cli(capsys, "report", "--scores", str(scores_path),
                                   "--output", str(out))
    assert (code, stdout, stderr) == (1, "", f"error: {scores_path}: no dataset scores\n")
    assert not out.exists()


def test_a_short_row_or_a_missing_column_in_an_input_csv_is_one_error_line(tmp_path, capsys):
    log_path, est_path = _session_corpus(tmp_path, capsys)
    scores = tmp_path / "scores.csv"
    run_cli(capsys, "score", "--log", log_path, "--entropy", est_path, "--method", "epl",
            "--output", str(scores))
    entropy_lines = open(est_path).read().splitlines()
    score_lines = scores.read_text().splitlines()
    datasets = ["dataset_id,method,predictability", "AOTM,epl,0.1", "Bridge,epl,0.7"]
    reference = ["dataset_id,best_model,hit1,hit20", "AOTM,SASRec,0.0,0.1"]

    def edited(name, lines, k, row):
        path = tmp_path / name
        path.write_text("\n".join(lines[:k] + [row] + lines[k + 1:]) + "\n")
        return str(path)

    no_flags = edited("e1.csv", entropy_lines, 2, entropy_lines[2].rsplit(",", 1)[0])
    no_flags_column = edited("e2.csv", entropy_lines, 0, "user_index,estimator,value,unit,extra")
    no_value = edited("s1.csv", score_lines, 3, score_lines[3].split(",")[0])
    no_predictability = edited("d1.csv", datasets, 2, "Bridge,epl")
    too_wide = edited("d2.csv", datasets, 1, "AOTM,epl,0.1,x")
    no_hit20 = edited("r1.csv", reference, 0, "dataset_id,best_model,hit1")
    score = ("score", "--log", log_path, "--method", "epl", "--entropy")
    cases = [
        ((*score, no_flags), f"{no_flags}: line 3: expected 5 fields as in the header, got 4"),
        ((*score, no_flags_column), f"{no_flags_column}: line 1: the header has no flags column"),
        (("cohort", "--log", log_path, "--dimension", "novelty", "--scores", no_value),
         f"{no_value}: line 4: expected 5 fields as in the header, got 1"),
        (("report", "--scores", no_predictability),
         f"{no_predictability}: line 3: expected 3 fields as in the header, got 2"),
        (("report", "--scores", too_wide), f"{too_wide}: line 2: expected 3 fields as in the "
                                           "header, got 4"),
        (("report", "--scores", edited("d3.csv", datasets, 0, "dataset_id,predictability")),
         f"{tmp_path / 'd3.csv'}: line 1: the header has no method column"),
        (("report", "--scores", str(tmp_path / "d3.csv"), "--reference", no_hit20),
         f"{no_hit20}: line 1: the header has no hit20 column"),
    ]
    out = tmp_path / "out"
    for argv, message in cases:
        code, stdout, stderr = run_cli(capsys, *argv, "--output", str(out))
        assert (code, stdout, stderr) == (1, "", f"error: {message}\n"), argv
        assert not out.exists()
    code, _, stderr = run_cli(capsys, "select", "--log", log_path, "--scores", no_value,
                              "--strategy", "highpi", "--budget", "0.5", "--output-dir", str(out))
    assert (code, stderr) == (1, f"error: {no_value}: line 4: expected 5 fields as in the header, "
                                 "got 1\n")
    assert not out.exists()


def test_module_entry_point_help():
    proc = subprocess.run(
        [sys.executable, "-m", "predlim.cli", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    for sub in ("ingest", "estimate", "score", "synth", "cohort", "sweep", "report", "select"):
        assert sub in proc.stdout


def test_a_malformed_command_line_is_one_error_line_and_exit_1(capsys):
    score = ["score", "--log", "log.json", "--output", "out.csv"]
    cases = {
        "a bad int": (score + ["--method", "perm", "--tau", "abc"],
                      "error: argument --tau: invalid int value: 'abc'"),
        "a bad choice": (score + ["--method", "bogus"], "error: argument --method: invalid choice"),
        "a missing required option": (score, "error: the following arguments are required: "
                                             "--method"),
        "a missing option value": (score + ["--method"],
                                   "error: argument --method: expected one argument"),
        "an unknown command": (["bogus"], "error: argument command: invalid choice: 'bogus'"),
        "no command": ([], "error: the following arguments are required: command"),
    }
    for case, (argv, start) in cases.items():
        code, stdout, stderr = run_cli(capsys, *argv)
        assert (code, stdout, len(stderr.splitlines())) == (1, "", 1), case
        assert stderr.startswith(start), (case, stderr)
    # --help still prints usage and exits 0
    for argv in (["--help"], ["score", "--help"]):
        try:
            main(argv)
        except SystemExit as exc:
            assert exc.code == 0
        else:
            raise AssertionError(f"{argv} did not exit")
        assert "usage: predlim" in capsys.readouterr().out


def test_importing_the_cli_or_evaluation_leaves_multiprocessing_unimported(tmp_path, capsys):
    code = "import sys, predlim.cli, predlim.evaluation; print('multiprocessing' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")
    # nor does loading a log through its arrays import hashlib, which loads OpenSSL
    log_path, _ = _session_corpus(tmp_path, capsys)
    code = ("import sys, predlim.cli; predlim.cli.log_from_json(sys.argv[1]); "
            "print(sorted({'hashlib', '_hashlib'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code, log_path], capture_output=True, text=True)
    assert os.path.exists(log_path + ".npy")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_a_sweep_failing_in_a_worker_is_one_error_line_and_leaves_no_process(
        tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--kind", "difficulty", "--mechanism", "repeat-last", "--targets", "0.3,0.6",
            "--n", "30", "--reps", "2", "--users", "4", "--m", "4", "--output", str(out)]
    _fails_with_one_line(capsys, [*argv, "--length", "5"], out,
                         "sequence length 5 is below m + 2 = 6")
    assert multiprocessing.active_children() == []
    code, _, _ = run_cli(capsys, *argv, "--length", "8")
    assert code == 0 and out.exists()
    assert multiprocessing.active_children() == []


def test_a_sweep_inverts_every_target_before_it_generates_a_corpus(tmp_path, capsys):
    # The corpora at 0.3 are too short for --m 4, but the infeasible 0.01 is reported first.
    out = tmp_path / "sweep.csv"
    _fails_with_one_line(
        capsys, ["sweep", "--kind", "difficulty", "--mechanism", "repeat-last",
                 "--targets", "0.3,0.01", "--n", "30", "--reps", "2", "--users", "4",
                 "--length", "5", "--m", "4", "--output", str(out)], out,
        "target 0.01 outside feasible interval [0.03333333333333333, 1.0] for repeat_last")


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


def test_score_rejects_entropy_rows_for_users_the_log_lacks(tmp_path, capsys):
    log_path, est_path = _session_corpus(tmp_path, capsys)
    lines = open(est_path).read().splitlines()
    for user in ("7", "-3"):
        lines.append(",".join([user, *lines[1].split(",")[1:]]))
    entropy = tmp_path / "extra_entropy.csv"
    entropy.write_text("\n".join(lines) + "\n")
    out = tmp_path / "scores.csv"
    code, _, stderr = run_cli(
        capsys, "score", "--log", log_path, "--entropy", str(entropy), "--method", "epl",
        "--output", str(out),
    )
    assert (code, stderr) == (1, "error: entropy for user -3, who is not in the log\n")
    assert not out.exists()


def test_score_reads_entropy_rows_in_any_order_among_perm_rows(tmp_path, capsys):
    log_path, est_path = _session_corpus(tmp_path, capsys)
    perm = tmp_path / "perm.csv"
    run_cli(capsys, "estimate", "--log", log_path, "--estimator", "perm", "--output", str(perm))
    header, *rows = open(est_path).read().splitlines()
    perm_rows = open(perm).read().splitlines()[1:]
    assert len(rows) == 5 and len(perm_rows) > 5

    def entropy_file(name, rows):
        path = tmp_path / name
        path.write_text("\n".join([header, *rows]) + "\n")
        return str(path)

    # user 4 first, each sampen row after a perm row of another user
    mixed = [line for pair in zip(perm_rows, reversed(rows)) for line in pair]
    mixed += perm_rows[len(rows):]
    shuffled = entropy_file("mixed.csv", mixed)
    for extra in (("--method", "epl"), ("--method", "fano"),
                  ("--method", "fano_nr", "--n-scope", "pooled"),
                  ("--method", "fano_nr", "--n-scope", "per-user")):
        outputs = []
        for k, entropy in enumerate((est_path, shuffled)):
            out = tmp_path / f"scores-{k}.csv"
            code, _, _ = run_cli(capsys, "score", "--log", log_path, "--entropy", entropy,
                                 *extra, "--output", str(out))
            assert code == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1], extra
    repeated = entropy_file("repeated.csv", mixed + [rows[2]])
    missing = entropy_file("missing.csv", [line for line in mixed if line != rows[3]])
    for entropy, message in ((repeated, f"{repeated}: multiple entropy rows for user 2"),
                             (missing, "no entropy estimate for user 3")):
        out = tmp_path / "scores.csv"
        code, stdout, stderr = run_cli(capsys, "score", "--log", log_path, "--entropy", entropy,
                                       "--method", "epl", "--output", str(out))
        assert (code, stdout, stderr) == (1, "", f"error: {message}\n")
        assert not out.exists()


def test_input_guards_print_one_error_line_and_write_nothing(tmp_path, capsys):
    log_path, _ = _session_corpus(tmp_path, capsys)
    perm = tmp_path / "perm.csv"
    run_cli(capsys, "estimate", "--log", log_path, "--estimator", "perm", "--output", str(perm))
    empty, raw = tmp_path / "empty.csv", tmp_path / "raw.csv"
    empty.write_text("")
    write_raw_csv(raw)
    huge = {}  # entropies whose exp(S), or value in bits, overflows a float; user 0's of five
    for value, unit in (("1000", "nats"), ("1e308", "bits"), ("1.5e308", "nats")):
        huge[value] = tmp_path / f"huge_{value}.csv"
        rows = [f"{u},sampen,{value if u == 0 else '0.5'},{unit}," for u in range(5)]
        huge[value].write_text("\n".join(["user_index,estimator,value,unit,flags", *rows]) + "\n")
    cases = [
        (("ingest", "--input", str(empty)), f"{empty}: empty file"),
        (("ingest", "--input", str(raw), "--min-length", "0"), "min_length must be >= 1"),
        (("synth", "--mechanism", "repeat-last", "--n", "1", "--users", "4", "--length", "30",
          "--p", "0.5"), "n must be >= 2"),
        (("score", "--log", log_path, "--method", "epl", "--entropy", str(perm)),
         f"{perm}: no usable entropy rows"),
        (("score", "--log", log_path, "--method", "epl", "--entropy", str(huge["1000"])),
         "entropy 1000.0 nats is too large for epl: exp(S) overflows a float"),
        (("score", "--log", log_path, "--method", "epl", "--entropy", str(huge["1e308"])),
         "entropy 1e+308 bits is too large for epl: exp(S) overflows a float"),
    ]
    cases += [  # Fano reads bits, and 1.5e308 nats is 2.2e308 bits
        (("score", "--log", log_path, "--method", method, "--entropy", str(huge["1.5e308"])),
         "entropy 1.5e+308 nats is too large for bits: the converted value overflows a float")
        for method in ("fano", "fano_nr")
    ]
    # numpy refuses a 7 PiB request at once, so nothing is allocated
    too_long = ("Unable to allocate 7.11 PiB for an array with shape (1000000000000000,) "
                "and data type int64")
    cases += [
        (("synth", "--mechanism", "repeat-last", "--n", "10", "--users", "1",
          "--length", "1000000000000000", "--p", "0.5"), too_long),
        (("sweep", "--kind", "difficulty", "--mechanism", "repeat-last", "--targets", "0.5",
          "--reps", "1", "--users", "1", "--length", "1000000000000000"), too_long),
    ]
    # a context table of c rows is allocated before any row is drawn
    context_switch = ("synth", "--mechanism", "context-switch", "--n", "50", "--users", "2",
                      "--length", "30", "--eps", "0.5", "--c")
    cases += [
        ((*context_switch, "100000000000000000000"), "Maximum allowed dimension exceeded"),
        ((*context_switch, "10000000000000"), "Unable to allocate 364. TiB for an array with "
         "shape (10000000000000, 5) and data type int64"),
    ]
    out = tmp_path / "out"
    for argv, message in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy warning would be a second stderr line
            code, stdout, stderr = run_cli(capsys, *argv, "--output", str(out))
        assert (code, stdout, stderr) == (1, "", f"error: {message}\n"), argv
        assert not out.exists()


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
        ("perm", "--d", "3,3"),
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


def test_a_perm_tau_beyond_every_user_is_infeasible_not_an_overflow(tmp_path, capsys):
    log_path, _ = _session_corpus(tmp_path, capsys)
    out = tmp_path / "perm.csv"
    for tau in ("1000000", str(2 ** 62), str(10 ** 20)):
        code, stdout, _ = run_cli(capsys, "estimate", "--log", log_path, "--estimator", "perm",
                                  "--tau", tau, "--output", str(out))
        assert (code, stdout) == (0, f"wrote 0 estimates to {out}\n"), tau
        assert out.read_text() == "user_index,estimator,value,unit,flags\n"
        code, stdout, stderr = run_cli(capsys, "score", "--log", log_path, "--method", "perm",
                                       "--tau", tau, "--output", str(tmp_path / "scores.csv"))
        assert (code, stdout) == (1, ""), tau
        assert stderr == "error: no feasible embedding dimension in (3, 4, 5)\n"
        assert not (tmp_path / "scores.csv").exists()


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
        ("perm", "--d", "3,3"),
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


def _scored_corpus(tmp_path, capsys):
    log_path, est_path = _session_corpus(tmp_path, capsys)
    scores = tmp_path / "scores.csv"
    run_cli(capsys, "score", "--log", log_path, "--entropy", est_path, "--method", "epl",
            "--output", str(scores))
    return log_path, scores.read_text().splitlines()


def _cohort_and_select(tmp_path, capsys, log_path, lines):
    """Each command's (exit code, stderr, whether it wrote output) on the given score rows."""
    scores = tmp_path / "edited.csv"
    scores.write_text("\n".join(lines) + "\n")
    cohort, selection = tmp_path / "cohort.json", tmp_path / "selection"
    results = []
    for argv, out in (
        (("cohort", "--dimension", "novelty", "--output", str(cohort)), cohort),
        (("select", "--strategy", "highpi", "--budget", "0.5", "--min-length", "2",
          "--output-dir", str(selection)), selection),
    ):
        code, _, stderr = run_cli(capsys, *argv, "--log", log_path, "--scores", str(scores))
        results.append((code, stderr, out.exists()))
    return results


def test_cohort_and_select_reject_a_score_outside_the_unit_interval(tmp_path, capsys):
    log_path, lines = _scored_corpus(tmp_path, capsys)
    for bad in ("0.0", "-0.25", "1.5", "nan", "inf"):
        edited = list(lines)
        user, method, _, *rest = edited[2].split(",")
        edited[2] = ",".join([user, method, bad, *rest])
        where = tmp_path / "edited.csv"
        error = f"error: {where}: score {float(bad)!r} of user {user} is not in (0, 1]\n"
        assert _cohort_and_select(tmp_path, capsys, log_path, edited) == [(1, error, False)] * 2
    assert [r[0] for r in _cohort_and_select(tmp_path, capsys, log_path, lines)] == [0, 0]


def test_cohort_and_select_reject_scores_for_users_the_log_lacks(tmp_path, capsys):
    log_path, lines = _scored_corpus(tmp_path, capsys)
    for user in ("7", "-1"):
        extra = lines + [",".join([user, *lines[1].split(",")[1:]])]
        error = f"error: score for user {user}, who is not in the log\n"
        assert _cohort_and_select(tmp_path, capsys, log_path, extra) == [(1, error, False)] * 2
    cover = "error: features and scores must cover identical user sets: "
    last = lines[-1].split(",")[0]
    cohort, _ = _cohort_and_select(tmp_path, capsys, log_path, lines[:-1])
    assert cohort == (1, f"{cover}no score for user {last}\n", False)


def test_cohort_and_select_read_score_rows_in_any_order(tmp_path, capsys):
    log_path, lines = _scored_corpus(tmp_path, capsys)
    header, *rows = lines
    assert len(rows) == 5
    outputs = []
    for order in (rows, [rows[k] for k in (3, 0, 4, 2, 1)]):
        assert _cohort_and_select(tmp_path, capsys, log_path, [header, *order]) == [
            (0, "", True)] * 2
        selection = tmp_path / "selection"
        outputs.append([(tmp_path / "cohort.json").read_bytes()] + [
            (selection / name).read_bytes() for name in ("plan.json", "train.csv", "test.csv")])
    assert outputs[0] == outputs[1]


def _edited_copy(path, out, line, column, value):
    """A copy of the CSV at path with one field, at a 1-based line and a column name, replaced."""
    rows = list(csv.reader(open(path, newline="")))
    rows[line - 1][rows[0].index(column)] = value
    with open(out, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    return str(out)


def _fails_with_one_line(capsys, argv, out, message):
    code, stdout, stderr = run_cli(capsys, *argv)
    assert (code, stdout, stderr) == (1, "", f"error: {message}\n"), argv
    assert not out.exists()


def test_a_damaged_npy_beside_a_log_is_one_error_line(tmp_path, capsys):
    # the binding still matches the JSON, so the arrays are read, and fail
    log_path, _ = _session_corpus(tmp_path, capsys)
    npy = tmp_path / "corpus" / "log.json.npy"
    good = npy.read_bytes()

    def write(data):
        return lambda: npy.write_bytes(data)

    def replace(k, new):
        """A damage that rewrites the np.save records with record k replaced by new(record)."""
        def damage():
            with open(npy, "rb") as fh:
                records = [np.load(fh) for _ in range(7)]
            records[k] = new(records[k])
            with open(npy, "wb") as fh:
                for record in records:
                    np.save(fh, record, allow_pickle=True)
        return damage

    cases = [
        ("empty", write(b""), "EOF: reading magic string"),
        ("truncated", write(good[:len(good) // 2]), "Failed to read all data for array"),
        ("float items", replace(1, lambda a: a.astype(float)), "record 2 is not a 1-d int64 array"),
        ("decreasing offsets", replace(2, lambda a: a[[0, 2, 1, 3, 4, 5]]),
         "offsets do not split items into a non-empty user per user id"),
        ("invalid UTF-8", replace(3, lambda a: np.full_like(a, 0xFF)),
         "'utf-8' codec can't decode byte 0xff in position 0"),
        ("pickled", replace(3, lambda a: a.astype(object)),
         "Object arrays cannot be loaded when allow_pickle=False"),
        ("id ends past the bytes", replace(4, lambda a: a + 1),
         "id end offsets do not split the id bytes"),
        ("item 1 named as item 0", replace(3, lambda a: np.r_[a[:1], a[:1], a[2:]]),
         "duplicate item ids in vocabulary"),
        ("two user ids as one", replace(6, lambda a: np.delete(a, -2)),
         "offsets do not split items into a non-empty user per user id"),
    ]
    out = tmp_path / "entropy-again.csv"
    for name, damage, detail in cases:
        damage()
        code, stdout, stderr = run_cli(capsys, "estimate", "--log", log_path, "--output", str(out))
        assert (code, stdout, stderr.count("\n")) == (1, "", 1), name
        assert stderr.startswith(f"error: {npy}: ") and detail in stderr, (name, stderr)
        assert stderr.endswith("; re-run ingest\n") and not out.exists(), name
        npy.write_bytes(good)
    assert run_cli(capsys, "estimate", "--log", log_path, "--output", str(out))[0] == 0


def test_a_missing_stale_or_damaged_npy_is_one_error_line_in_every_command(tmp_path, capsys):
    # the JSON is never parsed, so a missing, stale or damaged .npy leaves no log to load
    log_path, est_path = _session_corpus(tmp_path, capsys)
    scores = str(tmp_path / "scores.csv")
    assert run_cli(capsys, "score", "--log", log_path, "--entropy", est_path,
                   "--method", "epl", "--output", scores)[0] == 0
    log, npy = tmp_path / "corpus" / "log.json", tmp_path / "corpus" / "log.json.npy"
    good_log, good_npy = log.read_bytes(), npy.read_bytes()
    damages = [
        ("missing", npy.unlink, "no such file"),
        ("stale", lambda: log.write_bytes(good_log + b"\n"), f"bound to other bytes than {log}"),
        ("damaged", lambda: npy.write_bytes(good_npy[:len(good_npy) // 2]),
         "Failed to read all data for array"),
    ]
    out = {c: str(tmp_path / c) for c in ("estimate", "score", "cohort", "select")}
    commands = {
        "estimate": ("--output", out["estimate"]),
        "score": ("--entropy", est_path, "--method", "epl", "--output", out["score"]),
        "cohort": ("--scores", scores, "--dimension", "novelty", "--output", out["cohort"]),
        "select": ("--scores", scores, "--strategy", "highpi", "--budget", "0.5",
                   "--output-dir", out["select"]),
    }
    for name, damage, detail in damages:
        for command, argv in commands.items():
            damage()
            code, stdout, stderr = run_cli(capsys, command, "--log", log_path, *argv)
            assert (code, stdout, stderr.count("\n")) == (1, "", 1), (name, command)
            assert stderr.startswith(f"error: {npy}: ") and detail in stderr, (name, stderr)
            assert stderr.endswith("; re-run ingest\n"), (name, command)
            assert not os.path.exists(out[command]), (name, command)
            log.write_bytes(good_log)
            npy.write_bytes(good_npy)
    for command, argv in commands.items():  # the same commands on the sound log
        assert run_cli(capsys, command, "--log", log_path, *argv)[0] == 0, command


def test_a_non_integer_user_index_is_one_error_line(tmp_path, capsys):
    log_path, est_path = _session_corpus(tmp_path, capsys)
    bad = _edited_copy(est_path, tmp_path / "e.csv", 3, "user_index", "x")
    out = tmp_path / "scores.csv"
    _fails_with_one_line(capsys, ("score", "--log", log_path, "--entropy", bad, "--method",
                                  "epl", "--output", str(out)),
                         out, f"{bad}: line 3: user_index 'x' is not an integer")


def test_a_non_numeric_entropy_value_is_one_error_line(tmp_path, capsys):
    log_path, est_path = _session_corpus(tmp_path, capsys)
    bad = _edited_copy(est_path, tmp_path / "e.csv", 2, "value", "abc")
    out = tmp_path / "scores.csv"
    for method in ("epl", "fano_nr"):
        _fails_with_one_line(capsys, ("score", "--log", log_path, "--entropy", bad, "--method",
                                      method, "--output", str(out)),
                             out, f"{bad}: line 2: value 'abc' is not a number")


def test_a_non_numeric_score_value_is_one_error_line(tmp_path, capsys):
    log_path, est_path = _session_corpus(tmp_path, capsys)
    scores = tmp_path / "scores.csv"
    run_cli(capsys, "score", "--log", log_path, "--entropy", est_path, "--method", "epl",
            "--output", str(scores))
    bad = _edited_copy(scores, tmp_path / "s.csv", 4, "value", "abc")
    message = f"{bad}: line 4: value 'abc' is not a number"
    out = tmp_path / "cohort.json"
    _fails_with_one_line(capsys, ("cohort", "--log", log_path, "--scores", bad, "--dimension",
                                  "novelty", "--output", str(out)), out, message)
    out = tmp_path / "selection"
    _fails_with_one_line(capsys, ("select", "--log", log_path, "--scores", bad, "--strategy",
                                  "highpi", "--budget", "0.5", "--output-dir", str(out)),
                         out, message)


def test_a_non_numeric_predictability_in_report_is_one_error_line(tmp_path, capsys):
    scores = tmp_path / "datasets.csv"
    scores.write_text("dataset_id,method,predictability\nAOTM,epl,0.1\nBridge,epl,high\n")
    out = tmp_path / "report.json"
    _fails_with_one_line(capsys, ("report", "--scores", str(scores), "--output", str(out)),
                         out, f"{scores}: line 3: predictability 'high' is not a number")


def test_a_non_numeric_reference_accuracy_is_one_error_line(tmp_path, capsys):
    scores = tmp_path / "datasets.csv"
    scores.write_text("dataset_id,method,predictability\nAOTM,epl,0.1\nBridge,epl,0.7\n")
    reference = tmp_path / "reference.csv"
    out = tmp_path / "report.json"
    for column, line in (("hit1", "AOTM,SASRec,n/a,0.1"), ("hit20", "AOTM,SASRec,0.0,")):
        reference.write_text(f"dataset_id,best_model,hit1,hit20\nBridge,GRU4Rec,0.1,0.9\n{line}\n")
        value = line.split(",")[2 if column == "hit1" else 3]
        _fails_with_one_line(capsys, ("report", "--scores", str(scores), "--reference",
                                      str(reference), "--output", str(out)),
                             out, f"{reference}: line 3: {column} {value!r} is not a number")


def test_a_reference_listing_a_dataset_twice_is_one_error_line(tmp_path, capsys):
    scores = tmp_path / "datasets.csv"
    scores.write_text("dataset_id,method,predictability\nAOTM,epl,0.1\nBridge,epl,0.7\n")
    reference = tmp_path / "reference.csv"
    reference.write_text("dataset_id,best_model,hit1,hit20\nAOTM,SASRec,0.0,0.1\n"
                         "Bridge,GRU4Rec,0.1,0.9\nAOTM,GRU4Rec,0.0,0.2\n")
    out = tmp_path / "report.json"
    _fails_with_one_line(capsys, ("report", "--scores", str(scores), "--reference",
                                  str(reference), "--output", str(out)),
                         out, f"{reference}: dataset_id 'AOTM' is listed twice")


def test_generator_parameters_are_checked_before_the_target_is_inverted(tmp_path, capsys):
    def synth(mechanism, *extra):
        return ("synth", "--mechanism", mechanism, "--users", "4", "--length", "30",
                "--target-hit1", "0.5", *extra, "--output", str(tmp_path / "out"))

    def sweep(kind, *extra):
        return ("sweep", "--kind", kind, *SMALL_SWEEP, *extra, "--output", str(tmp_path / "out"))

    difficulty = ("--mechanism", "session-reset", "--targets", "0.3")
    huge = "99999999999999999999"  # beyond int64, which the generators draw items as
    cases = [
        (synth("session-reset", "--n", "300", "--m", "0"), "m must lie in [1, n], got 0"),
        (synth("session-reset", "--n", "300", "--m", "-1"), "m must lie in [1, n], got -1"),
        (synth("context-switch", "--n", "300", "--m-c", "0"), "m_c must lie in [1, n], got 0"),
        (synth("repeat-last", "--n", "0"), "n must be >= 2"),
        (synth("repeat-last", "--n", "1"), "n must be >= 2"),
        (sweep("difficulty", *difficulty, "--n", "30", "--m-latent", "0"),
         "m must lie in [1, n], got 0"),
        (sweep("difficulty", *difficulty, "--n", "0"), "n must be >= 2"),
        (sweep("n", "--n-grid", "100", "--m-c", "0"), "m_c must lie in [1, n], got 0"),
        (sweep("n", "--n-grid", "0"), "n must be >= 2"),
        (synth("context-switch", "--n", huge), f"n must be below 2^63, got {huge}"),
        (synth("repeat-last", "--n", huge), f"n must be below 2^63, got {huge}"),
        (sweep("difficulty", *difficulty, "--n", huge), f"n must be below 2^63, got {huge}"),
        (sweep("n", "--n-grid", huge), f"n must be below 2^63, got {huge}"),
    ]
    for argv, message in cases:
        _fails_with_one_line(capsys, argv, tmp_path / "out", message)
