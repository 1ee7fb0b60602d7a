"""The CLI chain's outputs, byte for byte.

A seeded CSV in the benchmark fixture's shape (uniform users, Zipf items,
uniform timestamps), scaled down to a few thousand events, goes through
ingest, estimate, score, cohort and select. A second CSV, with few users and
coarse timestamps so that ties and repeated rows are common, goes through
ingest --dedup --max-events; synth makes one corpus per mechanism. A small
difficulty sweep and a small item-space sweep write their tables, and report
compares a hand-written dataset-score CSV with the shipped reference
accuracies. Each file's sha256 must equal the value recorded in GOLDEN, so a
refactor that changes any output byte fails here. A change meant to alter an
output records the new hash, and says why, in the same change. Each log, loaded
from its arrays (the .npy written beside it), must then hold every field that
json.load reads in its JSON.
"""

import csv
import hashlib
import json

import numpy as np
import pytest

from predlim import sequence_core
from predlim.cli import main
from predlim.sequence_core import ingest_csv, log_from_json

GOLDEN = {
    "cohort.json": "b817d6e457b6580212dd5142cdba8e70bf3c6fedc4dd91b54c4a435af455c80b",
    "dataset-scores.csv": "9ca42e6ec6b45a7c29168de323f62904acce6e298b241b5f26c70a57898a186a",
    "estimate-lz.csv": "79290bbd4532e755bf30b2e9be2b2995e06a5d0d715e54ec321b9e5da457c033",
    "estimate-perm.csv": "5d6933fe6b887ffe45fd4b5ba37ed6c1fe91e5c1408ba7add7ecc8f7ea2609ba",
    "estimate-sampen.csv": "9a3630884e2a03680772089df3e4b89bf0754f642ac845e8a5657b44c76a8a29",
    "events-ties.csv": "d16c66b4f216012ce1772e726960a3ee86890c9da9929ac691369cabaa9a4ee9",
    "events.csv": "b774d3a75368da45c557776c76654e9eaf0a597d8abd4ea9fcf5c0b2ea69337f",
    "log-dedup.json": "67b18fe8cdb61f44d54f5bf3ed009f3abe7ec9ef3c2398a250ba8f202ef4bf54",
    "log-dedup.json.npy": "7bac5cbb8669a2520c99400f6288e53002265039ce4389acd7651acfa72278e6",
    "log.json": "c9e3c59210238411860340e053c60240a0e14c0a82c14c22490e5a6563648bf6",
    "log.json.npy": "297c2557d262c4f0247dc44f61da0d4369d69b9c4c652bdea62456ebc7ccd35d",
    "report.json": "6eec6cf2b4afff338b2ee5258b28b589c68f48c07257d7dd222f925bafe1d7ff",
    "score-epl.csv": "ec9b81a9b91b561e0149d5eb093d5356271d030e0373d7f7201d5e1ae920a87d",
    "score-fano.csv": "a686b3ab338e611817d225f10f906cd325382fe1d7f214cc3b344e08ac4962d7",
    "score-fano_nr-per-user.csv": "af7a03c9f9e2f5998cc3ac79c94366ef9f00b3aa78eeefadb0980f796530d8bc",
    "score-fano_nr-pooled.csv": "4648cbf59030f0cdb70e160b7dfd4bc2ba672e8c1562b8a35b437f40d4d6c790",
    "score-perm.csv": "35f5ae63d5dc16d6e2e7e8d26b5c47f97973afe4666a27fdb85309561279ec98",
    "selection/plan.json": "88ff287c74fb9e5a845d47b71caa9089e30f6ef6ccc20cd783132765828b5df5",
    "selection/test.csv": "31ad0b2074b3f05699c96df8379f302596d5ce479d91607aa5631d3d74ede5bb",
    "selection/train.csv": "1f409e561cb21e457ab0c55f6d9196868a0e76e252f851f0e0ce58f48902c31a",
    "sweep-difficulty.csv": "1799e9b8748640fbda937ad611fcc77c42547be297469dc7c78a64247598b47a",
    "sweep-n.csv": "8be594f7bbca872ec37f47e6b9e634c7ec4824c59b6ebbc0710e887a5c920ba6",
    "synth-context-switch/latent.json": "d4161d11cb3769ddad4b93129a3e5c64952a4af17a44a611bf4c4b26527fd9d9",
    "synth-context-switch/log.json": "41fffb0a6a8ff64d66b4a6333ba39a8f3110c2660ecf0a1fd4520ce1e3e02cbc",
    "synth-context-switch/log.json.npy": "a1fcab93e1d0d0d2b190e38d2741c4476f37cf4dde8b2185485291ea954301a5",
    "synth-context-switch/oracle.json": "6f811d785499ea4e099c568f95f0f4d57d31a0ee5d67fa0690443e32d079d3c0",
    "synth-repeat-last/latent.json": "44136fa355b3678a1146ad16f7e8649e94fb4fc21fe77e8310c060f61caaff8a",
    "synth-repeat-last/log.json": "edbb60dd5a27877b4ec81ef699cd8883c3391f520cd49f22d9b1f099d69b9aa8",
    "synth-repeat-last/log.json.npy": "44bfaaf15a5135c8651d7cbeadbe8315684a91aa9fede3219d8a748778cf0cce",
    "synth-repeat-last/oracle.json": "93605d393c76530769d6b087a8680b13db52a0fc0b97de70293cdf26b060abb5",
    "synth/latent.json": "6a16e383096b3797061069f6ac2b4faef2a1de907a3af81e93f4144af2115579",
    "synth/log.json": "349efc39fe5d3ac4dc7118b6ff11c777f35f9910cc691c8c2c1cd8eb1229885d",
    "synth/log.json.npy": "638a07ebd1ddef18329f18f725ca10e20ba19898f30ecb4a305e81b9e652208b",
    "synth/oracle.json": "1024e4c16e74e768b3a568a353d6efee4c12068aac9c647f1f35b5ccc2225c75",
}


# Hand-written dataset scores over the shipped reference ids: a tie in each
# method, and one dataset the reference lacks.
DATASET_SCORES = {
    "epl": [("AOTM", 0.1), ("Delicious", 0.05), ("LastFM", 0.3), ("MovieLens-1M", 0.3),
            ("Algebra", 0.7), ("Bridge", 0.65), ("NotARealDataset", 0.5)],
    "fano": [("AOTM", 0.2), ("Delicious", 0.2), ("TaFeng", 0.15), ("Algebra", 0.8),
             ("Bridge", 0.9)],
}


def write_events(path, n_events=4000, n_users=150, seed=0, span=10**9):
    rng = np.random.default_rng(seed)
    users = rng.integers(0, n_users, n_events)
    items = rng.zipf(1.3, n_events) % 2000
    stamps = rng.integers(0, span, n_events)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("user_id,item_id,timestamp\n")
        fh.writelines(
            f"u{u},i{i},{t}\n" for u, i, t in zip(users.tolist(), items.tolist(), stamps.tolist())
        )


def test_cli_chain_outputs_are_byte_identical(tmp_path, capsys):
    def p(name):
        return str(tmp_path / name)

    write_events(p("events.csv"))
    write_events(p("events-ties.csv"), n_users=40, seed=1, span=30)  # ties and repeated rows
    log, sampen = p("log.json"), p("estimate-sampen.csv")
    steps = [
        ("ingest", "--input", p("events.csv"), "--min-length", "5", "--output", log),
        ("ingest", "--input", p("events-ties.csv"), "--dedup", "--max-events", "3000",
         "--output", p("log-dedup.json")),
        ("estimate", "--log", log, "--estimator", "sampen", "--m", "2", "--output", sampen),
        ("estimate", "--log", log, "--estimator", "lz", "--output", p("estimate-lz.csv")),
        ("estimate", "--log", log, "--estimator", "perm", "--output", p("estimate-perm.csv")),
    ]
    for key, extra in (
        ("score-epl", ("--method", "epl")),
        ("score-fano", ("--method", "fano")),
        ("score-fano_nr-pooled", ("--method", "fano_nr", "--n-scope", "pooled")),
        ("score-fano_nr-per-user", ("--method", "fano_nr", "--n-scope", "per-user")),
    ):
        steps.append(
            ("score", "--log", log, "--entropy", sampen, *extra, "--output", p(f"{key}.csv"))
        )
    steps += [
        ("score", "--log", log, "--method", "perm", "--output", p("score-perm.csv")),
        ("cohort", "--log", log, "--scores", p("score-epl.csv"), "--dimension", "novelty",
         "--output", p("cohort.json")),
        ("select", "--log", log, "--scores", p("score-epl.csv"), "--strategy", "highpi",
         "--budget", "0.3", "--seed", "0", "--output-dir", p("selection")),
        ("synth", "--mechanism", "session-reset", "--n", "300", "--users", "12", "--length", "80",
         "--seed", "5", "--target-hit1", "0.4", "--output", p("synth")),
        ("synth", "--mechanism", "repeat-last", "--n", "50", "--users", "9", "--length", "60",
         "--seed", "3", "--target-hit1", "0.5", "--output", p("synth-repeat-last")),
        ("synth", "--mechanism", "context-switch", "--n", "200", "--users", "10", "--length", "70",
         "--seed", "4", "--c", "4", "--m-c", "3", "--s", "0.1", "--eps", "0.2",
         "--output", p("synth-context-switch")),
    ]
    sweep = ("--methods", "epl,fano,fano_nr,perm", "--reps", "2", "--users", "6",
             "--length", "40", "--seed", "2")
    steps += [
        ("sweep", "--kind", "difficulty", "--mechanism", "repeat-last", "--targets", "0.3,0.6",
         "--n", "30", *sweep, "--output", p("sweep-difficulty.csv")),
        ("sweep", "--kind", "n", "--n-grid", "20,200", *sweep, "--output", p("sweep-n.csv")),
        ("report", "--scores", p("dataset-scores.csv"), "--output", p("report.json")),
    ]
    with open(p("dataset-scores.csv"), "w", encoding="utf-8") as fh:
        fh.write("dataset_id,method,predictability\n")
        fh.writelines(f"{d},{m},{v}\n" for m, rows in DATASET_SCORES.items() for d, v in rows)
    for argv in steps:
        assert main(list(argv)) == 0, argv
    capsys.readouterr()
    digests = {
        str(path.relative_to(tmp_path)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(tmp_path.rglob("*"))
        if path.is_file()
    }
    assert digests == GOLDEN
    # each log, loaded from the arrays beside it, is what json.load reads in its JSON
    for path in sorted(str(npy)[:-4] for npy in tmp_path.rglob("log*.json.npy")):
        log = log_from_json(path)
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        assert list(payload) == ["schema", "items", "counts", "users", "stats"]
        assert payload["schema"] == "predlim-log-v1"
        assert payload["items"] == log.item_ids and payload["counts"] == log.counts.tolist()
        assert [user["user_id"] for user in payload["users"]] == log.user_ids
        lengths = [len(user["items"]) for user in payload["users"]]
        assert log.offsets.dtype == np.int64
        assert log.offsets.tolist() == np.cumsum([0, *lengths]).tolist()
        assert log.items.dtype == np.int64
        assert log.items.tolist() == [k for user in payload["users"] for k in user["items"]]
        assert payload["stats"] == log.stats


def test_the_golden_events_take_the_array_path(tmp_path, monkeypatch):
    write_events(tmp_path / "events.csv")
    write_events(tmp_path / "events-ties.csv", n_users=40, seed=1, span=30)
    runs = [(tmp_path / "events.csv", {"min_length": 5}),
            (tmp_path / "events-ties.csv", {"dedup": True, "max_events": 3000})]
    with monkeypatch.context() as mp:
        mp.setattr(sequence_core, "_read_plain", lambda path: None)
        by_csv = [ingest_csv(str(path), **kwargs) for path, kwargs in runs]
    monkeypatch.setattr(csv, "reader", lambda *args, **kwargs: pytest.fail("csv.reader ran"))
    for (path, kwargs), expected in zip(runs, by_csv):
        log = ingest_csv(str(path), **kwargs)
        assert log.user_ids == expected.user_ids and log.item_ids == expected.item_ids
        assert np.array_equal(log.items, expected.items)
        assert np.array_equal(log.offsets, expected.offsets)
