"""Command-line interface.

Subcommands cover the full pipeline: ingest a raw CSV into the canonical log
JSON, estimate per-user entropy, map entropies to predictability scores,
generate oracle-controlled synthetic corpora, aggregate cohorts, run the
difficulty and item-space sweeps, compare dataset scores against the shipped
reference accuracies, and materialize budgeted training-data selections.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys

from . import evaluation, selection
from .cohort import DIMENSIONS, compute_features, split_and_aggregate
from .entropy import UNITS, EntropyEstimate, perm_entropies
from .predictability import ESTIMATORS, METHODS
from .sequence_core import ingest_csv, log_from_json, log_to_json
from .synth import MECHANISMS, GeneratorConfig, generate, invert_noise, params_for

# Unused here; the benchmark's tracer wraps these names in this module.
from .entropy import lz_entropy, perm_entropy, sampen  # noqa: F401
from .predictability import epl, fano_invert, fano_nr, perm_predictability  # noqa: F401


def _int_list(text: str) -> list[int]:
    return [int(v) for v in text.split(",") if v]


def _float_list(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v]


def _given(args, mode: str, reads, options) -> dict:
    """The options given on the command line, by name; one that reads does not list raises."""
    given = {k: getattr(args, k) for k in options if getattr(args, k, None) is not None}
    unread = sorted(given.keys() - set(reads))
    if unread:
        raise ValueError(f"{mode} does not read --{unread[0].replace('_', '-')}")
    return given


def _table_options(p, rows: dict, rename=None, choices=None) -> None:
    """One --option per parameter the table rows read, typed and described by its default."""
    for k in dict.fromkeys(k for row in rows.values() for k in row):
        default = next(row[k] for row in rows.values() if k in row)
        modes = " and ".join(mode.replace("_", "-") for mode, row in rows.items() if k in row)
        dest, listed = (rename or {}).get(k, k), isinstance(default, tuple)
        shown = ",".join(map(str, default)) if listed else default
        kind = _int_list if listed else type(default)
        p.add_argument(f"--{dest.replace('_', '-')}", type=kind, dest=dest,
                       choices=(choices or {}).get(k), help=f"{modes} only; default {shown}")


def cmd_ingest(args) -> int:
    log = ingest_csv(
        args.input, min_length=args.min_length, max_events=args.max_events, dedup=args.dedup
    )
    log_to_json(log, args.output)
    s = log.stats
    print(
        f"ingested {s['num_users']} users, {s['num_items']} items, "
        f"{s['num_interactions']} interactions (avg length {s['avg_length']:.2f})"
    )
    return 0


def cmd_estimate(args) -> int:
    defaults = ESTIMATORS[args.estimator]
    every = {k for row in ESTIMATORS.values() for k in row}
    opts = {**defaults, **_given(args, f"estimator {args.estimator}", defaults, every)}
    log = log_from_json(args.log)
    if args.estimator == "perm":
        table = perm_entropies(log.items, log.offsets, opts["d"], opts["tau"])
        rows = [[u, "perm_normalized", repr(v), "", f"d={d}"]
                for u, row in enumerate(table.tolist()) for d, v in zip(opts["d"], row)
                if v == v]  # NaN at a d the user is too short for
    else:
        ests = evaluation.estimate_entropies(log.items, log.offsets, args.estimator, opts.get("m"))
        rows = [[u, est.estimator, repr(est.value), est.unit, ";".join(est.flags)]
                for u, est in enumerate(e.to(opts["unit"]) for e in ests)]
    with open(args.output, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["user_index", "estimator", "value", "unit", "flags"])
        writer.writerows(rows)
    print(f"wrote {len(rows)} estimates to {args.output}")
    return 0


def _read_per_user(path: str, parse, what: str, columns: dict) -> dict:
    """One parsed value per user_index; parse returns None for a row to skip."""
    out = {}
    for row in evaluation.csv_rows(path, {"user_index": int, **columns}):
        value = parse(row)
        if value is None:
            continue
        u = row["user_index"]
        if u in out:
            raise ValueError(f"{path}: multiple {what} rows for user {u}")
        out[u] = value
    if not out:
        raise ValueError(f"{path}: no usable {what} rows")
    return out


def _entropy_row(row: dict) -> EntropyEstimate | None:
    if row["estimator"] == "perm_normalized":
        return None  # not mappable by epl or the Fano routes
    flags = tuple(f for f in row["flags"].split(";") if f)
    return EntropyEstimate(row["value"], row["unit"], row["estimator"], flags=flags)


def cmd_score(args) -> int:
    log = log_from_json(args.log)
    if METHODS[args.method].reads_entropy != bool(args.entropy):
        need = "required" if not args.entropy else "not read"
        raise ValueError(f"--entropy is {need} for method {args.method}")
    estimates = None if not args.entropy else _read_per_user(
        args.entropy, _entropy_row, "entropy",
        {"estimator": str, "value": float, "unit": str, "flags": str})
    scores = evaluation.score_log(log, args.method, estimates, args.n_scope, args.d, args.tau)
    with open(args.output, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["user_index", "method", "value", "effective_size", "n_used"])
        for u, sc in enumerate(scores):
            size = "" if sc.effective_size is None else repr(sc.effective_size)
            writer.writerow([u, sc.method, repr(sc.value), size, sc.n or ""])
    print(f"wrote {len(scores)} scores to {args.output}")
    return 0


def cmd_synth(args) -> int:
    mechanism = args.mechanism.replace("-", "_")
    spec = MECHANISMS[mechanism]
    every = {k for row in MECHANISMS.values() for k in (*row.fixed, row.noise)}
    fixed = _given(args, f"mechanism {args.mechanism}", (*spec.fixed, spec.noise), every)
    noise = fixed.pop(spec.noise, None)
    if (args.target_hit1 is None) == (noise is None):
        raise ValueError(f"give exactly one of --target-hit1 or --{spec.noise}")
    if noise is None:
        noise = invert_noise(mechanism, args.target_hit1, n=args.n, **fixed)
    params = params_for(mechanism, noise, **fixed)
    config = GeneratorConfig(mechanism, args.n, args.users, args.length, args.seed, params)
    corpus = generate(config)
    os.makedirs(args.output, exist_ok=True)
    log_to_json(corpus.log, os.path.join(args.output, "log.json"))
    with open(os.path.join(args.output, "latent.json"), "w", encoding="utf-8") as fh:
        json.dump(corpus.latent_trace, fh, default=lambda array: array.tolist())
    with open(os.path.join(args.output, "oracle.json"), "w", encoding="utf-8") as fh:
        json.dump({"config": dataclasses.asdict(config), "oracle_hit1": corpus.oracle_hit1,
                   "latent_trace_file": "latent.json"}, fh)
    print(f"generated {mechanism} corpus at {args.output} (oracle hit@1 {corpus.oracle_hit1:.4f})")
    return 0


def _read_scores_csv(path: str) -> dict[int, float]:
    scores = _read_per_user(path, lambda row: row["value"], "score", {"value": float})
    bad = [u for u, v in scores.items() if not 0.0 < v <= 1.0]  # NaN too
    if bad:
        raise ValueError(f"{path}: score {scores[bad[0]]!r} of user {bad[0]} is not in (0, 1]")
    return scores


def cmd_cohort(args) -> int:
    reads = ["tail_mass"] if args.dimension == "longtail" else []  # it shapes only that feature
    given = _given(args, f"dimension {args.dimension}", reads, ["tail_mass"])
    log = log_from_json(args.log)
    scores = _read_scores_csv(args.scores)
    features = compute_features(log, **given)
    report = split_and_aggregate(features, scores, args.dimension)
    with open(args.output, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, default=vars)
    g1, g2 = report.groups
    print(
        f"{report.dimension}: Q1 mean {g1.mean_predictability:.4f} ({g1.user_count} users), "
        f"Q2 mean {g2.mean_predictability:.4f} ({g2.user_count} users)"
    )
    return 0


def cmd_sweep(args) -> int:
    if args.kind == "difficulty" and not args.mechanism:
        raise ValueError("--mechanism is required for a difficulty sweep")
    mechanism = "context_switch" if args.kind == "n" else args.mechanism.replace("-", "_")
    # --m is sampen's template length, so the session-reset set size is --m-latent
    reads = [{"m": "m_latent"}.get(k, k) for k in MECHANISMS[mechanism].fixed]
    reads += ["n_grid", "target_hit1"] if args.kind == "n" else ["mechanism", "targets", "n"]
    methods = args.methods.split(",")
    what = "an n sweep" if args.kind == "n" else f"a {args.mechanism} difficulty sweep"
    if any(METHODS[meth].reads_entropy for meth in methods if meth in METHODS):
        estimator = args.estimator or "sampen"
        reads += ["estimator", *ESTIMATORS[estimator]]
        what += f" by {estimator}"
    else:
        what += f" of methods {args.methods}"
    shared = dict(methods=methods, reps=args.reps, users=args.users, length=args.length,
                  seed=args.seed)
    options = vars(args).keys() - shared.keys() - {"command", "func", "kind", "output"}
    given = _given(args, what, reads, options)
    if args.kind == "difficulty":
        given["mechanism"] = mechanism
        table = evaluation.run_difficulty_sweep(**given, **shared)
        for meth, value in table.rmse_by_method.items():
            print(f"rmse vs targets [{meth}]: {value:.4f}")
    else:
        table = evaluation.run_n_sweep(**given, **shared)
    table.to_csv(args.output)
    print(f"wrote sweep table to {args.output}")
    return 0


def cmd_report(args) -> int:
    reference = evaluation.load_reference(args.reference)
    by_method: dict[str, list[evaluation.DatasetScore]] = {}
    columns = {"dataset_id": str, "method": str, "predictability": float}
    for row in evaluation.csv_rows(args.scores, columns):
        ref = reference.get(row["dataset_id"])
        by_method.setdefault(row["method"], []).append(
            evaluation.DatasetScore(
                dataset_id=row["dataset_id"],
                predictability=row["predictability"],
                method=row["method"],
                reference_accuracy=ref["hit20"] if ref else None,
            )
        )
    reports = {method: evaluation.consistency_report(scores)
               for method, scores in sorted(by_method.items())}  # each checked before any output
    payload = {}
    for method, report in reports.items():
        payload[method] = {k: v for k, v in dataclasses.asdict(report).items() if k != "method"}
        print(f"{method}: rho {report.spearman_rho:.4f}, rmse {report.rmse:.4f}")
    with open(args.output, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
    return 0


def cmd_select(args) -> int:
    log = log_from_json(args.log)
    scores = _read_scores_csv(args.scores)
    strategy = {"highpi": "high_pi", "random": "random", "lowpi": "low_pi"}[args.strategy]
    plan = selection.build_plan(
        log,
        scores,
        budget_fraction=args.budget,
        strategy=strategy,
        seed=args.seed,
        eval_fraction=args.eval_fraction,
        min_length=args.min_length,
    )
    train, test = selection.materialize(plan, log)
    os.makedirs(args.output_dir, exist_ok=True)
    selection.write_selection_csv(train, os.path.join(args.output_dir, "train.csv"))
    selection.write_selection_csv(test, os.path.join(args.output_dir, "test.csv"))
    with open(os.path.join(args.output_dir, "plan.json"), "w", encoding="utf-8") as fh:
        json.dump(dataclasses.asdict(plan), fh, default=lambda array: array.tolist())
    print(
        f"{plan.strategy}: selected {len(plan.selected)} of {len(plan.candidate_users)} "
        f"candidates; {len(plan.eval_users)} eval users"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="predlim", description=__doc__)
    mechanisms = [name.replace("_", "-") for name in MECHANISMS]
    fixed = {name: spec.fixed for name, spec in MECHANISMS.items()}
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="read a (user,item,timestamp) CSV into log JSON")
    p.add_argument("--input", required=True)
    p.add_argument("--min-length", type=int, default=1)
    p.add_argument("--max-events", type=int, default=None)
    p.add_argument("--dedup", action="store_true")
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("estimate", help="per-user entropy estimates")
    p.add_argument("--log", required=True)
    p.add_argument("--estimator", choices=list(ESTIMATORS), default="sampen")
    _table_options(p, ESTIMATORS, choices={"unit": UNITS})
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("score", help="map entropies to predictability scores")
    p.add_argument("--log", required=True)
    p.add_argument("--entropy", default=None)
    p.add_argument("--method", choices=list(METHODS), required=True)
    p.add_argument(
        "--n-scope", choices=list(dict.fromkeys(s for m in METHODS.values() for s in m.scopes)),
        help="Fano candidate size: global for fano; pooled (default) or per-user for fano_nr",
    )
    _table_options(p, {"perm": ESTIMATORS["perm"]})
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("synth", help="generate an oracle-controlled synthetic corpus")
    p.add_argument("--mechanism", choices=mechanisms, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--users", type=int, required=True)
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--target-hit1", type=float, default=None)
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--p", type=float, default=None)
    _table_options(p, fixed)
    p.add_argument("--output", required=True, help="output directory")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("cohort", help="median-split cohort aggregation")
    p.add_argument("--log", required=True)
    p.add_argument("--scores", required=True)
    p.add_argument("--dimension", choices=list(DIMENSIONS), required=True)
    p.add_argument("--tail-mass", type=float, help="longtail only: the share the head items cover")
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_cohort)

    p = sub.add_parser("sweep", help="difficulty or item-space-size sweep")
    p.add_argument("--kind", choices=["difficulty", "n"], required=True)
    p.add_argument("--mechanism", choices=mechanisms, help="difficulty only (n: context-switch)")
    p.add_argument("--targets", type=_float_list, help="difficulty only; default 0.05,0.1,...,0.9")
    p.add_argument("--n-grid", type=_int_list, help="n only; default 100,316,...,100000")
    p.add_argument("--target-hit1", type=float, help="n only; default 0.10")
    p.add_argument("--methods", default=",".join(METHODS))
    p.add_argument("--reps", type=int, default=10)
    p.add_argument("--n", type=int, help="difficulty only; default 10000")
    p.add_argument("--users", type=int, default=300)
    p.add_argument("--length", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--estimator", choices=[e for e, row in ESTIMATORS.items() if "unit" in row],
                   help="read when a method reads entropy; default sampen")
    p.add_argument("--m", type=int, help="sampen's template length")
    _table_options(p, fixed, rename={"m": "m_latent"})
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("report", help="consistency against the reference accuracies")
    p.add_argument("--scores", required=True, help="CSV: dataset_id,method,predictability")
    p.add_argument("--reference", default=None, help="defaults to the shipped file")
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("select", help="materialize a budgeted training-data selection")
    p.add_argument("--log", required=True)
    p.add_argument("--scores", required=True)
    p.add_argument("--strategy", choices=["highpi", "random", "lowpi"], required=True)
    p.add_argument("--budget", type=float, required=True)
    p.add_argument("--eval-fraction", type=float, default=0.5)
    p.add_argument("--min-length", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output-dir", required=True)
    p.set_defaults(func=cmd_select)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError, csv.Error) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
