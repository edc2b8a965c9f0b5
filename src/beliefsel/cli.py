"""Command-line front end.

Subcommands: gen, rank, select, mrmr, eval, bench.  Results are JSON on
stdout or, with --out, written to a file only after the computation has
finished.  Exit codes: 0 success, 1 usage, 2 bad or missing data, 3 an
internal invariant was violated.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass

from .baselines import mrmr_select
from .benchdata import GroundTruth, generate, success_score
from .dataset import Dataset, parse_csv, parse_libsvm, write_csv, write_metadata
from .errors import DataError, IntegrityError
from .evaluation import cross_validate
from .selection import SelectorConfig, minmax_normalize, run_belief

__all__ = ["main", "build_parser", "RunReport", "bench_run"]


@dataclass
class RunReport:
    """Communication accounting of one partitioned search run."""

    n_instances: int
    n_features: int
    n_classes: int
    partitions: int
    k: int
    sample_size: int
    batches: int
    locator_records: int
    measured_pairs: int
    locator_bytes: int
    full_instance_bytes: int
    byte_ratio: float
    record_bound: int
    within_bound: bool
    timings: dict


def bench_run(dataset: Dataset, k: int = 3, sample_rate: float = 1.0,
              batches: int = 1, partitions: int = 1, seed: int = 0) -> RunReport:
    """Account the search payload of a relevance-only (theta 0) run.

    The counts come from the metadata of the same ``run_belief`` pipeline
    ``rank`` uses.  The record bound is sample_size * k * n_classes *
    partitions: each partition may emit at most k locators per class per
    sampled instance.  ``measured_pairs`` counts the exact distances the
    partitions computed, at least one per locator.
    """
    md = run_belief(dataset, SelectorConfig(
        n_select=1, k=k, sample_rate=sample_rate, batches=batches, theta=0.0,
        partitions=partitions, seed=seed)).metadata
    bound = md["sample_size"] * k * md["n_classes"] * partitions
    return RunReport(
        **{key: md[key] for key in (
            "n_instances", "n_features", "n_classes", "sample_size",
            "locator_records", "measured_pairs", "locator_bytes", "full_instance_bytes",
            "timings")},
        partitions=partitions,
        k=k,
        batches=batches,
        byte_ratio=(md["locator_bytes"] / md["full_instance_bytes"]
                    if md["full_instance_bytes"] else 0.0),
        record_bound=bound,
        within_bound=md["locator_records"] <= bound,
    )


# -- shared plumbing --------------------------------------------------------


def _load_dataset(args) -> Dataset:
    fmt = args.format
    if fmt is None:
        fmt = "libsvm" if args.input.endswith((".libsvm", ".svm", ".txt")) else "csv"
    label = args.label_column
    try:
        label = int(label)  # a numeric token means a position, not a name
    except (TypeError, ValueError):
        pass
    with open(args.input) as fh:
        if fmt == "libsvm":
            return parse_libsvm(fh)
        return parse_csv(fh, label_column=label)


def _selector_config(args, n_select: int, theta: float) -> SelectorConfig:
    return SelectorConfig(
        n_select=n_select,
        k=args.k,
        sample_rate=args.sample_rate,
        batches=args.batches,
        theta=theta,
        kappa=args.kappa,
        partitions=args.partitions,
        seed=args.seed,
    )


def _render(doc) -> str:
    """``json.dumps(doc, indent=2)``, byte for byte.  json's encoder runs in
    pure Python when it indents (about 10 s for a million features), so a
    top-level ``weights`` list of {"feature": int, "weight": finite float}
    records is written here instead: a float's ``repr`` is json's text for
    it.  Any other ``weights`` goes through json."""
    weights = doc.get("weights") if isinstance(doc, dict) else None
    items = []
    for w in weights or ():
        if not (type(w) is dict and tuple(w) == ("feature", "weight")
                and type(w["feature"]) is int and type(w["weight"]) is float
                and math.isfinite(w["weight"])):
            return json.dumps(doc, indent=2)
        items.append(f'    {{\n      "feature": {w["feature"]},\n'
                     f'      "weight": {w["weight"]!r}\n    }}')
    if items:
        token = json.dumps("\0weights")
        text = json.dumps({**doc, "weights": "\0weights"}, indent=2)
        if text.count(token) == 1:
            return text.replace(token, "[\n" + ",\n".join(items) + "\n  ]")
    return json.dumps(doc, indent=2)


def _emit(doc, args) -> None:
    text = _render(doc) + "\n"
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# -- subcommand handlers ----------------------------------------------------


def cmd_gen(args) -> int:
    ds, truth = generate(args.name, seed=args.seed)
    os.makedirs(args.out_dir, exist_ok=True)
    base = f"{args.out_dir.rstrip('/')}/{args.name}"
    data_path = f"{base}.csv"
    with open(data_path, "w") as fh:
        write_csv(ds, fh)
    with open(f"{base}.truth.json", "w") as fh:
        truth.write(fh)
    with open(f"{base}.meta.json", "w") as fh:
        write_metadata(ds, fh)
    sys.stdout.write(json.dumps({
        "data": data_path,
        "truth": f"{base}.truth.json",
        "metadata": f"{base}.meta.json",
        "n_instances": ds.n_instances,
        "n_features": ds.n_features,
    }, indent=2) + "\n")
    return 0


def cmd_rank(args) -> int:
    if args.nfeat is not None and args.nfeat < 1:
        raise DataError(f"--nfeat must be >= 1, got {args.nfeat}")
    ds = _load_dataset(args)
    config = _selector_config(args, n_select=ds.n_features, theta=0.0)
    result = run_belief(ds, config)
    if args.threshold is not None:
        wn = minmax_normalize(result.weights.values)
        result.metadata["above_threshold"] = (wn > args.threshold).nonzero()[0].tolist()
    for name in ("features", "normalized", "penalties", "scores"):
        # Copies, so the unprinted picks go before rendering; all without --nfeat.
        setattr(result, name, getattr(result, name)[:args.nfeat].copy())
    _emit(result.to_json_obj(), args)
    return 0


def cmd_select(args) -> int:
    ds = _load_dataset(args)
    config = _selector_config(args, n_select=args.nfeat, theta=args.theta)
    result = run_belief(ds, config)
    _emit(result.to_json_obj(), args)
    return 0


def cmd_mrmr(args) -> int:
    ds = _load_dataset(args)
    result = mrmr_select(ds, n_select=args.nfeat, bins=args.bins)
    _emit(result.to_json_obj(), args)
    return 0


def cmd_eval(args) -> int:
    ds = _load_dataset(args)
    doc: dict = {}
    if args.selection and args.truth:
        with open(args.selection) as fh:
            try:
                sel = json.load(fh)
            except json.JSONDecodeError as exc:
                raise DataError(f"{args.selection}: {exc}") from None
        entries = sel.get("selected", []) if isinstance(sel, dict) else None
        if not isinstance(entries, list):
            raise DataError(f"{args.selection}: not an object with a 'selected' list")
        if not all(isinstance(s, dict) and "feature" in s for s in entries):
            raise DataError(f"{args.selection}: a selected entry has no 'feature' key")
        selected = [s["feature"] for s in entries]
        if not all(type(j) is int for j in selected):  # not bool, float or str
            raise DataError(f"{args.selection}: a selected 'feature' is not an integer")
        with open(args.truth) as fh:
            truth = GroundTruth.read(fh)
        doc["success"] = success_score(selected, truth, zeta=args.zeta)
        doc["selected"] = selected
    elif args.truth or args.selection:
        raise DataError("success scoring needs both --selection and --truth")
    if args.cv:
        select_fn = lambda train: (
            mrmr_select(train, args.nfeat, args.bins) if args.method == "mrmr"
            else run_belief(train, _selector_config(args, args.nfeat, args.theta))
        ).selected_features()
        doc["cv"] = cross_validate(ds, folds=args.cv, select_fn=select_fn,
                                   knn_k=args.knn_k, seed=args.seed)
    if not doc:
        raise DataError("nothing to evaluate: pass --selection/--truth or --cv")
    _emit(doc, args)
    return 0


def cmd_bench(args) -> int:
    ds = _load_dataset(args)
    report = bench_run(ds, k=args.k, sample_rate=args.sample_rate,
                       batches=args.batches, partitions=args.partitions,
                       seed=args.seed)
    _emit(asdict(report), args)
    return 0


# -- parser -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="beliefsel",
        description="Partitioned feature weighting and selection")
    sub = parser.add_subparsers(dest="command", required=True)

    io_parent = argparse.ArgumentParser(add_help=False)
    io_parent.add_argument("--input", required=True, help="dataset file")
    io_parent.add_argument("--format", choices=["libsvm", "csv"], default=None,
                           help="input format (default: guess from extension)")
    io_parent.add_argument("--label-column", default=-1,
                           help="CSV label column name or position (default last)")
    io_parent.add_argument("--out", default=None, help="write JSON here")
    io_parent.add_argument("--seed", type=int, default=0)

    run_parent = argparse.ArgumentParser(add_help=False)
    run_parent.add_argument("--k", type=int, default=3)
    run_parent.add_argument("--sample-rate", type=float, default=1.0)
    run_parent.add_argument("--batches", type=int, default=1)
    run_parent.add_argument("--kappa", type=float, default=0.8)
    run_parent.add_argument("--partitions", type=int, default=1)

    p = sub.add_parser("gen", help="write a synthetic benchmark to disk")
    p.add_argument("name")
    p.add_argument("--out-dir", default=".")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("rank", parents=[io_parent, run_parent],
                       help="rank features by weight (no redundancy penalty)")
    p.add_argument("--nfeat", type=int, default=None,
                   help="truncate the reported selection")
    p.add_argument("--threshold", type=float, default=None,
                   help="also report features above this normalized weight")
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("select", parents=[io_parent, run_parent],
                       help="redundancy-penalized forward selection")
    p.add_argument("--nfeat", type=int, required=True)
    p.add_argument("--theta", type=float, default=0.5)
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("mrmr", parents=[io_parent],
                       help="mutual-information baseline selection")
    p.add_argument("--nfeat", type=int, required=True)
    p.add_argument("--bins", type=int, default=10)
    p.set_defaults(func=cmd_mrmr)

    p = sub.add_parser("eval", parents=[io_parent, run_parent],
                       help="score a selection or cross-validate the pipeline")
    p.add_argument("--selection", default=None, help="selection JSON to score")
    p.add_argument("--truth", default=None, help="ground-truth JSON sidecar")
    p.add_argument("--zeta", type=float, default=0.1)
    p.add_argument("--cv", type=int, default=None, help="cross-validation folds")
    p.add_argument("--method", choices=["belief", "mrmr"], default="belief")
    p.add_argument("--nfeat", type=int, default=10)
    p.add_argument("--theta", type=float, default=0.5)
    p.add_argument("--bins", type=int, default=10)
    p.add_argument("--knn-k", type=int, default=3)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bench", parents=[io_parent, run_parent],
                       help="communication accounting of the search phase")
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except (DataError, FileNotFoundError, IsADirectoryError, PermissionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except IntegrityError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
