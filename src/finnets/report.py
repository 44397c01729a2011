"""Benchmark report files.

A report materializes as a canonical JSON document plus plot-ready CSV
companions. Emission is a pure function of the report it is given, so
emitting the same report twice yields byte-identical files. Its tables
and model comparisons are computed by `bench.EvalReport` from its runs;
this module only writes them. Wall-clock timing is the one
irreproducible field: `fin bench --zero-timing` zeroes it in the runs
and search records before they are written.
"""

import csv
import os

from .bench import EvalReport
from .engine import _canonical_json

RUNS_CSV = "runs.csv"
AGGREGATES_CSV = "aggregates.csv"
LOSS_CURVES_CSV = "loss_curves.csv"
FRACTION_CSV = "fraction_accuracy.csv"
SEARCH_CSV = "search_runs.csv"
REPORT_JSON = "report.json"


def _fmt(x) -> str:
    """A number as it is written to every report and printed: `%.17g`."""
    return "%.17g" % float(x)


def write_csv(path, header, rows) -> None:
    """Write one plot-ready table: the header, then each row, every line
    ending in "\n"."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


def emit_report(report: EvalReport, out_dir) -> dict:
    """Write the full report file set into a directory: every table and
    the model comparisons. Returns {name: path} for the files written."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {}

    def target(name):
        paths[name] = os.path.join(out_dir, name)
        return paths[name]

    write_csv(target(RUNS_CSV), [
        "run_index", "model_tag", "split_index", "fraction", "accuracy",
        "train_seconds", "n_train", "n_epochs", "best_epoch",
    ], ([r.run_index, r.model_tag, r.split_index, _fmt(r.fraction), _fmt(r.accuracy),
         _fmt(r.train_seconds), r.n_train, r.history.stopped_epoch if r.history else 0,
         r.history.best_epoch if r.history else 0] for r in report.runs))
    write_csv(target(AGGREGATES_CSV), [
        "model_tag", "n_runs", "mean_accuracy", "std_accuracy",
        "mean_train_seconds", "std_train_seconds",
    ], ([tag, agg["n_runs"], _fmt(agg["mean_accuracy"]), _fmt(agg["std_accuracy"]),
         _fmt(agg["mean_train_seconds"]), _fmt(agg["std_train_seconds"])]
        for tag, agg in report.aggregates.items()))
    # one curve per run; the split column carries the run index so rows
    # stay unique when several fractions share a split
    write_csv(target(LOSS_CURVES_CSV), ["epoch", "model_tag", "split", "train_loss", "val_loss"], (
        [e, r.model_tag, r.run_index, _fmt(tl), _fmt(vl)]
        for r in report.runs if r.history is not None
        for e, (tl, vl) in enumerate(zip(r.history.train_losses, r.history.val_losses), start=1)
    ))
    write_csv(target(FRACTION_CSV), [
        "fraction", "model_tag", "n_runs", "mean_accuracy", "std_accuracy",
    ], ([_fmt(row["fraction"]), row["model_tag"], row["n_runs"],
         _fmt(row["mean_accuracy"]), _fmt(row["std_accuracy"])]
        for row in report.fraction_aggregates))

    doc = {
        "meta": report.meta,
        "aggregates": report.aggregates,
        "fraction_aggregates": report.fraction_aggregates,
        "stats": report.stats,
        "runs": [
            {
                "run_index": r.run_index,
                "model_tag": r.model_tag,
                "split_index": r.split_index,
                "fraction": r.fraction,
                "accuracy": r.accuracy,
                "train_seconds": r.train_seconds,
                "n_train": r.n_train,
                "train_losses": list(r.history.train_losses) if r.history else [],
                "val_losses": list(r.history.val_losses) if r.history else [],
                "best_epoch": r.history.best_epoch if r.history else 0,
            }
            for r in report.runs
        ],
    }
    with open(target(REPORT_JSON), "w", encoding="utf-8", newline="") as fh:
        fh.write(_canonical_json(doc))
    return paths


def emit_search_records(records, out_dir) -> str:
    """Write baseline-search candidate results as their own CSV."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, SEARCH_CSV)
    write_csv(path, [
        "candidate", "split_index", "layer_sizes", "activation",
        "params", "val_accuracy", "train_seconds", "diverged",
    ], ([r["candidate"], r["split_index"], r["layer_sizes"], r["activation"], r["params"],
         _fmt(r["val_accuracy"]), _fmt(r["train_seconds"]), int(r["diverged"])]
        for r in records))
    return path

