"""Benchmark report emission and statistical comparisons.

Reports materialize as a canonical JSON document plus plot-ready CSV
companions. Emission is a pure function of the report contents, so
emitting the same report twice yields byte-identical files; wall-clock
timing is the one irreproducible field, and `zero_timing` blanks it for
byte-level comparisons.
"""

import csv
import itertools
import os
from dataclasses import replace

import numpy as np

from . import stats as st
from .bench import EvalReport, _fmt
from .engine import _canonical_json
from .errors import DegenerateGroups

RUNS_CSV = "runs.csv"
AGGREGATES_CSV = "aggregates.csv"
LOSS_CURVES_CSV = "loss_curves.csv"
FRACTION_CSV = "fraction_accuracy.csv"
SEARCH_CSV = "search_runs.csv"
REPORT_JSON = "report.json"
ALPHA = 0.05  # family-wise significance level of the model comparisons


def emit_report(report: EvalReport, out_dir, zero_timing: bool = False) -> dict:
    """Write the full report file set into a directory.

    Returns {name: path} for the files written. `zero_timing` replaces
    every wall-clock seconds field with 0.0 so two runs of the same seeded
    benchmark emit byte-identical trees.
    """
    os.makedirs(out_dir, exist_ok=True)
    if zero_timing:
        report = replace(
            report, runs=[replace(r, train_seconds=0.0) for r in report.runs]
        )
    paths = {}

    def target(name):
        paths[name] = os.path.join(out_dir, name)
        return paths[name]

    with open(target(RUNS_CSV), "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow([
            "run_index", "model_tag", "split_index", "fraction",
            "accuracy", "train_seconds", "n_train", "n_epochs", "best_epoch",
        ])
        for r in report.runs:
            n_epochs = r.history.stopped_epoch if r.history else 0
            best = r.history.best_epoch if r.history else 0
            w.writerow([
                r.run_index, r.model_tag, r.split_index, _fmt(r.fraction),
                _fmt(r.accuracy), _fmt(r.train_seconds), r.n_train,
                n_epochs, best,
            ])

    with open(target(AGGREGATES_CSV), "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow([
            "model_tag", "n_runs", "mean_accuracy", "std_accuracy",
            "mean_train_seconds", "std_train_seconds",
        ])
        for tag, agg in report.aggregates.items():
            w.writerow([
                tag, agg["n_runs"], _fmt(agg["mean_accuracy"]),
                _fmt(agg["std_accuracy"]), _fmt(agg["mean_train_seconds"]),
                _fmt(agg["std_train_seconds"]),
            ])

    # one curve per run; the split column carries the run index so rows
    # stay unique when several fractions share a split
    with open(target(LOSS_CURVES_CSV), "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["epoch", "model_tag", "split", "train_loss", "val_loss"])
        for r in report.runs:
            if r.history is None:
                continue
            for e, (tl, vl) in enumerate(
                zip(r.history.train_losses, r.history.val_losses), start=1
            ):
                w.writerow([e, r.model_tag, r.run_index, _fmt(tl), _fmt(vl)])

    with open(target(FRACTION_CSV), "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["fraction", "model_tag", "n_runs", "mean_accuracy", "std_accuracy"])
        for row in report.fraction_aggregates:
            w.writerow([
                _fmt(row["fraction"]), row["model_tag"], row["n_runs"],
                _fmt(row["mean_accuracy"]), _fmt(row["std_accuracy"]),
            ])

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
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow([
            "candidate", "split_index", "layer_sizes", "activation",
            "params", "val_accuracy", "train_seconds", "diverged",
        ])
        for r in records:
            w.writerow([
                r["candidate"], r["split_index"], r["layer_sizes"],
                r["activation"], r["params"], _fmt(r["val_accuracy"]),
                _fmt(r["train_seconds"]), int(r["diverged"]),
            ])
    return path


def _tested(test, *args):
    """`test(*args)` as (statistic, p), or (None, None) for degenerate
    groups, such as two models with identical constant accuracy: the row
    stays in the report but carries no p-value."""
    try:
        return test(*args)
    except DegenerateGroups:
        return None, None


def add_model_comparisons(report: EvalReport):
    """Append test rows comparing every pair of models' accuracy samples.

    Models are taken in the order they first appear in `report.runs`; for
    each pair (a, b), a one-tailed Welch test of a > b and then a Levene
    test. All raw p-values are Bonferroni-corrected together as one family
    at `ALPHA`. Nothing is added unless there are at least two models and
    each has at least two runs. Returns the rows added.
    """
    samples = {}
    for r in report.runs:
        samples.setdefault(r.model_tag, []).append(r.accuracy)
    if len(samples) < 2 or any(len(acc) < 2 for acc in samples.values()):
        return []
    rows = []
    for tag_a, tag_b in itertools.combinations(samples, 2):
        a, b = np.array(samples[tag_a]), np.array(samples[tag_b])
        for name, (stat, p) in (
            ("welch_one_tailed_greater", _tested(st.welch_t_one_tailed, a, b, "greater")),
            ("levene", _tested(st.levene_test, [a, b])),
        ):
            rows.append({
                "test_name": name,
                "groups": f"{tag_a} vs {tag_b}",
                "statistic": None if stat is None else float(stat),
                "p_value": None if p is None else float(p),
            })
    testable = [row for row in rows if row["p_value"] is not None]
    corrected = st.bonferroni([row["p_value"] for row in testable])
    for row, cp in zip(testable, corrected):
        row["corrected_p"] = float(cp)
        row["verdict"] = "significant" if cp < ALPHA else "not_significant"
    for row in rows:
        if row["p_value"] is None:
            row["corrected_p"] = None
            row["verdict"] = "degenerate"
    report.stats.extend(rows)
    return rows
