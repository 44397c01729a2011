"""Benchmark report emission and statistical comparisons.

Reports materialize as a canonical JSON document plus plot-ready CSV
companions. Emission is a pure function of the report contents, so
emitting the same report twice yields byte-identical files; wall-clock
timing is the one irreproducible field, and `zero_timing` blanks it for
byte-level comparisons.
"""

import csv
import os

import numpy as np

from . import stats as st
from .bench import EvalReport, _fmt, aggregate_fractions, aggregate_runs
from .engine import _canonical_json
from .errors import DegenerateGroups

RUNS_CSV = "runs.csv"
AGGREGATES_CSV = "aggregates.csv"
LOSS_CURVES_CSV = "loss_curves.csv"
FRACTION_CSV = "fraction_accuracy.csv"
SEARCH_CSV = "search_runs.csv"
REPORT_JSON = "report.json"


def _zeroed(report: EvalReport) -> EvalReport:
    import copy

    runs = []
    for r in report.runs:
        r2 = copy.copy(r)
        r2.train_seconds = 0.0
        runs.append(r2)
    return EvalReport(
        runs=runs,
        aggregates=aggregate_runs(runs),
        fraction_aggregates=aggregate_fractions(runs),
        stats=report.stats,
        meta=report.meta,
    )


def emit_report(report: EvalReport, out_dir, zero_timing: bool = False) -> dict:
    """Write the full report file set into a directory.

    Returns {name: path} for the files written. `zero_timing` replaces
    every wall-clock seconds field with 0.0 so two runs of the same seeded
    benchmark emit byte-identical trees.
    """
    os.makedirs(out_dir, exist_ok=True)
    if zero_timing:
        report = _zeroed(report)
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


def add_model_comparisons(report: EvalReport, comparisons, alpha: float = 0.05):
    """Append test rows comparing per-model accuracy samples.

    `comparisons` is a list of (kind, tag_a, tag_b, alternative) with kind
    in {"welch", "levene"}; alternative only applies to welch. All raw
    p-values are Bonferroni-corrected together as one family.
    """
    samples = {}
    for r in report.runs:
        samples.setdefault(r.model_tag, []).append(r.accuracy)
    rows = []
    for kind, tag_a, tag_b, alternative in comparisons:
        a = np.array(samples[tag_a])
        b = np.array(samples[tag_b])
        if kind == "welch":
            name = f"welch_one_tailed_{alternative or 'greater'}"
        elif kind == "levene":
            name = "levene"
        else:
            raise ValueError(f"unknown test kind {kind!r}")
        try:
            if kind == "welch":
                stat, p = st.welch_t_one_tailed(a, b, alternative or "greater")
            else:
                stat, p = st.levene_test([a, b])
        except DegenerateGroups:
            # e.g. two models with identical constant accuracy; the row
            # stays in the report but carries no p-value
            stat, p = None, None
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
        row["verdict"] = "significant" if cp < alpha else "not_significant"
    for row in rows:
        if row["p_value"] is None:
            row["corrected_p"] = None
            row["verdict"] = "degenerate"
    report.stats.extend(rows)
    return rows
