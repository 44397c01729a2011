"""Report emission and the model comparisons a report computes from its runs."""

import csv
import json

import numpy as np
import pytest

from finnets import bench, report, stats


def run_record(i, tag, k, fraction, acc, sec, history=None):
    return bench.RunRecord(i, tag, k, fraction, acc, sec, n_train=8, history=history)


class FakeHistory:
    def __init__(self, train_losses, val_losses):
        self.train_losses = list(train_losses)
        self.val_losses = list(val_losses)
        self.best_epoch = int(np.argmin(val_losses)) + 1
        self.stopped_epoch = len(val_losses)


def small_report():
    runs = [
        run_record(0, "a", 0, 1.0, 0.8, 1.5, FakeHistory([0.9, 0.5], [1.0, 0.6])),
        run_record(1, "b", 0, 1.0, 0.6, 2.5),
        run_record(2, "a", 1, 1.0, 0.9, 1.0, FakeHistory([0.8], [0.7])),
        run_record(3, "b", 1, 1.0, 0.7, 2.0),
    ]
    return bench.EvalReport(runs=runs, meta={"seed": 1})


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_emit_report_layout(tmp_path):
    paths = report.emit_report(small_report(), tmp_path)
    assert set(paths) == {
        report.RUNS_CSV, report.AGGREGATES_CSV, report.LOSS_CURVES_CSV,
        report.FRACTION_CSV, report.REPORT_JSON,
    }
    runs = read_rows(paths[report.RUNS_CSV])
    assert len(runs) == 5  # header + 4 runs
    assert runs[0][:5] == ["run_index", "model_tag", "split_index", "fraction", "accuracy"]
    curves = read_rows(paths[report.LOSS_CURVES_CSV])
    # runs without history contribute no curve rows
    assert len(curves) == 1 + 2 + 1
    # the split column carries the run index so rows stay unique
    assert [c[2] for c in curves[1:]] == ["0", "0", "2"]
    doc = json.loads(open(paths[report.REPORT_JSON]).read())
    assert doc["meta"] == {"seed": 1}
    assert doc["runs"][0]["val_losses"] == [1.0, 0.6]
    assert doc["runs"][1]["val_losses"] == []


def test_emit_search_records(tmp_path):
    records = [{
        "candidate": 0, "split_index": 1, "layer_sizes": "8x4x2",
        "activation": "relu", "params": 50, "val_accuracy": 0.75,
        "train_seconds": 0.5, "diverged": False,
    }]
    path = report.emit_search_records(records, tmp_path)
    rows = read_rows(path)
    assert rows[1][2] == "8x4x2"
    assert rows[1][7] == "0"


def test_add_model_comparisons():
    rng = np.random.default_rng(np.random.PCG64(3))
    runs = []
    for i in range(20):
        runs.append(run_record(len(runs), "hi", i, 1.0, 0.9 + rng.normal() * 0.01, 0.0))
        runs.append(run_record(len(runs), "lo", i, 1.0, 0.6 + rng.normal() * 0.01, 0.0))
    rep = bench.EvalReport(runs=runs)
    rows = rep.stats
    assert len(rows) == 2
    rows[0]["verdict"] = "edited"  # a read returns new rows: nothing accumulates
    assert rep.stats != rows and len(rep.stats) == 2
    rows = rep.stats
    welch = rows[0]
    assert welch["test_name"] == "welch_one_tailed_greater"
    assert welch["verdict"] == "significant"
    assert welch["corrected_p"] == pytest.approx(min(1.0, welch["p_value"] * 2))


def test_add_model_comparisons_degenerate_rows():
    runs = []
    for i in range(4):
        runs.append(run_record(len(runs), "a", i, 1.0, 1.0, 0.0))
        runs.append(run_record(len(runs), "b", i, 1.0, 1.0, 0.0))
    rows = bench.EvalReport(runs=runs).stats
    assert len(rows) == 2
    for row in rows:
        assert row["p_value"] is None
        assert row["verdict"] == "degenerate"
    # degenerate rows must serialize as strict JSON
    json.dumps(rows)


def three_model_report(runs_of_last=3):
    """Models z, a, m (in that order, not sorted) with three runs each, or
    `runs_of_last` runs of the last model."""
    rng = np.random.default_rng(np.random.PCG64(8))
    means = {"z": 0.9, "a": 0.7, "m": 0.5}
    runs = []
    for k in range(3):
        for tag in ("z", "a", "m")[: 3 if k < runs_of_last else 2]:
            acc = means[tag] + rng.normal() * 0.05
            runs.append(run_record(len(runs), tag, k, 1.0, acc, 0.0))
    return bench.EvalReport(runs=runs)


def test_comparisons_cover_every_pair_in_run_order():
    rep = three_model_report()
    rows = rep.stats
    assert [(r["test_name"], r["groups"]) for r in rows] == [
        ("welch_one_tailed_greater", "z vs a"), ("levene", "z vs a"),
        ("welch_one_tailed_greater", "z vs m"), ("levene", "z vs m"),
        ("welch_one_tailed_greater", "a vs m"), ("levene", "a vs m"),
    ]
    acc = {tag: [r.accuracy for r in rep.runs if r.model_tag == tag] for tag in "zam"}
    for row in rows:
        a, b = (np.array(acc[t]) for t in row["groups"].split(" vs "))
        if row["test_name"] == "levene":
            want = stats.levene_test([a, b])
        else:
            want = stats.welch_t_one_tailed(a, b, "greater")
        assert (row["statistic"], row["p_value"]) == want
        # Bonferroni over the family of six
        assert row["corrected_p"] == min(1.0, 6 * row["p_value"])
        verdict = "significant" if row["corrected_p"] < 0.05 else "not_significant"
        assert row["verdict"] == verdict


def test_two_runs_per_model_leave_levene_degenerate():
    # `fin bench --task feature-threshold:entropy --items 60 --seed 1
    # --repeats 2 --models knn,linear-margin` ran these accuracies; its
    # Levene row read W = 1.0016e+30 and `significant`
    acc = {"knn": [0.66666666666666663, 0.55555555555555558],
           "linear-margin": [0.55555555555555558] * 2, "m": [0.5, 0.75]}
    runs = [run_record(3 * k + j, tag, k, 1.0, acc[tag][k], 0.0)
            for k in range(2) for j, tag in enumerate(acc)]
    rows = bench.EvalReport(runs=runs).stats
    assert [(r["test_name"], r["groups"]) for r in rows] == [
        ("welch_one_tailed_greater", "knn vs linear-margin"), ("levene", "knn vs linear-margin"),
        ("welch_one_tailed_greater", "knn vs m"), ("levene", "knn vs m"),
        ("welch_one_tailed_greater", "linear-margin vs m"), ("levene", "linear-margin vs m"),
    ]
    for row in rows[1::2]:
        assert (row["statistic"], row["p_value"], row["corrected_p"], row["verdict"]) == (
            None, None, None, "degenerate")
    # the Bonferroni family is the three Welch rows alone
    for row in rows[0::2]:
        a, b = (acc[t] for t in row["groups"].split(" vs "))
        assert (row["statistic"], row["p_value"]) == stats.welch_t_one_tailed(a, b, "greater")
        assert row["corrected_p"] == min(1.0, 3 * row["p_value"])
        assert row["verdict"] in ("significant", "not_significant")


def test_no_comparisons_when_a_model_has_one_run():
    assert three_model_report(runs_of_last=1).stats == []
    single = bench.EvalReport(runs=three_model_report().runs[:1] * 3)
    assert single.stats == []  # one model
