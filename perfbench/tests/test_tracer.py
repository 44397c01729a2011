"""Tests of the benchmark's tracer and of how runs install it.

Run from the repository root:

    python -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

from perfbench.run import Calibration, run_jobs
from perfbench.tracer import Span, Target, Tracer, self_times, summarize

ROOT = Path(__file__).resolve().parents[2]


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 4.0, 0),
        Span("c", 2.0, 3.0, 1),
        Span("b", 5.0, 9.0, 0),
        # overlapping children of b cover [5, 7] once, not 1 + 1.5
        Span("d", 5.0, 6.0, 3),
        Span("e", 5.5, 7.0, 3),
        # a child running past its parent only counts inside the parent
        Span("f", 8.5, 9.5, 3),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 1.5, 1.0, 1.5, 1.0])
    table = summarize(spans + [Span("a", 20.0, 21.0, -1)])
    assert table["a"] == pytest.approx({"calls": 2, "self_s": 3.0, "total_s": 4.0})
    assert table["root"]["self_s"] == pytest.approx(3.0)


def _fake_module():
    ticks = iter(range(100))
    clock = lambda: float(next(ticks))  # noqa: E731

    def leaf(x):
        return x + 1

    def outer(x):
        return mod.leaf(x) * 2

    mod = types.SimpleNamespace(leaf=leaf, outer=outer)
    return mod, clock


def test_wrapped_calls_record_nested_spans_and_counters():
    mod, clock = _fake_module()
    tracer = Tracer(clock=clock)

    def count(tr, args, kwargs, result):
        tr.counters["leaf.arg"] += args[0]
        return result

    targets = [Target(mod, "outer", "outer"), Target(mod, "leaf", lambda a, k: f"leaf.{a[0]}", count)]
    with tracer.installed(targets):
        assert mod.outer(3) == 8
    spans, counters, _ = tracer.take()
    assert [(s.name, s.start, s.end, s.parent) for s in spans] == [
        ("outer", 0.0, 3.0, -1),
        ("leaf.3", 1.0, 2.0, 0),
    ]
    assert counters["leaf.arg"] == 3
    assert tracer.take()[0] == []


def test_installed_restores_originals_even_when_the_block_raises():
    mod, _ = _fake_module()
    originals = (mod.leaf, mod.outer)

    class Model:
        def fit(self):
            return "fitted"

    fit = Model.fit
    targets = [Target(mod, "leaf", "leaf"), Target(mod, "outer", "outer"), Target(Model, "fit", "fit")]
    with pytest.raises(KeyError):
        with Tracer().installed(targets):
            assert mod.leaf is not originals[0] and Model.fit is not fit
            assert Model().fit() == "fitted"
            raise KeyError("boom")
    assert (mod.leaf, mod.outer) == originals
    assert Model.fit is fit


def test_untraced_run_installs_nothing_and_traced_run_removes_wrappers():
    mod, _ = _fake_module()
    originals = (mod.leaf, mod.outer)
    targets = [Target(mod, "leaf", "leaf"), Target(mod, "outer", "outer")]

    def job():
        return {"wrapped": (mod.leaf, mod.outer) != originals, "value": mod.outer(1)}

    untraced = run_jobs(job, 0.0, targets, trace=False)
    assert untraced and not any(r["traced"] or r["out"]["wrapped"] for r in untraced)
    assert (mod.leaf, mod.outer) == originals

    traced = run_jobs(job, 0.0, targets, trace=True)
    assert [r["traced"] for r in traced] == [r["out"]["wrapped"] for r in traced]
    assert any(r["traced"] for r in traced) and not all(r["traced"] for r in traced)
    assert all(len(r["trace"][0]) == 2 for r in traced if r["traced"])
    assert (mod.leaf, mod.outer) == originals


def test_run_jobs_stops_at_a_failing_job():
    calls = []

    def job():
        calls.append(1)
        raise ValueError("bad input")

    records = run_jobs(job, 5.0, (), trace=False)
    assert len(records) == 1 and "ValueError" in records[0]["error"]


def test_each_job_is_calibrated_by_the_kernel_times_around_it(tmp_path):
    kernel = iter([1.0, 3.0, 5.0, 9.0])
    records = run_jobs(lambda: None, 0.0, (), trace=False, calibration=lambda: next(kernel))
    assert [r["kernel_s"] for r in records] == [2.0, 4.0, 7.0]
    calibration = Calibration(str(tmp_path), ("loop", "text"))
    reference = Calibration.REFERENCE_S["loop"] + Calibration.REFERENCE_S["text"]
    assert calibration.calibrated([2.0, 8.0, 1.0], [2.0, 4.0, 0.5]) == pytest.approx(2.0 * reference)


def test_every_trace_target_exists_in_the_program():
    sys.path.insert(0, str(ROOT / "src"))
    from perfbench import workloads

    for t in workloads.trace_targets():
        assert callable(getattr(t.owner, t.attr)), f"{t.owner}.{t.attr}"


def test_benchmark_json_lists_the_metrics_the_run_prints():
    sys.path.insert(0, str(ROOT / "src"))
    from perfbench import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == \
        [tuple(m) for m in workloads.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [tuple(m) for m in workloads.PER_LAYER]
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_a_short_run_prints_every_listed_metric(trace):
    proc = _run(ROOT, "--workload", "corpus-io", "--seed", "3", "--seconds", "0", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer" if trace == "1" else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _run(tmp_path, "--workload", "corpus-io", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
