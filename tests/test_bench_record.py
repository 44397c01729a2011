"""The parsers of `tools/bench_record.py`, on canned output."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"
_spec = importlib.util.spec_from_file_location("bench_record", TOOL)
br = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(br)


def run_stdout(wall_s=0.3, failed=0, digest="ab" * 32):
    report = {"workload": "corpus-io", "digests": [digest], "digest_stable": True,
              "environment": {"python": "3.11.7", "blas_threads": 1, "seed": 1}}
    result = {"correct": failed == 0, "attempted": 66, "failed": failed, "metrics": {
        "setup_s": {"value": 0.05, "unit": "s"},
        "wall_s": {"value": wall_s, "unit": "s"},
        "peak_rss_mb": {"value": 163.9, "unit": "MB"},
    }}
    return f"progress line\n{json.dumps(report)}\n{json.dumps(result)}\n"


def test_parse_run_reads_the_last_two_lines():
    report, result = br.parse_run(run_stdout(wall_s=0.25))
    assert report["digests"] == ["ab" * 32]
    assert br.metric_values(result) == {"setup_s": 0.05, "wall_s": 0.25, "peak_rss_mb": 163.9}
    with pytest.raises(ValueError, match="2 lines|1 lines"):
        br.parse_run(run_stdout().splitlines()[-1])
    with pytest.raises(ValueError, match="not a result"):
        br.parse_run('{"a": 1}\n{"b": 2}\n')


PYTEST_OUTPUT = """\
........[criterion 1] PASS entropy mae=0.0386 regularity mae=0.0297
.[criterion 2] PASS max rel err 3.1e-07 (<=1e-4)
.[criterion 3] PASS entropy=0.00e+00(<=1e-09) mfcc=4.26e-14(<=1e-06) 0.8s (<=60)
.[criterion 10] FAIL ratio 2.31 (<=2.0, serial)
F.s
============================= slowest 10 durations =============================
144.90s call     tests/test_acceptance.py::test_criterion_07_ensemble_benefit
25.90s setup    tests/test_acceptance.py::test_criterion_07_ensemble_benefit
0.01s teardown tests/test_engine.py::test_loaded_fin_is_the_trained_net

(3 durations < 0.005s hidden.  Use -vv to show these durations.)
=========================== short test summary info ============================
FAILED tests/test_acceptance.py::test_criterion_10_relative_speed - assert False
1 failed, 392 passed, 1 skipped in 372.11s (0:06:12)
"""


def test_parse_verdicts_reads_each_criterion_line():
    verdicts = br.parse_verdicts(PYTEST_OUTPUT)
    assert sorted(verdicts) == [1, 2, 3, 10]
    assert verdicts[1] == {"verdict": "PASS",
                           "detail": "entropy mae=0.0386 regularity mae=0.0297"}
    assert verdicts[10]["verdict"] == "FAIL"
    assert verdicts[3]["detail"].endswith("0.8s (<=60)")


def test_parse_durations_and_summary():
    assert br.parse_durations(PYTEST_OUTPUT) == [
        {"seconds": 144.9, "phase": "call",
         "test": "tests/test_acceptance.py::test_criterion_07_ensemble_benefit"},
        {"seconds": 25.9, "phase": "setup",
         "test": "tests/test_acceptance.py::test_criterion_07_ensemble_benefit"},
        {"seconds": 0.01, "phase": "teardown",
         "test": "tests/test_engine.py::test_loaded_fin_is_the_trained_net"},
    ]
    assert br.parse_summary(PYTEST_OUTPUT) == {
        "counts": {"failed": 1, "passed": 392, "skipped": 1}, "seconds": 372.11}
    assert br.parse_summary("2 errors in 0.50s\n")["counts"] == {"error": 2}
    # a criterion detail that mentions seconds is not the summary line
    with pytest.raises(ValueError, match="no pytest summary"):
        br.parse_summary("[criterion 3] PASS 0.8s (<=60)\n")


def test_pair_block_counts_wins_and_digests():
    walls = [(0.28, 0.31), (0.29, 0.30), (0.33, 0.32)]
    runs = [(seed, br.parse_run(run_stdout(c)), br.parse_run(run_stdout(p, digest="cd" * 32)))
            for seed, (c, p) in enumerate(walls, start=1)]
    block = br.pair_block(runs, "parent")
    wall = block["metrics"]["wall_s"]
    assert wall["change_lower"] == 2 and wall["pairs"] == 3
    assert wall["change"] == pytest.approx({"median": 0.29, "q1": 0.285, "q3": 0.31,
                                            "iqr": 0.025, "n": 3})
    assert wall["parent"]["median"] == 0.31
    assert wall["median_diff"] == pytest.approx(-0.02)
    assert "gap" not in wall
    first = block["seeds"][0]
    assert first["first"] == "change" and block["seeds"][1]["first"] == "parent"
    assert first["digest_change"] == "ab" * 32 and first["digest_parent"] == "cd" * 32
    assert first["digests_equal"] is False
    assert first["failed_change"] == first["failed_parent"] == 0
    # an A/A block also records the gap, copy minus original
    aa = br.pair_block(runs, "copy")["metrics"]["wall_s"]
    assert aa["gap"]["median"] == pytest.approx(0.01)
    assert aa["gap"]["n"] == 3


def test_spread_of_one_value():
    assert br.spread([2.0]) == {"median": 2.0, "q1": 2.0, "q3": 2.0, "iqr": 0.0, "n": 1}
