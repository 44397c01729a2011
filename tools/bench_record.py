"""Record the declared benchmark of a change against its parent commit.

    python3 tools/bench_record.py --parent baa92ca --out BENCH_26.json

Run it from the root of a git checkout whose working tree is the change.
It changes nothing under `perfbench/` and runs `perfbench/run.py` as it
stands, once per workload and seed, as

    python3 perfbench/run.py --workload W --seed N --seconds 20 --trace 0

and writes one JSON file with four blocks:

- `pairs`: for each workload and seeds 1-10, one run in an export of the
  parent commit (`git archive` into a temporary directory, removed
  afterwards) and one in the working tree. The parent runs first at even
  seeds and the change at odd ones. Per metric: each side's median,
  quartiles and run count, and the number of pairs in which the change
  read lower. Per seed: both digests, whether they are equal, and each
  side's failed-operation count.
- `aa`: the working tree against a copy of itself in another directory,
  10 pairs per workload, with the median gap (copy minus original) per
  metric and its quartiles. That gap is the noise floor of a claim.
- `machine`: the `environment` block of a change-side report, and the
  OpenBLAS core name read in this process.
- `acceptance`: one `-s` run of the Tier-1 command in the working tree:
  the ten `[criterion N] PASS|FAIL` lines, the pass/fail counts, the wall
  time and the `--durations` lines.

The file is rewritten after every workload, so an interrupted run keeps
what it measured. Progress goes to stderr.
"""

import argparse
import ctypes
import glob
import io
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

WORKLOADS = ("corpus-io", "pretrain-entropy", "transfer-bench")
SEEDS = range(1, 11)
SECONDS = 20
METRICS = ("setup_s", "wall_s", "peak_rss_mb")
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "-s"]
RUN_TIMEOUT_S = 600
TIER1_TIMEOUT_S = 3600

VERDICT = re.compile(r"\[criterion (\d+)\] (PASS|FAIL) ([^\n]*)")
DURATION = re.compile(r"^(\d+(?:\.\d+)?)s (setup|call|teardown) +(\S+)$", re.M)
COUNT = re.compile(r"(\d+) (passed|failed|skipped|errors?|xfailed|xpassed|deselected)\b")
SUMMARY_SECONDS = re.compile(r" in (\d+(?:\.\d+)?)s\b")


# ---------------------------------------------------------------------------
# parsers of the output of perfbench/run.py and of pytest
# ---------------------------------------------------------------------------

def parse_run(stdout: str):
    """(report, result) from the stdout of one `perfbench/run.py` run:
    its last two lines are the report JSON, then the result JSON."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if len(lines) < 2:
        raise ValueError(f"expected a report and a result line, got {len(lines)} lines")
    report, result = json.loads(lines[-2]), json.loads(lines[-1])
    if not {"correct", "attempted", "failed", "metrics"} <= result.keys():
        raise ValueError("the last line is not a result object")
    return report, result


def parse_verdicts(text: str) -> dict:
    """{criterion number: {"verdict", "detail"}} of every `[criterion N]
    PASS|FAIL detail` line; a later line for the same criterion wins."""
    return {int(n): {"verdict": verdict, "detail": detail.strip()}
            for n, verdict, detail in VERDICT.findall(text)}


def parse_durations(text: str) -> list:
    """The `--durations` lines as {"seconds", "phase", "test"}, in order."""
    return [{"seconds": float(s), "phase": phase, "test": test}
            for s, phase, test in DURATION.findall(text)]


def parse_summary(text: str) -> dict:
    """Outcome counts and seconds of pytest's last summary line, such as
    `392 passed, 1 skipped in 372.11s (0:06:12)`."""
    lines = [line for line in text.splitlines() if SUMMARY_SECONDS.search(line)
             and COUNT.search(line)]
    if not lines:
        raise ValueError("no pytest summary line")
    last = lines[-1]
    counts = {kind.rstrip("s") if kind.startswith("error") else kind: int(n)
              for n, kind in COUNT.findall(last)}
    return {"counts": counts, "seconds": float(SUMMARY_SECONDS.search(last).group(1))}


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def spread(values) -> dict:
    """Median, quartiles and count of `values` (inclusive quartiles)."""
    values = list(values)
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1, "n": len(values)}


def compare(change: list, other: list, name: str) -> dict:
    """Per-side spread of paired values, the change's median less the
    other side's, and the number of pairs in which the change read lower."""
    return {
        "change": spread(change),
        name: spread(other),
        "median_diff": statistics.median(change) - statistics.median(other),
        "change_lower": sum(c < o for c, o in zip(change, other)),
        "pairs": len(change),
    }


def metric_values(result: dict) -> dict:
    return {name: result["metrics"][name]["value"] for name in METRICS}


def digest_of(report: dict):
    digests = report.get("digests", [])
    return digests[0] if report.get("digest_stable") and digests else digests


def pair_block(runs: list, other: str) -> dict:
    """The record of one workload from [(seed, change run, other run)],
    each run a (report, result) pair; `other` names the second tree."""
    seeds = []
    for seed, (c_rep, c_res), (o_rep, o_res) in runs:
        seeds.append({
            "seed": seed,
            "first": "change" if seed % 2 else other,
            "digest_change": digest_of(c_rep),
            f"digest_{other}": digest_of(o_rep),
            "digests_equal": digest_of(c_rep) == digest_of(o_rep),
            "failed_change": c_res["failed"],
            f"failed_{other}": o_res["failed"],
            "attempted_change": c_res["attempted"],
            f"attempted_{other}": o_res["attempted"],
        })
    metrics = {}
    for name in METRICS:
        change = [metric_values(c)[name] for _, (_, c), _ in runs]
        second = [metric_values(o)[name] for _, _, (_, o) in runs]
        metrics[name] = compare(change, second, other)
        if other == "copy":  # an A/A run: the gap is the noise floor
            metrics[name]["gap"] = spread([b - a for a, b in zip(change, second)])
    return {"metrics": metrics, "seeds": seeds}


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

def openblas_corename() -> str:
    """The core name of the OpenBLAS that numpy loaded here, or ''."""
    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for lib in glob.glob(os.path.join(libs, "*openblas*")):
        for symbol in ("scipy_openblas_get_corename64_", "openblas_get_corename64_",
                       "openblas_get_corename"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_char_p
                return fn().decode()
    return ""


def run_workload(tree: str, workload: str, seed: int):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return parse_run(proc.stdout)


def run_pairs(change: str, other: str, workload: str, label: str) -> list:
    """Seeded pairs of runs in the two trees; the change goes first at odd seeds."""
    runs = []
    for seed in SEEDS:
        order = (change, other) if seed % 2 else (other, change)
        done = {tree: run_workload(tree, workload, seed) for tree in order}
        runs.append((seed, done[change], done[other]))
        wall = [metric_values(done[t][1])["wall_s"] for t in (change, other)]
        print(f"[{label}] {workload} seed {seed}: wall_s change {wall[0]:.4f}"
              f" other {wall[1]:.4f}", file=sys.stderr, flush=True)
    return runs


def export_commit(rev: str, into: str) -> None:
    """The committed files of `rev` under `into`, through `git archive`."""
    proc = subprocess.run(["git", "archive", "--format=tar", rev], capture_output=True,
                          check=True)
    with tarfile.open(fileobj=io.BytesIO(proc.stdout), mode="r:") as tar:
        tar.extractall(into, filter="data")


def run_acceptance(tree: str) -> dict:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in ("src", os.environ.get("PYTHONPATH")) if p)}
    t0 = time.perf_counter()
    proc = subprocess.run(TIER1, cwd=tree, env=env, capture_output=True, text=True,
                          timeout=TIER1_TIMEOUT_S)
    wall = time.perf_counter() - t0
    text = proc.stdout + proc.stderr
    return {
        "command": " ".join(["PYTHONPATH=src", "python", *TIER1[1:]]),
        "exit_code": proc.returncode,
        "wall_s": wall,
        "summary": parse_summary(text),
        "verdicts": parse_verdicts(text),
        "durations": parse_durations(text),
    }


def write(doc: dict, path: str) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="the parent commit to compare against")
    ap.add_argument("--out", required=True, help="the JSON file to write")
    args = ap.parse_args(argv)
    change = os.getcwd()
    parent_rev = subprocess.run(["git", "rev-parse", args.parent], capture_output=True,
                                text=True, check=True).stdout.strip()
    doc = {
        "parent": parent_rev,
        "command": f"python3 perfbench/run.py --workload W --seed N --seconds {SECONDS}"
                   " --trace 0",
        "seeds": list(SEEDS),
        "machine": {"openblas_corename": openblas_corename()},
        "pairs": {}, "aa": {}, "acceptance": None,
    }
    with tempfile.TemporaryDirectory(prefix="bench-record-") as tmp:
        parent = os.path.join(tmp, "parent")
        copy = os.path.join(tmp, "copy")
        export_commit(parent_rev, parent)
        shutil.copytree(change, copy, ignore=shutil.ignore_patterns(".git"))
        for workload in WORKLOADS:
            runs = run_pairs(change, parent, workload, "pairs")
            doc["machine"]["environment"] = {
                k: v for k, v in runs[0][1][0]["environment"].items() if k != "seed"}
            doc["pairs"][workload] = pair_block(runs, "parent")
            write(doc, args.out)
        for workload in WORKLOADS:
            doc["aa"][workload] = pair_block(run_pairs(change, copy, workload, "a/a"), "copy")
            write(doc, args.out)
    doc["acceptance"] = run_acceptance(change)
    write(doc, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
