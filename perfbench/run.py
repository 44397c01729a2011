"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload corpus-io --seed 1 --seconds 10 --trace 0

Run it from the root of a source checkout: it imports the program from
`src/` and exits with code 2 when that is missing. The BLAS thread count
is pinned to 1 before numpy loads. Setup runs SETUP_REPS times; the job
then repeats for `--seconds` (at least MIN_JOBS times) and each figure is
the median over jobs. With `--trace 1`, untraced and traced jobs alternate
and the per-layer figures come from the traced ones.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with `--trace 0`, the per-layer ones with `--trace 1`. The line before it
is a JSON report with the workload figures, the output digests, every
failed check and the environment. The spans of a traced run are written
to `.perfbench_out/` at the end.
"""

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if __package__ in (None, ""):  # run as a script: leave no bytecode in the checkout
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT))

from perfbench.tracer import Tracer, summarize  # noqa: E402

THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_REPS = 5
MIN_JOBS = 3


class Calibration:
    """A fixed kernel timed between jobs to track the host's speed.

    The host's speed drifts by tens of percent over tens of seconds, which
    a median over one run cannot remove. So each timed phase is divided by
    the mean of the kernel times just before and just after it, and the
    median of those ratios is scaled by the kernel's reference time: times
    read as seconds on the host the reference times were taken on.

    The kernel runs the parts of REFERENCE_S that a workload names, each a
    kind of work the program does: dense matmuls, FFTs over a batch, an
    interpreted loop, and floats written to a text file and parsed back.
    """

    # typical median time of each part with one BLAS thread on the machine
    # the benchmark was tuned on: a VM with 2 vCPUs of an Intel Xeon
    # (family 6, model 207)
    REFERENCE_S = {"matmul": 0.025, "fft": 0.020, "loop": 0.012, "text": 0.033}

    def __init__(self, work: str, parts):
        import numpy as np

        rng = np.random.default_rng(0)
        self._a = rng.random((64, 1024))
        self._b = rng.random((1024, 512))
        self._x = rng.random((32, 2048))
        self._fft_of = np.fft.fft
        self._floats = rng.standard_normal(4000).tolist()
        self._path = os.path.join(work, "calibration.csv")
        self._parts = [getattr(self, f"_{part}") for part in parts]
        self.reference_s = sum(self.REFERENCE_S[part] for part in parts)
        self()  # warm up

    def __call__(self) -> float:
        t0 = time.perf_counter()
        for part in self._parts:
            part()
        return time.perf_counter() - t0

    def _matmul(self):
        for _ in range(16):
            self._a @ self._b

    def _fft(self):
        for _ in range(16):
            self._fft_of(self._x, axis=1)

    def _loop(self):
        total = 0
        for i in range(150_000):
            total += i * i

    def _text(self):
        with open(self._path, "w", encoding="utf-8") as fh:
            for _ in range(5):
                fh.write(",".join(repr(v) for v in self._floats) + "\n")
        with open(self._path, encoding="utf-8") as fh:
            for line in fh:
                [float(v) for v in line.split(",")]

    def calibrated(self, seconds, kernel_s) -> float:
        """Median of `seconds` over their bracketing kernel times, in reference seconds."""
        return self.reference_s * statistics.median(t / k for t, k in zip(seconds, kernel_s))


def run_jobs(job, seconds: float, targets, trace: bool, calibration=None) -> list:
    """Repeat `job` until `seconds` have passed and MIN_JOBS have run.

    With `trace`, untraced and traced jobs alternate (MIN_JOBS of each);
    a traced job runs with every target wrapped and carries its spans,
    counters and samples. With a `calibration`, its kernel is timed before
    the first job and after every job, outside the wrappers, and each record
    carries the mean of the two kernel times around it. Measuring stops at
    the first job that raises.
    """
    tracer = Tracer() if trace else None
    records = []
    before = calibration() if calibration is not None else None
    deadline = time.perf_counter() + seconds
    while len(records) < MIN_JOBS * (2 if trace else 1) or time.perf_counter() < deadline:
        traced = trace and len(records) % 2 == 1
        record = {"traced": traced, "out": None, "error": None}
        with tracer.installed(targets) if traced else contextlib.nullcontext():
            t0 = time.perf_counter()
            try:
                record["out"] = job()
            except Exception:  # a failed operation is reported, not fatal
                record["error"] = traceback.format_exc()
            record["wall"] = time.perf_counter() - t0
        if traced:
            record["trace"] = tracer.take()
        if calibration is not None:
            after = calibration()
            record["kernel_s"] = (before + after) / 2
            before = after
        records.append(record)
        if record["error"]:
            break
    return records


def _median(values):
    return statistics.median(values) if values else 0.0


def _openblas_threads():
    """Thread count read back from the OpenBLAS numpy loaded, if any."""
    import ctypes
    import glob

    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for lib in glob.glob(os.path.join(libs, "*openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def environment(seed: int) -> dict:
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _openblas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "seed": seed,
    }


def run_workload(args, work: str, import_s: float):
    from perfbench import workloads as wl

    workload = wl.WORKLOADS[args.workload]()
    calibration = Calibration(work, workload.calibration)
    setup_s, setup_figures, setup_kernel_s = [], [], []
    before = calibration()
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        state, figures = workload.setup(args.seed, work)
        setup_s.append(time.perf_counter() - t0)
        setup_figures.append(figures)
        after = calibration()
        setup_kernel_s.append((before + after) / 2)
        before = after

    kept = []

    def job():
        out = workload.job(state, work)
        keep = out.pop("keep")
        if not kept:
            kept.append(keep)
        return out

    targets = wl.trace_targets() if args.trace else ()
    records = run_jobs(job, args.seconds, targets, bool(args.trace), calibration)
    ok = [r for r in records if r["error"] is None]
    for r in records:
        if r["error"]:
            print(r["error"], file=sys.stderr)
    if not ok:
        return None, None

    checks = [c for r in ok for c in r["out"]["checks"]]
    checks += workload.reference_checks(state, kept[0])
    attempted = len(records) + len(checks)
    failed = (len(records) - len(ok)) + sum(not c["ok"] for c in checks)

    untraced = [r for r in ok if not r["traced"]]
    figures = {k: _median([r["out"]["figures"][k] for r in untraced])
               for k in untraced[0]["out"]["figures"]}
    for k in setup_figures[0]:
        figures.setdefault(k, _median([f[k] for f in setup_figures]))
    digests = sorted({r["out"]["digest"] for r in ok})
    wall = _median([r["wall"] for r in untraced])
    job_kernel_s = [r["kernel_s"] for r in records]

    if args.trace:
        traced = [r for r in ok if r["traced"]]
        per_job = [wl.layer_metrics(summarize(spans), counters, samples)
                   for spans, counters, samples in (r["trace"] for r in traced)]
        metrics = {name: _median([j[name] for j in per_job]) for name in per_job[0]}
        traced_wall = _median([r["wall"] for r in traced])
        metrics.update({
            "import_s": import_s,
            "calibration_s": _median(job_kernel_s),
            "trace.wall_s": traced_wall,
            "trace.untraced_wall_s": wall,
            "trace.overhead_s": traced_wall - wall,
            "engine.corpus_signals_per_s": figures["corpus_signals_per_s"],
            "bench.csv_rows_per_s": figures.get("csv_rows_per_s", 0.0),
            "engine.recon_mae": figures.get("recon_mae", 0.0),
            "bench.fin_accuracy": figures.get("fin_accuracy", 0.0),
            "bench.ensemble_accuracy": figures.get("ensemble_accuracy", 0.0),
        })
        units = wl.PER_LAYER
        _write_spans(args, traced)
    else:
        metrics = {
            "setup_s": calibration.calibrated(setup_s, setup_kernel_s),
            "wall_s": calibration.calibrated([r["wall"] for r in untraced],
                                             [r["kernel_s"] for r in untraced]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = wl.END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit, _ in units},
    }
    report = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "jobs": len(records),
        "job_wall_s": [r["wall"] for r in records],
        "job_kernel_s": job_kernel_s,
        "setup_s": setup_s,
        "setup_kernel_s": setup_kernel_s,
        "raw_wall_s": wall,
        "raw_setup_s": _median(setup_s),
        "figures": {**figures, "error_rate": failed / attempted},
        "digests": digests,
        "digest_stable": len(digests) == 1,
        "checks": len(checks),
        "failed_checks": [c for c in checks if not c["ok"]],
        "environment": environment(args.seed),
    }
    return report, result


def _write_spans(args, traced) -> None:
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{args.workload}-seed{args.seed}-spans.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for job, record in enumerate(traced):
            for s in record["trace"][0]:
                fh.write(json.dumps({"job": job, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent}) + "\n")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("corpus-io", "pretrain-entropy", "transfer-bench"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.update(THREAD_ENV)  # before numpy loads its BLAS
    package = ROOT / "src" / "finnets"
    if not (package / "__init__.py").is_file():
        print(f"error: program sources not found at {package}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(package.parent))
    t0 = time.perf_counter()
    import finnets
    import_s = time.perf_counter() - t0
    if Path(finnets.__file__).resolve().parent != package.resolve():
        print(f"error: imported finnets from {finnets.__file__}, not {package}", file=sys.stderr)
        return 2

    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    try:
        report, result = run_workload(args, work, import_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.rmdir()
    if result is None:
        print("error: every job failed", file=sys.stderr)
        return 1
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
