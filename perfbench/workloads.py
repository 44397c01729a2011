"""The benchmark's workloads, the checks on their outputs and their metrics.

Each workload is a batch job of fixed size built from the seed. `setup`
builds what the job consumes; `job` is the timed part and returns the
digest of what it produced, a few figures and cheap checks;
`reference_checks` compares one job's outputs with the references in
`references.py`. Importing this module imports the program, so import it
only after the BLAS thread count is pinned.
"""

import contextlib
import csv
import hashlib
import io
import os
import shutil
import statistics
from time import perf_counter as _now

import numpy as np

from finnets import bench as B
from finnets import cli
from finnets import engine as en
from finnets import features as fe
from finnets import nets
from finnets import report as rp
from finnets import signals as sg
from finnets import stats as st

from .references import NaiveScalogram, moments
from .tracer import Target

# ---------------------------------------------------------------------------
# Output checks and digests
# ---------------------------------------------------------------------------


def check(name: str, ok, detail: str = "") -> dict:
    return {"name": name, "ok": bool(ok), "detail": detail}


def _sha256(*chunks) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c if isinstance(c, bytes) else np.ascontiguousarray(c).tobytes())
    return h.hexdigest()


def _report_digest(root: str) -> str:
    """Digest of a bench report tree: file names and bytes.

    `--zero-timing` leaves the train_seconds column of search_runs.csv as
    measured, so that one column is left out of the digest.
    """
    h = hashlib.sha256()
    for name in sorted(os.listdir(root)):
        path = os.path.join(root, name)
        if name == rp.SEARCH_CSV:
            rows = _csv_rows(path)
            for r in rows:
                r.pop("train_seconds")
            data = repr(rows).encode()
        else:
            data = _read(path)
        h.update(name.encode() + b"\x00" + data)
    return h.hexdigest()


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _sample_rows(seed: int, n: int, k: int) -> list:
    return sorted(np.random.default_rng(seed).choice(n, size=k, replace=False).tolist())


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class CorpusIO:
    """Corpus front end and dataset CSV interchange; `nets` does no work.

    The job generates the signals, computes their scalograms
    (`engine.corpus_inputs`) and all six oracle targets
    (`engine.corpus_targets`), pairs consecutive signals into two-channel
    items labelled by entropy, and writes and re-reads that dataset as CSV.
    """

    name = "corpus-io"
    # about half the job is CSV text; without the text part the kernel
    # tracked this job's speed worse (ten-seed spread 0.10 against 0.06)
    calibration = ("matmul", "fft", "loop", "text")
    n_signals = 240
    n_channels = 2
    warmup_signals = 32
    sample_rows = 4

    def setup(self, seed: int, work: str):
        # a small pass through the same path lets lazy imports and FFT
        # plan caches fill before anything is timed
        gen = sg.GenSpec(seed=seed)
        self._pipeline(gen, self.warmup_signals, work)
        return {"gen": gen, "seed": seed}, {}

    def _pipeline(self, gen, n: int, work: str):
        t0 = _now()
        inputs = en.corpus_inputs(gen, n)
        targets = {f: en.corpus_targets(f, gen, n) for f in fe.FEATURE_NAMES}
        t1 = _now()
        items = n // self.n_channels
        grouped = inputs[: items * self.n_channels].reshape(items, self.n_channels, -1)
        score = targets["entropy"][: items * self.n_channels, 0]
        score = score.reshape(items, self.n_channels).mean(axis=1)
        data = B.LabeledDataset(
            grouped,
            (score > np.median(score)).astype(np.int64),
            2,
            subject_ids=np.arange(items) % 4,
        )
        path = os.path.join(work, "dataset.csv")
        B.export_dataset_csv(data, path)
        back = B.ingest_dataset_csv(path)
        t2 = _now()
        return {
            "inputs": inputs, "targets": targets, "data": data, "back": back,
            "path": path, "front_s": t1 - t0, "csv_s": t2 - t1,
        }

    def job(self, state, work: str) -> dict:
        out = self._pipeline(state["gen"], self.n_signals, work)
        data, back, targets = out["data"], out["back"], out["targets"]
        rows = data.n_items * data.n_channels
        checks = [
            check("corpus.shapes", out["inputs"].shape == (self.n_signals, 1024)
                  and all(t.shape[0] == self.n_signals for t in targets.values())),
            check("corpus.finite", np.all(np.isfinite(out["inputs"]))
                  and all(np.all(np.isfinite(t)) for t in targets.values())),
            check("corpus.entropy_range", np.all(targets["entropy"] >= 0)
                  and np.all(targets["entropy"] <= np.log2(fe.DEFAULT_N_BINS) + 1e-12)),
            check("corpus.regularity_range", np.all(targets["regularity"] >= 0)
                  and np.all(targets["regularity"] <= 1)),
            check("csv.roundtrip_exact",
                  np.array_equal(back.inputs, data.inputs)
                  and np.array_equal(back.labels, data.labels)
                  and np.array_equal(back.subject_ids, data.subject_ids)
                  and back.n_classes == data.n_classes),
        ]
        digest = _sha256(
            out["inputs"], *(targets[f] for f in fe.FEATURE_NAMES), _read(out["path"])
        )
        figures = {
            "corpus_signals_per_s": self.n_signals / out["front_s"],
            "csv_rows_per_s": rows / out["csv_s"],
        }
        return {"digest": digest, "figures": figures, "checks": checks, "keep": out}

    def reference_checks(self, state, out) -> list:
        gen, naive = state["gen"], NaiveScalogram()
        checks = []
        for i in _sample_rows(state["seed"], self.n_signals, self.sample_rows):
            signal = sg.generate(gen, i)
            ref = naive(signal.samples, signal.sample_rate).ravel()
            err = float(np.max(np.abs(out["inputs"][i] - ref)))
            checks.append(check(f"scalogram.naive_row{i}", err <= 1e-9, f"max_abs_err={err:.3g}"))
            ref_m = moments(signal.samples)
            for name in ("kurtosis", "skewness"):
                got = float(out["targets"][name][i, 0])
                ok = np.isclose(got, ref_m[name], rtol=1e-9, atol=1e-12)
                checks.append(check(f"{name}.scipy_row{i}", ok, f"{got!r} vs {ref_m[name]!r}"))
        return checks


class PretrainEntropy:
    """Dense training at the stock topology, then reconstruction and save/load.

    The corpus, its entropy targets and the fresh reconstruction signals
    are built in setup. Patience equals the epoch budget, so every job
    trains exactly `epochs` epochs over the same rows.
    """

    name = "pretrain-entropy"
    calibration = ("matmul", "fft", "loop")
    n_signals = 800
    epochs = 6
    batch_size = 64
    recon_signals = 64

    def setup(self, seed: int, work: str):
        gen = sg.GenSpec(seed=seed)
        t0 = _now()
        corpus = (en.corpus_inputs(gen, self.n_signals),
                  en.corpus_targets("entropy", gen, self.n_signals))
        rate = self.n_signals / (_now() - t0)
        recon = [sg.generate(gen, self.n_signals + i) for i in range(self.recon_signals)]
        cfg = nets.TrainConfig(batch_size=self.batch_size, max_epochs=self.epochs,
                               patience=self.epochs, seed=seed)
        state = {"gen": gen, "corpus": corpus, "recon": recon, "cfg": cfg}
        return state, {"corpus_signals_per_s": rate}

    def job(self, state, work: str) -> dict:
        artifact = en.pretrain_fin("entropy", state["gen"], cfg=state["cfg"],
                                   corpus=state["corpus"])
        rep = en.reconstruction_report(artifact, state["recon"])
        first, second = os.path.join(work, "a.fin"), os.path.join(work, "b.fin")
        en.save_fin(artifact, first)
        en.save_fin(en.load_fin(first), second)
        saved, resaved = _read(first), _read(second)
        checks = [
            check("fin.save_load_save_identical", saved == resaved),
            check("pretrain.epochs", artifact.history_summary["epochs"] == self.epochs,
                  str(artifact.history_summary["epochs"])),
            check("pretrain.topology",
                  artifact.net.topology.layer_sizes == (1024, 512, 256, 64, 1)),
            check("recon.count", rep.n_signals == self.recon_signals),
            check("recon.mae_range", 0.0 <= rep.mean_abs_error <= 1.0
                  and np.isfinite(rep.mse), f"{rep.mean_abs_error!r}"),
        ]
        return {"digest": _sha256(saved), "figures": {"recon_mae": rep.mean_abs_error},
                "checks": checks, "keep": None}

    def reference_checks(self, state, out) -> list:
        return []


class TransferBench:
    """The `fin bench` command in-process over five models and a fraction sweep.

    Setup pretrains two small artifacts from the seed. The bench protocol
    itself runs at the CLI's default seed 0, so the task, the splits and
    the random baseline-search candidates are the same for every workload
    seed: the candidates' cost varies several-fold between protocol seeds,
    which would swamp the timing. The seed reaches the job through the
    artifacts.
    """

    name = "transfer-bench"
    calibration = ("matmul", "fft", "loop")
    corpus_signals = 300
    artifact_topology = nets.Topology((1024, 64, 32, 1), ("relu", "relu", "linear"))
    artifact_epochs = 8
    repeats = 2
    fractions = "0.5,1.0"
    models = ("fin:entropy.fin,fin-ensemble:entropy.fin+regularity.fin,"
              "baseline-search,knn,linear-margin")
    n_models = 5
    argv = (
        "bench", "--task", "feature-threshold:entropy", "--items", "200",
        "--repeats", str(repeats), "--fractions", fractions, "--models", models,
        "--search-candidates", "3", "--max-epochs", "15", "--patience", "4",
        "--seed", "0", "--serial-timing", "--zero-timing", "--out-dir", "report",
    )

    def setup(self, seed: int, work: str):
        gen = sg.GenSpec(seed=seed)
        t0 = _now()
        inputs = en.corpus_inputs(gen, self.corpus_signals)
        targets = {f: en.corpus_targets(f, gen, self.corpus_signals)
                   for f in ("entropy", "regularity")}
        rate = self.corpus_signals / (_now() - t0)
        cfg = nets.TrainConfig(batch_size=32, max_epochs=self.artifact_epochs,
                               patience=self.artifact_epochs, seed=seed)
        for feature, target in targets.items():
            artifact = en.pretrain_fin(feature, gen, topology=self.artifact_topology,
                                       cfg=cfg, corpus=(inputs, target))
            en.save_fin(artifact, os.path.join(work, f"{feature}.fin"))
        return {}, {"corpus_signals_per_s": rate}

    def job(self, state, work: str) -> dict:
        out_dir = os.path.join(work, "report")
        shutil.rmtree(out_dir, ignore_errors=True)
        stdout = io.StringIO()
        with contextlib.chdir(work), contextlib.redirect_stdout(stdout):
            code = cli.main(list(self.argv))
        runs = _csv_rows(os.path.join(out_dir, rp.RUNS_CSV))
        aggregates = {r["model_tag"]: r for r in _csv_rows(os.path.join(out_dir, rp.AGGREGATES_CSV))}
        expected = self.repeats * len(self.fractions.split(",")) * self.n_models
        checks = [
            check("bench.exit_code", code == cli.EXIT_OK, str(code)),
            check("bench.no_failed_marker", not os.path.exists(os.path.join(out_dir, "FAILED"))),
            check("bench.runs_rows", len(runs) == expected, f"{len(runs)} of {expected}"),
            check("bench.models_reported", len(aggregates) == self.n_models
                  and stdout.getvalue().count("accuracy") == self.n_models),
        ]
        accuracy = {tag.split(":")[0]: float(row["mean_accuracy"]) for tag, row in aggregates.items()}
        figures = {"fin_accuracy": accuracy.get("fin", 0.0),
                   "ensemble_accuracy": accuracy.get("fin-ensemble", 0.0)}
        return {"digest": _report_digest(out_dir), "figures": figures, "checks": checks, "keep": None}

    def reference_checks(self, state, out) -> list:
        return []


def _csv_rows(path: str) -> list:
    if not os.path.exists(path):
        return []
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


WORKLOADS = {w.name: w for w in (CorpusIO, PretrainEntropy, TransferBench)}

# ---------------------------------------------------------------------------
# Traced layer boundaries
# ---------------------------------------------------------------------------

MODEL_KINDS = {
    "TransferFinModel": "fin",
    "EnsembleFinModel": "fin-ensemble",
    "RandomDenseModel": "baseline-search",
    "KnnModel": "knn",
    "LinearMarginModel": "linear-margin",
}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _matmul_flops(weights, rows) -> int:
    return sum(2 * rows * w.size for w in weights)


def _count_forward(tracer, args, kwargs, result):
    rows = _arg(args, kwargs, 3, "batch").shape[0]
    tracer.counters["nets.flop"] += _matmul_flops(_arg(args, kwargs, 0, "weights"), rows)
    return result


def _count_backward(tracer, args, kwargs, result):
    weights = _arg(args, kwargs, 0, "weights")
    rows = _arg(args, kwargs, 4, "delta").shape[0]
    # weight gradient for every layer, upstream delta for all but the first
    tracer.counters["nets.flop"] += 2 * _matmul_flops(weights, rows) \
        - _matmul_flops(weights[:1], rows)
    return result


def _count_dense_eval(tracer, args, kwargs, result):
    model, inputs = args[0], _arg(args, kwargs, 1, "inputs")
    if model.loss == "softmax_ce":  # the mse path runs forward_stack, counted there
        tracer.counters["nets.flop"] += _matmul_flops(model.net.weights, np.atleast_2d(inputs).shape[0])
    return result


def _record_fit(tracer, args, kwargs, history):
    tracer.counters["nets.fit.epochs"] += len(history.train_losses)
    tracer.samples["nets.epoch_s"].extend(history.wall_seconds)
    return history


def _count_file(counter, position, name):
    def after(tracer, args, kwargs, result):
        tracer.counters[counter] += os.path.getsize(_arg(args, kwargs, position, name))
        return result

    return after


def _count_report_bytes(tracer, args, kwargs, paths):
    tracer.counters["report.bytes_written"] += sum(os.path.getsize(p) for p in paths.values())
    return paths


def _count_search_bytes(tracer, args, kwargs, path):
    tracer.counters["report.bytes_written"] += os.path.getsize(path)
    return path


def _time_predictor(kind):
    def after(tracer, args, kwargs, result):
        predictor, history = result
        return tracer.wrap(predictor, f"bench.cell.{kind}.predict"), history

    return after


# (module, span prefix, public functions wrapped under "<prefix>.<function>")
WRAPPED = (
    (sg, "signals", ("generate", "wavelet_transform")),
    (fe, "features", ("mel_filterbank",)),
    (nets, "nets", ("fit", "forward_stack", "backward_stack", "sgd_update", "loss_value",
                    "init_random")),
    (en, "engine", ("corpus_inputs", "corpus_targets", "pretrain_fin",
                    "reconstruction_report", "save_fin", "load_fin", "fine_tune",
                    "attach_head", "build_ensemble")),
    (B, "bench", ("make_feature_threshold_task", "run_benchmark", "baseline_search",
                  "knn_classify", "linear_margin_classify", "export_dataset_csv",
                  "ingest_dataset_csv")),
    (st, "stats", ("levene_test", "welch_t_one_tailed", "bonferroni", "sign_test_one_sided")),
    (rp, "report", ("emit_report", "emit_search_records")),
    (cli, "cli", ("main",)),
)

AFTER = {
    "nets.fit": _record_fit,
    "nets.forward_stack": _count_forward,
    "nets.backward_stack": _count_backward,
    "engine.save_fin": _count_file("engine.fin_bytes", 1, "path"),
    "engine.load_fin": _count_file("engine.fin_bytes", 0, "path"),
    "report.emit_report": _count_report_bytes,
    "report.emit_search_records": _count_search_bytes,
}


def trace_targets() -> list:
    """Every boundary the traced run wraps, named as the per-layer metrics."""
    def by_feature(args, kwargs):
        return f"features.compute_feature.{_arg(args, kwargs, 1, 'feature')}"

    targets = [
        Target(owner, fn, f"{prefix}.{fn}", AFTER.get(f"{prefix}.{fn}"))
        for owner, prefix, functions in WRAPPED for fn in functions
    ]
    targets += [
        Target(fe, "compute_feature", by_feature),
        Target(nets.DenseModel, "eval_loss", "nets.DenseModel.eval_loss", _count_dense_eval),
        Target(en.EnsembleNet, "eval_loss", "engine.EnsembleNet.eval_loss"),
        Target(en.EnsembleNet, "loss_and_grads", "engine.EnsembleNet.loss_and_grads"),
    ]
    targets += [
        Target(getattr(B, cls), "fit", f"bench.cell.{kind}.fit", _time_predictor(kind))
        for cls, kind in MODEL_KINDS.items()
    ]
    return targets


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

# (name, unit, better); every run prints all of them, whatever the workload
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

_SELF_S = (
    [f"features.compute_feature.{f}" for f in fe.FEATURE_NAMES]
    + [f"{prefix}.{fn}" for _, prefix, functions in WRAPPED for fn in functions
       if prefix not in ("stats", "report")]
    + ["engine.EnsembleNet.loss_and_grads", "report.emit_report"]
)
_CALLS = ("signals.generate", "signals.wavelet_transform", "features.mel_filterbank", "nets.fit")

PER_LAYER = (
    [("import_s", "s", "lower"),
     ("calibration_s", "s", "lower"),
     ("trace.wall_s", "s", "lower"),
     ("trace.untraced_wall_s", "s", "lower"),
     ("trace.overhead_s", "s", "lower")]
    + [(f"{n}.calls", "count", "lower") for n in _CALLS]
    + [(f"{n}.self_s", "s", "lower") for n in _SELF_S]
    + [("stats.self_s", "s", "lower"),
       ("nets.fit.epochs", "count", "lower"),
       ("nets.eval_s", "s", "lower"),
       ("nets.epoch_s_p50", "s", "lower"),
       ("nets.gflop", "computed-GFLOP", "lower"),
       ("nets.gflop_per_s", "GFLOP/s", "higher"),
       ("engine.fin_bytes", "bytes", "lower"),
       ("report.bytes_written", "bytes", "lower"),
       ("bench.baseline_search.total_s", "s", "lower")]
    + [(f"bench.cell_s.{k}", "s", "lower") for k in MODEL_KINDS.values()]
    + [("engine.corpus_signals_per_s", "1/s", "higher"),
       ("bench.csv_rows_per_s", "1/s", "higher"),
       ("engine.recon_mae", "fraction", "lower"),
       ("bench.fin_accuracy", "fraction", "higher"),
       ("bench.ensemble_accuracy", "fraction", "higher")]
)


def layer_metrics(summary: dict, counters, samples) -> dict:
    """Per-layer figures of one traced job from its span summary."""
    def row(name):
        return summary.get(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})

    out = {f"{n}.calls": row(n)["calls"] for n in _CALLS}
    out.update({f"{n}.self_s": row(n)["self_s"] for n in _SELF_S})
    out["stats.self_s"] = sum(r["self_s"] for n, r in summary.items() if n.startswith("stats."))
    out["nets.fit.epochs"] = counters["nets.fit.epochs"]
    out["nets.eval_s"] = row("nets.DenseModel.eval_loss")["total_s"] \
        + row("engine.EnsembleNet.eval_loss")["total_s"]
    epochs = samples.get("nets.epoch_s", [])
    out["nets.epoch_s_p50"] = statistics.median(epochs) if epochs else 0.0
    # time of the spans whose matmuls the flop count covers
    busy = sum(row(n)["self_s"] for n in (
        "nets.forward_stack", "nets.backward_stack", "nets.DenseModel.eval_loss"))
    out["nets.gflop"] = counters["nets.flop"] / 1e9
    out["nets.gflop_per_s"] = out["nets.gflop"] / busy if busy > 0 else 0.0
    out["engine.fin_bytes"] = counters["engine.fin_bytes"]
    out["report.bytes_written"] = counters["report.bytes_written"]
    out["bench.baseline_search.total_s"] = row("bench.baseline_search")["total_s"]
    for kind in MODEL_KINDS.values():
        out[f"bench.cell_s.{kind}"] = row(f"bench.cell.{kind}.fit")["total_s"] \
            + row(f"bench.cell.{kind}.predict")["total_s"]
    return out
