"""Command-line interface.

Subcommands: pretrain, inspect, bench, gradcheck, oracle. Every run is
deterministic given its flags; the fully resolved configuration is echoed
into the output directory as `config.json` so any result can be replayed
from one file. Flags override config-file values, which override the
built-in defaults.

Exit codes: 0 ok, 1 check failed, 2 config error, 3 training divergence,
4 IO or corrupt-file error.
"""

import argparse
import contextlib
import csv
import json
import os
import sys

import numpy as np

from . import bench as B
from . import engine as en
from . import features as fe
from . import nets
from . import report as rp
from . import signals as sg
from .bench import _fmt
from .engine import _canonical_json
from .errors import (
    CorruptArtifact,
    CorpusDegenerateError,
    DivergedError,
    IngestError,
    SplitError,
    UnsupportedVersion,
)
from .rng import derive_seed

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_IO = 4

GRADCHECK_TOLERANCE = 1e-4


class CliError(Exception):
    """Invalid flags or config; maps to exit code 2."""


def _out_dir(args) -> str:
    out = getattr(args, "out_dir", None) or os.environ.get("FIN_OUT_DIR") or "."
    os.makedirs(out, exist_ok=True)
    return out


def _merge_config(args, parser_defaults: dict) -> dict:
    """Apply flags > config file > defaults and return the resolved dict."""
    resolved = dict(parser_defaults)
    if getattr(args, "config", None):
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                file_cfg = json.load(fh)
        except OSError as exc:
            raise CliError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise CliError(f"config file is not valid JSON: {exc}") from exc
        unknown = set(file_cfg) - set(parser_defaults)
        if unknown:
            raise CliError(f"unknown config keys: {sorted(unknown)}")
        resolved.update(file_cfg)
    for key in parser_defaults:
        flag_value = getattr(args, key)
        if flag_value is not None:
            resolved[key] = flag_value
    return resolved


def _echo_config(resolved: dict, out_dir: str, command: str) -> None:
    doc = {"command": command, **resolved}
    with open(os.path.join(out_dir, "config.json"), "w", encoding="utf-8",
              newline="") as fh:
        fh.write(_canonical_json(doc))


def _train_config(resolved: dict, seed: int) -> nets.TrainConfig:
    try:
        return nets.TrainConfig(
            learning_rate=resolved["learning_rate"],
            momentum=resolved["momentum"],
            batch_size=resolved["batch_size"],
            max_epochs=resolved["max_epochs"],
            patience=resolved["patience"],
            seed=seed,
        )
    except ValueError as exc:
        raise CliError(str(exc)) from exc


# ---------------------------------------------------------------------------
# pretrain
# ---------------------------------------------------------------------------

_PRETRAIN_DEFAULTS = {
    "feature": None,
    "signals": en.DEFAULT_N_SIGNALS,
    "seed": 0,
    "gen_seed": 42,
    "signal_length": sg.DEFAULT_LENGTH,
    "sample_rate": sg.DEFAULT_SAMPLE_RATE,
    "learning_rate": 0.01,
    "momentum": 0.9,
    "batch_size": 64,
    "max_epochs": 60,
    "patience": 8,
    "recon_signals": 3000,
}


def cmd_pretrain(args) -> int:
    resolved = _merge_config(args, _PRETRAIN_DEFAULTS)
    feature = resolved["feature"]
    if feature not in fe.FEATURE_NAMES:
        raise CliError(
            f"--feature must be one of {', '.join(fe.FEATURE_NAMES)}"
        )
    if not args.out:
        raise CliError("--out is required")
    if resolved["signals"] < 100:
        raise CliError("--signals must be at least 100")
    if resolved["recon_signals"] < 1:
        raise CliError("--recon-signals must be at least 1")
    out_dir = _out_dir(args)
    artifact_path = args.out if os.path.isabs(args.out) else os.path.join(out_dir, args.out)

    gen = sg.GenSpec(
        length=int(resolved["signal_length"]),
        sample_rate=float(resolved["sample_rate"]),
        seed=int(resolved["gen_seed"]),
    )
    cfg = _train_config(resolved, int(resolved["seed"]))
    artifact = en.pretrain_fin(feature, gen, cfg=cfg, n_signals=int(resolved["signals"]))
    try:
        en.save_fin(artifact, artifact_path)
    except OSError as exc:
        print(f"error: cannot write artifact: {exc}", file=sys.stderr)
        return EXIT_IO

    # fresh signals, disjoint from the pretraining corpus by index
    n_recon = int(resolved["recon_signals"])
    recon_sigs = (
        sg.generate(gen, int(resolved["signals"]) + i) for i in range(n_recon)
    )
    rep = en.reconstruction_report(artifact, recon_sigs)
    with open(os.path.join(out_dir, "recon_hist.csv"), "w", encoding="utf-8",
              newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["bin_lo", "bin_hi", "count"])
        for j in range(len(rep.histogram_counts)):
            w.writerow([
                _fmt(rep.histogram_edges[j]), _fmt(rep.histogram_edges[j + 1]),
                int(rep.histogram_counts[j]),
            ])
    _echo_config(resolved, out_dir, "pretrain")
    print(f"artifact {artifact_path}")
    print(f"mean_abs_error {_fmt(rep.mean_abs_error)}")
    print(f"best_val_loss {_fmt(artifact.history_summary['best_val_loss'])}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# inspect
# ---------------------------------------------------------------------------

def cmd_inspect(args) -> int:
    artifact = en.load_fin(args.path)
    topo = artifact.net.topology
    print(f"feature: {artifact.feature}")
    print(f"layer_sizes: {'x'.join(str(s) for s in topo.layer_sizes)}")
    print(f"activations: {','.join(topo.activations)}")
    print(f"params: {nets.count_params(topo)}")
    print(f"best_val_loss: {_fmt(artifact.history_summary['best_val_loss'])}")
    print(f"epochs: {artifact.history_summary['epochs']}")
    lo = ",".join(_fmt(v) for v in artifact.norm_lo)
    hi = ",".join(_fmt(v) for v in artifact.norm_hi)
    print(f"norm_lo: {lo}")
    print(f"norm_hi: {hi}")
    print(f"gen_spec_digest: {artifact.gen_spec_digest}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

_BENCH_DEFAULTS = {
    "task": None,
    "models": None,
    "protocol": "repeated-random",
    "repeats": 10,
    "fractions": None,
    "seed": 0,
    "rho": 0.05,
    "items": 1200,
    "channels": 1,
    "subjects": None,
    "knn_k": 5,
    "search_candidates": 20,
    "learning_rate": 0.01,
    "momentum": 0.9,
    "batch_size": 64,
    "max_epochs": 40,
    "patience": 6,
    "workers": 1,
}


def _parse_task(resolved: dict) -> B.LabeledDataset:
    task = resolved["task"]
    if task is None:
        raise CliError("--task is required")
    seed = int(resolved["seed"])
    subjects = resolved["subjects"]
    subjects = int(subjects) if subjects else None
    if task.startswith("feature-threshold:"):
        feature = task.split(":", 1)[1]
        if feature not in fe.FEATURE_NAMES:
            raise CliError(f"unknown feature {feature!r} in task")
        return B.make_feature_threshold_task(
            feature,
            n_channels=int(resolved["channels"]),
            n_items=int(resolved["items"]),
            rho=float(resolved["rho"]),
            seed=derive_seed(seed, "task"),
            n_subjects=subjects,
        )
    if task.startswith("multi-feature:"):
        names = [n for n in task.split(":", 1)[1].split(",") if n]
        bad = [n for n in names if n not in fe.FEATURE_NAMES]
        if bad:
            raise CliError(f"unknown features {bad} in task")
        return B.make_multi_feature_task(
            names,
            n_channels=int(resolved["channels"]),
            n_items=int(resolved["items"]),
            rho=float(resolved["rho"]),
            seed=derive_seed(seed, "task"),
            n_subjects=subjects,
        )
    if task.startswith("csv:"):
        return B.ingest_dataset_csv(task.split(":", 1)[1])
    raise CliError(
        "task must be feature-threshold:<feature>, multi-feature:<f1,f2,...>,"
        " or csv:<path>"
    )


def _parse_models(resolved: dict, data: B.LabeledDataset, cfg, seed: int):
    spec = resolved["models"]
    if not spec:
        raise CliError("--models is required")
    models = []
    search_records = None
    entries = []
    # fin-ensemble takes a +-separated path list, so split on commas only
    for chunk in spec.split(","):
        if chunk:
            entries.append(chunk)
    for entry in entries:
        if entry.startswith("fin:"):
            path = entry.split(":", 1)[1]
            artifact = en.load_fin(path)
            models.append(B.TransferFinModel(entry, artifact))
        elif entry.startswith("fin-ensemble:"):
            paths = entry.split(":", 1)[1].split("+")
            arts = [en.load_fin(p) for p in paths]
            models.append(B.EnsembleFinModel(entry, arts))
        elif entry == "baseline-search":
            winner, search_records = B.baseline_search(
                data, cfg, derive_seed(seed, "search"),
                n_candidates=int(resolved["search_candidates"]),
            )
            models.append(B.RandomDenseModel(entry, winner))
        elif entry == "knn":
            models.append(B.KnnModel("knn", k=int(resolved["knn_k"])))
        elif entry == "linear-margin":
            models.append(B.LinearMarginModel("linear-margin"))
        else:
            raise CliError(f"unknown model tag {entry!r}")
    return models, search_records


def cmd_bench(args) -> int:
    resolved = _merge_config(args, _BENCH_DEFAULTS)
    if args.serial_timing:
        resolved["workers"] = 1
    out_dir = _out_dir(args)
    # a marker left by an earlier failed run would outlive this run's report
    with contextlib.suppress(FileNotFoundError):
        os.remove(os.path.join(out_dir, "FAILED"))
    try:
        protocol = resolved["protocol"]
        if protocol not in ("repeated-random", "leave-subjects-out"):
            raise CliError("--protocol must be repeated-random or leave-subjects-out")
        fractions = ()
        if resolved["fractions"]:
            try:
                fractions = tuple(
                    float(f) for f in str(resolved["fractions"]).split(",") if f
                )
            except ValueError as exc:
                raise CliError(f"bad --fractions: {exc}") from exc

        seed = int(resolved["seed"])
        data = _parse_task(resolved)
        cfg = _train_config(resolved, seed)
        models, search_records = _parse_models(resolved, data, cfg, seed)
        mode = (
            "leave_subjects_out" if protocol == "leave-subjects-out"
            else "repeated_random"
        )
        plan = B.SplitPlan(
            mode=mode,
            repeats=int(resolved["repeats"]),
            fractions=fractions,
            seed=seed,
        )
        report = B.run_benchmark(
            data, plan, models, cfg, workers=int(resolved["workers"])
        )
        tags = [m.tag for m in models]
        comparisons = []
        for i, a in enumerate(tags):
            for b in tags[i + 1:]:
                comparisons.append(("welch", a, b, "greater"))
                comparisons.append(("levene", a, b, None))
        if comparisons and all(
            agg["n_runs"] >= 2 for agg in report.aggregates.values()
        ):
            rp.add_model_comparisons(report, comparisons)
        rp.emit_report(report, out_dir, zero_timing=args.zero_timing)
        if search_records is not None:
            if args.zero_timing:
                search_records = [{**r, "train_seconds": 0.0} for r in search_records]
            rp.emit_search_records(search_records, out_dir)
        _echo_config({**resolved, "fractions": list(fractions)}, out_dir, "bench")
        for tag, agg in report.aggregates.items():
            print(
                f"model {tag} accuracy {_fmt(agg['mean_accuracy'])}"
                f" std {_fmt(agg['std_accuracy'])} runs {agg['n_runs']}"
            )
    except Exception as exc:
        # the marker must exist whatever failed; main() maps the exit code
        with open(os.path.join(out_dir, "FAILED"), "w", encoding="utf-8") as fh:
            fh.write(f"{type(exc).__name__}: {exc}\n")
        raise
    return EXIT_OK


# ---------------------------------------------------------------------------
# gradcheck
# ---------------------------------------------------------------------------

def cmd_gradcheck(args) -> int:
    n_nets = args.nets if args.nets is not None else 20
    seed = args.seed if args.seed is not None else 2024
    worst = nets.gradcheck_suite(n_nets=n_nets, seed=seed)
    print(f"max_rel_error {_fmt(worst)}")
    if worst <= GRADCHECK_TOLERANCE:
        return EXIT_OK
    print(
        f"error: gradient check failed: {worst:g} > {GRADCHECK_TOLERANCE:g}",
        file=sys.stderr,
    )
    return EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

def _demo_signal(kind: str) -> fe.Signal:
    fs = sg.DEFAULT_SAMPLE_RATE
    n = sg.DEFAULT_LENGTH
    if kind == "constant":
        return fe.Signal(np.ones(n), fs)
    if kind.endswith("hz-sine"):
        try:
            freq = float(kind[: -len("hz-sine")])
        except ValueError:
            raise CliError(f"bad demo signal {kind!r}") from None
        t = np.arange(n) / fs
        return fe.Signal(np.sin(2 * np.pi * freq * t), fs)
    if kind == "noise":
        from .rng import rng_for

        return fe.Signal(rng_for(0, "oracle-demo").standard_normal(n), fs)
    raise CliError(f"bad demo signal {kind!r}; use constant, noise, or <f>hz-sine")


def _read_signals_csv(path, sample_rate: float):
    """Rows of `index,s0,...` (the corpus export schema) as Signals."""
    signals = []
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or header[0] != "index":
                raise IngestError(1, "signal CSV must start with an index column")
            for row_no, row in enumerate(reader, start=2):
                try:
                    values = np.array([float(v) for v in row[1:]])
                except ValueError as exc:
                    raise IngestError(row_no, f"bad sample value: {exc}") from None
                if values.size < 2:
                    raise IngestError(row_no, "signal needs at least two samples")
                signals.append(fe.Signal(values, sample_rate))
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    return signals


def cmd_oracle(args) -> int:
    feature = args.feature
    if feature not in fe.FEATURE_NAMES:
        raise CliError(f"--feature must be one of {', '.join(fe.FEATURE_NAMES)}")
    if (args.demo is None) == (args.signals_csv is None):
        raise CliError("provide exactly one of --demo or --signals-csv")
    if args.demo is not None:
        signals = [_demo_signal(args.demo)]
    else:
        signals = _read_signals_csv(args.signals_csv, args.sample_rate)
    lo = hi = None
    if args.normalized:
        if args.artifact:
            artifact = en.load_fin(args.artifact)
            if artifact.feature != feature:
                raise CliError(
                    f"artifact imitates {artifact.feature}, not {feature}"
                )
            lo, hi = artifact.norm_lo, artifact.norm_hi
        elif args.range:
            try:
                lo_s, hi_s = args.range.split(":")
                lo = np.array([float(lo_s)])
                hi = np.array([float(hi_s)])
            except ValueError as exc:
                raise CliError(f"bad --range, want lo:hi: {exc}") from exc
        else:
            raise CliError("--normalized needs --artifact or --range")
    for i, signal in enumerate(signals):
        value = fe.compute_feature(signal, feature)
        if lo is not None:
            value = fe.normalize_feature(value, lo, hi)
        print(f"{i} " + " ".join(_fmt(v) for v in value))
    return EXIT_OK


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fin",
        description="Pretrain, inspect, and benchmark feature-imitating networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_train_flags(p):
        p.add_argument("--learning-rate", dest="learning_rate", type=float)
        p.add_argument("--momentum", type=float)
        p.add_argument("--batch-size", dest="batch_size", type=int)
        p.add_argument("--max-epochs", dest="max_epochs", type=int)
        p.add_argument("--patience", type=int)

    p = sub.add_parser("pretrain", help="train a feature regressor on synthetic signals")
    p.add_argument("--feature")
    p.add_argument("--signals", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--gen-seed", dest="gen_seed", type=int)
    p.add_argument("--signal-length", dest="signal_length", type=int)
    p.add_argument("--sample-rate", dest="sample_rate", type=float)
    p.add_argument("--recon-signals", dest="recon_signals", type=int)
    add_train_flags(p)
    p.add_argument("--out", required=True, help="artifact filename")
    p.add_argument("--out-dir", dest="out_dir")
    p.add_argument("--config")
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("inspect", help="summarize a saved artifact")
    p.add_argument("path")
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("bench", help="run an evaluation protocol")
    p.add_argument("--task")
    p.add_argument("--models")
    p.add_argument("--protocol")
    p.add_argument("--repeats", type=int)
    p.add_argument("--fractions")
    p.add_argument("--seed", type=int)
    p.add_argument("--rho", type=float)
    p.add_argument("--items", type=int)
    p.add_argument("--channels", type=int)
    p.add_argument("--subjects", type=int)
    p.add_argument("--knn-k", dest="knn_k", type=int)
    p.add_argument("--search-candidates", dest="search_candidates", type=int)
    p.add_argument("--workers", type=int)
    p.add_argument("--serial-timing", dest="serial_timing", action="store_true",
                   help="force serial execution for trustworthy timing")
    p.add_argument("--zero-timing", dest="zero_timing", action="store_true",
                   help="write 0.0 for all timing fields (byte-comparable reports)")
    add_train_flags(p)
    p.add_argument("--out-dir", dest="out_dir")
    p.add_argument("--config")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--nets", type=int)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("oracle", help="print closed-form feature values")
    p.add_argument("--feature", required=True)
    p.add_argument("--demo", help="constant, noise, or <freq>hz-sine")
    p.add_argument("--signals-csv", dest="signals_csv")
    p.add_argument("--sample-rate", dest="sample_rate", type=float,
                   default=sg.DEFAULT_SAMPLE_RATE)
    p.add_argument("--normalized", action="store_true")
    p.add_argument("--artifact")
    p.add_argument("--range")
    p.set_defaults(func=cmd_oracle)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags, matching the config-error code
        return EXIT_CONFIG if exc.code else EXIT_OK
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (CorruptArtifact, UnsupportedVersion) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except DivergedError as exc:
        print(f"error: training diverged at epoch {exc.epoch}", file=sys.stderr)
        return EXIT_DIVERGED
    except (IngestError, SplitError, CorpusDegenerateError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
