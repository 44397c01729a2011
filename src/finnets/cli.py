"""Command-line interface.

Subcommands: pretrain, inspect, bench, gradcheck, oracle. Every run is
deterministic given its flags. Each subcommand's argparse parser is the
one table of its options and their defaults. `pretrain` and `bench` echo
the resolved value of every option except `--config` and `--out-dir` into
the output directory as `config.json`, so `--config DIR/config.json
--out-dir NEW` replays a run; an absolute `--out` is echoed as given.
Flags override config-file values, which override the built-in defaults.

Exit codes: 0 ok, 1 check failed, 2 config error, 3 training divergence,
4 IO or corrupt-file error.
"""

import argparse
import contextlib
import csv
import os
import sys
from dataclasses import replace

import numpy as np

from . import bench as B
from . import engine as en
from . import features as fe
from . import nets
from . import report as rp
from . import signals as sg
from .engine import _canonical_json, _read_json
from .errors import (
    CorruptArtifact,
    CorpusDegenerateError,
    DivergedError,
    IngestError,
    SplitError,
    UnsupportedVersion,
)
from .report import _fmt
from .rng import derive_seed, rng_for

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


def _config_actions(parser: argparse.ArgumentParser) -> dict:
    """Config key -> argparse action of each option a config file may set."""
    return {
        a.dest: a for a in parser._actions
        if a.dest not in ("help", "config", "out_dir")
    }


def _read_config(args) -> dict:
    """The checked values of the `--config` file, by config key.

    The file may be a `config.json` this command echoed: its `command`
    key must then name the running subcommand.
    """
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            file_cfg = _read_json(fh.read())
    except OSError as exc:
        raise CliError(f"cannot read config file: {exc}") from exc
    except ValueError as exc:
        raise CliError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(file_cfg, dict):
        raise CliError("config file must hold a JSON object")
    command = file_cfg.pop("command", args.command)
    if command != args.command:
        raise CliError(f"config file is for {command!r}, not {args.command!r}")
    actions = _config_actions(args.parser)
    unknown = set(file_cfg) - set(actions)
    if unknown:
        raise CliError(f"unknown config keys: {sorted(unknown)}")
    return {
        key: _config_value(key, value, actions[key])
        for key, value in file_cfg.items()
    }


def _config_value(key: str, value, action: argparse.Action):
    """A config-file value checked against its flag.

    The value becomes the flag's default, which argparse never checks. A
    switch takes a JSON bool. Every other flag has a `type=` converter,
    and its value must come back from it equal to itself, so "500" is not
    an int, 2.5 is not an int, 5 is not a str and 3 is the float 3.0;
    bools are never numbers, and null is accepted only where the default
    is None.
    """
    if action.nargs == 0:
        if isinstance(value, bool):
            return value
        raise CliError(f"config key {key!r} must be a JSON bool, got {value!r}")
    convert = action.type
    if value is None and action.default is None:
        return value
    try:
        converted = convert(value)
    except (TypeError, ValueError, OverflowError):
        converted = None
    if isinstance(value, bool) or converted is None or converted != value:
        raise CliError(
            f"config key {key!r} must be {convert.__name__}, got {value!r}"
        )
    return converted


def _echo_config(args, out_dir: str, **resolved) -> None:
    """Write every config key's value to `config.json`; `resolved` wins."""
    doc = {key: getattr(args, key) for key in _config_actions(args.parser)}
    doc.update(resolved, command=args.command)
    with open(os.path.join(out_dir, "config.json"), "w", encoding="utf-8",
              newline="") as fh:
        fh.write(_canonical_json(doc))


def _train_config(args) -> nets.TrainConfig:
    return nets.TrainConfig(
        learning_rate=args.learning_rate,
        momentum=args.momentum,
        batch_size=args.batch_size,
        max_epochs=args.max_epochs,
        patience=args.patience,
        seed=args.seed,
    )


# ---------------------------------------------------------------------------
# pretrain
# ---------------------------------------------------------------------------

def cmd_pretrain(args) -> int:
    if not args.feature:  # argparse cannot require it: --config may give it
        raise CliError("--feature is required")
    if not args.out:
        raise CliError("--out is required")
    if args.signals < 100:
        raise CliError("--signals must be at least 100")
    if args.recon_signals < 1:
        raise CliError("--recon-signals must be at least 1")
    out_dir = _out_dir(args)
    artifact_path = os.path.join(out_dir, args.out)  # an absolute --out wins
    artifact_dir = os.path.dirname(artifact_path) or "."  # checked before training
    if not (os.path.isdir(artifact_dir) and os.access(artifact_dir, os.W_OK)):
        raise OSError(f"cannot write artifact: {artifact_dir} is not a writable directory")

    gen = sg.GenSpec(
        length=args.signal_length, sample_rate=args.sample_rate, seed=args.gen_seed
    )
    artifact = en.pretrain_fin(
        args.feature, gen, cfg=_train_config(args), n_signals=args.signals
    )
    try:
        en.save_fin(artifact, artifact_path)
    except OSError as exc:
        raise OSError(f"cannot write artifact: {exc}") from exc

    # fresh signals, disjoint from the pretraining corpus by index
    recon = sg.generate_rows(gen, range(args.signals, args.signals + args.recon_signals))
    rep = en.reconstruction_report(artifact, [fe.Signal(x, gen.sample_rate) for x in recon])
    edges = rep.histogram_edges
    rp.write_csv(os.path.join(out_dir, "recon_hist.csv"), ["bin_lo", "bin_hi", "count"], (
        [_fmt(lo), _fmt(hi), int(count)]
        for lo, hi, count in zip(edges[:-1], edges[1:], rep.histogram_counts)
    ))
    _echo_config(args, out_dir)
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
    print(f"oracle_digest: {fe.oracle_digest(artifact.feature)}")
    print(f"format_version: {en.FORMAT_VERSION}")
    print(f"sha256: {artifact.sha256}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

def fraction_list(value) -> list:
    """`--fractions` from its comma-separated flag text, or from the JSON
    list of numbers that `config.json` echoes."""
    if isinstance(value, str):
        return [float(f) for f in value.split(",") if f]
    if isinstance(value, list) and not any(isinstance(f, bool) for f in value):
        return [float(f) for f in value]
    raise ValueError(f"not a list of numbers: {value!r}")


def _parse_task(args) -> B.LabeledDataset:
    task = args.task
    if task is None:
        raise CliError("--task is required")
    shape = dict(
        n_channels=args.channels, n_items=args.items, rho=args.rho,
        seed=derive_seed(args.seed, "task"), n_subjects=args.subjects,
    )
    if task.startswith("feature-threshold:"):
        return B.make_feature_threshold_task(task.split(":", 1)[1], **shape)
    if task.startswith("multi-feature:"):
        names = [n for n in task.split(":", 1)[1].split(",") if n]
        return B.make_multi_feature_task(names, **shape)
    if task.startswith("csv:"):
        return B.ingest_dataset_csv(task.split(":", 1)[1])
    raise CliError(
        "task must be feature-threshold:<feature>, multi-feature:<f1,f2,...>,"
        " or csv:<path>"
    )


def _parse_models(args) -> list:
    """The `--models` entries, each checked and built before any signal is
    generated; "baseline-search" stays a tag until the task exists."""
    # fin-ensemble takes a +-separated path list, so split on commas only
    entries = [chunk for chunk in (args.models or "").split(",") if chunk]
    if not entries:
        raise CliError("--models must name at least one model")
    if len(set(entries)) != len(entries):
        raise CliError("model tags must be unique")
    models = []
    for entry in entries:
        if entry.startswith(("fin:", "fin-ensemble:")):
            kind, _, rest = entry.partition(":")
            paths = rest.split("+") if kind == "fin-ensemble" else [rest]
            if "" in paths:
                raise CliError(f"model tag {entry!r} names an empty artifact path")
            artifacts = [en.load_fin(p) for p in paths]
            models.append(B.EnsembleFinModel(entry, artifacts) if kind == "fin-ensemble"
                          else B.TransferFinModel(entry, artifacts[0]))
        elif entry == "baseline-search":
            if args.search_candidates < 1:
                raise CliError("--search-candidates must be at least 1")
            models.append(entry)
        elif entry == "knn":
            if args.knn_k < 1:
                raise CliError("--knn-k must be at least 1")
            models.append(B.KnnModel("knn", k=args.knn_k))
        elif entry == "linear-margin":
            models.append(B.LinearMarginModel("linear-margin"))
        else:
            raise CliError(f"unknown model tag {entry!r}")
    return models


def _check_inputs(models, n_channels, tf_dim):
    """Reject a model that cannot read items of `n_channels` channels of
    `tf_dim` values: a dense model (`fin:`, `baseline-search`) reads one
    channel, and each artifact reads its own input dim."""
    for model in models:
        single = isinstance(model, B.TransferFinModel)
        if (single or model == "baseline-search") and n_channels > 1:
            raise CliError("dense transfer models need single-channel data")
        artifacts = [model.artifact] if single else getattr(model, "artifacts", [])
        dims = {a.net.topology.input_dim for a in artifacts} - {tf_dim}
        if dims:
            raise CliError(f"model {model.tag!r} reads {dims.pop()} values per channel,"
                           f" not the task's {tf_dim}")


def cmd_bench(args) -> int:
    out_dir = _out_dir(args)
    # a marker left by an earlier failed run would outlive this run's report
    with contextlib.suppress(FileNotFoundError):
        os.remove(os.path.join(out_dir, "FAILED"))
    try:
        if args.protocol not in ("repeated-random", "leave-subjects-out"):
            raise CliError("--protocol must be repeated-random or leave-subjects-out")
        fractions = tuple(args.fractions or ())
        plan = B.SplitPlan(
            mode=args.protocol.replace("-", "_"),
            repeats=args.repeats,
            fractions=fractions,
            seed=args.seed,
        )
        cfg = _train_config(args)
        models = _parse_models(args)
        # a csv: task ignores --channels and is checked once it is loaded
        if not (args.task or "").startswith("csv:"):
            _check_inputs(models, args.channels, sg.DEFAULT_N_SCALES * sg.DEFAULT_N_FRAMES)
        data = _parse_task(args)
        _check_inputs(models, data.n_channels, data.tf_dim)
        search_records = None
        if "baseline-search" in models:
            winner, search_records = B.baseline_search(
                data, cfg, derive_seed(args.seed, "search"),
                n_candidates=args.search_candidates,
            )
            models[models.index("baseline-search")] = B.RandomDenseModel("baseline-search", winner)
        report = B.run_benchmark(data, plan, models, cfg)
        if args.zero_timing:
            # wall-clock seconds are the one field a seeded run cannot repeat
            report.runs = [replace(r, train_seconds=0.0) for r in report.runs]
            if search_records is not None:
                search_records = [{**r, "train_seconds": 0.0} for r in search_records]
        rp.emit_report(report, out_dir)
        if search_records is not None:
            rp.emit_search_records(search_records, out_dir)
        _echo_config(args, out_dir, fractions=list(fractions))
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
    if args.nets < 1:
        raise CliError(f"--nets must be at least 1, got {args.nets}")
    worst = nets.gradcheck_suite(n_nets=args.nets, seed=args.seed)
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

def _demo_signal(kind: str, fs: float) -> fe.Signal:
    n = sg.DEFAULT_LENGTH
    if kind == "constant":
        return fe.Signal(np.ones(n), fs)
    if kind.endswith("hz-sine"):
        text = kind[: -len("hz-sine")]
        try:
            freq = B._csv_number(text)
        except ValueError:
            freq = np.nan
        if not (np.isfinite(freq) and freq > 0):
            raise CliError(f"bad demo signal {kind!r}: frequency {text!r} must be"
                           f" a finite positive number")
        t = np.arange(n) / fs
        return fe.Signal(np.sin(2 * np.pi * freq * t), fs)
    if kind == "noise":
        return fe.Signal(rng_for(0, "oracle-demo").standard_normal(n), fs)
    raise CliError(f"bad demo signal {kind!r}; use constant, noise, or <f>hz-sine")


def _read_signals_csv(path, sample_rate: float):
    """Signals from a CSV: a header row whose first field is `index` (as
    in `index,s0,s1,...`), then one signal per row, an index and then its
    samples, all at `sample_rate`. Rows may differ in length; each needs
    at least two samples, all finite, and there must be at least one."""
    signals = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or header[0] != "index":
            raise IngestError(1, "signal CSV must start with an index column")
        for row_no, row in enumerate(reader, start=2):
            try:
                values = np.array([B._csv_number(v) for v in row[1:]])
            except ValueError as exc:
                raise IngestError(row_no, f"bad sample value: {exc}") from None
            if values.size < 2:
                raise IngestError(row_no, "signal needs at least two samples")
            if not np.all(np.isfinite(values)):
                raise IngestError(row_no, "samples must be finite")
            signals.append(fe.Signal(values, sample_rate))
    if not signals:
        raise IngestError(2, "no signal rows")
    return signals


def _oracle_values(signals, feature: str, first_row) -> np.ndarray:
    """(signals, width) raw values of `feature`, one `compute_features`
    call per signal length. A failure names its signal's file row, where
    the first signal is `first_row`, or no row when `first_row` is None."""
    by_length = {}
    for i, signal in enumerate(signals):
        by_length.setdefault(len(signal), []).append(i)
    raw = np.empty((len(signals), fe.feature_width(feature)))
    for rows in by_length.values():
        samples = np.stack([signals[i].samples for i in rows])
        try:
            raw[rows] = fe.compute_features(samples, signals[0].sample_rate, feature)
        except ValueError as exc:
            # a degenerate row is named; any other failure is the group's
            # first row's
            reason = getattr(exc, "reason", exc)
            if first_row is None:
                raise CliError(reason) from None
            row = rows[getattr(exc, "row", None) or 0]
            raise IngestError(first_row + row, reason) from None
    return raw


def cmd_oracle(args) -> int:
    feature = args.feature
    if (args.demo is None) == (args.signals_csv is None):
        raise CliError("provide exactly one of --demo or --signals-csv")
    if not args.sample_rate > 0:  # NaN included
        raise CliError(f"--sample-rate must be positive, got {args.sample_rate}")
    if args.demo is not None:
        signals, first_row = [_demo_signal(args.demo, args.sample_rate)], None
    else:
        # the header is row 1
        signals, first_row = _read_signals_csv(args.signals_csv, args.sample_rate), 2
    lo = hi = None
    if args.artifact is not None and args.range is not None:
        raise CliError("give at most one of --artifact or --range")
    if args.artifact is not None:
        artifact = en.load_fin(args.artifact)
        if artifact.feature != feature:
            raise CliError(f"artifact imitates {artifact.feature}, not {feature}")
        lo, hi = artifact.norm_lo, artifact.norm_hi
    elif args.range is not None:
        try:
            lo_s, hi_s = args.range.split(":")
            lo = np.array([float(lo_s)])
            hi = np.array([float(hi_s)])
        except ValueError as exc:
            raise CliError(f"bad --range, want lo:hi: {exc}") from exc
    values = _oracle_values(signals, feature, first_row)
    if lo is not None:
        values = fe.normalize_feature(values, lo, hi)
    for i, value in enumerate(values):
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

    def add_train_flags(p, max_epochs, patience):
        p.add_argument("--learning-rate", dest="learning_rate", type=float, default=0.01)
        p.add_argument("--momentum", type=float, default=0.9)
        p.add_argument("--batch-size", dest="batch_size", type=int, default=64)
        p.add_argument("--max-epochs", dest="max_epochs", type=int, default=max_epochs)
        p.add_argument("--patience", type=int, default=patience)

    p = sub.add_parser("pretrain", help="train a feature regressor on synthetic signals")
    p.add_argument("--feature", type=str, choices=fe.FEATURE_NAMES)
    p.add_argument("--signals", type=int, default=en.DEFAULT_N_SIGNALS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--gen-seed", dest="gen_seed", type=int, default=42)
    p.add_argument("--signal-length", dest="signal_length", type=int,
                   default=sg.DEFAULT_LENGTH)
    p.add_argument("--sample-rate", dest="sample_rate", type=float,
                   default=sg.DEFAULT_SAMPLE_RATE)
    p.add_argument("--recon-signals", dest="recon_signals", type=int, default=3000)
    add_train_flags(p, max_epochs=60, patience=8)
    p.add_argument("--out", type=str, help="artifact filename")
    p.add_argument("--out-dir", dest="out_dir")
    p.add_argument("--config")
    p.set_defaults(func=cmd_pretrain, parser=p)

    p = sub.add_parser("inspect", help="summarize a saved artifact")
    p.add_argument("path")
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("bench", help="run an evaluation protocol")
    p.add_argument("--task", type=str)
    p.add_argument("--models", type=str)
    p.add_argument("--protocol", type=str, default="repeated-random")
    p.add_argument("--repeats", type=int, default=10)
    p.add_argument("--fractions", type=fraction_list)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rho", type=float, default=0.05)
    p.add_argument("--items", type=int, default=1200)
    p.add_argument("--channels", type=int, default=1)
    p.add_argument("--subjects", type=int)
    p.add_argument("--knn-k", dest="knn_k", type=int, default=5)
    p.add_argument("--search-candidates", dest="search_candidates", type=int, default=20)
    p.add_argument("--serial-timing", dest="serial_timing", action="store_true",
                   help="no effect: every run is serial; kept for old command lines")
    p.add_argument("--zero-timing", dest="zero_timing", action="store_true",
                   help="write 0.0 for all timing fields (byte-comparable reports)")
    add_train_flags(p, max_epochs=40, patience=6)
    p.add_argument("--out-dir", dest="out_dir")
    p.add_argument("--config")
    p.set_defaults(func=cmd_bench, parser=p)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--nets", type=int, default=20)
    p.add_argument("--seed", type=int, default=2024)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("oracle", help="print closed-form feature values")
    p.add_argument("--feature", required=True, choices=fe.FEATURE_NAMES)
    p.add_argument("--demo", help="constant, noise, or <freq>hz-sine")
    p.add_argument("--signals-csv", dest="signals_csv")
    p.add_argument("--sample-rate", dest="sample_rate", type=float,
                   default=sg.DEFAULT_SAMPLE_RATE)
    p.add_argument("--artifact", help="print values on this artifact's [0, 1] scale")
    p.add_argument("--range", help="LO:HI; print values on this range's [0, 1] scale")
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
        if getattr(args, "config", None):
            # file values become defaults, so argparse ranks flags > file > defaults
            args.parser.set_defaults(**_read_config(args))
            args = parser.parse_args(argv)
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
