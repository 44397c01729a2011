"""Command-line interface: exit codes, outputs, and config precedence."""

import argparse
import csv
import hashlib
import importlib.metadata
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import finnets
from finnets import bench, engine, features, report, signals
from finnets.cli import EXIT_CONFIG, _config_actions, build_parser, main
from finnets.nets import TrainConfig
from finnets.rng import derive_seed

REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def artifact_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("artifact")
    code = main([
        "pretrain", "--feature", "entropy", "--signals", "120",
        "--max-epochs", "6", "--patience", "6", "--recon-signals", "10",
        "--out", "ent.fin", "--out-dir", str(out),
    ])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def artifact_path(artifact_dir):
    return str(artifact_dir / "ent.fin")


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


# ---------------------------------------------------------------------------
# pretrain
# ---------------------------------------------------------------------------

def test_pretrain_outputs(artifact_dir, capsys):
    capsys.readouterr()
    assert (artifact_dir / "ent.fin").exists()
    hist = read_rows(artifact_dir / "recon_hist.csv")
    assert hist[0] == ["bin_lo", "bin_hi", "count"]
    assert len(hist) == 51  # header + 50 bins
    cfg = json.loads((artifact_dir / "config.json").read_text())
    assert cfg["command"] == "pretrain"
    assert cfg["signals"] == 120
    assert cfg["max_epochs"] == 6
    art = engine.load_fin(artifact_dir / "ent.fin")
    assert art.feature == "entropy"


def test_pretrain_is_deterministic(artifact_dir, tmp_path, capsys):
    code = main([
        "pretrain", "--feature", "entropy", "--signals", "120",
        "--max-epochs", "6", "--patience", "6", "--recon-signals", "10",
        "--out", "ent.fin", "--out-dir", str(tmp_path),
    ])
    capsys.readouterr()
    assert code == 0
    assert (tmp_path / "ent.fin").read_bytes() == (artifact_dir / "ent.fin").read_bytes()


def test_pretrain_validation(tmp_path, capsys):
    base = ["pretrain", "--out", "x.fin", "--out-dir", str(tmp_path)]
    assert main(base) == 2  # --feature missing
    assert main(base + ["--feature", "loudness"]) == 2
    assert main(base + ["--feature", "entropy", "--signals", "50"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err


def test_feature_flags_take_the_six_names_as_choices(tmp_path, monkeypatch, capsys):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before --feature was checked")

    monkeypatch.setattr(engine, "pretrain_fin", no_work)
    monkeypatch.setattr(features, "compute_features", no_work)
    for argv in (["pretrain", "--feature", "loudness", "--out", "x.fin",
                  "--out-dir", str(tmp_path)],
                 ["oracle", "--feature", "loudness", "--demo", "noise"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "argument --feature: invalid choice: 'loudness'" in captured.err
        assert captured.out == ""
    names = "{" + ",".join(features.FEATURE_NAMES) + "}"
    for command in ("pretrain", "oracle"):
        assert main([command, "--help"]) == 0
        assert f"--feature {names}" in capsys.readouterr().out
    assert os.listdir(tmp_path) == []


def test_pretrain_requires_feature_and_out_by_name(tmp_path, monkeypatch, capsys):
    def no_pretrain(*args, **kwargs):
        raise AssertionError("pretrained without a required flag")

    monkeypatch.setattr(engine, "pretrain_fin", no_pretrain)
    base = ["pretrain", "--out-dir", str(tmp_path)]
    for argv, flag in ((base + ["--out", "x.fin"], "--feature"),
                       (base + ["--feature", "entropy"], "--out")):
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {flag} is required\n"
    assert os.listdir(tmp_path) == []


def test_a_config_feature_is_checked_before_any_signal(tmp_path, monkeypatch, capsys):
    # argparse never checks a default, so a file's feature meets the library's rule
    def no_signals(*args, **kwargs):
        raise AssertionError("signals generated before the feature was checked")

    monkeypatch.setattr(signals, "generate_rows", no_signals)
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"feature": "loudness", "out": "x.fin"}))
    assert main(["pretrain", "--config", str(config), "--out-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "error: unknown feature 'loudness'\n"
    assert not (tmp_path / "x.fin").exists()


def test_pretrain_checks_its_artifact_path_before_training(tmp_path, monkeypatch, capsys):
    def no_pretrain(*args, **kwargs):
        raise AssertionError("pretrained before the artifact path was checked")

    monkeypatch.setattr(engine, "pretrain_fin", no_pretrain)
    base = ["pretrain", "--feature", "entropy", "--out-dir", str(tmp_path)]
    assert main(base + ["--out", "missing/e.fin"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write artifact: ") and "missing" in err
    monkeypatch.setattr(os, "access", lambda path, mode: False)  # a read-only directory
    assert main(base + ["--out", "e.fin"]) == 4
    assert capsys.readouterr().err.startswith("error: cannot write artifact: ")
    assert os.listdir(tmp_path) == []


def test_pretrain_reports_a_failed_artifact_write(tmp_path, monkeypatch, capsys):
    def failing_save(artifact, path):
        raise OSError("disk full")

    monkeypatch.setattr(engine, "save_fin", failing_save)
    code = main([
        "pretrain", "--feature", "entropy", "--signals", "100",
        "--max-epochs", "1", "--patience", "1", "--recon-signals", "1",
        "--out", "e.fin", "--out-dir", str(tmp_path),
    ])
    assert code == 4
    captured = capsys.readouterr()
    assert captured.err == "error: cannot write artifact: disk full\n"
    assert captured.out == ""
    assert os.listdir(tmp_path) == []


def test_pretrain_rejects_empty_reconstruction(tmp_path, capsys):
    base = [
        "pretrain", "--feature", "entropy", "--signals", "100",
        "--max-epochs", "1", "--patience", "1", "--out", "x.fin",
    ]
    # rejected before pretraining: no artifact, no report
    assert main(base + ["--recon-signals", "0", "--out-dir", str(tmp_path / "zero")]) == 2
    assert "--recon-signals" in capsys.readouterr().err
    assert not (tmp_path / "zero" / "x.fin").exists()
    assert main(base + ["--recon-signals", "1", "--out-dir", str(tmp_path / "one")]) == 0
    out = capsys.readouterr().out
    hist = read_rows(tmp_path / "one" / "recon_hist.csv")
    assert sum(int(row[2]) for row in hist[1:]) == 1
    assert "nan" not in out


# ---------------------------------------------------------------------------
# inspect
# ---------------------------------------------------------------------------

def test_inspect_prints_summary(artifact_path, capsys):
    assert main(["inspect", artifact_path]) == 0
    out = capsys.readouterr().out
    assert "feature: entropy" in out
    assert "layer_sizes: 1024x512x256x64x1" in out
    assert "gen_spec_digest:" in out
    assert "format_version: 3\n" in out
    header = json.loads(Path(artifact_path).read_bytes().split(b"\n", 1)[0])
    assert f"sha256: {header['sha256']}\n" in out
    # the oracle's digest follows gen_spec_digest, as line 1 of the file records it
    assert header["oracle_digest"] == features.oracle_digest("entropy")
    lines = out.splitlines()
    at = lines.index(f"gen_spec_digest: {header['gen_spec_digest']}")
    assert lines[at + 1] == f"oracle_digest: {header['oracle_digest']}"


def test_inspect_corrupt_file(tmp_path, capsys):
    bad = tmp_path / "bad.fin"
    bad.write_bytes(b"this is not an artifact")
    assert main(["inspect", str(bad)]) == 4
    assert "error:" in capsys.readouterr().err


def test_inspect_truncated_artifact(artifact_path, tmp_path, capsys):
    data = open(artifact_path, "rb").read()
    cut = tmp_path / "cut.fin"
    cut.write_bytes(data[: len(data) // 2])
    assert main(["inspect", str(cut)]) == 4
    capsys.readouterr()


def resigned_copy(artifact_path, tmp_path, edit):
    """A copy of the artifact whose header document `edit` changed. The
    payload bytes are kept and `sha256` is recomputed as the format defines
    it, so only the edit itself can make the copy fail to load."""
    def canonical(doc):
        return (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode()

    line, payload = Path(artifact_path).read_bytes().split(b"\n", 1)
    doc = json.loads(line)
    edit(doc)
    del doc["sha256"]
    doc["sha256"] = hashlib.sha256(canonical(doc) + payload).hexdigest()
    copy = tmp_path / "bad.fin"
    copy.write_bytes(canonical(doc) + payload)
    return copy


def test_inspect_field_of_the_wrong_json_type(artifact_path, tmp_path, capsys):
    def fractional_epochs(doc):
        doc["history_summary"]["epochs"] += 0.7

    assert main(["inspect", artifact_path]) == 0  # the untouched file is the clean control
    bad = resigned_copy(artifact_path, tmp_path, fractional_epochs)
    assert main(["inspect", str(bad)]) == 4
    assert "epochs" in capsys.readouterr().err


def test_inspect_refuses_an_artifact_of_another_oracle(artifact_path, tmp_path, capsys):
    def other_oracle(doc):
        doc["oracle_digest"] = features.oracle_digest("mfcc")

    assert main(["inspect", artifact_path]) == 0  # the untouched file is the clean control
    bad = resigned_copy(artifact_path, tmp_path, other_oracle)
    capsys.readouterr()
    assert main(["inspect", str(bad)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: oracle_digest ") and "re-run `fin pretrain`" in err


def test_inspect_non_finite_constant(artifact_path, tmp_path, capsys):
    stand_in = 0.123456789

    def set_loss(doc):
        doc["history_summary"]["best_val_loss"] = stand_in

    bad = resigned_copy(artifact_path, tmp_path, set_loss)
    assert main(["inspect", str(bad)]) == 0  # the finite stand-in is the clean control
    assert f"best_val_loss: {stand_in}" in capsys.readouterr().out
    line, payload = bad.read_bytes().split(b"\n", 1)
    assert line.count(repr(stand_in).encode()) == 1
    # NaN is not JSON at all; 1e400 is, but it overflows a float to inf
    for token in ("NaN", "1e400"):
        bad.write_bytes(line.replace(repr(stand_in).encode(), token.encode()) + b"\n" + payload)
        assert main(["inspect", str(bad)]) == 4
        captured = capsys.readouterr()
        assert f"non-finite number {token}" in captured.err
        assert "best_val_loss" not in captured.out


# ---------------------------------------------------------------------------
# gradcheck
# ---------------------------------------------------------------------------

def test_gradcheck_passes(capsys):
    assert main(["gradcheck", "--nets", "2", "--seed", "2024"]) == 0
    out = capsys.readouterr().out
    worst = float(out.split()[1])
    assert worst <= 1e-4


def test_gradcheck_rejects_no_nets(capsys):
    # checking zero nets would pass vacuously with max_rel_error 0
    for n in ("0", "-3"):
        assert main(["gradcheck", "--nets", n]) == EXIT_CONFIG
        out = capsys.readouterr()
        assert "error:" in out.err and "--nets" in out.err
        assert out.out == ""
    assert main(["gradcheck", "--nets", "1", "--seed", "2024"]) == 0
    assert float(capsys.readouterr().out.split()[1]) <= 1e-4


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

def test_oracle_demo_values(capsys):
    assert main(["oracle", "--feature", "entropy", "--demo", "constant"]) == 0
    assert float(capsys.readouterr().out.split()[1]) == 0.0
    assert main(["oracle", "--feature", "f0", "--demo", "10hz-sine"]) == 0
    assert abs(float(capsys.readouterr().out.split()[1]) - 10.0) <= 0.5
    assert main(["oracle", "--feature", "mfcc", "--demo", "noise"]) == 0
    values = capsys.readouterr().out.split()
    assert len(values) == 14  # row index plus 13 coefficients


def test_oracle_demo_frequency_follows_the_csv_number_rule(capsys):
    assert main(["oracle", "--feature", "entropy", "--demo", "10hz-sine"]) == 0
    assert capsys.readouterr().out.split()[1] == "3.7247301466508205"  # the control
    for freq in ("1_0", "inf", "nan", "0", "-3", "ten"):
        assert main(["oracle", "--feature", "entropy", f"--demo={freq}hz-sine"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: bad demo signal '{freq}hz-sine': frequency"
                                f" '{freq}' must be a finite positive number\n")


def test_oracle_normalized_range(capsys):
    code = main([
        "oracle", "--feature", "entropy", "--demo", "constant",
        "--range", "0:4",
    ])
    assert code == 0
    assert float(capsys.readouterr().out.split()[1]) == 0.0
    # a range alone normalizes: the noise demo's raw entropy is 3.4755...
    assert main(["oracle", "--feature", "entropy", "--demo", "noise"]) == 0
    raw = float(capsys.readouterr().out.split()[1])
    assert raw == pytest.approx(3.4755, abs=1e-4)
    assert main(["oracle", "--feature", "entropy", "--demo", "noise", "--range", "0:4"]) == 0
    assert float(capsys.readouterr().out.split()[1]) == pytest.approx(raw / 4, rel=1e-15)


def test_oracle_range_with_negative_lower_bound(capsys):
    code = main([
        "oracle", "--feature", "kurtosis", "--demo", "noise",
        "--range=-3:7.5",
    ])
    assert code == 0
    assert 0.0 <= float(capsys.readouterr().out.split()[1]) <= 1.0


def test_oracle_normalized_with_artifact(artifact_path, tmp_path, capsys):
    code = main([
        "oracle", "--feature", "entropy", "--demo", "noise",
        "--artifact", artifact_path,
    ])
    assert code == 0
    value = float(capsys.readouterr().out.split()[1])
    assert 0.0 <= value <= 1.0
    # artifact imitates entropy, not kurtosis
    code = main([
        "oracle", "--feature", "kurtosis", "--demo", "noise",
        "--artifact", artifact_path,
    ])
    assert code == 2
    capsys.readouterr()
    # an artifact is read whenever it is given
    code = main([
        "oracle", "--feature", "entropy", "--demo", "noise",
        "--artifact", str(tmp_path / "missing.fin"),
    ])
    assert code == 4
    captured = capsys.readouterr()
    assert "missing.fin" in captured.err and captured.out == ""


def write_signals_csv(path, rows):
    """The `--signals-csv` schema: `index,s0,s1,...`, one signal per row."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index"] + [f"s{i}" for i in range(len(rows[0]))])
        for i, row in enumerate(rows):
            writer.writerow([i] + [repr(float(v)) for v in row])


def test_oracle_signals_csv(tmp_path, capsys):
    spec = signals.GenSpec(seed=88)
    path = tmp_path / "sig.csv"
    write_signals_csv(path, [signals.generate(spec, i).samples for i in range(3)])
    assert main(["oracle", "--feature", "entropy", "--signals-csv", str(path)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3
    for i, line in enumerate(lines):
        sig = signals.generate(spec, i)
        want = float(features.compute_feature(sig, "entropy")[0])
        assert abs(float(line.split()[1]) - want) < 1e-12
    # a non-finite sample is named by its row, like every other defect
    text = path.read_text().splitlines()
    for bad in ("nan", "1e400", "-inf"):
        fields = text[2].split(",")
        fields[5] = bad
        path.write_text("\n".join(text[:2] + [",".join(fields)] + text[3:]) + "\n")
        assert main(["oracle", "--feature", "entropy", "--signals-csv", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: row 3: samples must be finite\n"
        assert captured.out == ""


def test_oracle_signals_csv_needs_its_index_header_and_two_samples_a_row(tmp_path, capsys):
    path = tmp_path / "sig.csv"
    rows = [signals.generate(signals.GenSpec(seed=88), i).samples for i in range(2)]
    write_signals_csv(path, rows)
    argv = ["oracle", "--feature", "entropy", "--signals-csv", str(path)]
    assert main(argv) == 0  # control
    capsys.readouterr()
    text = path.read_text().splitlines()
    # a header that does not start with `index` is not taken as one
    path.write_text("\n".join(["time" + text[0][len("index"):]] + text[1:]) + "\n")
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: row 1: signal CSV must start with an index column\n"
    assert captured.out == ""
    # a row of one sample, which entropy alone would score 0 bits
    path.write_text("\n".join(text[:2] + ["1,0.5"]) + "\n")
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: row 3: signal needs at least two samples\n"
    assert captured.out == ""


def test_oracle_signals_csv_numbers_are_plain_ascii(tmp_path, capsys):
    # Python's `float` takes "1_0" as 10.0 and Arabic-Indic "\u0661" as 1.0;
    # the dataset CSV's number rule refuses both
    path = tmp_path / "sig.csv"
    x = signals.generate(signals.GenSpec(seed=88), 0).samples
    write_signals_csv(path, [x, x])
    text = path.read_text(encoding="utf-8").splitlines()

    def kurtosis_with(token):
        fields = text[2].split(",")
        fields[5] = token
        path.write_text("\n".join(text[:2] + [",".join(fields)]) + "\n", encoding="utf-8")
        code = main(["oracle", "--feature", "kurtosis", "--signals-csv", str(path)])
        return code, capsys.readouterr()

    for bad in ("1_0", "\u0661"):
        code, captured = kurtosis_with(bad)
        assert code == 2 and captured.out == "", bad
        assert captured.err.startswith("error: row 3: bad sample value: "), captured.err
    # controls: an ASCII number, with or without whitespace around it, loads
    code, want = kurtosis_with("10")
    assert code == 0
    assert kurtosis_with(" 10\t") == (0, want)


def test_oracle_demo_is_sampled_at_sample_rate(tmp_path, capsys):
    path = tmp_path / "sine.csv"
    t = np.arange(signals.DEFAULT_LENGTH) / 1000.0
    write_signals_csv(path, [np.sin(2 * np.pi * 10.0 * t)])
    assert main(["oracle", "--feature", "mfcc", "--signals-csv", str(path),
                 "--sample-rate", "1000"]) == 0
    want = capsys.readouterr().out
    assert main(["oracle", "--feature", "mfcc", "--demo", "10hz-sine",
                 "--sample-rate", "1000"]) == 0
    assert capsys.readouterr().out == want
    # control: at the default rate the demo is another signal
    assert main(["oracle", "--feature", "mfcc", "--demo", "10hz-sine"]) == 0
    assert capsys.readouterr().out != want
    # a rate the demo cannot be sampled at is named as such, for either source
    for source in (["--demo", "10hz-sine"], ["--signals-csv", str(path)]):
        for rate in ("0", "-5", "nan"):
            assert main(["oracle", "--feature", "mfcc", *source, "--sample-rate", rate]) == 2
            captured = capsys.readouterr()
            assert captured.err == f"error: --sample-rate must be positive, got {float(rate)}\n"


def test_oracle_missing_signals_csv_is_an_io_error(tmp_path, capsys):
    path = tmp_path / "missing.csv"
    assert main(["oracle", "--feature", "entropy", "--signals-csv", str(path)]) == 4
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "missing.csv" in captured.err
    assert captured.out == ""


def test_oracle_signals_csv_without_signal_rows(tmp_path, capsys):
    path = tmp_path / "empty.csv"
    path.write_text("index,s0,s1\n")
    assert main(["oracle", "--feature", "entropy", "--signals-csv", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: row 2: no signal rows\n"
    assert captured.out == ""


def test_oracle_f0_of_a_short_signal(tmp_path, capsys):
    # 100 samples at 128 Hz are under two periods of 1 Hz: the search
    # floor rises to 2.56 Hz and the 10 Hz tone still gets a value
    path = tmp_path / "short.csv"
    write_signals_csv(path, [np.sin(2 * np.pi * 10.0 * np.arange(100) / 128.0)])
    assert main(["oracle", "--feature", "f0", "--signals-csv", str(path)]) == 0
    index, value = capsys.readouterr().out.split()
    assert index == "0" and float(value) == pytest.approx(10.03, abs=0.01)


def test_oracle_signals_csv_names_the_degenerate_row(tmp_path, capsys):
    spec = signals.GenSpec(seed=88)
    rows = [signals.generate(spec, i).samples for i in range(4)]
    rows[1] = rows[1][:300]  # mixed lengths: two oracle calls
    path = tmp_path / "mixed.csv"
    write_signals_csv(path, rows)
    assert main(["oracle", "--feature", "skewness", "--signals-csv", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["0", "1", "2", "3"]
    for row, line in zip(rows, lines):
        want = features.compute_feature(features.Signal(row, 128.0), "skewness")
        assert float(line.split()[1]) == float(want[0])
    # a constant signal in the third data row, CSV row 4, after two good
    # rows: nothing is printed, and the error names the file's row
    rows[2] = np.ones(rows[2].size)
    write_signals_csv(path, rows)
    assert main(["oracle", "--feature", "skewness", "--signals-csv", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: row 4: zero-variance signal has undefined skewness\n"
    assert captured.out == ""
    # so does a row too short for the oracle
    rows[2] = rows[2][:3]
    write_signals_csv(path, rows)
    assert main(["oracle", "--feature", "kurtosis", "--signals-csv", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: row 4: kurtosis needs at least 4 samples\n"
    assert captured.out == ""
    # mfcc needs one 64-sample frame: 63 samples are refused, 64 run
    rows[2] = rows[0][:63]
    write_signals_csv(path, rows)
    assert main(["oracle", "--feature", "mfcc", "--signals-csv", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: row 4: signal shorter than one 64-sample frame\n"
    assert captured.out == ""
    rows[2] = rows[0][:64]
    write_signals_csv(path, rows)
    assert main(["oracle", "--feature", "mfcc", "--signals-csv", str(path)]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 4
    # a demo signal has no row
    assert main(["oracle", "--feature", "kurtosis", "--demo", "constant"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: zero-variance signal has undefined kurtosis\n"
    assert captured.out == ""


def test_oracle_flag_validation(tmp_path, capsys):
    assert main(["oracle", "--feature", "entropy"]) == 2
    assert main([
        "oracle", "--feature", "entropy", "--demo", "noise",
        "--signals-csv", "x.csv",
    ]) == 2
    assert main(["oracle", "--feature", "loudness", "--demo", "noise"]) == 2
    assert main(["oracle", "--feature", "entropy", "--demo", "xhz-sine"]) == 2
    capsys.readouterr()
    assert main(["oracle", "--feature", "entropy", "--demo", "noise",
                 "--artifact", str(tmp_path / "a.fin"), "--range", "0:1"]) == 2
    assert capsys.readouterr().err == "error: give at most one of --artifact or --range\n"
    # an empty, reversed or infinite range is a config error, not a number
    for bad_range in ("1:1", "5:1", "0:inf", "-inf:inf", "0:1e400"):
        assert main(["oracle", "--feature", "entropy", "--demo", "noise",
                     f"--range={bad_range}"]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "error: normalization range requires finite hi > lo elementwise\n"
        )
        assert captured.out == ""
    # degenerate input maps to the config-error code, not a traceback
    assert main(["oracle", "--feature", "kurtosis", "--demo", "constant"]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

BENCH_BASE = [
    "bench", "--task", "feature-threshold:entropy", "--items", "60",
    "--seed", "1",
]


@pytest.mark.parametrize("task", ["feature-threshold:loudness",
                                  "multi-feature:entropy,loudness"])
def test_bench_task_with_an_unknown_feature_exits_before_any_signal(
        task, tmp_path, monkeypatch, capsys):
    def no_signals(*args, **kwargs):
        raise AssertionError("signals generated before the task's features were checked")

    monkeypatch.setattr(signals, "generate_rows", no_signals)
    code = main(["bench", "--task", task, "--items", "60", "--models", "knn",
                 "--out-dir", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err == "error: unknown feature 'loudness'\n"
    assert (tmp_path / "FAILED").read_text() == "ValueError: unknown feature 'loudness'\n"


def test_bench_protocol_takes_its_two_hyphenated_names(tmp_path, monkeypatch, capsys):
    def no_task(*args, **kwargs):
        raise AssertionError("task built before --protocol was checked")

    monkeypatch.setattr(bench, "make_feature_threshold_task", no_task)
    # the underscored spelling is SplitPlan's mode name, not a protocol
    for protocol in ("repeated_random", "leave_subjects_out", "bootstrap"):
        assert main(BENCH_BASE + ["--models", "knn", "--protocol", protocol,
                                  "--out-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            "error: --protocol must be repeated-random or leave-subjects-out\n")


def test_bench_counting_contract(tmp_path, capsys):
    code = main(BENCH_BASE + [
        "--repeats", "2", "--models", "knn,linear-margin",
        "--out-dir", str(tmp_path),
    ])
    capsys.readouterr()
    assert code == 0
    runs = read_rows(tmp_path / "runs.csv")
    assert len(runs) == 1 + 2 * 2  # header + models x repeats
    aggs = read_rows(tmp_path / "aggregates.csv")
    assert len(aggs) == 3
    assert {r[1] for r in runs[1:]} == {"knn", "linear-margin"}
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["meta"]["n_items"] == 60
    assert len(doc["stats"]) == 2  # welch + levene for the one pair
    for row in doc["stats"]:
        assert row["verdict"] in ("significant", "not_significant", "degenerate")
    cfg = json.loads((tmp_path / "config.json").read_text())
    assert cfg["command"] == "bench"
    assert cfg["repeats"] == 2


def test_library_report_writes_the_rows_fin_bench_writes(tmp_path, capsys):
    """`emit_report(run_benchmark(...))`, with no other call, writes the
    model comparisons that `fin bench` writes for the same run."""
    code = main(BENCH_BASE + [
        "--repeats", "2", "--models", "knn,linear-margin",
        "--out-dir", str(tmp_path / "cli"),
    ])
    capsys.readouterr()
    assert code == 0
    data = bench.make_feature_threshold_task(
        "entropy", n_items=60, rho=0.05, seed=derive_seed(1, "task"))
    plan = bench.SplitPlan(mode="repeated_random", repeats=2, seed=1)
    models = [bench.KnnModel("knn", k=5), bench.LinearMarginModel("linear-margin")]
    rep = bench.run_benchmark(data, plan, models, TrainConfig(seed=1))
    report.emit_report(rep, tmp_path / "lib")
    want = json.loads((tmp_path / "cli" / "report.json").read_text())["stats"]
    got = json.loads((tmp_path / "lib" / "report.json").read_text())["stats"]
    assert [(r["test_name"], r["groups"]) for r in want] == [
        ("welch_one_tailed_greater", "knn vs linear-margin"),
        ("levene", "knn vs linear-margin"),
    ]
    assert got == want
    assert rep.stats == want  # each read computes the same rows, never more


def test_bench_fraction_sweep_outputs(tmp_path, capsys):
    code = main(BENCH_BASE + [
        "--repeats", "2", "--models", "knn,linear-margin",
        "--fractions", "0.5,1.0", "--out-dir", str(tmp_path),
    ])
    capsys.readouterr()
    assert code == 0
    runs = read_rows(tmp_path / "runs.csv")
    assert len(runs) == 1 + 2 * 2 * 2  # models x repeats x fractions
    frac = read_rows(tmp_path / "fraction_accuracy.csv")
    assert len(frac) == 1 + 4
    assert [r[0] for r in frac[1:]] == ["0.5", "0.5", "1", "1"]


def test_bench_zero_timing_reports_are_identical(artifact_path, tmp_path, capsys):
    names = ("runs.csv", "aggregates.csv", "loss_curves.csv",
             "fraction_accuracy.csv", "report.json")
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        code = main(BENCH_BASE + [
            "--repeats", "2", "--models", f"fin:{artifact_path},knn",
            "--max-epochs", "8", "--zero-timing",
            "--out-dir", str(out),
        ])
        assert code == 0
        outs.append(out)
    capsys.readouterr()
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    runs = read_rows(outs[0] / "runs.csv")
    seconds = runs[0].index("train_seconds")
    assert [r[seconds] for r in runs[1:]] == ["0"] * 4


def test_bench_search_model_writes_records(tmp_path, capsys):
    code = main(BENCH_BASE + [
        "--repeats", "2", "--models", "baseline-search",
        "--search-candidates", "2", "--max-epochs", "4", "--patience", "4",
        "--zero-timing", "--out-dir", str(tmp_path),
    ])
    capsys.readouterr()
    assert code == 0
    rows = read_rows(tmp_path / "search_runs.csv")
    assert len(rows) == 1 + 2 * 3  # candidates x search splits
    assert rows[0][0] == "candidate"
    seconds = rows[0].index("train_seconds")
    assert [r[seconds] for r in rows[1:]] == ["0"] * 6


def test_bench_loso_without_subjects_fails(tmp_path, capsys):
    code = main(BENCH_BASE + [
        "--protocol", "leave-subjects-out", "--models", "knn",
        "--out-dir", str(tmp_path),
    ])
    assert code == 2
    assert (tmp_path / "FAILED").exists()
    capsys.readouterr()


def test_bench_success_clears_stale_failed_marker(tmp_path, capsys):
    loso = BENCH_BASE + ["--protocol", "leave-subjects-out", "--models", "knn",
                         "--out-dir", str(tmp_path)]
    assert main(loso) == 2
    assert (tmp_path / "FAILED").exists()
    assert main(loso + ["--subjects", "3"]) == 0
    assert not (tmp_path / "FAILED").exists()
    assert (tmp_path / "runs.csv").exists()
    capsys.readouterr()


def test_bench_rejects_repeated_fractions(tmp_path, capsys):
    code = main(BENCH_BASE + [
        "--repeats", "2", "--models", "knn,linear-margin",
        "--fractions", "0.5,0.5", "--out-dir", str(tmp_path),
    ])
    err = capsys.readouterr().err
    assert code == 2
    assert "strictly ascending" in err
    assert (tmp_path / "FAILED").exists()
    assert not (tmp_path / "runs.csv").exists()


@pytest.mark.parametrize("flags, message", [
    (["--repeats", "0"], "repeats must be positive"),
    (["--fractions", "0.5,0.5"], "strictly ascending"),
])
def test_bench_checks_split_flags_before_the_search(tmp_path, capsys, monkeypatch,
                                                    flags, message):
    def no_search(*args, **kwargs):
        raise AssertionError("baseline search ran before the split flags were checked")

    monkeypatch.setattr(bench, "baseline_search", no_search)
    code = main(BENCH_BASE + flags + [
        "--models", "baseline-search", "--out-dir", str(tmp_path),
    ])
    assert code == 2
    assert message in capsys.readouterr().err


def test_bench_serial_timing_changes_only_its_config_key(tmp_path, capsys):
    trees = []
    for name, extra in (("plain", []), ("serial", ["--serial-timing"])):
        out = tmp_path / name
        assert main(BENCH_BASE + extra + [
            "--repeats", "2", "--models", "knn,linear-margin",
            "--fractions", "0.5,1.0", "--zero-timing", "--out-dir", str(out),
        ]) == 0
        trees.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    capsys.readouterr()
    configs = [json.loads(tree.pop("config.json")) for tree in trees]
    assert trees[0] == trees[1]
    assert [c.pop("serial_timing") for c in configs] == [False, True]
    assert configs[0] == configs[1]


def test_bench_has_no_workers_flag_or_config_key(tmp_path, capsys):
    base = BENCH_BASE + ["--models", "knn", "--out-dir", str(tmp_path)]
    assert main(base + ["--workers", "2"]) == EXIT_CONFIG
    cfg = tmp_path / "old.json"
    cfg.write_text(json.dumps({"workers": 1}))
    assert main(base + ["--config", str(cfg)]) == EXIT_CONFIG
    assert "unknown config keys: ['workers']" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value, name", [
    ("--channels", "0", "n_channels"),
    ("--channels", "-1", "n_channels"),
    ("--items", "0", "n_items"),
    ("--subjects", "0", "n_subjects"),
])
def test_bench_rejects_empty_task_sizes(tmp_path, flag, value, name):
    # a child process, so a numpy warning printed before the error shows
    proc = run_console_script(declared_console_script("fin"), BENCH_BASE + [
        "--models", "knn", flag, value, "--out-dir", str(tmp_path / "out"),
    ], tmp_path)
    assert proc.returncode == 2
    assert proc.stderr == f"error: {name} must be at least 1, got {value}\n"


def test_pretrain_rejects_a_sample_rate_without_a_tone_band(tmp_path, capsys):
    code = main([
        "pretrain", "--feature", "entropy", "--signals", "100",
        "--sample-rate", "3", "--out", "x.fin", "--out-dir", str(tmp_path),
    ])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: sample_rate must be at least 4.21 Hz: below that the tone "
        "band from 1 Hz to 0.95 * fs / 4 is empty\n")
    assert not (tmp_path / "x.fin").exists()


def test_bench_loso_with_subjects(tmp_path, capsys):
    code = main(BENCH_BASE + [
        "--protocol", "leave-subjects-out", "--subjects", "3",
        "--models", "knn", "--out-dir", str(tmp_path),
    ])
    capsys.readouterr()
    assert code == 0
    runs = read_rows(tmp_path / "runs.csv")
    assert len(runs) == 1 + 6  # 3 * 2 ordered subject pairs


def test_bench_loso_needs_three_subjects(tmp_path, capsys):
    # one subject used to give an empty report and exit 0
    loso = BENCH_BASE + ["--protocol", "leave-subjects-out", "--models", "knn"]
    for n in ("1", "2"):
        out_dir = tmp_path / n
        assert main(loso + ["--subjects", n, "--out-dir", str(out_dir)]) == EXIT_CONFIG
        out = capsys.readouterr()
        assert "at least three subjects" in out.err and out.out == ""
        assert (out_dir / "FAILED").read_text().startswith("SplitError")
        assert not (out_dir / "runs.csv").exists()
    assert main(loso + ["--subjects", "3", "--out-dir", str(tmp_path / "3")]) == 0
    capsys.readouterr()
    assert not (tmp_path / "3" / "FAILED").exists()


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_bench_divergence_exit_code(artifact_path, tmp_path, capsys):
    code = main(BENCH_BASE + [
        "--repeats", "1", "--models", f"fin:{artifact_path}",
        "--learning-rate", "1e8", "--batch-size", "4", "--max-epochs", "30",
        "--out-dir", str(tmp_path),
    ])
    assert code == 3
    assert (tmp_path / "FAILED").exists()
    assert "diverged" in capsys.readouterr().err


def test_bench_csv_task(tmp_path, capsys):
    rng = np.random.default_rng(np.random.PCG64(5))
    labels = np.arange(30) % 2
    inputs = rng.normal(size=(30, 1, 6))
    inputs[:, 0, 0] += labels * 3.0
    data = bench.LabeledDataset(inputs, labels, 2)
    path = tmp_path / "task.csv"
    bench.export_dataset_csv(data, path)
    code = main([
        "bench", "--task", f"csv:{path}", "--repeats", "2",
        "--models", "knn", "--out-dir", str(tmp_path / "out"),
    ])
    capsys.readouterr()
    assert code == 0
    assert not (tmp_path / "out" / "FAILED").exists()
    # a task that cannot be built still leaves the FAILED marker
    assert main([
        "bench", "--task", "csv:/nonexistent.csv", "--models", "knn",
        "--out-dir", str(tmp_path / "out2"),
    ]) == 4
    assert (tmp_path / "out2" / "FAILED").exists()
    bad = tmp_path / "bad.csv"
    bad.write_text("item_id,label\n0,1\n")
    assert main([
        "bench", "--task", f"csv:{bad}", "--models", "knn",
        "--out-dir", str(tmp_path / "out3"),
    ]) == 2
    assert (tmp_path / "out3" / "FAILED").read_text().startswith("IngestError")
    capsys.readouterr()


def test_a_cli_error_exits_2_and_names_its_type_in_the_marker(tmp_path, capsys):
    # CliError is a ValueError, and main maps the two by one clause
    code = main(BENCH_BASE + ["--models", "knn,forest", "--out-dir", str(tmp_path)])
    assert code == EXIT_CONFIG == 2
    assert capsys.readouterr().err == "error: unknown model tag 'forest'\n"
    assert (tmp_path / "FAILED").read_text() == "CliError: unknown model tag 'forest'\n"


@pytest.mark.parametrize("models, extra, code, message", [
    ("knn,forest", [], 2, "unknown model tag 'forest'"),
    (",", [], 2, "--models must name at least one model"),
    ("knn,linear-margin,knn", [], 2, "model tags must be unique"),
    ("knn,fin:", [], 2, "empty artifact path"),
    ("fin-ensemble:a.fin+", [], 2, "empty artifact path"),
    ("knn", ["--knn-k", "0"], 2, "--knn-k must be at least 1"),
    ("baseline-search", ["--search-candidates", "0"], 2,
     "--search-candidates must be at least 1"),
    ("knn,fin:/nonexistent.fin", [], 4, "/nonexistent.fin"),
    ("knn,baseline-search", ["--channels", "2"], 2,
     "dense transfer models need single-channel data"),
    ("knn,fin:{art}", ["--channels", "2"], 2,
     "dense transfer models need single-channel data"),
], ids=["unknown", "no-model", "duplicate", "empty-fin-path", "empty-ensemble-path",
        "knn-k", "search-candidates", "missing-artifact", "search-channels", "fin-channels"])
def test_bench_models_are_checked_before_the_task(
    artifact_path, monkeypatch, tmp_path, capsys, models, extra, code, message
):
    def build(*args, **kwargs):
        raise AssertionError("the task was built before --models was checked")

    for name in ("make_feature_threshold_task", "make_multi_feature_task",
                 "ingest_dataset_csv"):
        monkeypatch.setattr(bench, name, build)
    argv = BENCH_BASE + ["--models", models.format(art=artifact_path), *extra,
                         "--out-dir", str(tmp_path)]
    assert main(argv) == code
    assert message in capsys.readouterr().err
    assert (tmp_path / "FAILED").exists()


@pytest.mark.parametrize("n_channels, tf_dim, models, message", [
    (2, 6, "baseline-search", "dense transfer models need single-channel data"),
    (2, 1024, "fin:{art}", "dense transfer models need single-channel data"),
    (1, 6, "fin:{art}", "reads 1024 values per channel, not the task's 6"),
    (2, 6, "knn,fin-ensemble:{art}", "reads 1024 values per channel, not the task's 6"),
], ids=["search-channels", "fin-channels", "fin-dim", "ensemble-dim"])
def test_bench_checks_a_csv_task_before_the_search(
    artifact_path, monkeypatch, tmp_path, capsys, n_channels, tf_dim, models, message
):
    def never(*args, **kwargs):
        raise AssertionError("a model trained before the csv task was checked")

    monkeypatch.setattr(bench, "baseline_search", never)
    monkeypatch.setattr(bench, "run_benchmark", never)
    labels = np.arange(30) % 2
    inputs = np.random.default_rng(7).normal(size=(30, n_channels, tf_dim))
    path = tmp_path / "task.csv"
    bench.export_dataset_csv(bench.LabeledDataset(inputs, labels, 2), path)
    argv = ["bench", "--task", f"csv:{path}", "--models", models.format(art=artifact_path),
            "--out-dir", str(tmp_path / "out")]
    assert main(argv) == 2
    assert message in capsys.readouterr().err


def test_bench_csv_task_ignores_the_channels_flag(tmp_path, capsys):
    # a single-channel csv task runs dense models whatever --channels says
    labels = np.arange(90) % 2
    inputs = np.random.default_rng(7).normal(size=(90, 1, 6))
    inputs[:, 0, 0] += labels * 3.0
    path = tmp_path / "task.csv"
    bench.export_dataset_csv(bench.LabeledDataset(inputs, labels, 2), path)
    assert main([
        "bench", "--task", f"csv:{path}", "--channels", "2", "--repeats", "1",
        "--models", "baseline-search", "--search-candidates", "1",
        "--max-epochs", "2", "--patience", "2", "--out-dir", str(tmp_path / "out"),
    ]) == 0
    assert "model baseline-search accuracy" in capsys.readouterr().out


def test_bench_flag_validation(tmp_path, capsys):
    out = ["--out-dir", str(tmp_path)]
    assert main(["bench", "--models", "knn"] + out) == 2  # no task
    assert main(BENCH_BASE + out) == 2  # no models
    assert main(BENCH_BASE + ["--models", "forest"] + out) == 2
    assert main(["bench", "--task", "magic:x", "--models", "knn"] + out) == 2
    assert main(BENCH_BASE + ["--models", "knn", "--protocol", "k-fold"] + out) == 2
    assert main(BENCH_BASE + ["--models", "knn", "--fractions", "a,b"] + out) == 2
    assert main(BENCH_BASE + ["--models", "fin:/nonexistent.fin"] + out) == 4
    capsys.readouterr()


# ---------------------------------------------------------------------------
# config file and environment
# ---------------------------------------------------------------------------

def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfg_path = tmp_path / "bench.json"
    cfg_path.write_text(json.dumps({"items": 80, "repeats": 1}))
    out1 = tmp_path / "from_file"
    code = main([
        "bench", "--task", "feature-threshold:entropy", "--seed", "1",
        "--models", "knn", "--config", str(cfg_path), "--out-dir", str(out1),
    ])
    capsys.readouterr()
    assert code == 0
    echoed = json.loads((out1 / "config.json").read_text())
    assert echoed["items"] == 80  # config file beats the default
    out2 = tmp_path / "from_flag"
    code = main([
        "bench", "--task", "feature-threshold:entropy", "--seed", "1",
        "--models", "knn", "--config", str(cfg_path), "--items", "70",
        "--out-dir", str(out2),
    ])
    capsys.readouterr()
    assert code == 0
    echoed = json.loads((out2 / "config.json").read_text())
    assert echoed["items"] == 70  # flag beats the config file


def test_config_file_errors(tmp_path, capsys):
    bad_key = tmp_path / "bad.json"
    bad_key.write_text(json.dumps({"minions": 3}))
    assert main(BENCH_BASE + ["--models", "knn", "--config", str(bad_key),
                              "--out-dir", str(tmp_path)]) == 2
    not_json = tmp_path / "broken.json"
    not_json.write_text("{nope")
    assert main(BENCH_BASE + ["--models", "knn", "--config", str(not_json),
                              "--out-dir", str(tmp_path)]) == 2
    assert main(BENCH_BASE + ["--models", "knn",
                              "--config", str(tmp_path / "missing.json"),
                              "--out-dir", str(tmp_path)]) == 2
    capsys.readouterr()


def test_config_non_finite_numbers_are_config_errors(tmp_path, capsys):
    # Python's json reads Infinity, which JSON lacks, and reads 1e400 as inf
    for i, token in enumerate(["Infinity", "1e400", "0.02"]):
        cfg = tmp_path / f"cfg{i}.json"
        cfg.write_text(f'{{"learning_rate": {token}}}')
        out = tmp_path / f"run{i}"
        code = main(BENCH_BASE + ["--models", "knn", "--config", str(cfg),
                                  "--out-dir", str(out)])
        err = capsys.readouterr().err
        if token == "0.02":  # the finite value is the clean control
            assert code == 0, err
            assert json.loads((out / "config.json").read_text())["learning_rate"] == 0.02
        else:
            assert code == EXIT_CONFIG, err
            assert f"non-finite number {token}" in err
            assert not (out / "config.json").exists()


def test_config_values_are_typed_like_their_flags(tmp_path, capsys):
    base = ["pretrain", "--feature", "entropy", "--max-epochs", "1",
            "--patience", "1", "--out", "x.fin"]

    def run(name, doc, command=base):
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps(doc))
        code = main(command + ["--config", str(cfg), "--out-dir", str(tmp_path / name)])
        return code, capsys.readouterr()

    wrong = {
        "str_signals": {"signals": "500"},
        "str_recon": {"recon_signals": "5"},
        "bool_signals": {"signals": True},
        "fractional_signals": {"signals": 150.5},
        "str_rate": {"learning_rate": "0.01"},
        "huge_rate": {"learning_rate": 10 ** 400},
        "null_seed": {"seed": None},
        "list_doc": ["signals"],
    }
    for name, doc in wrong.items():
        code, out = run(name, doc)
        assert code == EXIT_CONFIG, (name, out.err)
        assert "error:" in out.err and "Traceback" not in out.err
        if isinstance(doc, dict):
            assert f"config key {next(iter(doc))!r}" in out.err
        assert not (tmp_path / name / "x.fin").exists()
    # a switch takes a JSON bool, not a truthy string
    code, out = run("str_switch", {"zero_timing": "yes"}, BENCH_BASE + ["--models", "knn"])
    assert code == EXIT_CONFIG and "config key 'zero_timing'" in out.err, out.err
    assert not (tmp_path / "str_switch" / "runs.csv").exists()
    # positive control: numbers of the flag's type, an int for a float flag
    code, out = run("typed", {"signals": 100, "recon_signals": 2, "momentum": 0})
    assert code == 0, out.err
    echoed = json.loads((tmp_path / "typed" / "config.json").read_text())
    assert (echoed["signals"], echoed["recon_signals"]) == (100, 2)
    assert echoed["momentum"] == 0.0 and isinstance(echoed["momentum"], float)


def assert_same_tree(a, b):
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


@pytest.mark.parametrize("command", ["pretrain", "bench"])
def test_every_config_key_is_checked(command):
    parser = build_parser().parse_args([command]).parser
    for key, action in _config_actions(parser).items():
        assert action.nargs == 0 or action.type is not None, key


def test_config_text_values_are_checked(tmp_path, capsys):
    commands = {
        "bench": ["bench", "--items", "60", "--repeats", "2", "--seed", "1"],
        "pretrain": ["pretrain", "--signals", "100", "--max-epochs", "1",
                     "--patience", "1", "--recon-signals", "2"],
    }
    good = {
        "bench": {"task": "feature-threshold:entropy", "models": "knn",
                  "protocol": "repeated-random", "fractions": [0.5, 1]},
        "pretrain": {"feature": "entropy", "out": "x.fin"},
    }

    def run(name, command, doc):
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps(doc))
        code = main(commands[command] + ["--config", str(cfg),
                                         "--out-dir", str(tmp_path / name)])
        return code, capsys.readouterr()

    wrong = [
        ("bench", "models", 5),
        ("bench", "task", ["feature-threshold:entropy"]),
        ("bench", "protocol", None),
        ("bench", "fractions", 0.5),
        ("bench", "fractions", ["0.5"]),
        ("bench", "fractions", [True]),
        ("pretrain", "out", 5),
        ("pretrain", "feature", 3),
    ]
    for i, (command, key, value) in enumerate(wrong):
        code, out = run(f"bad{i}", command, {**good[command], key: value})
        assert code == EXIT_CONFIG, (key, value, out.err)
        assert f"error: config key {key!r}" in out.err, out.err
        assert "Traceback" not in out.err
        assert not (tmp_path / f"bad{i}" / "runs.csv").exists()
        assert not (tmp_path / f"bad{i}" / "x.fin").exists()
    # positive controls: the same keys with values of their flags' types
    code, out = run("good_bench", "bench", good["bench"])
    assert code == 0, out.err
    echoed = json.loads((tmp_path / "good_bench" / "config.json").read_text())
    assert echoed["fractions"] == [0.5, 1.0] and echoed["models"] == "knn"
    code, out = run("good_pretrain", "pretrain", good["pretrain"])
    assert code == 0, out.err
    assert (tmp_path / "good_pretrain" / "x.fin").exists()


def test_bench_replays_from_its_config_json(tmp_path, capsys):
    r1, r2 = tmp_path / "r1", tmp_path / "r2"
    assert main(BENCH_BASE + [
        "--repeats", "2", "--models", "knn,linear-margin",
        "--fractions", "0.5,1.0", "--zero-timing", "--out-dir", str(r1),
    ]) == 0
    assert main([
        "bench", "--config", str(r1 / "config.json"), "--zero-timing",
        "--out-dir", str(r2),
    ]) == 0
    capsys.readouterr()
    assert json.loads((r1 / "config.json").read_text())["fractions"] == [0.5, 1.0]
    assert_same_tree(r1, r2)


def test_pretrain_replays_from_its_config_json(tmp_path, capsys):
    r1, r2 = tmp_path / "r1", tmp_path / "r2"
    assert main([
        "pretrain", "--feature", "entropy", "--signals", "100",
        "--max-epochs", "2", "--patience", "2", "--recon-signals", "5",
        "--out", "ent.fin", "--out-dir", str(r1),
    ]) == 0
    assert main([
        "pretrain", "--config", str(r1 / "config.json"), "--out", "ent.fin",
        "--out-dir", str(r2),
    ]) == 0
    capsys.readouterr()
    assert_same_tree(r1, r2)


def test_config_json_alone_replays_a_bench_run(tmp_path, capsys):
    r1, r2 = tmp_path / "r1", tmp_path / "r2"
    assert main(BENCH_BASE + [
        "--repeats", "2", "--models", "knn,linear-margin",
        "--fractions", "0.5,1.0", "--zero-timing", "--out-dir", str(r1),
    ]) == 0
    assert main(["bench", "--config", str(r1 / "config.json"), "--out-dir", str(r2)]) == 0
    capsys.readouterr()
    assert_same_tree(r1, r2)
    assert json.loads((r1 / "config.json").read_text())["zero_timing"] is True


def test_config_json_alone_replays_a_pretrain_run(tmp_path, capsys):
    r1, r2 = tmp_path / "r1", tmp_path / "r2"
    assert main([
        "pretrain", "--feature", "entropy", "--signals", "100",
        "--max-epochs", "2", "--patience", "2", "--recon-signals", "5",
        "--out", "ent.fin", "--out-dir", str(r1),
    ]) == 0
    assert main(["pretrain", "--config", str(r1 / "config.json"), "--out-dir", str(r2)]) == 0
    capsys.readouterr()
    assert_same_tree(r1, r2)
    assert json.loads((r1 / "config.json").read_text())["out"] == "ent.fin"


def test_config_json_of_another_command_is_rejected(tmp_path, capsys):
    # every other key is a valid pretrain key, so only `command` is wrong
    doc = tmp_path / "bench.json"
    doc.write_text(json.dumps({"command": "bench", "signals": 100}))
    code = main([
        "pretrain", "--feature", "entropy", "--out", "x.fin",
        "--config", str(doc), "--out-dir", str(tmp_path / "out"),
    ])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert "error:" in err and "is for 'bench', not 'pretrain'" in err
    assert not (tmp_path / "out" / "x.fin").exists()


def test_out_dir_env_default(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("FIN_OUT_DIR", str(tmp_path))
    code = main(BENCH_BASE + ["--repeats", "2", "--models", "knn"])
    capsys.readouterr()
    assert code == 0
    assert (tmp_path / "runs.csv").exists()


def test_argparse_errors_map_to_config_code(capsys):
    assert main([]) == 2
    assert main(["bench", "--nope"]) == 2
    assert main(["transmogrify"]) == 2
    capsys.readouterr()


def test_readme_cli_summary_lists_every_flag():
    # per bullet: pretrain's bullet also lists the training flags bench takes
    text = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    summary = text.split("## CLI summary", 1)[1].split("\n## ", 1)[0]
    bullets, name = {}, None
    for line in summary.splitlines():
        if line.startswith("- `fin "):
            name = line.split()[2].rstrip("`")
            bullets[name] = line
        elif name and line.startswith("  "):
            bullets[name] += " " + line
        else:
            name = None
    (commands,) = [a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)]
    assert sorted(bullets) == sorted(commands.choices)
    missing = [
        (name, option)
        for name, parser in commands.choices.items()
        for action in parser._actions if not isinstance(action, argparse._HelpAction)
        for option in action.option_strings
        if not re.search(rf"(?<![\w-]){re.escape(option)}(?![\w-])", bullets[name])
    ]
    assert missing == []


ORACLE_DEMO = ["oracle", "--feature", "entropy", "--demo", "constant"]


def declared_console_script(name):
    """The console-script entry point `name` as pyproject.toml declares it."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with open(REPO_ROOT / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    return importlib.metadata.EntryPoint(
        name=name, value=scripts[name], group="console_scripts")


def run_console_script(entry_point, args, cwd, prelude=""):
    """Run `entry_point` through the wrapper an installer writes for it.

    The child imports the same `finnets` this process imported, whatever
    the inherited PYTHONPATH or working directory. `prelude` is code the
    child runs before that import.
    """
    wrapper = (f"{prelude}import sys\n"
               f"from {entry_point.module} import {entry_point.attr}\n"
               f"sys.exit({entry_point.attr}())\n")
    package_root = Path(finnets.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(package_root))
    return subprocess.run(
        [sys.executable, "-c", wrapper, *args],
        capture_output=True, text=True, timeout=120, cwd=cwd, env=env,
    )


def test_console_script_entry_point(tmp_path):
    entry_point = declared_console_script("fin")
    assert entry_point.load() is main

    proc = run_console_script(entry_point, ORACLE_DEMO, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[1] == "0", proc.stderr

    # negative control: main's return value must become the exit code
    proc = run_console_script(entry_point, ["transmogrify"], tmp_path)
    assert proc.returncode == EXIT_CONFIG, proc.stderr
    assert "usage: fin" in proc.stderr, proc.stderr


def test_pretrain_bytes_do_not_depend_on_blas_threads(tmp_path, monkeypatch):
    entry_point = declared_console_script("fin")
    saved = []
    for threads in ("1", "2"):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", threads)
        out = tmp_path / f"threads{threads}"
        proc = run_console_script(entry_point, [
            "pretrain", "--feature", "entropy", "--signals", "600",
            "--max-epochs", "3", "--patience", "3", "--recon-signals", "50",
            "--out", "ent.fin", "--out-dir", str(out),
        ], tmp_path)
        assert proc.returncode == 0, proc.stderr
        saved.append((out / "ent.fin").read_bytes())
    assert saved[0] == saved[1]


# prints the core name of the OpenBLAS numpy loaded, or nothing
OPENBLAS_CORENAME = """
import ctypes, glob, os, numpy
libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
for lib in glob.glob(os.path.join(libs, "*openblas*")):
    for symbol in ("scipy_openblas_get_corename64_", "openblas_get_corename64_",
                   "openblas_get_corename"):
        fn = getattr(ctypes.CDLL(lib), symbol, None)
        if fn is not None:
            fn.argtypes, fn.restype = [], ctypes.c_char_p
            print(fn().decode())
            raise SystemExit
"""


def test_pretrain_under_another_blas_kernel_agrees_to_rounding(tmp_path, monkeypatch):
    # the seeded pretrain of the BLAS-thread test under the default kernel
    # and under the Haswell one; blocked float32 sums may round differently
    # per kernel, so the bytes may or may not match and neither is asserted
    entry_point = declared_console_script("fin")
    kernels = {}
    for coretype in ("", "Haswell"):
        monkeypatch.setenv("OPENBLAS_CORETYPE", coretype)
        probe = subprocess.run([sys.executable, "-c", OPENBLAS_CORENAME], capture_output=True,
                               text=True, timeout=60, check=True)
        kernels[coretype] = probe.stdout.strip()
    if not kernels["Haswell"] or kernels[""] == kernels["Haswell"]:
        pytest.skip(f"OPENBLAS_CORETYPE does not change the BLAS kernel here: {kernels}")

    runs = []
    for coretype in ("", "Haswell"):
        monkeypatch.setenv("OPENBLAS_CORETYPE", coretype)
        out = tmp_path / (coretype or "default")
        proc = run_console_script(entry_point, [
            "pretrain", "--feature", "entropy", "--signals", "600",
            "--max-epochs", "3", "--patience", "3", "--recon-signals", "50",
            "--out", "ent.fin", "--out-dir", str(out),
        ], tmp_path)
        assert proc.returncode == 0, proc.stderr
        runs.append((out, engine.load_fin(out / "ent.fin")))
    (out_a, a), (out_b, b) = runs
    assert (out_a / "recon_hist.csv").read_bytes() == (out_b / "recon_hist.csv").read_bytes()

    # each SGD step may move a weight by one float32 rounding of the largest
    # weight more under one kernel than under the other
    cfg = json.loads((out_a / "config.json").read_text())
    n_train = len(engine.split_indices(cfg["seed"], cfg["signals"])[0])
    steps = a.history_summary["epochs"] * -(-n_train // cfg["batch_size"])
    scale = max(np.abs(a.net.buffer).max(), np.abs(b.net.buffer).max())
    tol = steps * np.finfo(np.float32).eps * scale
    gap = np.abs(a.net.buffer.astype(np.float64) - b.net.buffer).max()
    assert gap <= tol, (gap, tol, kernels)


@pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="needs at least 2 usable CPUs")
def test_pretrain_bytes_do_not_depend_on_cpu_count(tmp_path):
    # one child may run on a single CPU, set before finnets is imported,
    # so its scalograms run inline; the other runs one block per CPU
    entry_point = declared_console_script("fin")
    one_cpu = ("import os\n"
               "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
               "assert len(os.sched_getaffinity(0)) == 1\n")
    saved = []
    for name, prelude in (("one", one_cpu), ("all", "")):
        out = tmp_path / name
        proc = run_console_script(entry_point, [
            "pretrain", "--feature", "entropy", "--signals", "600",
            "--max-epochs", "3", "--patience", "3", "--recon-signals", "50",
            "--out", "ent.fin", "--out-dir", str(out),
        ], tmp_path, prelude=prelude)
        assert proc.returncode == 0, proc.stderr
        saved.append((out / "ent.fin").read_bytes())
    assert saved[0] == saved[1]


def test_bench_tree_does_not_depend_on_blas_threads(tmp_path, monkeypatch):
    entry_point = declared_console_script("fin")
    trees = []
    for threads in ("1", "2"):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", threads)
        out = tmp_path / f"threads{threads}"
        proc = run_console_script(entry_point, BENCH_BASE + [
            "--repeats", "2", "--models", "baseline-search,knn,linear-margin",
            "--search-candidates", "2", "--max-epochs", "4", "--patience", "4",
            "--zero-timing", "--out-dir", str(out),
        ], tmp_path)
        assert proc.returncode == 0, proc.stderr
        trees.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert "search_runs.csv" in trees[0]
    assert trees[0] == trees[1]


@pytest.mark.skipif(shutil.which("fin") is None,
                    reason="fin console script not installed on PATH")
def test_installed_fin_on_path():
    proc = subprocess.run(
        ["fin", *ORACLE_DEMO],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[1] == "0", proc.stderr
