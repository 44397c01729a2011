"""Pretraining, artifact persistence, head transfer, and ensembles."""

import base64
import dataclasses
import hashlib
import json
import re
import sys
import threading

import numpy as np
import pytest

from finnets import engine, nets
from finnets import features as fe
from finnets import signals as sg
from finnets.errors import (
    CorpusDegenerateError,
    CorruptArtifact,
    FeatureError,
    ShapeError,
    UnsupportedVersion,
)
from finnets.features import Signal
from finnets.rng import rng_for

TINY_GEN = sg.GenSpec(length=64, seed=17)
TINY_TOPOLOGY = nets.Topology((1024, 32, 16, 1), ("relu", "relu", "linear"))
TINY_CFG = nets.TrainConfig(batch_size=32, max_epochs=8, patience=8, seed=5)


def row_sum_tol(n_classes):
    """Bound on |sum - 1| for a float32 softmax row: each of the n_classes
    probabilities and each addition rounds by at most half an ulp."""
    return n_classes * float(np.finfo(np.float32).eps)


@pytest.fixture(scope="module")
def tiny_artifact():
    return engine.pretrain_fin(
        "entropy", TINY_GEN, topology=TINY_TOPOLOGY, cfg=TINY_CFG, n_signals=300
    )


def fake_artifact(feature, width, seed, in_dim=64):
    net = nets.init_random(
        nets.Topology((in_dim, 8, width), ("relu", "linear")), seed
    )
    return engine.FinArtifact(
        feature=feature,
        net=net,
        norm_lo=np.zeros(width),
        norm_hi=np.ones(width),
        gen_spec_digest="0" * 64,
        history_summary={"best_val_loss": 0.1, "epochs": 1},
    )


# ---------------------------------------------------------------------------
# pretraining
# ---------------------------------------------------------------------------

def test_split_indices_partition():
    train, val = engine.split_indices(3, 200)
    assert len(val) == 30 and len(train) == 170
    assert sorted(np.concatenate([train, val])) == list(range(200))
    train2, val2 = engine.split_indices(3, 200)
    np.testing.assert_array_equal(val, val2)
    # round(0.15 * 3) = 0 would leave validation empty; 4 gives it one item
    with pytest.raises(ValueError, match="corpus too small to split"):
        engine.split_indices(0, 3)
    train, val = engine.split_indices(0, 4)
    assert len(val) == 1 and sorted(np.concatenate([train, val])) == [0, 1, 2, 3]


def test_normalization_range_percentiles_and_degeneracy():
    targets = np.linspace(0.0, 1.0, 1001)[:, None]
    lo, hi = engine.normalization_range(targets)
    assert lo[0] == pytest.approx(0.001)
    assert hi[0] == pytest.approx(0.999)
    with pytest.raises(CorpusDegenerateError):
        engine.normalization_range(np.full((50, 1), 3.0))


def test_corpus_memo_keys_on_recipe_and_size():
    # same seed, different family mix: only the memo key tells them apart
    mixed = sg.GenSpec(length=64, seed=17, family_weights={"white_noise": 0.5, "burst": 0.5})
    for gen, n in ((TINY_GEN, 12), (mixed, 12), (TINY_GEN, 12), (TINY_GEN, 7)):
        fresh = [sg.generate(gen, i) for i in range(n)]
        want_inputs = np.array([sg.wavelet_transform(s).ravel() for s in fresh])
        want_targets = np.array([fe.compute_feature(s, "kurtosis") for s in fresh])
        assert np.array_equal(engine.corpus_inputs(gen, n), want_inputs)
        assert np.array_equal(engine.corpus_targets("kurtosis", gen, n), want_targets)


def test_corpus_memo_under_threads():
    specs = [sg.GenSpec(length=64, seed=s) for s in (1, 2)]
    want = {g.seed: np.array([sg.generate(g, i).samples for i in range(5)]) for g in specs}
    wrong = []

    def worker(k):
        for j in range(40):
            gen = specs[(k + j) % 2]
            if not np.array_equal(engine.corpus_samples(gen, 5), want[gen.seed]):
                wrong.append(gen.seed)

    threads = [threading.Thread(target=worker, args=(k,)) for k in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


def test_empty_corpus_keeps_its_width():
    assert engine.corpus_inputs(TINY_GEN, 0).shape == (0, 1024)
    assert engine.corpus_targets("mfcc", TINY_GEN, 0).shape == (0, 13)


def test_pretrain_produces_valid_artifact(tiny_artifact):
    art = tiny_artifact
    assert art.feature == "entropy"
    assert art.net.topology == TINY_TOPOLOGY
    assert art.norm_hi[0] > art.norm_lo[0]
    assert art.gen_spec_digest == sg.gen_spec_digest(TINY_GEN)
    assert art.history_summary["epochs"] >= 1
    assert np.isfinite(art.history_summary["best_val_loss"])


def test_pretrain_with_prebuilt_corpus_is_identical(tiny_artifact):
    corpus = (
        engine.corpus_inputs(TINY_GEN, 300),
        engine.corpus_targets("entropy", TINY_GEN, 300),
    )
    art = engine.pretrain_fin(
        "entropy", TINY_GEN, topology=TINY_TOPOLOGY, cfg=TINY_CFG, corpus=corpus
    )
    for a, b in zip(art.net.parameters(), tiny_artifact.net.parameters()):
        np.testing.assert_array_equal(a, b)
    assert art.history_summary == tiny_artifact.history_summary


def test_pretrain_corpus_shape_validation():
    inputs = np.ones((40, 1024))
    with pytest.raises(ShapeError):
        engine.pretrain_fin(
            "entropy",
            TINY_GEN,
            topology=TINY_TOPOLOGY,
            cfg=TINY_CFG,
            corpus=(inputs, np.ones((40, 13))),
        )
    with pytest.raises(ShapeError):
        engine.pretrain_fin(
            "entropy",
            TINY_GEN,
            topology=TINY_TOPOLOGY,
            cfg=TINY_CFG,
            corpus=(inputs, np.ones((39, 1))),
        )


def test_pretrain_topology_that_does_not_fit_is_the_first_steps_shape_error():
    rng = rng_for(6, "topology-fit")
    corpus = (rng.standard_normal((40, 1024)), rng.standard_normal((40, 1)))
    for sizes, match in (((1000, 4, 1), "input dim 1024 != network input 1000"),
                         ((1024, 4, 2), "target dim does not match network output")):
        topology = nets.Topology(sizes, ("relu", "linear"))
        with pytest.raises(ShapeError, match=match):
            engine.pretrain_fin("entropy", TINY_GEN, topology=topology, cfg=TINY_CFG,
                                corpus=corpus)


def test_pretraining_beats_untrained_reconstruction(tiny_artifact):
    untrained = engine.FinArtifact(
        feature=tiny_artifact.feature,
        net=nets.init_random(TINY_TOPOLOGY, 999),
        norm_lo=tiny_artifact.norm_lo,
        norm_hi=tiny_artifact.norm_hi,
        gen_spec_digest=tiny_artifact.gen_spec_digest,
        history_summary={"best_val_loss": 1.0, "epochs": 0},
    )
    fresh = [sg.generate(TINY_GEN, i) for i in range(300, 420)]
    trained_report = engine.reconstruction_report(tiny_artifact, fresh)
    untrained_report = engine.reconstruction_report(untrained, fresh)
    assert trained_report.mean_abs_error < untrained_report.mean_abs_error


def test_reconstruction_mse_matches_training_val_loss(tiny_artifact):
    _, val_idx = engine.split_indices(TINY_CFG.seed, 300)
    val_signals = [sg.generate(TINY_GEN, int(i)) for i in val_idx]
    report = engine.reconstruction_report(tiny_artifact, val_signals)
    assert report.mse == pytest.approx(
        tiny_artifact.history_summary["best_val_loss"], abs=1e-6
    )
    assert report.n_signals == len(val_signals)
    assert report.histogram_counts.sum() == report.n_signals


def test_reconstruction_report_rejects_no_signals(tiny_artifact):
    with pytest.raises(ValueError):
        engine.reconstruction_report(tiny_artifact, [])
    with pytest.raises(ValueError):
        engine.reconstruction_report(tiny_artifact, iter(()))
    one = engine.reconstruction_report(tiny_artifact, [sg.generate(TINY_GEN, 300)])
    assert one.n_signals == 1
    assert np.isfinite(one.mean_abs_error) and one.histogram_counts.sum() == 1


def test_reconstruction_report_takes_one_geometry(tiny_artifact):
    good = sg.generate(sg.GenSpec(length=512, seed=17), 0)
    short = Signal(good.samples[:300], good.sample_rate)
    with pytest.raises(ValueError, match="^signal 1 differs"):
        engine.reconstruction_report(tiny_artifact, [good, short])
    slow = Signal(good.samples, good.sample_rate / 2)
    with pytest.raises(ValueError, match="^signal 2 differs"):
        engine.reconstruction_report(tiny_artifact, [good, good, slow])


def test_reconstruction_names_the_failing_feature_and_signal():
    art = fake_artifact("kurtosis", 1, 7, in_dim=TINY_TOPOLOGY.input_dim)
    good = sg.generate(TINY_GEN, 0)
    constant = Signal(np.ones(len(good)), good.sample_rate)
    with pytest.raises(FeatureError) as err:
        engine.reconstruction_report(art, [good, constant])
    assert err.value.feature == "kurtosis"
    assert "signal 1" in str(err.value)
    # a failure of the whole batch names no signal
    short = Signal(np.ones(3), good.sample_rate)
    with pytest.raises(FeatureError) as err:
        engine.reconstruction_report(art, [short, short])
    assert str(err.value) == "kurtosis: kurtosis needs at least 4 samples"


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def canonical_json(doc) -> bytes:
    return (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode()


def split_fin(path):
    """(header document, payload bytes) of a `.fin` file."""
    line, payload = path.read_bytes().split(b"\n", 1)
    return json.loads(line), payload


def rewrite_header(path, edit, sign=True):
    """Apply `edit` to the header document of the `.fin` at `path` and keep
    its payload bytes. With `sign`, `sha256` is recomputed as the format
    defines it, so only the edit itself can make the file fail to load."""
    header, payload = split_fin(path)
    edit(header)
    if sign:
        header.pop("sha256", None)
        header["sha256"] = hashlib.sha256(canonical_json(header) + payload).hexdigest()
    path.write_bytes(canonical_json(header) + payload)


def saved(artifact, tmp_path, name="a.fin"):
    path = tmp_path / name
    engine.save_fin(artifact, path)
    return path


def stock_artifact():
    """An untrained net of the stock 1024-512-256-64-1 shape."""
    topology = engine.default_fin_topology(1024, 1)
    return engine.FinArtifact(
        "entropy", nets.init_random(topology, 4), np.zeros(1), np.ones(1), "0" * 64,
        {"best_val_loss": 0.1, "epochs": 1},
    )


def test_a_failed_save_leaves_the_old_artifact(tiny_artifact, tmp_path, monkeypatch):
    path = saved(tiny_artifact, tmp_path)
    before = path.read_bytes()

    class FullDisk:
        """A file whose second write fails, as on a disk that fills up."""

        def __init__(self, fh):
            self.fh, self.writes = fh, 0

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.writes += 1
            if self.writes == 2:
                raise OSError(28, "No space left on device")
            self.fh.write(data)

    monkeypatch.setattr(engine, "open", lambda p, mode: FullDisk(open(p, mode)),
                        raising=False)
    other = dataclasses.replace(tiny_artifact, history_summary={"best_val_loss": 0.5,
                                                                 "epochs": 1})
    with pytest.raises(OSError, match="No space left"):
        engine.save_fin(other, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == [path.name]
    monkeypatch.undo()
    engine.save_fin(other, path)  # control: the same save without the fault replaces it
    assert path.read_bytes() != before
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


def test_save_load_resave_byte_identical(tiny_artifact, tmp_path):
    first = saved(tiny_artifact, tmp_path, "a.fin")
    loaded = engine.load_fin(first)
    second = saved(loaded, tmp_path, "b.fin")
    assert first.read_bytes() == second.read_bytes()
    assert loaded.feature == tiny_artifact.feature
    np.testing.assert_array_equal(loaded.norm_lo, tiny_artifact.norm_lo)


def is_canonical_json_line(data: bytes) -> bool:
    """Whether `data` is the sorted, compact JSON of its own document."""
    return data == canonical_json(json.loads(data))


def test_fin_header_is_the_canonical_json_of_its_document(tiny_artifact, tmp_path):
    for name, art in (("tiny", tiny_artifact), ("stock", stock_artifact())):
        path = saved(art, tmp_path, f"{name}.fin")
        data = path.read_bytes()
        line = data[: data.index(b"\n") + 1]
        assert is_canonical_json_line(line), name
        header = json.loads(line)
        assert header["format_version"] == 3
        assert sorted(header) == ["feature", "format_version", "gen_spec_digest",
                                  "history_summary", "norm_hi", "norm_lo", "oracle_digest",
                                  "sha256", "topology"]
        # the digest is the documented one: re-signing leaves every byte as it was
        rewrite_header(path, lambda doc: None)
        assert path.read_bytes() == data, name
    # controls: the same document with spaced separators, or unsorted keys
    spaced = json.dumps(header, sort_keys=True, separators=(", ", ":")) + "\n"
    assert not is_canonical_json_line(spaced.encode())
    sha_first = {"sha256": header.pop("sha256"), **header}
    unsorted = json.dumps(sha_first, separators=(",", ":")) + "\n"
    assert not is_canonical_json_line(unsorted.encode())


def test_fin_payload_is_the_parameter_buffer(tiny_artifact, tmp_path):
    for name, art in (("tiny", tiny_artifact), ("stock", stock_artifact())):
        _, payload = split_fin(saved(art, tmp_path, f"{name}.fin"))
        assert payload == art.net.buffer.astype("<f4").tobytes(), name
    # a small net spelled out: (in, out) matrices row-major, each before its bias
    in_out = [np.arange(12.0).reshape(3, 4), 12.0 + np.arange(8.0).reshape(4, 2)]
    biases = [-1.0 - np.arange(4.0), np.array([-5.0, -6.0])]
    net = nets.DenseNet(nets.Topology((3, 4, 2), ("relu", "linear")), in_out, biases)
    art = engine.FinArtifact(
        "entropy", net, np.zeros(2), np.ones(2), "0" * 64,
        {"best_val_loss": 0.1, "epochs": 1},
    )
    path = saved(art, tmp_path)
    _, payload = split_fin(path)
    memory_order = [in_out[0].ravel(), biases[0], in_out[1].ravel(), biases[1]]
    np.testing.assert_array_equal(np.frombuffer(payload, dtype="<f4"),
                                  np.concatenate(memory_order))
    # control: the transposed (out, in) layout of format 1 is not what is written
    out_in = [in_out[0].T.ravel(), biases[0], in_out[1].T.ravel(), biases[1]]
    assert payload != np.concatenate(out_in).astype("<f4").tobytes()
    loaded = engine.load_fin(path)
    for back, w in zip(loaded.net.weights, net.weights):
        assert back.shape == w.shape
        np.testing.assert_array_equal(back, w)


def test_loaded_fin_is_the_trained_net(tiny_artifact, tmp_path):
    loaded = engine.load_fin(saved(tiny_artifact, tmp_path))
    for trained, back in zip(
        tiny_artifact.net.parameters(), loaded.net.parameters()
    ):
        np.testing.assert_array_equal(back, trained)
        assert back.dtype == np.float32
    batch = engine.corpus_inputs(TINY_GEN, 40)
    np.testing.assert_array_equal(
        nets.forward(loaded.net, batch), nets.forward(tiny_artifact.net, batch)
    )


def test_transfer_paths_keep_float32(tiny_artifact, tmp_path):
    def all_f32(model):
        return all(p.dtype == np.float32 for p in model.parameters())

    loaded = engine.load_fin(saved(tiny_artifact, tmp_path))
    head = engine.attach_head(loaded, 2, seed=1)
    ens = engine.build_ensemble([loaded], n_channels=2, n_classes=2, seed=1)
    assert all_f32(tiny_artifact.net) and all_f32(loaded.net)
    assert all_f32(head) and all_f32(ens)
    # float64 inputs and integer labels (one-hot float64 targets inside)
    x = rng_for(8, "dtype").standard_normal((24, 2, 1024))
    labels = np.arange(24) % 2
    cfg = nets.TrainConfig(batch_size=8, max_epochs=1, patience=1, seed=0)
    dense, _ = engine.fine_tune(
        head, (x[:16, 0], labels[:16]), (x[16:, 0], labels[16:]), cfg
    )
    joint, _ = engine.fine_tune(ens, (x[:16], labels[:16]), (x[16:], labels[16:]), cfg)
    assert all_f32(dense) and all_f32(joint)
    assert nets.forward(dense, x[:, 0]).dtype == np.float32
    assert joint.forward(x).dtype == np.float32
    value, grads = joint.loss_and_grads(x[:4], nets.one_hot(labels[:4], 2))
    assert isinstance(value, float)
    assert all(g.dtype == np.float32 for g in grads)


def test_truncated_file_is_corrupt(tiny_artifact, tmp_path):
    path = saved(tiny_artifact, tmp_path)
    engine.load_fin(path)  # the untouched file is the clean control
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    with pytest.raises(CorruptArtifact):
        engine.load_fin(path)


def test_flipped_payload_bit_fails_the_digest(tiny_artifact, tmp_path):
    path = saved(tiny_artifact, tmp_path)
    engine.load_fin(path)  # the untouched file is the clean control
    data = bytearray(path.read_bytes())
    data[-3] ^= 0x01  # a mantissa bit of the last bias: the value stays finite
    path.write_bytes(bytes(data))
    with pytest.raises(CorruptArtifact, match="sha256"):
        engine.load_fin(path)
    # re-signed, the altered file loads: only the digest caught the flip
    rewrite_header(path, lambda doc: None)
    loaded = engine.load_fin(path)
    changed = loaded.net.buffer != tiny_artifact.net.buffer
    assert np.flatnonzero(changed).tolist() == [loaded.net.buffer.size - 1]


def test_header_edited_under_the_old_digest_is_corrupt(tiny_artifact, tmp_path):
    def lower(doc):
        doc["norm_lo"][0] -= 0.5

    path = saved(tiny_artifact, tmp_path)
    engine.load_fin(path)  # the untouched file is the clean control
    rewrite_header(path, lower, sign=False)
    with pytest.raises(CorruptArtifact, match="sha256"):
        engine.load_fin(path)
    # the same edit, re-signed, loads with the edited value
    path = saved(tiny_artifact, tmp_path, "b.fin")
    rewrite_header(path, lower)
    assert engine.load_fin(path).norm_lo[0] == tiny_artifact.norm_lo[0] - 0.5


def test_missing_digest_is_corrupt(tiny_artifact, tmp_path):
    path = saved(tiny_artifact, tmp_path)
    engine.load_fin(path)  # the untouched file is the clean control
    rewrite_header(path, lambda doc: doc.pop("sha256"), sign=False)
    with pytest.raises(CorruptArtifact, match="sha256"):
        engine.load_fin(path)


def test_payload_of_another_length_fails_the_digest(tiny_artifact, tmp_path):
    path = saved(tiny_artifact, tmp_path)
    engine.load_fin(path)  # the untouched file is the clean control
    data = path.read_bytes()
    for cut in (data[:-4], data + b"\0"):  # one float short, one byte long
        path.write_bytes(cut)
        with pytest.raises(CorruptArtifact, match="sha256"):
            engine.load_fin(path)


def test_format_1_file_is_unsupported(tiny_artifact, tmp_path):
    path = saved(tiny_artifact, tmp_path)
    engine.load_fin(path)  # the untouched file is the clean control
    header, payload = split_fin(path)
    del header["sha256"]
    # format 1: one JSON line, the weights base64 in a last "weights" member
    v1 = {**header, "format_version": 1, "weights": base64.b64encode(payload).decode()}
    path.write_bytes(canonical_json(v1))
    with pytest.raises(UnsupportedVersion, match=r"format_version 1 .*fin pretrain"):
        engine.load_fin(path)


def test_format_2_file_is_unsupported(tiny_artifact, tmp_path):
    def as_format_2(doc):  # the same header before it named its oracle
        del doc["oracle_digest"]
        doc["format_version"] = 2

    path = saved(tiny_artifact, tmp_path)
    engine.load_fin(path)  # the untouched file is the clean control
    rewrite_header(path, as_format_2)
    with pytest.raises(UnsupportedVersion, match=r"format_version 2 .*fin pretrain"):
        engine.load_fin(path)


def test_edited_oracle_digest_is_corrupt(tiny_artifact, tmp_path):
    path = saved(tiny_artifact, tmp_path)
    engine.load_fin(path)  # the untouched file is the clean control
    assert split_fin(path)[0]["oracle_digest"] == fe.oracle_digest("entropy")
    data = path.read_bytes()
    for other in (fe.oracle_digest("kurtosis"), "0" * 64):
        path.write_bytes(data)
        rewrite_header(path, lambda doc: doc.update(oracle_digest=other))
        with pytest.raises(CorruptArtifact, match=f"oracle_digest '{other}' ") as err:
            engine.load_fin(path)
        assert "wrong JSON type" not in str(err.value)


def test_artifact_of_another_oracle_setting_is_refused(tmp_path, monkeypatch):
    art = fake_artifact("mfcc", fe.DEFAULT_N_MFCC, 3)
    engine.load_fin(saved(art, tmp_path, "now.fin"))  # control: today's constants
    monkeypatch.setattr(fe, "MFCC_MIN_FRAME", 2)
    monkeypatch.setattr(fe, "MFCC_MIN_HOP", 1)
    before = saved(art, tmp_path, "before.fin")
    engine.load_fin(before)  # loads while the old constants are in force
    monkeypatch.undo()
    with pytest.raises(CorruptArtifact, match="oracle_digest .* mfcc oracle"):
        engine.load_fin(before)


def test_future_version_is_unsupported(tiny_artifact, tmp_path):
    path = saved(tiny_artifact, tmp_path)
    engine.load_fin(path)  # the untouched file is the clean control
    rewrite_header(path, lambda doc: doc.update(format_version=engine.FORMAT_VERSION + 1))
    with pytest.raises(UnsupportedVersion):
        engine.load_fin(path)
    # a header without a version is of no version this one reads, not corrupt
    rewrite_header(path, lambda doc: doc.pop("format_version"))
    with pytest.raises(UnsupportedVersion, match="format_version None is not supported"):
        engine.load_fin(path)


def test_corrupt_payload_and_fields(tiny_artifact, tmp_path):
    # each file is re-signed, so the field checks, not the digest, reject it
    path = saved(tiny_artifact, tmp_path)
    engine.load_fin(path)  # the untouched file is the clean control
    data = path.read_bytes()

    n = len(split_fin(path)[1])
    for payload, size in ((data[:-4], n - 4), (data + bytes(4), n + 4)):  # short, extended
        path.write_bytes(payload)
        rewrite_header(path, lambda doc: None)
        with pytest.raises(CorruptArtifact, match=f"payload holds {size} bytes, expected {n}"):
            engine.load_fin(path)

    path.write_bytes(data)
    rewrite_header(path, lambda doc: doc.pop("norm_lo"))
    with pytest.raises(CorruptArtifact, match="norm_lo"):
        engine.load_fin(path)

    path.write_bytes(data)
    rewrite_header(path, lambda doc: doc.update(gen_spec_digest="zz"))
    with pytest.raises(CorruptArtifact, match="gen_spec_digest"):
        engine.load_fin(path)


def set_field(doc, where, value):
    for key in where[:-1]:
        doc = doc[key]
    doc[where[-1]] = value


@pytest.mark.parametrize("where, value", [
    (("format_version",), True),
    (("format_version",), 1.0),
    (("topology", "layer_sizes"), [1024.9, 32, 16, 1]),
    (("topology", "layer_sizes"), [1024, True, 16, 1]),
    (("history_summary", "epochs"), 3.7),
    (("history_summary", "best_val_loss"), "0.5"),
    (("history_summary", "best_val_loss"), True),
    (("norm_lo",), ["0"]),
    (("norm_hi",), [True]),
], ids=repr)
def test_fields_of_the_wrong_json_type_are_corrupt(tiny_artifact, tmp_path, where, value):
    # each value is, or converts to, a number: only its JSON type is wrong,
    # and the file is re-signed, so the digest does not reject it
    path = saved(tiny_artifact, tmp_path)
    engine.load_fin(path)  # the untouched file is the clean control
    rewrite_header(path, lambda doc: set_field(doc, where, value))
    with pytest.raises(CorruptArtifact, match="wrong JSON type"):
        engine.load_fin(path)


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e400", "-1e400"],
                         ids=["nan", "inf", "-inf", "1e400", "-1e400"])
@pytest.mark.parametrize("where", [("history_summary", "best_val_loss"), ("norm_lo", 0)],
                         ids=repr)
def test_non_finite_json_constants_are_corrupt(tiny_artifact, tmp_path, where, token):
    # Python's json reads the NaN and Infinity constants, which JSON lacks,
    # and reads 1e400, which is JSON, as inf
    stand_in = 0.123456789
    path = saved(tiny_artifact, tmp_path)
    rewrite_header(path, lambda doc: set_field(doc, where, stand_in))
    engine.load_fin(path)  # the finite stand-in is the clean control
    line, payload = path.read_bytes().split(b"\n", 1)
    assert line.count(repr(stand_in).encode()) == 1
    line = line.replace(repr(stand_in).encode(), token.encode())
    path.write_bytes(line + b"\n" + payload)
    with pytest.raises(CorruptArtifact, match=f"non-finite number {re.escape(token)}"):
        engine.load_fin(path)


def spaced_line(path):
    """Re-sign the `.fin` at `path`, then write its header with `", "` and
    `": "` separators: the same document and digest, another line."""
    rewrite_header(path, lambda doc: None)
    header, payload = split_fin(path)
    path.write_bytes((json.dumps(header, sort_keys=True) + "\n").encode() + payload)


def add_key(*where):
    """Re-sign the file with one more key, at `where`."""
    return lambda path: rewrite_header(path, lambda doc: set_field(doc, where, "0" * 64))


def integer_norm_hi(path):
    # still above norm_lo, so only the JSON type is wrong
    rewrite_header(path, lambda doc: doc.update(norm_hi=[int(v) + 1 for v in doc["norm_hi"]]))


def header_line(line):
    """Replace the header line, keeping the payload."""
    return lambda path: path.write_bytes(line + b"\n" + split_fin(path)[1])


@pytest.mark.parametrize("tamper, match", [
    (add_key("scalogram_digest"), "header field scalogram_digest "),
    (add_key("topology", "padding"), "header field topology.padding "),
    (add_key("history_summary", "seed"), "header field history_summary.seed "),
    (integer_norm_hi, "header field norm_hi "),
    (spaced_line, "header line"),
    (header_line(b"[1]"), "artifact header must be an object"),
    (header_line(b"null"), "artifact header must be an object"),
], ids=["top-level-key", "topology-key", "history-key", "integer-norm-hi", "spaced-line",
        "list-header", "null-header"])
def test_headers_save_fin_never_writes_are_corrupt(tiny_artifact, tmp_path, tamper, match):
    path = saved(tiny_artifact, tmp_path)
    engine.load_fin(path)  # the untouched file is the clean control
    tamper(path)
    with pytest.raises(CorruptArtifact, match=match):
        engine.load_fin(path)


def header_variants(value):
    """Stand-ins for one header value: itself, other JSON types, and the
    same numbers written as the other JSON number type."""
    yield from (value, None, True, 0, 1, 0.5, "entropy", [], {}, [value], {"k": value})
    if isinstance(value, list) and all(type(v) in (int, float) for v in value):
        yield [float(v) for v in value]
        yield [int(v) for v in value]
        yield [v - 0.5 for v in value]
    elif type(value) in (int, float):
        yield from (float(value), int(value), value + 1)


def test_every_tampered_header_that_loads_resaves_to_its_bytes(tiny_artifact, tmp_path):
    source = saved(tiny_artifact, tmp_path, "source.fin")
    doc, _ = split_fin(source)
    paths = [(key,) for key in doc] + [("topology", key) for key in doc["topology"]]
    paths += [("history_summary", key) for key in doc["history_summary"]]
    paths += [("extra",), ("topology", "extra"), ("history_summary", "extra")]
    layouts = {"canonical": None, "spaced": (", ", ": "), "unsorted": (",", ":")}
    path, again = tmp_path / "t.fin", tmp_path / "again.fin"
    loaded = refused = 0
    for where in paths:
        current = doc
        for key in where:
            current = current.get(key, 0) if isinstance(current, dict) else 0
        for value in header_variants(current):
            for layout, separators in layouts.items():
                path.write_bytes(source.read_bytes())
                rewrite_header(path, lambda d: set_field(d, where, value))
                if separators:
                    header, payload = split_fin(path)
                    header = {"sha256": header.pop("sha256"), **header}  # sha256 first
                    text = json.dumps(header, sort_keys=layout == "spaced",
                                      separators=separators)
                    path.write_bytes((text + "\n").encode() + payload)
                try:
                    artifact = engine.load_fin(path)
                except (CorruptArtifact, UnsupportedVersion):
                    refused += 1
                    continue
                loaded += 1
                engine.save_fin(artifact, again)
                assert again.read_bytes() == path.read_bytes(), (where, value, layout)
    # controls: every field re-signed with its own value loads, and so do
    # some other values of the JSON type save_fin writes
    assert loaded > len(paths) - 3, (loaded, refused)
    assert refused > loaded


def test_artifact_gen_spec_digest_is_64_hex_in_memory_too():
    net = nets.init_random(nets.Topology((8, 4, 1), ("relu", "linear")), 0)
    for digest in ("0" * 64, "0123456789abcdef" * 4):
        engine.FinArtifact("entropy", net, np.zeros(1), np.ones(1), digest, {})
    for digest in ("zz", "0" * 63, "A" * 64, "0" * 65, 0, None):
        with pytest.raises(ValueError, match="gen_spec_digest"):
            engine.FinArtifact("entropy", net, np.zeros(1), np.ones(1), digest, {})


def test_artifact_feature_is_checked_by_the_one_name_rule():
    net = nets.init_random(nets.Topology((8, 4, 1), ("relu", "linear")), 0)
    with pytest.raises(ValueError) as info:
        engine.FinArtifact("loudness", net, np.zeros(1), np.ones(1), "0" * 64, {})
    assert str(info.value) == "unknown feature 'loudness'"
    engine.FinArtifact("entropy", net, np.zeros(1), np.ones(1), "0" * 64, {})  # control


# ---------------------------------------------------------------------------
# transfer mechanics
# ---------------------------------------------------------------------------

def test_attach_head_retains_body_bit_exactly(tiny_artifact):
    net = engine.attach_head(tiny_artifact, 3, seed=7)
    for k in range(len(tiny_artifact.net.weights) - 1):
        np.testing.assert_array_equal(net.weights[k], tiny_artifact.net.weights[k])
        np.testing.assert_array_equal(net.biases[k], tiny_artifact.net.biases[k])
    assert net.topology.activations[-1] == "softmax"
    assert net.topology.output_dim == 3
    probs = nets.forward(net, np.ones((4, 1024)))
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=0, atol=row_sum_tol(3))


def test_attach_head_seed_isolation(tiny_artifact):
    a = engine.attach_head(tiny_artifact, 2, seed=1)
    b = engine.attach_head(tiny_artifact, 2, seed=1)
    c = engine.attach_head(tiny_artifact, 2, seed=2)
    for wa, wb in zip(a.weights, b.weights):
        np.testing.assert_array_equal(wa, wb)
    for k in range(len(a.weights) - 1):
        np.testing.assert_array_equal(a.weights[k], c.weights[k])
    assert not np.array_equal(a.weights[-1], c.weights[-1])
    np.testing.assert_array_equal(c.biases[-1], 0.0)
    with pytest.raises(ValueError):
        engine.attach_head(tiny_artifact, 1, seed=0)


def test_attach_head_needs_a_body_below_the_regression_layer():
    one_layer = engine.FinArtifact(
        "entropy", nets.init_random(nets.Topology((4, 1), ("linear",)), 0),
        np.zeros(1), np.ones(1), "0" * 64, {})
    # without a body the head would be a softmax straight on the input
    with pytest.raises(ShapeError, match="at least two layers"):
        engine.attach_head(one_layer, 2, seed=0)
    net = engine.attach_head(fake_artifact("entropy", 1, 0, in_dim=4), 2, seed=0)  # control
    assert net.topology == nets.Topology((4, 8, 2), ("relu", "softmax"))


def test_ensemble_head_dimension_arithmetic():
    arts = [
        fake_artifact("entropy", 1, 1),
        fake_artifact("kurtosis", 1, 2),
        fake_artifact("mfcc", 13, 3),
    ]
    ens = engine.build_ensemble(arts, n_channels=19, n_classes=2, seed=0)
    assert ens.head_input_dim == 19 * 15 == 285
    assert ens.head_w.shape == (2, 285)

    rng = rng_for(44, "dims")
    for _ in range(10):
        n_branches = int(rng.integers(1, 4))
        widths = [int(rng.integers(1, 14)) for _ in range(n_branches)]
        feats = rng.choice(["entropy", "kurtosis", "mfcc"], size=n_branches)
        arts = [
            fake_artifact(str(f), w, int(rng.integers(0, 1000)))
            for f, w in zip(feats, widths)
        ]
        channels = int(rng.integers(1, 8))
        classes = int(rng.integers(2, 5))
        ens = engine.build_ensemble(arts, channels, classes, seed=1)
        assert ens.head_input_dim == channels * sum(widths)
        assert ens.head_w.shape == (classes, ens.head_input_dim)


def test_ensemble_needs_a_channel_and_two_classes():
    arts = [fake_artifact("entropy", 1, 5)]
    # zero channels would leave the head no input: it answers [0.5, 0.5] for anything
    with pytest.raises(ValueError, match="n_channels must be positive"):
        engine.build_ensemble(arts, n_channels=0, n_classes=2, seed=0)
    with pytest.raises(ValueError, match="n_channels must be positive"):
        engine.EnsembleNet([arts[0].net], 0, np.zeros((2, 0)), np.zeros(2))
    # one class would give a head that always outputs 1
    with pytest.raises(ValueError, match="need at least two classes"):
        engine.build_ensemble(arts, n_channels=1, n_classes=1, seed=0)
    ens = engine.build_ensemble(arts, n_channels=1, n_classes=2, seed=0)  # control
    assert (ens.n_channels, ens.class_count, ens.head_input_dim) == (1, 2, 1)


def test_ensemble_class_count_is_its_heads():
    arts = [fake_artifact("entropy", 1, 5), fake_artifact("mfcc", 13, 6)]
    ens = engine.build_ensemble(arts, n_channels=2, n_classes=3, seed=9)
    assert ens.class_count == 3 == ens.head_b.size
    assert ens.copy().class_count == 3
    with pytest.raises(AttributeError):
        ens.class_count = 2
    # a head that does not fit the branches, or whose bias is not a vector
    for head_w, head_b in ((ens.head_w[:, 1:], ens.head_b), (ens.head_w[:2], ens.head_b),
                           (ens.head_w, ens.head_b[:, None])):
        with pytest.raises(ShapeError, match="head expects"):
            engine.EnsembleNet(ens.branches, 2, head_w, head_b)


def test_ensemble_retains_branches_bit_exactly():
    arts = [fake_artifact("entropy", 1, 5), fake_artifact("skewness", 1, 6)]
    ens = engine.build_ensemble(arts, n_channels=3, n_classes=2, seed=9)
    for branch, art in zip(ens.branches, arts):
        for wb, wa in zip(branch.weights, art.net.weights):
            np.testing.assert_array_equal(wb, wa)
    probs = ens.forward(np.ones((5, 3, 64)))
    assert probs.shape == (5, 2)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=0, atol=row_sum_tol(2))


def test_ensemble_rejects_mismatched_branches():
    arts = [fake_artifact("entropy", 1, 0, in_dim=64),
            fake_artifact("kurtosis", 1, 1, in_dim=32)]
    with pytest.raises(ShapeError):
        engine.build_ensemble(arts, n_channels=2, n_classes=2, seed=0)
    with pytest.raises(ValueError, match="at least one branch"):
        engine.build_ensemble([], n_channels=2, n_classes=2, seed=0)
    good = engine.build_ensemble(arts[:1], n_channels=2, n_classes=2, seed=0)
    assert good.forward(np.ones((4, 2, 64))).shape == (4, 2)  # control
    # the wrong channel count or tf dim, a trailing axis, or one unbatched item
    for shape in ((4, 3, 64), (4, 2, 63), (4, 2, 64, 1), (2, 64)):
        with pytest.raises(ShapeError, match=re.escape(
                f"expected (batch, 2, 64) input, got {shape}")):
            good.forward(np.ones(shape))


def test_permuting_branches_permutes_head_blocks():
    a = fake_artifact("entropy", 1, 21)
    b = fake_artifact("mfcc", 13, 22)
    channels = 2
    ab = engine.build_ensemble([a, b], channels, 2, seed=3)
    ba = engine.build_ensemble([b, a], channels, 2, seed=3)
    x = rng_for(1, "perm").standard_normal((6, channels, 64))
    cat_ab, _ = ab._forward_cached(ab._check_input(x))
    cat_ba, _ = ba._forward_cached(ba._check_input(x))
    width_a = channels * 1
    np.testing.assert_array_equal(cat_ab[:, :width_a], cat_ba[:, -width_a:])
    np.testing.assert_array_equal(cat_ab[:, width_a:], cat_ba[:, :-width_a])


def test_ensemble_gradients_match_finite_differences():
    arts = [fake_artifact("entropy", 2, 31, in_dim=6),
            fake_artifact("kurtosis", 1, 32, in_dim=6)]
    ens = engine.build_ensemble(arts, n_channels=2, n_classes=3, seed=4)
    rng = rng_for(2, "ens-fd")
    x = rng.standard_normal((5, 2, 6))
    targets = nets.one_hot(rng.integers(0, 3, size=5), 3)
    value, _ = ens.loss_and_grads(x, targets)
    assert np.isfinite(value)
    assert nets.finite_difference_check(ens, x, targets) < 1e-4


def test_fine_tune_learns_strongest_channel_toy():
    # label = which channel carries the larger mean input
    rng = rng_for(3, "toy")
    n, channels, dim = 240, 2, 16
    x = rng.standard_normal((n, channels, dim))
    labels = (x.mean(axis=2)[:, 1] > x.mean(axis=2)[:, 0]).astype(int)
    art = fake_artifact("entropy", 1, 41, in_dim=dim)
    ens = engine.build_ensemble([art], channels, 2, seed=5)
    cfg = nets.TrainConfig(
        learning_rate=0.05, batch_size=16, max_epochs=60, patience=60, seed=6
    )
    trained, history = engine.fine_tune(
        ens, (x[:200], labels[:200]), (x[200:], labels[200:]), cfg
    )
    acc = float((trained.forward(x[200:]).argmax(axis=1) == labels[200:]).mean())
    assert acc >= 0.9
    assert history.best_val_loss < 0.6931  # beat the coin-flip loss
    # caller's ensemble is untouched
    np.testing.assert_array_equal(ens.head_b, 0.0)


def test_fine_tune_dense_path_and_validation(tiny_artifact):
    net = engine.attach_head(tiny_artifact, 2, seed=11)
    x = rng_for(4, "ft").standard_normal((40, 1024))
    labels = (x[:, 0] > 0).astype(int)
    cfg = nets.TrainConfig(batch_size=8, max_epochs=2, patience=2, seed=0)
    before = net.buffer.copy()
    trained, history = engine.fine_tune(net, (x[:32], labels[:32]), (x[32:], labels[32:]), cfg)
    assert len(history.val_losses) >= 1
    # the caller's net is untouched; the trained copy moved
    np.testing.assert_array_equal(net.buffer, before)
    assert trained is not net and not np.array_equal(trained.buffer, before)
    with pytest.raises(ValueError):
        engine.fine_tune(net, (x, labels + 5), (x, labels), cfg)
    # a label of -1 would one-hot encode as the last class
    with pytest.raises(ValueError, match=r"labels must lie in \[0, class_count\)"):
        engine.fine_tune(net, (x, labels - 1), (x, labels), cfg)
    # an empty set meets fit's rule, not numpy's zero-size error
    with pytest.raises(ValueError, match="training and validation sets must be non-empty"):
        engine.fine_tune(net, (x[:0], labels[:0]), (x, labels), cfg)
    with pytest.raises(ShapeError):
        engine.fine_tune(tiny_artifact.net, (x, labels), (x, labels), cfg)
    with pytest.raises(TypeError):
        engine.fine_tune("not a net", (x, labels), (x, labels), cfg)


def test_artifact_validation():
    net = nets.init_random(nets.Topology((8, 4, 1), ("relu", "linear")), 0)
    with pytest.raises(ValueError):
        engine.FinArtifact(
            feature="volume",
            net=net,
            norm_lo=np.zeros(1),
            norm_hi=np.ones(1),
            gen_spec_digest="0" * 64,
            history_summary={},
        )
    # both vectors, or either alone, of the wrong size
    for lo, hi in ((np.zeros(2), np.ones(2)), (np.zeros(2), np.ones(1)),
                   (np.zeros(1), np.ones(2))):
        with pytest.raises(ShapeError, match="normalization vectors must match the output dim"):
            engine.FinArtifact(
                feature="entropy",
                net=net,
                norm_lo=lo,
                norm_hi=hi,
                gen_spec_digest="0" * 64,
                history_summary={},
            )
    with pytest.raises(ValueError):
        engine.FinArtifact(
            feature="entropy",
            net=net,
            norm_lo=np.ones(1),
            norm_hi=np.ones(1),
            gen_spec_digest="0" * 64,
            history_summary={},
        )
