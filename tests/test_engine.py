"""Pretraining, artifact persistence, head transfer, and ensembles."""

import json
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
        want_inputs = np.array([sg.flatten_tf(sg.wavelet_transform(s)) for s in fresh])
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
    corpus = engine.build_pretraining_corpus("entropy", TINY_GEN, 300)
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
    assert 0.0 <= report.percentiles["p5"] <= report.percentiles["p95"] <= 1.0
    assert report.histogram_counts.sum() == report.n_signals


def test_reconstruction_report_rejects_no_signals(tiny_artifact):
    with pytest.raises(ValueError):
        engine.reconstruction_report(tiny_artifact, [])
    with pytest.raises(ValueError):
        engine.reconstruction_report(tiny_artifact, iter(()))
    one = engine.reconstruction_report(tiny_artifact, [sg.generate(TINY_GEN, 300)])
    assert one.n_signals == 1
    assert np.isfinite(one.mean_abs_error) and one.histogram_counts.sum() == 1


def test_reconstruction_names_the_failing_feature_and_signal():
    art = fake_artifact("kurtosis", 1, 7, in_dim=TINY_TOPOLOGY.input_dim)
    good = sg.generate(TINY_GEN, 0)
    constant = Signal(np.ones(len(good)), good.sample_rate)
    with pytest.raises(FeatureError) as err:
        engine.reconstruction_report(art, [good, constant])
    assert err.value.feature == "kurtosis"
    assert "signal 1" in str(err.value)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def test_save_load_resave_byte_identical(tiny_artifact, tmp_path):
    first = tmp_path / "a.fin"
    second = tmp_path / "b.fin"
    engine.save_fin(tiny_artifact, first)
    loaded = engine.load_fin(first)
    engine.save_fin(loaded, second)
    assert first.read_bytes() == second.read_bytes()
    assert loaded.feature == tiny_artifact.feature
    np.testing.assert_array_equal(loaded.norm_lo, tiny_artifact.norm_lo)


def test_loaded_fin_is_the_trained_net(tiny_artifact, tmp_path):
    path = tmp_path / "a.fin"
    engine.save_fin(tiny_artifact, path)
    loaded = engine.load_fin(path)
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

    path = tmp_path / "a.fin"
    engine.save_fin(tiny_artifact, path)
    loaded = engine.load_fin(path)
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
    path = tmp_path / "a.fin"
    engine.save_fin(tiny_artifact, path)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    with pytest.raises(CorruptArtifact):
        engine.load_fin(path)


def test_future_version_is_unsupported(tiny_artifact, tmp_path):
    path = tmp_path / "a.fin"
    engine.save_fin(tiny_artifact, path)
    doc = json.loads(path.read_text())
    doc["format_version"] = engine.FORMAT_VERSION + 1
    path.write_text(json.dumps(doc))
    with pytest.raises(UnsupportedVersion):
        engine.load_fin(path)


def test_corrupt_payload_and_fields(tiny_artifact, tmp_path):
    path = tmp_path / "a.fin"
    engine.save_fin(tiny_artifact, path)
    doc = json.loads(path.read_text())

    short = dict(doc)
    short["weights"] = doc["weights"][: len(doc["weights"]) // 2]
    path.write_text(json.dumps(short))
    with pytest.raises(CorruptArtifact):
        engine.load_fin(path)

    missing = {k: v for k, v in doc.items() if k != "norm_lo"}
    path.write_text(json.dumps(missing))
    with pytest.raises(CorruptArtifact):
        engine.load_fin(path)

    bad_digest = dict(doc)
    bad_digest["gen_spec_digest"] = "zz"
    path.write_text(json.dumps(bad_digest))
    with pytest.raises(CorruptArtifact):
        engine.load_fin(path)


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
    # each value is, or converts to, a number: only its JSON type is wrong
    path = tmp_path / "a.fin"
    engine.save_fin(tiny_artifact, path)
    engine.load_fin(path)  # the untouched file is the clean control
    doc = json.loads(path.read_text())
    parent = doc
    for key in where[:-1]:
        parent = parent[key]
    parent[where[-1]] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(CorruptArtifact, match="wrong JSON type"):
        engine.load_fin(path)


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
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)


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


def test_ensemble_retains_branches_bit_exactly():
    arts = [fake_artifact("entropy", 1, 5), fake_artifact("skewness", 1, 6)]
    ens = engine.build_ensemble(arts, n_channels=3, n_classes=2, seed=9)
    for branch, art in zip(ens.branches, arts):
        for wb, wa in zip(branch.weights, art.net.weights):
            np.testing.assert_array_equal(wb, wa)
    probs = ens.forward(np.ones((5, 3, 64)))
    assert probs.shape == (5, 2)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)


def test_ensemble_rejects_mismatched_branches():
    arts = [fake_artifact("entropy", 1, 0, in_dim=64),
            fake_artifact("kurtosis", 1, 1, in_dim=32)]
    with pytest.raises(ShapeError):
        engine.build_ensemble(arts, n_channels=2, n_classes=2, seed=0)
    good = engine.build_ensemble(arts[:1], n_channels=2, n_classes=2, seed=0)
    with pytest.raises(ShapeError):
        good.forward(np.ones((4, 3, 64)))  # wrong channel count


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
    assert nets.finite_difference_check(ens, x, targets, h=1e-6) < 1e-4


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
    trained, history = engine.fine_tune(net, (x[:32], labels[:32]), (x[32:], labels[32:]), cfg)
    assert len(history.val_losses) >= 1
    with pytest.raises(ValueError):
        engine.fine_tune(net, (x, labels + 5), (x, labels), cfg)
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
    with pytest.raises(ShapeError):
        engine.FinArtifact(
            feature="entropy",
            net=net,
            norm_lo=np.zeros(2),
            norm_hi=np.ones(2),
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
