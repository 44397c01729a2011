"""Benchmark harness tests: splits, comparators, tasks, and the runner."""

import csv
import io
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from finnets import bench, engine, nets, signals
from finnets.errors import (
    CorpusDegenerateError,
    IngestError,
    ShapeError,
    SplitError,
)
from finnets.rng import derive_seed, rng_for


def toy_dataset(n_items=60, n_channels=1, tf_dim=8, seed=0, n_subjects=None):
    """Separable 2-class data: class sign written into feature 0."""
    rng = rng_for(seed, "toy")
    labels = np.arange(n_items) % 2
    inputs = rng.normal(size=(n_items, n_channels, tf_dim)) * 0.3
    inputs[:, :, 0] += np.where(labels == 1, 2.0, -2.0)[:, None]
    subjects = np.arange(n_items) % n_subjects if n_subjects else None
    return bench.LabeledDataset(inputs, labels, 2, subject_ids=subjects)


def fake_artifact(feature, width, seed, in_dim=8):
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
# dataset container
# ---------------------------------------------------------------------------

def test_dataset_validation_errors():
    good = np.zeros((8, 1, 4))
    labels = np.array([0, 1] * 4)
    with pytest.raises(ShapeError):
        bench.LabeledDataset(np.zeros((8, 4)), labels, 2)
    with pytest.raises(ShapeError):
        bench.LabeledDataset(good, labels[:5], 2)
    with pytest.raises(ValueError):
        bench.LabeledDataset(good, labels, 1)
    with pytest.raises(ValueError):
        bench.LabeledDataset(good, labels + 1, 2)
    with pytest.raises(ValueError, match="need at least two classes"):
        bench.LabeledDataset(good, np.zeros(8), 1)  # one class, every label in range
    for bad in ([0, 0, 1, 1, 2, 2, 0, 1], [-1, -1, 0, 0, 1, 1, 0, 1]):  # classes of two or more
        with pytest.raises(ValueError, match=r"labels must lie in \[0, n_classes\)"):
            bench.LabeledDataset(good, np.array(bad), 2)
    with pytest.raises(ValueError):
        # class 1 has a single item
        bench.LabeledDataset(good, np.array([0, 0, 0, 0, 0, 0, 0, 1]), 2)
    with pytest.raises(ShapeError):
        bench.LabeledDataset(good, labels, 2, subject_ids=np.arange(3))
    for bad in (np.nan, np.inf, -np.inf):
        inputs = good.copy()
        inputs[5, 0, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            bench.LabeledDataset(inputs, labels, 2)
    # an empty dataset meets the class-size rule, not numpy's zero-size error
    with pytest.raises(ValueError, match="every class needs at least two items"):
        bench.LabeledDataset(np.zeros((0, 1, 4)), np.zeros(0), 2)
    bench.LabeledDataset(good, labels, 2)  # the clean control


def test_dataset_refuses_zero_channels_or_values(tmp_path):
    # such a dataset would export a CSV that ingest refuses
    labels = np.array([0, 1, 0, 1])
    for shape in ((4, 1, 0), (4, 0, 3)):
        with pytest.raises(ShapeError, match="n_channels >= 1"):
            bench.LabeledDataset(np.zeros(shape), labels, 2)
    # control: the smallest accepted shape exports and ingests back exactly
    data = bench.LabeledDataset(np.array([0.5, -1.25, 3.0, 1e-300]).reshape(4, 1, 1),
                                labels, 2)
    path = tmp_path / "one.csv"
    bench.export_dataset_csv(data, path)
    back = bench.ingest_dataset_csv(path)
    assert np.array_equal(back.inputs, data.inputs)
    assert np.array_equal(back.labels, data.labels)


def test_dataset_properties():
    data = toy_dataset(n_items=10, n_channels=3, tf_dim=5)
    assert (data.n_items, data.n_channels, data.tf_dim) == (10, 3, 5)
    assert data.labels.dtype == np.int64
    assert data.inputs.dtype == np.float64


# ---------------------------------------------------------------------------
# splits
# ---------------------------------------------------------------------------

def test_split_repeated_partitions():
    data = toy_dataset(n_items=200)
    plan = bench.SplitPlan(mode="repeated_random", repeats=50, seed=31)
    for k in range(50):
        train, val, test = bench.split_repeated(data, plan, k)
        assert len(test) == 30  # round(0.15 * 200)
        assert len(val) == 26  # round(0.15 * 170)
        assert len(train) == 144
        merged = np.concatenate([train, val, test])
        assert np.array_equal(np.sort(merged), np.arange(200))
        for part in (train, val, test):
            assert np.array_equal(part, np.sort(part))
            assert len(np.unique(data.labels[part])) == 2
    # round(0.15 * 24) = round(3.6) is 4 test items, where truncation gives 3
    small = bench.split_repeated(toy_dataset(n_items=24),
                                 bench.SplitPlan(mode="repeated_random", repeats=1, seed=0), 0)
    assert [len(part) for part in small] == [17, 3, 4]


def test_split_repeated_is_seeded():
    data = toy_dataset(n_items=100)
    plan = bench.SplitPlan(mode="repeated_random", repeats=5, seed=7)
    a = bench.split_repeated(data, plan, 2)
    b = bench.split_repeated(data, plan, 2)
    for x, y in zip(a, b):
        assert np.array_equal(x, y)
    c = bench.split_repeated(data, plan, 3)
    assert not np.array_equal(a[2], c[2])
    with pytest.raises(ValueError):
        bench.split_repeated(data, plan, 5)


def test_split_repeated_too_small_raises():
    # two classes of 2: test takes round(0.6) = 1 item, validation round(0.45) = 0
    data = toy_dataset(n_items=4)
    plan = bench.SplitPlan(mode="repeated_random", repeats=1, seed=0)
    with pytest.raises(SplitError, match="^dataset too small to split$"):
        bench.split_repeated(data, plan, 0)


def test_split_repeated_class_coverage():
    # a 2-member class cannot reach all three partitions, any seed
    labels = np.zeros(40, dtype=np.int64)
    labels[:2] = 1
    inputs = np.zeros((40, 1, 4))
    inputs[:, 0, 0] = labels
    data = bench.LabeledDataset(inputs, labels, 2)
    for seed in range(5):
        plan = bench.SplitPlan(mode="repeated_random", repeats=1, seed=seed)
        with pytest.raises(SplitError):
            bench.split_repeated(data, plan, 0)


def test_split_repeated_names_the_part_that_lost_a_class():
    # 30 items per class, but this unstratified draw fills val from class 0
    data = toy_dataset(n_items=60)
    seed = derive_seed(derive_seed(0, "search"), "search-splits")
    plan = bench.SplitPlan(mode="repeated_random", repeats=3, seed=seed)
    with pytest.raises(SplitError) as err:
        bench.split_repeated(data, plan, 0)
    assert str(err.value) == "val part of split 0 (8 items) holds no item of class 1"
    bench.split_repeated(data, plan, 1)  # another draw covers both classes


def test_split_plan_validation():
    with pytest.raises(ValueError):
        bench.SplitPlan(mode="bootstrap")
    with pytest.raises(ValueError):
        bench.SplitPlan(repeats=0)
    with pytest.raises(ValueError):
        bench.SplitPlan(fractions=(0.4, 0.2))
    with pytest.raises(ValueError):  # a repeat would count its splits twice
        bench.SplitPlan(fractions=(0.5, 0.5))
    with pytest.raises(ValueError):
        bench.SplitPlan(fractions=(0.2, 1.5))
    with pytest.raises(ValueError):  # a sweep is repeated_random with fractions
        bench.SplitPlan(mode="fraction_sweep", fractions=(0.5,))


def test_split_leave_subjects_out():
    data = toy_dataset(n_items=60, n_subjects=6)
    train, val, test = bench.split_leave_subjects_out(data, 2, 4)
    assert np.all(data.subject_ids[val] == 2)
    assert np.all(data.subject_ids[test] == 4)
    held = set(val) | set(test)
    assert held.isdisjoint(train)
    assert len(train) + len(val) + len(test) == 60
    with pytest.raises(SplitError):
        bench.split_leave_subjects_out(toy_dataset(n_items=20), 0, 1)
    with pytest.raises(SplitError):
        bench.split_leave_subjects_out(data, 3, 3)
    with pytest.raises(SplitError):
        bench.split_leave_subjects_out(data, 0, 99)
    two = toy_dataset(n_items=20, n_subjects=2)
    with pytest.raises(SplitError):
        bench.split_leave_subjects_out(two, 0, 1)


def test_loso_enumerates_ordered_pairs():
    data = toy_dataset(n_items=40, n_subjects=4)
    plan = bench.SplitPlan(mode="leave_subjects_out", seed=3)
    cfg = nets.TrainConfig(
        learning_rate=0.1, momentum=0.9, batch_size=8, max_epochs=2,
        patience=2, seed=0,
    )
    report = bench.run_benchmark(data, plan, [bench.KnnModel(k=1)], cfg)
    assert len(report.runs) == 12  # 4 * 3 ordered subject pairs
    assert [r.split_index for r in report.runs] == list(range(12))
    # one subject has no pair to hold out: an empty report would read as a result
    for n_subjects in (1, 2):
        few = toy_dataset(n_items=40, n_subjects=n_subjects)
        with pytest.raises(SplitError, match="at least three subjects"):
            bench.run_benchmark(few, plan, [bench.KnnModel(k=1)], cfg)
    with pytest.raises(SplitError, match="leave_subjects_out needs subject ids"):
        bench.run_benchmark(toy_dataset(n_items=40), plan, [bench.KnnModel(k=1)], cfg)


def test_stratified_subsample_counts():
    labels = np.array([0] * 30 + [1] * 20)
    train_idx = np.arange(50)
    sub = bench.stratified_subsample(labels, train_idx, 0.5, (9, "subsample", 0, 500))
    assert len(sub) == 25
    assert (labels[sub] == 0).sum() == 15
    assert (labels[sub] == 1).sum() == 10
    assert np.array_equal(sub, np.sort(sub))
    assert set(sub) <= set(train_idx)
    again = bench.stratified_subsample(labels, train_idx, 0.5, (9, "subsample", 0, 500))
    assert np.array_equal(sub, again)
    other = bench.stratified_subsample(labels, train_idx, 0.5, (9, "subsample", 1, 500))
    assert not np.array_equal(sub, other)
    full = bench.stratified_subsample(labels, train_idx, 1.0, (9, "subsample", 0, 1000))
    assert np.array_equal(full, train_idx)
    # a class of 7 at 0.5 gives round(3.5) = 4 items, not int(3.5) = 3
    odd = np.array([0] * 7 + [1] * 8)
    sub = bench.stratified_subsample(odd, np.arange(15), 0.5, (9, "subsample", 0, 500))
    assert (odd[sub] == 0).sum() == 4 and (odd[sub] == 1).sum() == 4


def test_stratified_subsample_errors():
    labels = np.array([0] * 30 + [1] * 20)
    idx = np.arange(50)
    for fraction in (0.0, 1.5, np.nan, np.inf):
        with pytest.raises(ValueError, match=r"fraction must lie in \(0, 1\]"):
            bench.stratified_subsample(labels, idx, fraction, (0,))
    with pytest.raises(SplitError):
        bench.stratified_subsample(labels, idx, 0.01, (0,))


# ---------------------------------------------------------------------------
# classical comparators
# ---------------------------------------------------------------------------

def ref_knn(train_x, train_y, test_x, k):
    """Double-loop nearest-neighbour vote with the same tie rule."""
    out = []
    for t in test_x:
        dists = [float(np.sum((t - p) ** 2)) for p in train_x]
        order = sorted(range(len(train_x)), key=lambda j: (dists[j], j))
        votes = {}
        for j in order[:k]:
            votes[train_y[j]] = votes.get(train_y[j], 0) + 1
        top = max(votes.values())
        tied = {c for c, v in votes.items() if v == top}
        for j in order[:k]:
            if train_y[j] in tied:
                out.append(train_y[j])
                break
    return np.array(out, dtype=np.int64)


def test_knn_matches_bruteforce():
    for seed in range(3):
        rng = rng_for(seed, "knn")
        train_x = rng.normal(size=(50, 3))
        train_y = rng.integers(0, 3, size=50)
        # continuous coordinates make exact distance ties negligible
        test_x = rng.normal(size=(20, 3))
        for k in (1, 3, 5):
            got = bench.knn_classify(train_x, train_y, test_x, k)
            want = ref_knn(train_x, train_y, test_x, k)
            assert np.array_equal(got, want)


def test_knn_exact_distance_ties_match_bruteforce():
    """Integer coordinates put many training points at exactly the same
    distance; the k nearest are then the lowest-indexed of them."""
    for seed in range(5):
        rng = rng_for(seed, "knn-ties")
        train_x = rng.integers(-2, 3, size=(40, 2)).astype(float)
        train_y = rng.integers(0, 3, size=40)
        test_x = rng.integers(-2, 3, size=(25, 2)).astype(float)
        for k in (2, 3, 4, 6, 9):
            got = bench.knn_classify(train_x, train_y, test_x, k)
            want = ref_knn(train_x, train_y, test_x, k)
            assert np.array_equal(got, want), (seed, k)


def test_knn_vote_tie_goes_to_nearest():
    train_x = np.array([[1.0], [2.0], [3.0], [4.0]])
    train_y = np.array([0, 1, 1, 0])
    got = bench.knn_classify(train_x, train_y, np.array([[0.0]]), 4)
    assert got[0] == 0  # 2-2 vote, nearest point has label 0
    got = bench.knn_classify(train_x, train_y, np.array([[0.0]]), 2)
    assert got[0] == 0  # 1-1 vote


def test_knn_edges():
    rng = rng_for(4, "knn-edges")
    train_x = rng.normal(size=(10, 2))
    train_y = np.array([0, 1] * 5)
    dup = bench.knn_classify(train_x, train_y, train_x[3], 1)
    assert dup[0] == train_y[3]
    maj = bench.knn_classify(train_x, train_y, rng.normal(size=(4, 2)), 10)
    assert maj.shape == (4,)
    with pytest.raises(ValueError):
        bench.knn_classify(train_x, train_y, train_x, 0)
    with pytest.raises(ValueError):
        bench.knn_classify(train_x, train_y, train_x, 11)


def test_linear_margin_separable_and_deterministic():
    rng = rng_for(11, "margin")
    n = 60
    y = np.arange(n) % 3
    x = rng.normal(size=(n, 4)) * 0.2
    for c in range(3):
        x[y == c, c] += 3.0
    preds = bench.linear_margin_classify(x, y, x)
    assert float(np.mean(preds == y)) == 1.0
    again = bench.linear_margin_classify(x, y, x)
    assert np.array_equal(preds, again)


def test_linear_margin_model_trains_in_fit(monkeypatch):
    data = toy_dataset(n_items=40, n_channels=2, tf_dim=4)
    train_idx, test_idx = np.arange(30), np.arange(30, 40)
    calls = []
    trainer = bench._linear_margin_train

    def counting(*args, **kwargs):
        calls.append(1)
        return trainer(*args, **kwargs)

    monkeypatch.setattr(bench, "_linear_margin_train", counting)
    predict, history = bench.LinearMarginModel().fit(data, train_idx, None, 0, None)
    assert history is None
    assert len(calls) == 1
    preds = predict(data, test_idx)
    again = predict(data, train_idx)
    assert len(calls) == 1  # the predictor only scores
    flat = data.inputs.reshape(data.n_items, -1)
    assert np.array_equal(
        preds, bench.linear_margin_classify(flat[train_idx], data.labels[train_idx],
                                            flat[test_idx])
    )
    assert np.array_equal(
        again, bench.linear_margin_classify(flat[train_idx], data.labels[train_idx],
                                            flat[train_idx])
    )


# ---------------------------------------------------------------------------
# synthetic tasks
# ---------------------------------------------------------------------------

SMALL_GEN = signals.GenSpec(length=64, seed=404)


def test_threshold_task_labels_and_oracle():
    data = bench.make_feature_threshold_task(
        "entropy", n_items=24, rho=0.0, seed=5, gen=SMALL_GEN, n_subjects=5
    )
    assert data.n_items == 24 and data.n_channels == 1
    assert data.oracle_scores.shape == (24,)
    rule = (data.oracle_scores > data.oracle_threshold).astype(np.int64)
    assert np.array_equal(data.labels, rule)
    assert np.array_equal(data.subject_ids, np.arange(24) % 5)
    assert data.meta["task"] == "feature_threshold:entropy"


def test_threshold_task_label_noise_is_seeded():
    data = bench.make_feature_threshold_task(
        "entropy", n_items=24, rho=0.3, seed=5, gen=SMALL_GEN
    )
    rule = (data.oracle_scores > data.oracle_threshold).astype(np.int64)
    flip = rng_for(5, "label-noise").random(24) < 0.3
    assert np.array_equal(data.labels, np.where(flip, 1 - rule, rule))


def test_threshold_task_validation():
    with pytest.raises(ValueError):
        bench.make_feature_threshold_task("entropy", n_items=24, rho=0.5, gen=SMALL_GEN)
    with pytest.raises(ValueError):
        bench.make_feature_threshold_task("entropy", n_items=24, rho=-0.1, gen=SMALL_GEN)


def test_task_builders_refuse_an_unknown_feature_before_any_signal(monkeypatch):
    class Reached(Exception):
        pass

    def no_corpus(gen, n_signals):
        raise Reached

    monkeypatch.setattr(engine, "corpus_inputs", no_corpus)
    for build in (lambda name: bench.make_feature_threshold_task(name, n_items=24),
                  lambda name: bench.make_multi_feature_task(["entropy", name], n_items=24)):
        with pytest.raises(ValueError) as info:
            build("loudness")
        assert str(info.value) == "unknown feature 'loudness'"
        with pytest.raises(Reached):  # control: a valid name reaches the front end
            build("kurtosis")
    # so does each size floor
    for build in (lambda **sizes: bench.make_feature_threshold_task("kurtosis", **sizes),
                  lambda **sizes: bench.make_multi_feature_task(["entropy", "kurtosis"], **sizes)):
        for name in ("n_items", "n_channels", "n_subjects"):
            sizes = {"n_items": 24, "n_channels": 1, "n_subjects": 2, name: 0}
            with pytest.raises(ValueError) as info:
                build(**sizes)
            assert str(info.value) == f"{name} must be at least 1, got 0"
            with pytest.raises(Reached):  # control
                build(**{**sizes, name: 1})


def test_multi_feature_task_rule():
    data = bench.make_multi_feature_task(
        ("entropy", "kurtosis"), n_channels=2, n_items=20, rho=0.0, seed=8,
        gen=SMALL_GEN,
    )
    assert data.inputs.shape[:2] == (20, 2)
    rule = (data.oracle_scores > data.oracle_threshold).astype(np.int64)
    assert np.array_equal(data.labels, rule)
    weights = data.meta["weights"]
    assert set(weights) == {"entropy", "kurtosis"}
    for w in weights.values():
        assert 0.5 <= abs(w) <= 1.0


def test_multi_feature_task_errors():
    with pytest.raises(ValueError):
        bench.make_multi_feature_task(("entropy",), n_items=20, gen=SMALL_GEN)
    with pytest.raises(ValueError):
        bench.make_multi_feature_task(
            ("entropy", "kurtosis"), n_items=20, rho=0.7, gen=SMALL_GEN
        )
    # f0 never fires on pure noise, so its z-score denominator collapses
    noise_gen = signals.GenSpec(
        family_weights={"white_noise": 1.0}, seed=321
    )
    with pytest.raises(CorpusDegenerateError):
        bench.make_multi_feature_task(
            ("entropy", "f0"), n_items=16, rho=0.0, seed=1, gen=noise_gen
        )


@pytest.mark.parametrize("kind", ["feature-threshold", "multi-feature"])
def test_task_items_are_the_corpus_front_end_grouped_by_channel(kind):
    # signal i * c + k of the corpus feeds channel k of item i
    n, c = 10, 2
    if kind == "feature-threshold":
        data = bench.make_feature_threshold_task(
            "entropy", n_channels=c, n_items=n, rho=0.0, seed=3, gen=SMALL_GEN)
        weights = {"entropy": None}
    else:
        data = bench.make_multi_feature_task(
            ("entropy", "kurtosis"), n_channels=c, n_items=n, rho=0.0, seed=3,
            gen=SMALL_GEN)
        weights = data.meta["weights"]
    inputs = engine.corpus_inputs(SMALL_GEN, n * c)
    assert np.array_equal(data.inputs, inputs.reshape(n, c, -1))
    assert np.array_equal(data.inputs[3, 1], inputs[3 * c + 1])
    assert np.array_equal(
        data.inputs[3, 1], signals.wavelet_transform(signals.generate(SMALL_GEN, 7)).ravel())
    means = {}
    for name in weights:
        per_signal = engine.corpus_targets(name, SMALL_GEN, n * c).mean(axis=1)
        means[name] = per_signal.reshape(n, c).mean(axis=1)
        assert means[name][3] == (per_signal[6] + per_signal[7]) / 2
    if kind == "feature-threshold":
        assert np.array_equal(data.oracle_scores, means["entropy"])
    else:
        combined = np.zeros(n)
        for name, w in weights.items():
            combined += w * (means[name] - means[name].mean()) / means[name].std()
        assert np.array_equal(data.oracle_scores, combined)


# ---------------------------------------------------------------------------
# models and runner
# ---------------------------------------------------------------------------

FAST_CFG = nets.TrainConfig(
    learning_rate=0.3, momentum=0.9, batch_size=8, max_epochs=12,
    patience=12, seed=0,
)


def test_model_constructor_validation():
    with pytest.raises(ValueError):
        bench.RandomDenseModel("bad", nets.Topology((8, 4, 2), ("relu", "relu")))
    with pytest.raises(ValueError):
        bench.EnsembleFinModel("empty", [])


def test_dense_models_reject_bad_shapes():
    data = toy_dataset(n_items=20, n_channels=2)
    cfg = FAST_CFG
    fin = bench.TransferFinModel("fin", fake_artifact("entropy", 3, 1))
    with pytest.raises(ShapeError):
        fin.fit(data, np.arange(10), np.arange(10, 16), 0, cfg)
    one = toy_dataset(n_items=20, tf_dim=8)
    wrong_in = bench.RandomDenseModel(
        "base", nets.Topology((9, 4, 2), ("relu", "softmax"))
    )
    with pytest.raises(ShapeError):
        wrong_in.fit(one, np.arange(10), np.arange(10, 16), 0, cfg)
    wrong_out = bench.RandomDenseModel(
        "base", nets.Topology((8, 4, 3), ("relu", "softmax"))
    )
    with pytest.raises(ShapeError):
        wrong_out.fit(one, np.arange(10), np.arange(10, 16), 0, cfg)


class OracleRuleModel:
    """The task's own generating rule, as a model the runner can score."""

    tag = "oracle-rule"

    def fit(self, data, train_idx, val_idx, run_seed, cfg):
        def predict(d, idx):
            return (d.oracle_scores[idx] > d.oracle_threshold).astype(np.int64)

        return predict, None


def test_oracle_model_matches_noise_rate():
    data = bench.make_feature_threshold_task(
        "entropy", n_items=40, rho=0.0, seed=5, gen=SMALL_GEN
    )
    plan = bench.SplitPlan(mode="repeated_random", repeats=3, seed=2)
    report = bench.run_benchmark(data, plan, [OracleRuleModel()], FAST_CFG)
    for r in report.runs:
        assert r.accuracy == 1.0  # noiseless labels equal the rule


def test_knn_model_clamps_k():
    data = toy_dataset(n_items=20)
    model = bench.KnnModel(k=999)
    predict, history = model.fit(data, np.arange(12), np.arange(12, 16), 0, FAST_CFG)
    assert history is None
    preds = predict(data, np.arange(16, 20))
    assert preds.shape == (4,)


def test_ensemble_model_runs():
    data = toy_dataset(n_items=40, n_channels=2)
    arts = [fake_artifact("entropy", 3, 1), fake_artifact("kurtosis", 2, 2)]
    model = bench.EnsembleFinModel("ens", arts)
    plan = bench.SplitPlan(mode="repeated_random", repeats=1, seed=6)
    report = bench.run_benchmark(data, plan, [model], FAST_CFG)
    assert len(report.runs) == 1
    assert report.runs[0].accuracy >= 0.7
    assert report.runs[0].history is not None


def noisy_dataset(n_items=40, n_channels=1, seed=4):
    """Weakly separable data, so fits from different seeds disagree."""
    rng = rng_for(seed, "noisy")
    labels = np.arange(n_items) % 2
    inputs = rng.normal(size=(n_items, n_channels, 8))
    inputs[:, :, 0] += np.where(labels == 1, 0.3, -0.3)[:, None]
    return bench.LabeledDataset(inputs, labels, 2)


def explicit_fit(net, x, data, train_idx, val_idx, train_seed, cfg):
    """`engine.fine_tune` of `net` on rows of `x` at `train_seed`."""
    return engine.fine_tune(
        net, (x[train_idx], data.labels[train_idx]), (x[val_idx], data.labels[val_idx]),
        replace(cfg, seed=train_seed),
    )


def same_history(a, b):
    return (a.train_losses == b.train_losses and a.val_losses == b.val_losses
            and (a.best_epoch, a.stopped_epoch) == (b.best_epoch, b.stopped_epoch))


def documented_build(kind, run_seed):
    """(model, data, its inputs, the untrained net the model documents, and
    a class-probability function) for each fine-tuned model kind."""
    if kind == "ensemble":
        data = noisy_dataset(n_channels=2)
        arts = [fake_artifact("entropy", 3, 1), fake_artifact("kurtosis", 2, 2)]
        net = engine.build_ensemble(arts, 2, 2, derive_seed(run_seed, "ensemble-head"))
        return (bench.EnsembleFinModel("m", arts), data, data.inputs, net,
                lambda trained, rows: trained.forward(rows))
    data = noisy_dataset()
    if kind == "fin":
        art = fake_artifact("entropy", 3, 21)
        model = bench.TransferFinModel("m", art)
        net = engine.attach_head(art, 2, derive_seed(run_seed, "fin-head"))
    else:
        topo = nets.Topology((8, 6, 2), ("tanh", "softmax"))
        model = bench.RandomDenseModel("m", topo)
        net = nets.init_random(topo, derive_seed(run_seed, "baseline-init"))
    return model, data, data.inputs[:, 0, :], net, nets.forward


@pytest.mark.parametrize("kind", ["fin", "random", "ensemble"])
def test_net_models_fit_their_documented_build(kind):
    run_seed = derive_seed(3, "run", 0, 1000)
    model, data, x, net, probs = documented_build(kind, run_seed)
    train_idx, val_idx, test_idx = np.arange(24), np.arange(24, 32), np.arange(32, 40)
    predict, history = model.fit(data, train_idx, val_idx, run_seed, FAST_CFG)
    trained, expected = explicit_fit(
        net, x, data, train_idx, val_idx, derive_seed(run_seed, "train"), FAST_CFG
    )
    assert same_history(history, expected)
    assert np.array_equal(
        predict(data, test_idx), np.argmax(probs(trained, x[test_idx]), axis=1)
    )
    # negative control: the config's own seed trains a different net
    _, unseeded = explicit_fit(net, x, data, train_idx, val_idx, FAST_CFG.seed, FAST_CFG)
    assert not same_history(history, unseeded)


def test_baseline_search_records_are_their_documented_fine_tunes():
    data = noisy_dataset(n_items=48, seed=6)
    topo = nets.Topology((8, 6, 2), ("tanh", "softmax"))
    _, records = bench.baseline_search(data, FAST_CFG, seed=77, candidates=[topo])
    plan = bench.SplitPlan(repeats=bench.SEARCH_SPLITS, seed=derive_seed(77, "search-splits"))
    x = data.inputs[:, 0, :]
    accuracies = []
    for j, record in enumerate(records):
        train_idx, val_idx, _ = bench.split_repeated(data, plan, j)
        net = nets.init_random(topo, derive_seed(77, "search-init", 0, j))
        trained, _ = explicit_fit(
            net, x, data, train_idx, val_idx, derive_seed(77, "search-train", 0, j), FAST_CFG
        )
        preds = np.argmax(nets.forward(trained, x[val_idx]), axis=1)
        assert record["val_accuracy"] == float(np.mean(preds == data.labels[val_idx]))
        accuracies.append(record["val_accuracy"])
    assert len(set(accuracies)) > 1  # the splits' fits really differ


def run_small_benchmark():
    data = toy_dataset(n_items=60, seed=3)
    models = [
        bench.TransferFinModel("fin", fake_artifact("entropy", 3, 21)),
        bench.RandomDenseModel(
            "base", nets.Topology((8, 8, 2), ("relu", "softmax"))
        ),
        bench.KnnModel(k=3),
    ]
    plan = bench.SplitPlan(mode="repeated_random", repeats=2, seed=14)
    return bench.run_benchmark(data, plan, models, FAST_CFG)


def test_run_benchmark_models_learn_and_workers_match():
    first = run_small_benchmark()
    second = run_small_benchmark()
    for tag in ("fin", "base", "knn"):
        assert first.aggregates[tag]["mean_accuracy"] >= 0.8
    assert len(first.runs) == 6
    for a, b in zip(first.runs, second.runs):
        assert a.model_tag == b.model_tag
        assert a.split_index == b.split_index
        assert a.fraction == b.fraction
        assert a.accuracy == b.accuracy
        assert a.n_train == b.n_train
        if a.history is not None:
            assert np.array_equal(a.history.val_losses, b.history.val_losses)


def test_run_benchmark_nan_poisoned_test_partition():
    data = toy_dataset(n_items=60, seed=3)
    plan = bench.SplitPlan(mode="repeated_random", repeats=1, seed=14)
    models = [
        bench.TransferFinModel("fin", fake_artifact("entropy", 3, 21)),
        bench.RandomDenseModel(
            "base", nets.Topology((8, 8, 2), ("relu", "softmax"))
        ),
    ]
    clean = bench.run_benchmark(data, plan, models, FAST_CFG)

    _, _, test_idx = bench.split_repeated(data, plan, 0)
    poisoned = bench.LabeledDataset(
        data.inputs.copy(), data.labels, 2, meta=dict(data.meta)
    )
    poisoned.inputs[test_idx] = np.nan
    report = bench.run_benchmark(poisoned, plan, models, FAST_CFG)
    # training and selection never touch the test partition
    for a, b in zip(clean.runs, report.runs):
        assert np.array_equal(a.history.val_losses, b.history.val_losses)
        assert np.all(np.isfinite(b.history.train_losses))


def test_fraction_one_matches_plain_split():
    data = toy_dataset(n_items=60, seed=9)
    models = [bench.KnnModel(k=3), bench.LinearMarginModel()]
    plain = bench.run_benchmark(
        data,
        bench.SplitPlan(mode="repeated_random", fractions=(), repeats=2, seed=5),
        models,
        FAST_CFG,
    )
    sweep = bench.run_benchmark(
        data,
        bench.SplitPlan(mode="repeated_random", fractions=(1.0,), repeats=2, seed=5),
        models,
        FAST_CFG,
    )
    assert [r.accuracy for r in plain.runs] == [r.accuracy for r in sweep.runs]


def test_fraction_key_is_the_nearest_thousandth():
    # a fraction's subsample and run seeds derive from its key, so 0.2999
    # shares 0.3's, where truncation would key it 299
    keys = [bench._fraction_key(f) for f in (0.2999, 0.3, 0.3004, 1.0)]
    assert keys == [300, 300, 300, 1000]


def test_run_benchmark_validation():
    data = toy_dataset(n_items=30)
    plan = bench.SplitPlan(mode="repeated_random", repeats=1, seed=0)
    dup = [bench.KnnModel(tag="m", k=1), bench.LinearMarginModel(tag="m")]
    with pytest.raises(ValueError, match="unique"):
        bench.run_benchmark(data, plan, dup, FAST_CFG)
    with pytest.raises(ValueError, match="at least one model"):
        bench.run_benchmark(data, plan, [], FAST_CFG)


# ---------------------------------------------------------------------------
# aggregates
# ---------------------------------------------------------------------------

def make_run(i, tag, k, fraction, acc, sec):
    return bench.RunRecord(i, tag, k, fraction, acc, sec, n_train=10)


def test_aggregate_runs_recompute():
    accs = {"a": [0.5, 0.7, 0.9], "b": [0.6, 0.6]}
    secs = {"a": [1.0, 2.0, 3.0], "b": [4.0, 5.0]}
    runs = []
    for tag in ("a", "b"):
        for acc, sec in zip(accs[tag], secs[tag]):
            runs.append(make_run(len(runs), tag, 0, 1.0, acc, sec))
    agg = bench.EvalReport(runs=runs).aggregates
    for tag in ("a", "b"):
        assert agg[tag]["n_runs"] == len(accs[tag])
        assert abs(agg[tag]["mean_accuracy"] - np.mean(accs[tag])) < 1e-12
        assert abs(agg[tag]["std_accuracy"] - np.std(accs[tag], ddof=1)) < 1e-12
        assert abs(agg[tag]["mean_train_seconds"] - np.mean(secs[tag])) < 1e-12
    single = bench.EvalReport(runs=[make_run(0, "solo", 0, 1.0, 0.5, 1.0)]).aggregates
    assert single["solo"]["std_accuracy"] == 0.0


def test_aggregate_fractions_order():
    runs = [
        make_run(0, "b", 0, 0.4, 0.8, 1.0),
        make_run(1, "a", 0, 0.4, 0.7, 1.0),
        make_run(2, "b", 0, 0.2, 0.6, 1.0),
        make_run(3, "a", 0, 0.2, 0.5, 1.0),
        make_run(4, "b", 1, 0.2, 0.7, 1.0),
    ]
    table = bench.EvalReport(runs=runs).fraction_aggregates
    keys = [(row["fraction"], row["model_tag"]) for row in table]
    assert keys == [(0.2, "b"), (0.2, "a"), (0.4, "b"), (0.4, "a")]
    row = table[0]
    assert row["n_runs"] == 2
    assert abs(row["mean_accuracy"] - 0.65) < 1e-12


# ---------------------------------------------------------------------------
# baseline topology search
# ---------------------------------------------------------------------------

def test_sample_search_candidates():
    cands = bench.sample_search_candidates(16, 3, 30, seed=99)
    assert len(cands) == 30
    for topo in cands:
        assert topo.layer_sizes[0] == 16
        assert topo.layer_sizes[-1] == 3
        depth = len(topo.layer_sizes) - 1
        assert 2 <= depth <= 10
        assert all(w in bench.SEARCH_WIDTHS for w in topo.layer_sizes[1:-1])
        assert topo.activations[-1] == "softmax"
        assert set(topo.activations[:-1]) <= {"relu", "tanh"}
    again = bench.sample_search_candidates(16, 3, 30, seed=99)
    assert cands == again


def test_baseline_search_prefers_fewer_params_on_tie():
    data = toy_dataset(n_items=48, seed=5150)
    cfg = nets.TrainConfig(
        learning_rate=0.5, momentum=0.9, batch_size=8, max_epochs=20,
        patience=20, seed=0,
    )
    cands = [
        nets.Topology((8, 16, 2), ("relu", "softmax")),
        nets.Topology((8, 2), ("softmax",)),
    ]
    winner, records = bench.baseline_search(
        data, cfg, seed=77, candidates=cands
    )
    assert all(r["val_accuracy"] == 1.0 for r in records)
    assert winner == cands[1]  # tie on accuracy, fewer parameters
    assert len(records) == 2 * bench.SEARCH_SPLITS == 6
    assert {r["candidate"] for r in records} == {0, 1}


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_baseline_search_diverged_candidate_scores_zero():
    data = toy_dataset(n_items=48, seed=5150)
    cfg = nets.TrainConfig(
        learning_rate=1e4, momentum=0.9, batch_size=8, max_epochs=20,
        patience=20, seed=0,
    )
    cands = [
        nets.Topology((8, 16, 2), ("relu", "softmax")),
        nets.Topology((8, 2), ("softmax",)),
    ]
    winner, records = bench.baseline_search(
        data, cfg, seed=77, candidates=cands
    )
    assert len(records) == 6
    first = [r for r in records if r["candidate"] == 0]
    assert all(r["diverged"] and r["val_accuracy"] == 0.0 for r in first)
    assert winner == cands[1]


def test_baseline_search_empty_candidates():
    data = toy_dataset(n_items=48)
    with pytest.raises(ValueError):
        bench.baseline_search(data, FAST_CFG, seed=0, candidates=[])


# ---------------------------------------------------------------------------
# CSV interchange
# ---------------------------------------------------------------------------

def test_export_ingest_roundtrip(tmp_path):
    for n_subjects in (None, 4):
        data = toy_dataset(n_items=12, n_channels=2, tf_dim=5, n_subjects=n_subjects)
        path = tmp_path / f"ds_{n_subjects}.csv"
        bench.export_dataset_csv(data, path)
        back = bench.ingest_dataset_csv(path)
        assert np.array_equal(back.inputs, data.inputs)  # %.17g is exact
        assert np.array_equal(back.labels, data.labels)
        assert back.n_classes == 2
        if n_subjects is None:
            assert back.subject_ids is None
        else:
            assert np.array_equal(back.subject_ids, data.subject_ids)


def reference_export(data, path):
    """The schema written field by field through `csv.writer`."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["item_id", "subject_id", "label", "channel"]
                        + [f"v{j}" for j in range(data.tf_dim)])
        for i in range(data.n_items):
            subject = "" if data.subject_ids is None else str(int(data.subject_ids[i]))
            for c in range(data.n_channels):
                writer.writerow([str(i), subject, str(int(data.labels[i])), str(c)]
                                + ["%.17g" % float(v) for v in data.inputs[i, c]])


def test_export_bytes_match_field_by_field_writer(tmp_path):
    special = [-0.0, 5e-324, 1e-300, 1e300, -2.5, -1e-7, np.inf, -np.inf, np.nan]
    for n_subjects, n_channels in ((None, 1), (3, 1), (None, 3), (4, 3)):
        data = toy_dataset(n_items=9, n_channels=n_channels, tf_dim=len(special),
                           n_subjects=n_subjects)
        data.inputs[0, 0] = special
        data.inputs[1, -1] = special[::-1]
        got = tmp_path / f"got{n_subjects}_{n_channels}.csv"
        want = tmp_path / f"want{n_subjects}_{n_channels}.csv"
        # ingest would refuse a non-finite value, so export names the first
        # one and writes nothing
        with pytest.raises(ValueError, match="item 0 channel 0 "):
            bench.export_dataset_csv(data, got)
        data.inputs[0, 0, -3:] = 7.0
        with pytest.raises(ValueError, match=f"item 1 channel {n_channels - 1} "):
            bench.export_dataset_csv(data, got)
        assert not got.exists()
        data.inputs[~np.isfinite(data.inputs)] = 7.0
        bench.export_dataset_csv(data, got)
        reference_export(data, want)
        assert got.read_bytes() == want.read_bytes()
        back = bench.ingest_dataset_csv(got)
        assert np.array_equal(back.inputs, data.inputs)
        assert np.array_equal(np.signbit(back.inputs), np.signbit(data.inputs))  # -0.0


def g17_lines(values):
    """The export kernel's text for `values`, one value a row, as a list."""
    values = np.asarray(values, dtype=np.float64)
    lines = []
    for start in range(0, values.size, bench._G17_CHUNK):
        block = values[start:start + bench._G17_CHUNK, None]
        lines += bench._g17_rows(block).split(b"\n")[:-1]
    return lines


def test_g17_kernel_matches_percent_format():
    rng = np.random.default_rng(20231)
    n = 1_000_000
    # every biased exponent below the inf/nan one, both signs, random mantissas
    bits = ((rng.integers(0, 2, n, dtype=np.uint64) << np.uint64(63))
            | (np.arange(n, dtype=np.uint64) % np.uint64(2047) << np.uint64(52))
            | rng.integers(0, 1 << 52, n, dtype=np.uint64))
    values = bits.view(np.float64)
    assert np.isfinite(values).all() and np.signbit(values).any() and not np.signbit(values).all()
    assert g17_lines(values) == [b"%.17g" % v for v in values.tolist()]

    tie, subnormal = 1234567890123456.75, 5e-324
    edge = [0.0, -0.0, subnormal, np.finfo(float).tiny, 1e-300, 1e300, np.finfo(float).max,
            1e-7, 9.999999999999999e16, 2.0**53 - 2, 2.0**53 + 2, tie, 0.5]
    for e in range(-5, 23):
        power = float(f"1e{e}")
        edge += [np.nextafter(power, 0.0), power, np.nextafter(power, np.inf)]
    edge = np.array(edge + [-v for v in edge])
    assert g17_lines(edge) == [b"%.17g" % v for v in edge.tolist()]
    # both paths are under test: the tie and the subnormal go through `%`,
    # most of the list through the fast path
    _, _, certified = bench._g17_decimal(edge)
    assert not certified[edge == tie].any() and not certified[edge == subnormal].any()
    assert certified[(edge == 0.5) | (edge == 1e-7) | (edge == 0.0)].all()
    assert certified.mean() > 0.8


def test_export_chunk_boundaries_and_memory(tmp_path):
    rng = np.random.default_rng(7)
    for tf_dim in (1, 7, 1024):
        chunk = bench._G17_CHUNK // tf_dim
        for n_items in (chunk - 1, chunk, chunk + 1):
            data = toy_dataset(n_items=n_items, tf_dim=tf_dim, seed=tf_dim, n_subjects=3)
            data.inputs *= 10.0 ** rng.uniform(-8, 20, data.inputs.shape)
            data.inputs.ravel()[::97] = 0.0
            data.inputs.ravel()[1::89] = -0.0
            got, want = tmp_path / "got.csv", tmp_path / "want.csv"
            bench.export_dataset_csv(data, got)
            reference_export(data, want)
            assert got.read_bytes() == want.read_bytes(), (tf_dim, n_items)

    # the kernel works a block at a time: its peak is far below the input's size
    data = toy_dataset(n_items=2000, tf_dim=1024)
    path = tmp_path / "big.csv"
    tracemalloc.start()
    try:
        bench.export_dataset_csv(data, path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < data.inputs.nbytes / 4, (peak, data.inputs.nbytes)
    assert np.array_equal(bench.ingest_dataset_csv(path).inputs, data.inputs)


def test_export_replaces_the_target_atomically(tmp_path, monkeypatch):
    path = tmp_path / "data.csv"
    path.write_bytes(b"earlier file\n")
    data = toy_dataset(n_items=20, tf_dim=1024)  # three blocks of 8 items
    kernel, calls = bench._g17_rows, []

    def failing_after_first_block(block):
        calls.append(len(block))
        if len(calls) > 1:
            raise OSError("disk full")
        return kernel(block)

    monkeypatch.setattr(bench, "_g17_rows", failing_after_first_block)
    with pytest.raises(OSError, match="disk full"):
        bench.export_dataset_csv(data, path)
    assert calls == [8, 8]
    assert path.read_bytes() == b"earlier file\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv"]

    monkeypatch.setattr(bench, "_g17_rows", kernel)
    bench.export_dataset_csv(data, path)
    assert np.array_equal(bench.ingest_dataset_csv(path).inputs, data.inputs)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv"]


def test_ingest_reads_quoted_fields(tmp_path):
    rows = [("0", "0", "1.5", "2"), ("1", "1", "-3", "4e-5"),
            ("2", "0", "0", "-0"), ("3", "1", "1e300", "7")]
    plain = write_csv(tmp_path, "plain.csv", HEADER + "".join(
        f"{i},,{y},0,{a},{b}\n" for i, y, a, b in rows))
    quoted = write_csv(tmp_path, "quoted.csv", HEADER + "".join(
        f'"{i}","","{y}","0","{a}","{b}"\n' for i, y, a, b in rows))
    a, b = bench.ingest_dataset_csv(plain), bench.ingest_dataset_csv(quoted)
    assert np.array_equal(a.inputs, b.inputs)
    assert np.array_equal(a.labels, b.labels)
    assert a.subject_ids is None and b.subject_ids is None
    assert np.array_equal(b.inputs[:, 0, :], [[1.5, 2.0], [-3.0, 4e-5], [0.0, -0.0], [1e300, 7.0]])


def write_csv(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


def ingest_error(tmp_path, name, text):
    with pytest.raises(IngestError) as info:
        bench.ingest_dataset_csv(write_csv(tmp_path, name, text))
    return info.value.row


HEADER = "item_id,subject_id,label,channel,v0,v1\n"


def test_ingest_error_rows(tmp_path):
    assert ingest_error(tmp_path, "empty.csv", "") == 1
    assert ingest_error(tmp_path, "head.csv", "a,b,c,d,v0\n") == 1
    assert ingest_error(tmp_path, "cols.csv", "item_id,subject_id,label,channel,v0,v2\n") == 1
    assert ingest_error(tmp_path, "novalues.csv", "item_id,subject_id,label,channel\n0,,0,0\n") == 1
    assert ingest_error(tmp_path, "nodata.csv", HEADER) == 2
    assert ingest_error(tmp_path, "short.csv", HEADER + "0,,0,0,1.0\n") == 2
    assert ingest_error(tmp_path, "numeric.csv", HEADER + "0,,zero,0,1.0,2.0\n") == 2
    assert ingest_error(tmp_path, "neglabel.csv", HEADER + "0,,-1,0,1.0,2.0\n") == 2
    two_rows = HEADER + "0,,0,0,1.0,2.0\n0,,0,1,1.0,2.0\n"
    assert ingest_error(tmp_path, "adjacent.csv", two_rows + "1,,1,0,1.0,2.0\n0,,0,2,1.0,2.0\n") == 5
    assert ingest_error(tmp_path, "subject.csv", HEADER + "0,1,0,0,1.0,2.0\n0,2,0,1,1.0,2.0\n") == 3
    assert ingest_error(tmp_path, "label.csv", HEADER + "0,,0,0,1.0,2.0\n0,,1,1,1.0,2.0\n") == 3
    assert ingest_error(tmp_path, "chanorder.csv", HEADER + "0,,0,1,1.0,2.0\n") == 2
    ragged = HEADER + "0,,0,0,1.0,2.0\n0,,0,1,1.0,2.0\n1,,1,0,1.0,2.0\n"
    ragged += "2,,0,0,1.0,2.0\n2,,0,1,1.0,2.0\n3,,1,0,1.0,2.0\n3,,1,1,1.0,2.0\n"
    assert ingest_error(tmp_path, "ragged.csv", ragged) == 4  # item 1's first row
    mixed = HEADER + "0,,0,0,1.0,2.0\n1,7,1,0,1.0,2.0\n"
    assert ingest_error(tmp_path, "mixed.csv", mixed) == 3  # item 1's first row
    badsub = HEADER + "0,x,0,0,1.0,2.0\n1,y,1,0,1.0,2.0\n"
    assert ingest_error(tmp_path, "badsub.csv", badsub) == 2


def test_ingest_reraises_a_numpy_error_the_csv_pass_does_not_name(tmp_path, monkeypatch):
    # no file is known that np.loadtxt refuses and csv.reader reads cleanly,
    # so a stand-in loadtxt refuses a valid one
    rows = "".join(f"{i},,{i % 2},0,1.0,2.0\n" for i in range(4))
    path = write_csv(tmp_path, "ok.csv", HEADER + rows)
    assert bench.ingest_dataset_csv(path).n_items == 4  # control
    loadtxt = np.loadtxt

    def refuse(*args, **kwargs):
        loadtxt(*args, **kwargs)  # drains the lines as the real call does
        raise ValueError("stand-in loadtxt refusal")

    monkeypatch.setattr(np, "loadtxt", refuse)
    with pytest.raises(ValueError, match="stand-in loadtxt refusal"):
        bench.ingest_dataset_csv(path)


def test_ingest_rejects_non_finite_values(tmp_path):
    rows = HEADER + "0,,0,0,1.0,2.0\n1,,1,0,3.0,4.0\n"
    for i, bad in enumerate(("nan", "-inf", "1e400", '"nan"')):
        text = rows + f"2,,0,0,1.0,{bad}\n3,,1,0,1.0,2.0\n"
        assert ingest_error(tmp_path, f"bad{i}.csv", text) == 4
    # control: extreme finite values still round-trip exactly
    good = write_csv(tmp_path, "good.csv", rows + "2,,0,0,1e300,5e-324\n3,,1,0,1.0,2.0\n")
    back = bench.ingest_dataset_csv(good)
    assert back.inputs[2, 0].tolist() == [1e300, 5e-324]


ROWS = ["0,,0,0,1.0,2.0\n", "1,,1,0,3.0,4.0\n", "2,,0,0,5.0,6.0\n", "3,,1,0,7.0,8.0\n"]


def test_ingest_blank_lines_are_errors_at_their_row(tmp_path):
    body = "".join(ROWS)
    for name, blank in (("lf", "\n"), ("crlf", "\r\n")):
        text = HEADER + ROWS[0] + blank + "".join(ROWS[1:])
        assert ingest_error(tmp_path, f"mid_{name}.csv", text) == 3
        assert ingest_error(tmp_path, f"tail_{name}.csv", HEADER + body + blank) == 6
        assert ingest_error(tmp_path, f"only_{name}.csv", HEADER + blank) == 2
    # control: the same records without a blank line
    assert bench.ingest_dataset_csv(write_csv(tmp_path, "ok.csv", HEADER + body)).n_items == 4


def test_ingest_line_endings(tmp_path):
    text = HEADER + "".join(ROWS)
    want = bench.ingest_dataset_csv(write_csv(tmp_path, "lf.csv", text))
    for name, variant in (("crlf", text.replace("\n", "\r\n")), ("cr", text.replace("\n", "\r")),
                          ("noeol", text[:-1]), ("crlf_noeol", text.replace("\n", "\r\n")[:-2])):
        path = tmp_path / f"{name}.csv"
        path.write_bytes(variant.encode())
        got = bench.ingest_dataset_csv(path)
        assert np.array_equal(got.inputs, want.inputs), name
        assert np.array_equal(got.labels, want.labels), name


QUOTED_IDS = ['"a,b"', '"a""b"', '"a\nb"', '"a\r\nb"', '"a\n\nb"', '"a\r\n\r\nb"', '"""a"""']


def test_ingest_quoted_item_ids_parse_as_the_csv_module(tmp_path):
    ids = [next(csv.reader(io.StringIO(q, newline="")))[0] for q in QUOTED_IDS]
    assert ids == ["a,b", 'a"b', "a\nb", "a\r\nb", "a\n\nb", "a\r\n\r\nb", '"a"']
    # every id groups its two channels into one item; a blank line inside
    # quotes is part of the id, not an error
    text = HEADER + "".join(f"{q},,{i % 2},{c},{i}.5,{c}.5\n"
                            for i, q in enumerate(QUOTED_IDS) for c in (0, 1))
    back = bench.ingest_dataset_csv(write_csv(tmp_path, "ids.csv", text))
    assert back.inputs.shape == (len(ids), 2, 2)
    assert back.inputs[:, 1].tolist() == [[i + 0.5, 1.5] for i in range(len(ids))]
    # the error for a split item names the id as the csv module reads it
    for k, (q, item_id) in enumerate(zip(QUOTED_IDS, ids)):
        text = HEADER + f"{q},,0,0,1.0,2.0\nz,,1,0,1.0,2.0\n{q},,0,1,1.0,2.0\n"
        with pytest.raises(IngestError, match="are not adjacent") as info:
            bench.ingest_dataset_csv(write_csv(tmp_path, f"split{k}.csv", text))
        assert info.value.row == 4
        assert f"channels of item {item_id} are not adjacent" in str(info.value)


def test_ingest_numbers_are_plain_ascii(tmp_path):
    # Python's `float` takes "1_0" as 10.0 and Arabic-Indic "\u0661" as 1.0;
    # numpy's reader takes neither, so both are bad numeric fields now
    rows = HEADER + "0,,0,0,1.0,2.0\n1,,1,0,3.0,4.0\n"
    for i, bad in enumerate(("1_0", '"1_0"', "\u0661", "0x10", "", "1.0 2", '"1,0"')):
        text = rows + f"2,,0,0,1.0,{bad}\n3,,1,0,1.0,2.0\n"
        path = tmp_path / f"bad{i}.csv"
        path.write_bytes(text.encode())
        with pytest.raises(IngestError, match="bad numeric field") as info:
            bench.ingest_dataset_csv(path)
        assert info.value.row == 4, bad
    # control: surrounding whitespace, Unicode included, is not part of a number
    good = tmp_path / "good.csv"
    good.write_bytes((rows + "2,,0,0, 1.5\u00a0,\t-2\n3,,1,0,1.0,2.0\n").encode())
    assert bench.ingest_dataset_csv(good).inputs[2, 0].tolist() == [1.5, -2.0]


@pytest.mark.parametrize("column, good, bads, message", [
    (1, "10", ("1_0", "\u0661\u0660"), "item 1 has non-integer subject_id"),
    (2, "1", ("0_1", "\u0661"), "bad numeric field"),
    (3, "0", ("0_0", "\u0660"), "bad numeric field"),
], ids=["subject_id", "label", "channel"])
def test_ingest_ids_follow_the_number_rule(tmp_path, column, good, bads, message):
    # Python's `int` takes each bad token as the good value; the dataset
    # CSV's number rule refuses underscores and non-ASCII digits
    def ingest_with(name, token):
        fields = ["1", "10", "1", "0", "3.0", "4.0"]
        fields[column] = token
        path = tmp_path / f"{name}.csv"
        rows = ["0,1,0,0,1.0,2.0", ",".join(fields), "2,1,0,0,5.0,6.0", "3,10,1,0,7.0,8.0"]
        path.write_bytes((HEADER + "\n".join(rows) + "\n").encode())
        return bench.ingest_dataset_csv(path)

    for k, bad in enumerate(bads):
        with pytest.raises(IngestError, match=message) as info:
            ingest_with(f"bad{k}", bad)
        assert info.value.row == 3, bad
    # controls: the ASCII number, with or without whitespace around it
    for name, token in (("plain", good), ("spaced", f" {good}\t")):
        data = ingest_with(name, token)
        assert data.subject_ids.tolist() == [1, 10, 1, 10], name
        assert data.labels.tolist() == [0, 1, 0, 1], name


def test_ingest_names_the_first_problem_in_file_order(tmp_path):
    # numpy's read fails at row 4, but row 3 already changes its item's label
    text = HEADER + "0,,0,0,1.0,2.0\n0,,1,1,1.0,2.0\n1,,1,0,1.0,1_0\n"
    with pytest.raises(IngestError, match="item 0 changes label") as info:
        bench.ingest_dataset_csv(write_csv(tmp_path, "label.csv", text))
    assert info.value.row == 3
    # within a row: field count, then label and channel, then the values
    for name, row, message in (("count", "0,,zero,0,1_0\n", "expected 6 fields, got 5"),
                               ("label", "0,,zero,0,1_0,nan\n", "invalid literal for int"),
                               ("value", "0,,-1,0,1_0,nan\n", "underscore"),
                               ("finite", "0,,-1,0,1.0,nan\n", "values must be finite")):
        with pytest.raises(IngestError, match=message) as info:
            bench.ingest_dataset_csv(write_csv(tmp_path, f"{name}.csv", HEADER + row))
        assert info.value.row == 2


HARD_DECIMALS = ("5e-324", "2.2250738585072011e-308", "1.7976931348623157e308",
                 "9007199254740993", "0.1", "-0")


def test_ingest_parses_hard_decimals_as_float_does(tmp_path):
    want = np.array([float(s) for s in HARD_DECIMALS])
    assert np.signbit(want[-1])
    for quote in ("", '"'):
        text = HEADER + "".join(f"{i},,{i % 2},0,{quote}{s}{quote},0\n"
                                for i, s in enumerate(HARD_DECIMALS))
        back = bench.ingest_dataset_csv(write_csv(tmp_path, f"hard{len(quote)}.csv", text))
        got = back.inputs[:, 0, 0]
        assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist(), quote
        # the values own a buffer of their own size, not a view of a wider table
        root = back.inputs
        while root.base is not None:
            root = root.base
        assert back.inputs.flags.c_contiguous and root.nbytes == back.inputs.nbytes
