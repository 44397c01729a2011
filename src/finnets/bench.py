"""Benchmark harness: tasks, splits, comparators, and protocol runner.

Reproduces the experimental protocols at desk scale: synthetic labeled
tasks built from oracle features, repeated random 85/15 splits,
leave-subjects-out partitioning, data-fraction sweeps, a random-topology
baseline search, kNN and linear max-margin comparators, and a seeded
end-to-end runner that visits every protocol cell in one serial loop
and whose results depend only on (seed, run coordinates).

Protocol hygiene is structural: a model's `fit` never receives test
indices; test items reach a fitted predictor only at final evaluation.
"""

import csv
import time
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from . import engine as en
from . import features as fe
from . import nets
from . import signals as sg
from .errors import (
    CorpusDegenerateError,
    DivergedError,
    IngestError,
    ShapeError,
    SplitError,
)
from .nets import Topology, TrainConfig
from .rng import derive_seed, rng_for

SPLIT_MODES = ("repeated_random", "leave_subjects_out")
# shares of a repeated random split: test of all items, validation of the rest
TEST_FRACTION = 0.15
VAL_FRACTION = 0.15
SEARCH_WIDTHS = (32, 64, 128, 256, 512)
SEARCH_DEPTHS = (2, 10)  # inclusive range of affine layer counts
SEARCH_SPLITS = 3  # repeated random splits each search candidate trains on
# full-batch hinge-loss subgradient descent of the linear-margin comparator
MARGIN_EPOCHS = 200
MARGIN_LR = 0.05
MARGIN_REG = 1e-4


# ---------------------------------------------------------------------------
# Datasets
# ---------------------------------------------------------------------------

@dataclass
class LabeledDataset:
    """Classification items: per-channel flattened scalograms plus labels.

    Inputs must be finite (`ValueError` otherwise).

    `oracle_scores`/`oracle_threshold` carry the latent rule behind
    synthetic tasks so the harness can self-test its evaluation path; they
    are absent for ingested data.
    """

    inputs: np.ndarray  # (n_items, n_channels, tf_dim)
    labels: np.ndarray  # (n_items,)
    n_classes: int
    subject_ids: np.ndarray = None
    oracle_scores: np.ndarray = None
    oracle_threshold: float = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.inputs.ndim != 3:
            raise ShapeError("inputs must be (n_items, n_channels, tf_dim)")
        if not np.all(np.isfinite(self.inputs)):
            raise ValueError("inputs must be finite")
        n = self.inputs.shape[0]
        if self.labels.shape != (n,):
            raise ShapeError("labels must align with items")
        if self.n_classes < 2:
            raise ValueError("need at least two classes")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.n_classes):
            raise ValueError("labels must lie in [0, n_classes)")
        counts = np.bincount(self.labels, minlength=self.n_classes)
        if np.any(counts < 2):
            raise ValueError("every class needs at least two items")
        if self.subject_ids is not None:
            self.subject_ids = np.asarray(self.subject_ids, dtype=np.int64)
            if self.subject_ids.shape != (n,):
                raise ShapeError("subject_ids must align with items")

    @property
    def n_items(self) -> int:
        return self.inputs.shape[0]

    @property
    def n_channels(self) -> int:
        return self.inputs.shape[1]

    @property
    def tf_dim(self) -> int:
        return self.inputs.shape[2]


def _channel_mean_feature(samples, gen, n_channels, feature):
    """Per-item oracle value, averaged over feature components and then
    over the item's channels."""
    values = fe.compute_features(samples, gen.sample_rate, feature)
    return values.mean(axis=1).reshape(-1, n_channels).mean(axis=1)


def _materialize_items(gen, n_items, n_channels):
    """Samples and flattened scalograms for an item grid; signal
    i * n_channels + c feeds channel c of item i."""
    samples = en.corpus_samples(gen, n_items * n_channels)
    mags, _ = sg.scalograms(samples, gen.sample_rate)
    inputs = mags.reshape(n_items, n_channels, mags.shape[1] * mags.shape[2])
    return inputs, samples


def _threshold_labels(scores, rho, seed):
    thresh = float(np.median(scores))
    labels = (scores > thresh).astype(np.int64)
    if rho > 0:
        flip = rng_for(seed, "label-noise").random(scores.size) < rho
        labels = np.where(flip, 1 - labels, labels)
    return labels, thresh


def _check_task_shape(n_items, n_channels, n_subjects, rho):
    """Reject a task size or label noise no builder can honour, before
    any signal is generated. `n_subjects` None means no subject ids."""
    for name, value in (("n_items", n_items), ("n_channels", n_channels),
                        ("n_subjects", n_subjects)):
        if value is not None and value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")
    if not (0.0 <= rho < 0.5):
        raise ValueError("label noise must lie in [0, 0.5)")


def make_feature_threshold_task(
    feature: str,
    n_channels: int = 1,
    n_items: int = 2000,
    rho: float = 0.05,
    seed: int = 0,
    n_subjects: int = None,
    gen: sg.GenSpec = None,
) -> LabeledDataset:
    """Binary task: channel-mean oracle feature above the corpus median.

    Labels are flipped independently with probability `rho`. The latent
    scores and threshold ride along for harness self-tests.
    """
    _check_task_shape(n_items, n_channels, n_subjects, rho)
    if gen is None:
        gen = sg.GenSpec(seed=derive_seed(seed, "task-gen", feature))
    inputs, samples = _materialize_items(gen, n_items, n_channels)
    scores = _channel_mean_feature(samples, gen, n_channels, feature)
    labels, thresh = _threshold_labels(scores, rho, seed)
    subjects = None if n_subjects is None else np.arange(n_items) % n_subjects
    return LabeledDataset(
        inputs,
        labels,
        2,
        subject_ids=subjects,
        oracle_scores=scores,
        oracle_threshold=thresh,
        meta={"task": f"feature_threshold:{feature}", "rho": rho, "seed": seed},
    )


def make_multi_feature_task(
    features,
    n_channels: int = 4,
    n_items: int = 1000,
    rho: float = 0.05,
    seed: int = 0,
    n_subjects: int = None,
    gen: sg.GenSpec = None,
) -> LabeledDataset:
    """Binary task labeled by a fixed random signed combination of features.

    Each feature's channel-mean value is z-scored over the corpus, then
    combined with a weight of random sign and magnitude in [0.5, 1]; the
    label thresholds the combined score at its median, with noise `rho`.
    """
    features = list(features)
    if len(features) < 2:
        raise ValueError("need at least two features for a combination rule")
    _check_task_shape(n_items, n_channels, n_subjects, rho)
    if gen is None:
        gen = sg.GenSpec(seed=derive_seed(seed, "task-gen", *features))
    inputs, samples = _materialize_items(gen, n_items, n_channels)

    rng = rng_for(seed, "rule")
    weights = {}
    combined = np.zeros(n_items)
    for name in features:
        raw = _channel_mean_feature(samples, gen, n_channels, name)
        std = raw.std()
        if std < 1e-12:
            raise CorpusDegenerateError(f"feature {name} is constant on this corpus")
        w = float(rng.uniform(0.5, 1.0) * (1.0 if rng.random() < 0.5 else -1.0))
        weights[name] = w
        combined += w * (raw - raw.mean()) / std
    labels, thresh = _threshold_labels(combined, rho, seed)
    subjects = None if n_subjects is None else np.arange(n_items) % n_subjects
    return LabeledDataset(
        inputs,
        labels,
        2,
        subject_ids=subjects,
        oracle_scores=combined,
        oracle_threshold=thresh,
        meta={
            "task": "multi_feature:" + ",".join(features),
            "rho": rho,
            "seed": seed,
            "weights": weights,
        },
    )


# ---------------------------------------------------------------------------
# Dataset CSV interchange
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    return "%.17g" % float(x)


def export_dataset_csv(data: LabeledDataset, path) -> None:
    """One row per (item, channel); channels of an item are adjacent.

    Values are `%.17g`, one `%` call per row; no field ever needs quoting.
    A non-finite value raises `ValueError` before the file is opened.
    """
    bad = np.argwhere(~np.isfinite(data.inputs))
    if bad.size:
        raise ValueError(f"item {bad[0, 0]} channel {bad[0, 1]} holds a non-finite value")
    header = ["item_id", "subject_id", "label", "channel"]
    header += [f"v{j}" for j in range(data.tf_dim)]
    values = ",".join(["%.17g"] * data.tf_dim) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(data.n_items):
            subject = "" if data.subject_ids is None else int(data.subject_ids[i])
            for c in range(data.n_channels):
                row = tuple(data.inputs[i, c].tolist())
                fh.write(f"{i},{subject},{data.labels[i]},{c}," + values % row)


def _check_records(records, n_fields=None):
    """Per-record checks in file order over (row, fields, values finite);
    a `csv.reader` row comes with `finite` None and is measured and parsed
    here. Returns [item_id, subject, label, first row, channels] per item."""
    items, seen = [], set()
    for row_no, row, finite in records:
        if finite is None and len(row) != n_fields:
            raise IngestError(row_no, f"expected {n_fields} fields, got {len(row)}")
        item_id, subject, label_s, channel_s = row[:4]
        try:
            label, channel = int(label_s), int(channel_s)
            if finite is None:  # numpy's reader takes ASCII numbers without underscores
                values = [v.strip() for v in row[4:]]
                finite = np.isfinite([float(v) for v in values]).all()
                if any("_" in v or not v.isascii() for v in values):
                    raise ValueError("a number holds an underscore or a non-ASCII character")
        except ValueError as exc:
            raise IngestError(row_no, f"bad numeric field: {exc}") from None
        if not finite:
            raise IngestError(row_no, "values must be finite")
        if label < 0:
            raise IngestError(row_no, "labels must be non-negative")
        if not items or items[-1][0] != item_id:
            if item_id in seen:
                raise IngestError(row_no, f"channels of item {item_id} are not adjacent")
            seen.add(item_id)
            items.append([item_id, subject, label, row_no, 0])
        current = items[-1]
        if subject != current[1]:
            raise IngestError(row_no, f"item {item_id} changes subject_id")
        if label != current[2]:
            raise IngestError(row_no, f"item {item_id} changes label")
        if channel != current[4]:
            raise IngestError(row_no, f"expected channel {current[4]}, got {channel}")
        current[4] += 1
    return items


def ingest_dataset_csv(path) -> LabeledDataset:
    """Parse the dataset interchange schema: `csv.reader` reads the header
    and one `np.loadtxt` call with CSV quoting the body. Violations, a
    non-finite value among them, raise `IngestError` carrying the 1-based
    record number (header = row 1), or an item's first row; where numpy
    rejects a record or skips a blank line, a `csv.reader` pass names it."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise IngestError(1, "empty file") from None
        if header[:4] != ["item_id", "subject_id", "label", "channel"]:
            raise IngestError(1, "header must start item_id,subject_id,label,channel")
        tf_dim = len(header) - 4
        if tf_dim < 1 or header[4:] != [f"v{j}" for j in range(tf_dim)]:
            raise IngestError(1, "value columns must be v0..v{d-1}")
        blank, error = [], None

        def lines():
            for line in fh:
                if line in ("\n", "\r\n", "\r"):  # numpy skips it
                    blank.append(line)
                yield line

        try:
            with warnings.catch_warnings():  # an empty body is named below
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                table = np.loadtxt(
                    lines(), dtype=[("meta", object, (4,)), ("values", np.float64, (tf_dim,))],
                    delimiter=",", quotechar='"', comments=None, ndmin=1)
        except ValueError as exc:
            error = exc
    if error or blank:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            records = enumerate(csv.reader(fh), start=1)
            next(records)
            _check_records(((n, row, None) for n, row in records), 4 + tf_dim)
        if error:
            raise error
    finite = np.isfinite(table["values"]).all(axis=1).tolist()
    items = _check_records(zip(range(2, len(table) + 2), table["meta"].tolist(), finite))
    if not items:
        raise IngestError(2, "no data rows")
    n_channels, subjects_empty = items[0][4], items[0][1] == ""
    subjects = []
    for item_id, subject, _, first, count in items:
        if count != n_channels:
            raise IngestError(first, f"item {item_id} has {count} channels, expected {n_channels}")
        if (subject == "") != subjects_empty:
            raise IngestError(first, f"item {item_id} mixes empty and non-empty subject_id")
        if not subjects_empty:
            try:
                subjects.append(int(subject))
            except ValueError:
                raise IngestError(first, f"item {item_id} has non-integer subject_id") from None
    labels = np.array([item[2] for item in items], dtype=np.int64)
    inputs = np.ascontiguousarray(table["values"]).reshape(len(items), n_channels, tf_dim)
    return LabeledDataset(inputs, labels, int(labels.max()) + 1, meta={"task": f"csv:{path}"},
                          subject_ids=None if subjects_empty else np.array(subjects))


# ---------------------------------------------------------------------------
# Splits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SplitPlan:
    """How a benchmark splits its items. `fractions`, strictly ascending
    in (0, 1], subsample the training split; empty means all of it."""

    mode: str = "repeated_random"
    repeats: int = 10
    fractions: tuple = ()
    seed: int = 0

    def __post_init__(self):
        if self.mode not in SPLIT_MODES:
            raise ValueError(f"unknown split mode {self.mode!r}")
        if self.repeats < 1:
            raise ValueError("repeats must be positive")
        fr = tuple(float(f) for f in self.fractions)
        if any(not (0.0 < f <= 1.0) for f in fr):
            raise ValueError("fractions must lie in (0, 1]")
        if any(b <= a for a, b in zip(fr, fr[1:])):
            # a repeated fraction would re-run its splits as extra samples
            raise ValueError("fractions must be strictly ascending")
        object.__setattr__(self, "fractions", fr)


def _check_class_coverage(labels, n_classes, parts):
    for name, idx in parts:
        present = np.unique(labels[idx])
        if len(present) < n_classes:
            raise SplitError(f"{name} split lost a class; dataset too small")


def split_repeated(data: LabeledDataset, plan: SplitPlan, k: int):
    """Seeded draw k of the test-then-validation split.

    Test takes round(TEST_FRACTION*N) items; validation takes
    round(VAL_FRACTION*remainder); training keeps the rest. Indices are
    sorted; the draw depends only on (plan.seed, k).
    """
    if not (0 <= k < plan.repeats):
        raise ValueError("repetition index out of range")
    n = data.n_items
    perm = rng_for(plan.seed, "split", k).permutation(n)
    n_test = int(round(TEST_FRACTION * n))
    n_val = int(round(VAL_FRACTION * (n - n_test)))
    if n_test < 1 or n_val < 1 or n - n_test - n_val < 1:
        raise SplitError("dataset too small to split")
    test = np.sort(perm[:n_test])
    val = np.sort(perm[n_test : n_test + n_val])
    train = np.sort(perm[n_test + n_val :])
    _check_class_coverage(
        data.labels, data.n_classes, [("train", train), ("val", val), ("test", test)]
    )
    return train, val, test


def split_leave_subjects_out(data: LabeledDataset, val_subject: int, test_subject: int):
    """Hold out one whole subject for validation and another for testing."""
    if data.subject_ids is None:
        raise SplitError("dataset has no subject ids")
    if val_subject == test_subject:
        raise SplitError("validation and test subjects must differ")
    known = set(int(s) for s in np.unique(data.subject_ids))
    for s in (val_subject, test_subject):
        if int(s) not in known:
            raise SplitError(f"unknown subject {s}")
    val = np.flatnonzero(data.subject_ids == val_subject)
    test = np.flatnonzero(data.subject_ids == test_subject)
    train = np.flatnonzero(
        (data.subject_ids != val_subject) & (data.subject_ids != test_subject)
    )
    if len(train) == 0:
        raise SplitError("no training items left after holding out two subjects")
    return train, val, test


def stratified_subsample(labels, train_idx, fraction, seed_parts):
    """Per-class seeded subsample of round(fraction*class size) items.

    Deterministic in `seed_parts`; a class that would round to zero items
    raises `SplitError`. fraction == 1.0 returns the full (sorted) set.
    """
    if not (0.0 < fraction <= 1.0):
        raise ValueError("fraction must lie in (0, 1]")
    rng = rng_for(*seed_parts)
    picked = []
    for cls in np.unique(labels[train_idx]):
        pool = train_idx[labels[train_idx] == cls]
        take = int(round(fraction * len(pool)))
        if take < 1:
            raise SplitError(f"fraction {fraction} empties class {cls}")
        sel = rng.choice(len(pool), size=take, replace=False)
        picked.append(pool[sel])
    return np.sort(np.concatenate(picked))


# ---------------------------------------------------------------------------
# Classical comparators
# ---------------------------------------------------------------------------

def knn_classify(train_x, train_y, test_x, k: int):
    """k-nearest-neighbour labels under Euclidean distance.

    Majority vote over the k nearest training points; a tied vote goes to
    the nearest neighbour whose label belongs to the tied set.
    """
    train_x = np.asarray(train_x, dtype=np.float64)
    train_y = np.asarray(train_y, dtype=np.int64)
    test_x = np.atleast_2d(np.asarray(test_x, dtype=np.float64))
    if not (1 <= k <= len(train_x)):
        raise ValueError("k must lie in [1, |train|]")
    # squared distances via the expansion; stable argsort fixes tie order
    d2 = (
        (test_x * test_x).sum(axis=1)[:, None]
        + (train_x * train_x).sum(axis=1)[None, :]
        - 2.0 * test_x @ train_x.T
    )
    out = np.empty(len(test_x), dtype=np.int64)
    for i in range(len(test_x)):
        order = np.argsort(d2[i], kind="stable")
        votes = np.bincount(train_y[order[:k]])
        top = votes.max()
        tied = set(np.flatnonzero(votes == top))
        for j in order[:k]:
            if int(train_y[j]) in tied:
                out[i] = train_y[j]
                break
    return out


def _linear_margin_train(train_x, train_y):
    """One-vs-rest hinge-loss weights `(w[classes, d], b[classes])`.

    `MARGIN_EPOCHS` full-batch subgradient steps of `MARGIN_LR` with an L2
    penalty of `MARGIN_REG` on the weights (bias unpenalized);
    deterministic with no randomness at all.
    """
    train_x = np.asarray(train_x, dtype=np.float64)
    train_y = np.asarray(train_y, dtype=np.int64)
    n, d = train_x.shape
    classes = int(train_y.max()) + 1
    w = np.zeros((classes, d))
    b = np.zeros(classes)
    signs = np.where(train_y[None, :] == np.arange(classes)[:, None], 1.0, -1.0)
    for _ in range(MARGIN_EPOCHS):
        margins = signs * (train_x @ w.T + b).T  # (classes, n)
        viol = margins < 1.0
        coeff = np.where(viol, signs, 0.0)
        w -= MARGIN_LR * (MARGIN_REG * w - (coeff @ train_x) / n)
        b -= MARGIN_LR * (-coeff.sum(axis=1) / n)
    return w, b


def _linear_margin_predict(w, b, test_x):
    scores = np.atleast_2d(np.asarray(test_x, dtype=np.float64)) @ w.T + b
    return np.argmax(scores, axis=1).astype(np.int64)


def linear_margin_classify(train_x, train_y, test_x):
    """One-vs-rest linear classifier trained on the hinge loss."""
    w, b = _linear_margin_train(train_x, train_y)
    return _linear_margin_predict(w, b, test_x)


# ---------------------------------------------------------------------------
# Benchmark models
# ---------------------------------------------------------------------------

def _flat_inputs(data: LabeledDataset):
    return data.inputs.reshape(data.n_items, -1)


def _single_channel_inputs(data: LabeledDataset):
    if data.n_channels != 1:
        raise ShapeError("dense transfer models need single-channel data")
    return data.inputs[:, 0, :]


def _fine_tune(net, x, labels, train_idx, val_idx, run_seed, cfg):
    """Fine-tune on the training rows of `x`, stopping on the validation rows."""
    tcfg = replace(cfg, seed=derive_seed(run_seed, "train"))
    return en.fine_tune(
        net, (x[train_idx], labels[train_idx]), (x[val_idx], labels[val_idx]), tcfg
    )


def _dense_predictor(net):
    def predict(data, idx):
        probs = nets.forward(net, _single_channel_inputs(data)[idx])
        return np.argmax(probs, axis=1).astype(np.int64)

    return predict


class TransferFinModel:
    """Pretrained feature regressor with a fresh softmax head, fine-tuned."""

    def __init__(self, tag: str, artifact: en.FinArtifact):
        self.tag = tag
        self.artifact = artifact

    def fit(self, data, train_idx, val_idx, run_seed, cfg):
        x = _single_channel_inputs(data)
        head = en.attach_head(
            self.artifact, data.n_classes, derive_seed(run_seed, "fin-head")
        )
        trained, history = _fine_tune(
            head, x, data.labels, train_idx, val_idx, run_seed, cfg
        )
        return _dense_predictor(trained), history


class RandomDenseModel:
    """Same training path as the transfer model, from random initialization."""

    def __init__(self, tag: str, topology: Topology):
        if topology.activations[-1] != "softmax":
            raise ValueError("classifier topology must end in softmax")
        self.tag = tag
        self.topology = topology

    def fit(self, data, train_idx, val_idx, run_seed, cfg):
        x = _single_channel_inputs(data)
        if self.topology.input_dim != data.tf_dim:
            raise ShapeError("topology input dim must match tf_dim")
        if self.topology.output_dim != data.n_classes:
            raise ShapeError("topology output dim must match n_classes")
        net = nets.init_random(self.topology, derive_seed(run_seed, "baseline-init"))
        trained, history = _fine_tune(
            net, x, data.labels, train_idx, val_idx, run_seed, cfg
        )
        return _dense_predictor(trained), history


class EnsembleFinModel:
    """One or more feature branches applied per channel, jointly fine-tuned."""

    def __init__(self, tag: str, artifacts):
        if not artifacts:
            raise ValueError("need at least one artifact")
        self.tag = tag
        self.artifacts = list(artifacts)

    def fit(self, data, train_idx, val_idx, run_seed, cfg):
        ensemble = en.build_ensemble(
            self.artifacts,
            data.n_channels,
            data.n_classes,
            derive_seed(run_seed, "ensemble-head"),
        )
        trained, history = _fine_tune(
            ensemble, data.inputs, data.labels, train_idx, val_idx, run_seed, cfg
        )

        def predict(d, idx):
            return np.argmax(trained.forward(d.inputs[idx]), axis=1).astype(np.int64)

        return predict, history


class KnnModel:
    """Memorize the training items; vote at prediction time."""

    def __init__(self, tag: str = "knn", k: int = 5):
        self.tag = tag
        self.k = k

    def fit(self, data, train_idx, val_idx, run_seed, cfg):
        x = _flat_inputs(data)
        train_x = x[train_idx].copy()
        train_y = data.labels[train_idx].copy()
        k = min(self.k, len(train_idx))

        def predict(d, idx):
            return knn_classify(train_x, train_y, _flat_inputs(d)[idx], k)

        return predict, None


class LinearMarginModel:
    """Hinge-loss linear one-vs-rest comparator."""

    def __init__(self, tag: str = "linear-margin"):
        self.tag = tag

    def fit(self, data, train_idx, val_idx, run_seed, cfg):
        w, b = _linear_margin_train(_flat_inputs(data)[train_idx], data.labels[train_idx])

        def predict(d, idx):
            return _linear_margin_predict(w, b, _flat_inputs(d)[idx])

        return predict, None


# ---------------------------------------------------------------------------
# Baseline topology search
# ---------------------------------------------------------------------------

def sample_search_candidates(tf_dim: int, n_classes: int, n_candidates: int, seed: int):
    """Seeded random classifier topologies in the explored design space."""
    rng = rng_for(seed, "search-candidates")
    lo, hi = SEARCH_DEPTHS
    out = []
    for _ in range(n_candidates):
        depth = int(rng.integers(lo, hi + 1))  # affine layer count
        hidden = [int(rng.choice(SEARCH_WIDTHS)) for _ in range(depth - 1)]
        act = str(rng.choice(["relu", "tanh"]))
        sizes = (tf_dim, *hidden, n_classes)
        acts = (act,) * (depth - 1) + ("softmax",)
        out.append(Topology(sizes, acts))
    return out


def baseline_search(
    data: LabeledDataset,
    cfg: TrainConfig,
    seed: int,
    candidates=None,
    n_candidates: int = 20,
):
    """Pick the topology with the best mean validation accuracy.

    Each candidate trains from scratch on `SEARCH_SPLITS` dedicated
    splits; test partitions are never touched. A diverging candidate
    scores 0 on that split. Ties break toward fewer parameters, then the
    lower candidate index. Returns (winner topology, per-candidate-split
    records).
    """
    if candidates is None:
        candidates = sample_search_candidates(
            data.tf_dim, data.n_classes, n_candidates, seed
        )
    if not candidates:
        raise ValueError("candidate list is empty")
    plan = SplitPlan(
        mode="repeated_random",
        repeats=SEARCH_SPLITS,
        seed=derive_seed(seed, "search-splits"),
    )
    x = _single_channel_inputs(data)
    records = []
    means = []
    for ci, topo in enumerate(candidates):
        accs = []
        for j in range(SEARCH_SPLITS):
            train_idx, val_idx, _ = split_repeated(data, plan, j)
            tcfg = replace(cfg, seed=derive_seed(seed, "search-train", ci, j))
            t0 = time.perf_counter()
            diverged = False
            try:
                net = nets.init_random(topo, derive_seed(seed, "search-init", ci, j))
                trained, _ = en.fine_tune(
                    net,
                    (x[train_idx], data.labels[train_idx]),
                    (x[val_idx], data.labels[val_idx]),
                    tcfg,
                )
                preds = np.argmax(nets.forward(trained, x[val_idx]), axis=1)
                acc = float(np.mean(preds == data.labels[val_idx]))
            except DivergedError:
                diverged = True
                acc = 0.0
            accs.append(acc)
            records.append({
                "candidate": ci,
                "split_index": j,
                "layer_sizes": "x".join(str(s) for s in topo.layer_sizes),
                "activation": topo.activations[0],
                "params": nets.count_params(topo),
                "val_accuracy": acc,
                "train_seconds": time.perf_counter() - t0,
                "diverged": diverged,
            })
        means.append(float(np.mean(accs)))
    order = sorted(
        range(len(candidates)),
        key=lambda i: (-means[i], nets.count_params(candidates[i]), i),
    )
    return candidates[order[0]], records


# ---------------------------------------------------------------------------
# Protocol runner
# ---------------------------------------------------------------------------

@dataclass
class RunRecord:
    run_index: int
    model_tag: str
    split_index: int
    fraction: float
    accuracy: float
    train_seconds: float
    n_train: int
    history: nets.TrainHistory = None


@dataclass
class EvalReport:
    """Benchmark runs with their comparison rows; the summary tables are
    computed from `runs` on every read."""

    runs: list
    stats: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    @property
    def aggregates(self) -> dict:
        return aggregate_runs(self.runs)

    @property
    def fraction_aggregates(self) -> list:
        return aggregate_fractions(self.runs)


def _fraction_key(fraction: float) -> int:
    return int(round(fraction * 1000))


def _groups(runs, key) -> dict:
    """Runs by `key(run)`, keys in order of first appearance."""
    groups = {}
    for r in runs:
        groups.setdefault(key(r), []).append(r)
    return groups


def _summary(values, name) -> dict:
    """Mean and sample std (0.0 for one value) of a sequence of numbers."""
    x = np.array(values)
    return {
        f"mean_{name}": float(x.mean()),
        f"std_{name}": float(x.std(ddof=1)) if x.size > 1 else 0.0,
    }


def aggregate_runs(runs):
    """Per-model means and sample stds of accuracy and training seconds."""
    return {
        tag: {
            "n_runs": len(group),
            **_summary([r.accuracy for r in group], "accuracy"),
            **_summary([r.train_seconds for r in group], "train_seconds"),
        }
        for tag, group in _groups(runs, lambda r: r.model_tag).items()
    }


def aggregate_fractions(runs):
    """Per (fraction, model) accuracy summaries, fraction-major, models in
    order of first appearance."""
    rank = {tag: i for i, tag in enumerate(_groups(runs, lambda r: r.model_tag))}
    groups = _groups(runs, lambda r: (r.fraction, r.model_tag))
    return [
        {
            "fraction": fraction,
            "model_tag": tag,
            "n_runs": len(groups[fraction, tag]),
            **_summary([r.accuracy for r in groups[fraction, tag]], "accuracy"),
        }
        for fraction, tag in sorted(groups, key=lambda k: (k[0], rank[k[1]]))
    ]


def _enumerate_splits(data: LabeledDataset, plan: SplitPlan):
    if plan.mode == "repeated_random":
        return [(k, split_repeated(data, plan, k)) for k in range(plan.repeats)]
    if data.subject_ids is None:
        raise SplitError("leave_subjects_out needs subject ids")
    subjects = [int(s) for s in np.unique(data.subject_ids)]
    if len(subjects) < 3:
        raise SplitError(
            "leave_subjects_out needs at least three subjects (validation, test"
            f" and training), got {len(subjects)}"
        )
    pairs = [(v, t) for v in subjects for t in subjects if v != t]
    return [
        (i, split_leave_subjects_out(data, v, t)) for i, (v, t) in enumerate(pairs)
    ]


def run_benchmark(
    data: LabeledDataset,
    plan: SplitPlan,
    models,
    cfg: TrainConfig,
) -> EvalReport:
    """Fit, time and test every (split, fraction, model) cell of the
    protocol, one after another in that nesting order.

    Each run's randomness derives only from (plan.seed, split index,
    fraction, model role). Timing fields are wall-clock and never
    reproducible; compare reports with timing zeroed.
    """
    tags = [m.tag for m in models]
    if len(set(tags)) != len(tags):
        raise ValueError("model tags must be unique")
    fractions = plan.fractions or (1.0,)
    runs = []
    for k, (train_idx, val_idx, test_idx) in _enumerate_splits(data, plan):
        for fraction in fractions:
            if fraction < 1.0:
                sub_train = stratified_subsample(
                    data.labels,
                    train_idx,
                    fraction,
                    (plan.seed, "subsample", k, _fraction_key(fraction)),
                )
            else:
                sub_train = train_idx
            run_seed = derive_seed(plan.seed, "run", k, _fraction_key(fraction))
            for model in models:
                t0 = time.perf_counter()
                predictor, history = model.fit(data, sub_train, val_idx, run_seed, cfg)
                seconds = time.perf_counter() - t0
                preds = predictor(data, test_idx)
                accuracy = float(np.mean(preds == data.labels[test_idx]))
                runs.append(RunRecord(
                    len(runs), model.tag, k, fraction, accuracy, seconds,
                    len(sub_train), history,
                ))
    return EvalReport(
        runs=runs,
        meta={
            "seed": plan.seed,
            "mode": plan.mode,
            "repeats": plan.repeats,
            "fractions": list(fractions),
            "n_items": data.n_items,
            "n_channels": data.n_channels,
            "n_classes": data.n_classes,
            "task": data.meta.get("task", "unknown"),
            "model_tags": tags,
        },
    )
