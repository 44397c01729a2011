"""Pretraining, persistence, and transfer of feature-imitating networks.

A feature-imitating network is a small dense regressor trained to
reproduce one closed-form signal feature from a flattened scalogram. This
module builds the synthetic pretraining corpus, trains the network,
persists it as a single `.fin` file, and performs the two transfer
operations: swapping the regression layer for a fresh softmax head, and
composing several networks into a per-channel ensemble classifier.

Ensemble layout: every branch keeps its full trained network, so a branch
emits its imitated feature values (width = feature width). Each branch is
applied to every channel; outputs are concatenated branch-major, then
channel-major, into one softmax head. A degenerate one-branch one-channel
ensemble therefore still differs from `attach_head`, which consumes the
penultimate representation instead of the imitated feature.
"""

import base64
import json
from dataclasses import dataclass

import numpy as np

from . import features as fe
from . import nets
from . import signals as sg
from .errors import (
    CorpusDegenerateError,
    CorruptArtifact,
    FeatureError,
    ShapeError,
    UnsupportedVersion,
)
from .nets import DenseNet, Topology, TrainConfig
from .rng import derive_seed, rng_for

FORMAT_VERSION = 1
NORM_PERCENTILES = (0.1, 99.9)
DEFAULT_N_SIGNALS = 20000
VAL_FRACTION = 0.15


def default_fin_topology(input_dim: int, output_dim: int) -> Topology:
    """The stock regressor shape: three relu blocks into a linear readout."""
    return Topology(
        (input_dim, 512, 256, 64, output_dim),
        ("relu", "relu", "relu", "linear"),
    )


@dataclass(frozen=True)
class FinArtifact:
    """A trained feature regressor plus everything needed to reuse it."""

    feature: str
    net: DenseNet
    norm_lo: np.ndarray
    norm_hi: np.ndarray
    gen_spec_digest: str
    history_summary: dict
    format_version: int = FORMAT_VERSION

    def __post_init__(self):
        if self.feature not in fe.FEATURE_NAMES:
            raise ValueError(f"unknown feature {self.feature!r}")
        lo = np.asarray(self.norm_lo, dtype=np.float64)
        hi = np.asarray(self.norm_hi, dtype=np.float64)
        out = self.net.topology.output_dim
        if lo.shape != (out,) or hi.shape != (out,):
            raise ShapeError("normalization vectors must match the output dim")
        if not np.all(hi > lo):
            raise ValueError("norm_hi must exceed norm_lo elementwise")
        object.__setattr__(self, "norm_lo", lo)
        object.__setattr__(self, "norm_hi", hi)


def split_indices(seed: int, n: int, val_fraction: float = VAL_FRACTION):
    """Deterministic train/validation index split of range(n)."""
    perm = rng_for(seed, "pretrain-split").permutation(n)
    n_val = int(round(val_fraction * n))
    if n_val < 1 or n_val >= n:
        raise ValueError("corpus too small to split")
    return perm[n_val:], perm[:n_val]


# One-entry memo of the last corpus's samples, keyed on (recipe digest,
# n_signals): corpus_inputs and every corpus_targets call on one corpus
# share a single generation pass. It holds length x 8 bytes per signal
# (82 MB for the default 20k corpus). The entry is rebound as one tuple,
# so a reader in another thread sees either the old or the new pair,
# never a key with another corpus's samples.
_last_corpus = (None, None)


def corpus_samples(gen: sg.GenSpec, n_signals: int) -> np.ndarray:
    """Samples of corpus indices 0..n_signals-1 as a read-only
    (n_signals, length) array, generated once per corpus."""
    global _last_corpus
    key = (sg.gen_spec_digest(gen), n_signals)
    memo_key, samples = _last_corpus
    if memo_key == key:
        return samples
    samples = np.empty((n_signals, gen.length))
    for i in range(n_signals):
        samples[i] = sg.generate(gen, i).samples
    samples.setflags(write=False)
    _last_corpus = (key, samples)
    return samples


def corpus_inputs(gen: sg.GenSpec, n_signals: int) -> np.ndarray:
    """Flattened scalograms for corpus indices 0..n_signals-1.

    This is the expensive half of corpus construction and is independent
    of the imitated feature, so it can be computed once and shared.
    """
    mags, _ = sg.scalograms(corpus_samples(gen, n_signals), gen.sample_rate)
    return mags.reshape(n_signals, mags.shape[1] * mags.shape[2])


def corpus_targets(
    feature: str,
    gen: sg.GenSpec,
    n_signals: int,
    config: fe.FeatureConfig = fe.FeatureConfig(),
) -> np.ndarray:
    """Raw (unnormalized) oracle values for corpus indices 0..n_signals-1."""
    return fe.compute_features(
        corpus_samples(gen, n_signals), gen.sample_rate, feature, config
    )


def build_pretraining_corpus(
    feature: str,
    gen: sg.GenSpec,
    n_signals: int,
    config: fe.FeatureConfig = fe.FeatureConfig(),
):
    """Materialize (inputs, raw targets) for a feature over a corpus."""
    return (
        corpus_inputs(gen, n_signals),
        corpus_targets(feature, gen, n_signals, config),
    )


def normalization_range(train_targets: np.ndarray):
    """Percentile-clipped feature range fitted on training targets only."""
    lo, hi = np.percentile(train_targets, NORM_PERCENTILES, axis=0)
    if np.any(hi - lo < 1e-6):
        raise CorpusDegenerateError(
            "feature range collapsed; widen the generator mix"
        )
    return lo, hi


def pretrain_fin(
    feature: str,
    gen: sg.GenSpec,
    topology: Topology = None,
    cfg: TrainConfig = TrainConfig(),
    n_signals: int = DEFAULT_N_SIGNALS,
    config: fe.FeatureConfig = fe.FeatureConfig(),
    corpus=None,
) -> FinArtifact:
    """Train a fresh feature regressor on a synthetic corpus.

    The corpus is split 85/15 into train/validation, targets are scaled
    into [0,1] with a percentile range fitted on the training portion, and
    the returned artifact carries the best-validation-epoch parameters.
    `corpus` may carry a precomputed (inputs, raw_targets) pair for the
    same `gen` (from the corpus_* helpers), overriding `n_signals`.
    """
    width = fe.feature_width(feature, config.n_mfcc)
    if corpus is not None:
        inputs, raw_targets = corpus
        if inputs.shape[0] != raw_targets.shape[0]:
            raise ShapeError("corpus inputs and targets disagree on size")
        if raw_targets.shape[1] != width:
            raise ShapeError("corpus targets do not match the feature width")
        n_signals = inputs.shape[0]
    else:
        inputs, raw_targets = build_pretraining_corpus(
            feature, gen, n_signals, config
        )
    if topology is None:
        topology = default_fin_topology(inputs.shape[1], width)
    if topology.input_dim != inputs.shape[1]:
        raise ShapeError("topology input dim must match the flattened scalogram")
    if topology.output_dim != width:
        raise ShapeError("topology output dim must match the feature width")

    train_idx, val_idx = split_indices(cfg.seed, n_signals)
    lo, hi = normalization_range(raw_targets[train_idx])
    targets = fe.normalize_feature(raw_targets, lo, hi)

    net = nets.init_random(topology, derive_seed(cfg.seed, "pretrain-init"))
    inputs = np.asarray(inputs, dtype=nets.DTYPE)
    trained, history = nets.train(
        net,
        (inputs[train_idx], targets[train_idx]),
        (inputs[val_idx], targets[val_idx]),
        cfg,
        "mse",
    )
    return FinArtifact(
        feature=feature,
        net=trained,
        norm_lo=lo,
        norm_hi=hi,
        gen_spec_digest=sg.gen_spec_digest(gen),
        history_summary={
            "best_val_loss": history.best_val_loss,
            "epochs": history.stopped_epoch,
        },
    )


# ---------------------------------------------------------------------------
# Serialization (.fin)
# ---------------------------------------------------------------------------

def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _pack_weights(net: DenseNet) -> str:
    """Layer-by-layer f32 payload: each weight matrix row-major, then bias."""
    chunks = []
    for w, b in zip(net.weights, net.biases):
        chunks.append(np.ascontiguousarray(w, dtype="<f4").tobytes())
        chunks.append(np.ascontiguousarray(b, dtype="<f4").tobytes())
    return base64.b64encode(b"".join(chunks)).decode("ascii")


def save_fin(artifact: FinArtifact, path) -> None:
    doc = {
        "format_version": artifact.format_version,
        "feature": artifact.feature,
        "topology": {
            "layer_sizes": list(artifact.net.topology.layer_sizes),
            "activations": list(artifact.net.topology.activations),
        },
        "norm_lo": [float(v) for v in artifact.norm_lo],
        "norm_hi": [float(v) for v in artifact.norm_hi],
        "gen_spec_digest": artifact.gen_spec_digest,
        "history_summary": {
            "best_val_loss": float(artifact.history_summary["best_val_loss"]),
            "epochs": int(artifact.history_summary["epochs"]),
        },
        "weights": _pack_weights(artifact.net),
    }
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(_canonical_json(doc))


def _json_typed(value, types, field: str):
    """`value` if its JSON type is one of `types`; a bool is never a number."""
    if isinstance(value, bool) or not isinstance(value, types):
        raise CorruptArtifact(f"{field} has the wrong JSON type: {value!r}")
    return value


def load_fin(path) -> FinArtifact:
    """Read a `.fin` file, validating version, field types, shapes, and
    payload size."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CorruptArtifact(f"unparseable artifact: {exc}") from exc
    if not isinstance(doc, dict):
        raise CorruptArtifact("artifact root must be an object")
    version = doc.get("format_version")
    if version is not None:
        _json_typed(version, int, "format_version")
    if version != FORMAT_VERSION:
        raise UnsupportedVersion(f"format_version {version!r} is not supported")
    number = (int, float)
    try:
        topology = doc["topology"]
        topo = Topology(
            tuple(_json_typed(s, int, "layer_sizes") for s in topology["layer_sizes"]),
            tuple(topology["activations"]),
        )
        feature = doc["feature"]
        norm_lo, norm_hi = (
            np.array([_json_typed(v, number, key) for v in doc[key]], dtype=np.float64)
            for key in ("norm_lo", "norm_hi")
        )
        digest = doc["gen_spec_digest"]
        hist = doc["history_summary"]
        best = _json_typed(hist["best_val_loss"], number, "best_val_loss")
        summary = {
            "best_val_loss": float(best),
            "epochs": _json_typed(hist["epochs"], int, "epochs"),
        }
        payload = base64.b64decode(doc["weights"], validate=True)
    except (KeyError, TypeError, ValueError) as exc:
        raise CorruptArtifact(f"malformed artifact field: {exc}") from exc
    if not (isinstance(digest, str) and len(digest) == 64
            and all(c in "0123456789abcdef" for c in digest)):
        raise CorruptArtifact("gen_spec_digest must be a 64-char hex string")

    sizes = topo.layer_sizes
    expected = sum(sizes[i + 1] * sizes[i] + sizes[i + 1] for i in range(len(sizes) - 1))
    if len(payload) != 4 * expected:
        raise CorruptArtifact(
            f"weight payload holds {len(payload)} bytes, expected {4 * expected}"
        )
    flat = np.frombuffer(payload, dtype="<f4")
    weights, biases, cursor = [], [], 0
    for i in range(len(sizes) - 1):
        o, n = sizes[i + 1], sizes[i]
        weights.append(flat[cursor : cursor + o * n].reshape(o, n).copy())
        cursor += o * n
        biases.append(flat[cursor : cursor + o].copy())
        cursor += o
    try:
        return FinArtifact(
            feature=feature,
            net=DenseNet(topo, weights, biases),
            norm_lo=norm_lo,
            norm_hi=norm_hi,
            gen_spec_digest=digest,
            history_summary=summary,
        )
    except (ShapeError, ValueError) as exc:
        raise CorruptArtifact(str(exc)) from exc


# ---------------------------------------------------------------------------
# Transfer
# ---------------------------------------------------------------------------

def attach_head(artifact: FinArtifact, n_classes: int, seed: int) -> DenseNet:
    """Swap the regression layer for a fresh softmax classification head.

    Retained layers are bit-identical copies of the artifact's; only the
    new head depends on the seed.
    """
    if n_classes < 2:
        raise ValueError("need at least two classes")
    body = artifact.net
    if len(body.weights) < 2:
        raise ShapeError("artifact net must have at least two layers")
    sizes = body.topology.layer_sizes[:-1] + (n_classes,)
    acts = body.topology.activations[:-1] + ("softmax",)
    rng = rng_for(seed, "head")
    head_w = nets.glorot_uniform(rng, n_classes, sizes[-2])
    weights = [w.copy() for w in body.weights[:-1]] + [head_w]
    biases = [b.copy() for b in body.biases[:-1]] + [np.zeros(n_classes)]
    return DenseNet(Topology(sizes, acts), weights, biases)


@dataclass
class EnsembleNet:
    """Per-channel feature branches feeding one softmax head.

    Input shape is (batch, n_channels, tf_dim). Every branch runs on every
    channel; branch outputs are concatenated branch-major then
    channel-major, and the head maps that vector to class probabilities.
    Branches share weights across channels, so fine-tuning accumulates
    their gradients over all channels. The head is stored as `nets.DTYPE`,
    like the branches.
    """

    branches: list
    n_channels: int
    head_w: np.ndarray
    head_b: np.ndarray
    class_count: int

    def __post_init__(self):
        self.head_w = np.asarray(self.head_w, dtype=nets.DTYPE)
        self.head_b = np.asarray(self.head_b, dtype=nets.DTYPE)
        if not self.branches:
            raise ValueError("ensemble needs at least one branch")
        if self.n_channels < 1:
            raise ValueError("n_channels must be positive")
        in_dims = {b.topology.input_dim for b in self.branches}
        if len(in_dims) != 1:
            raise ShapeError("branch input dims must all agree")
        width = self.n_channels * sum(b.topology.output_dim for b in self.branches)
        if self.head_w.shape != (self.class_count, width):
            raise ShapeError(
                f"head expects input dim {width}, got {self.head_w.shape}"
            )
        if self.head_b.shape != (self.class_count,):
            raise ShapeError("head bias shape mismatch")

    @property
    def input_dim(self) -> int:
        return self.branches[0].topology.input_dim

    @property
    def head_input_dim(self) -> int:
        return self.head_w.shape[1]

    def parameters(self) -> list:
        out = []
        for branch in self.branches:
            out.extend(branch.parameters())
        out.extend((self.head_w, self.head_b))
        return out

    def copy(self) -> "EnsembleNet":
        return EnsembleNet(
            [b.copy() for b in self.branches],
            self.n_channels,
            self.head_w.copy(),
            self.head_b.copy(),
            self.class_count,
        )

    def _check_input(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=self.head_w.dtype)
        if x.ndim == 2:
            x = x[None, :, :]
        if x.ndim != 3 or x.shape[1] != self.n_channels or x.shape[2] != self.input_dim:
            raise ShapeError(
                f"expected (batch, {self.n_channels}, {self.input_dim}) input,"
                f" got {x.shape}"
            )
        return x

    def _forward_cached(self, x: np.ndarray):
        """Concatenated branch outputs plus per-branch caches."""
        batch = x.shape[0]
        flat = x.reshape(batch * self.n_channels, self.input_dim)
        caches, blocks = [], []
        for branch in self.branches:
            pre, post = nets.forward_stack(
                branch.weights, branch.biases, branch.topology.activations, flat
            )
            caches.append((pre, post))
            blocks.append(post[-1].reshape(batch, -1))
        return np.concatenate(blocks, axis=1), caches

    def logits(self, x: np.ndarray) -> np.ndarray:
        x = self._check_input(x)
        concat, _ = self._forward_cached(x)
        return concat @ self.head_w.T + self.head_b

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Class probabilities, shape (batch, class_count)."""
        return nets._softmax(self.logits(x))

    def loss_and_grads(self, x: np.ndarray, targets: np.ndarray):
        x = self._check_input(x)
        targets = np.atleast_2d(np.asarray(targets, dtype=self.head_w.dtype))
        batch = x.shape[0]
        concat, caches = self._forward_cached(x)
        logits = concat @ self.head_w.T + self.head_b
        value = nets.loss_value("softmax_ce", logits, targets)
        delta = (nets._softmax(logits) - targets) / batch

        grads = []
        d_concat = delta @ self.head_w
        offset = 0
        for branch, (pre, post) in zip(self.branches, caches):
            width = branch.topology.output_dim
            block = d_concat[:, offset : offset + self.n_channels * width]
            offset += self.n_channels * width
            d_out = block.reshape(batch * self.n_channels, width)
            acts = branch.topology.activations
            d_final = nets._activation_delta(acts[-1], pre[-1], post[-1], d_out)
            gw, gb = nets.backward_stack(branch.weights, acts, pre, post, d_final)
            for w, b in zip(gw, gb):
                grads.extend((w, b))
        grads.extend((delta.T @ concat, delta.sum(axis=0)))
        return value, grads

    def eval_loss(self, x: np.ndarray, targets: np.ndarray) -> float:
        return nets.loss_value("softmax_ce", self.logits(x), targets)


def build_ensemble(
    artifacts: list, n_channels: int, n_classes: int, seed: int
) -> EnsembleNet:
    """Compose trained feature regressors into a multi-channel classifier.

    Branch weights are bit-exact copies; only the softmax head is freshly
    initialized from the seed.
    """
    if not artifacts:
        raise ValueError("need at least one artifact")
    if n_classes < 2:
        raise ValueError("need at least two classes")
    in_dims = {a.net.topology.input_dim for a in artifacts}
    if len(in_dims) != 1:
        raise ShapeError("artifact input dims must all agree")
    branches = [a.net.copy() for a in artifacts]
    head_in = n_channels * sum(b.topology.output_dim for b in branches)
    rng = rng_for(seed, "ensemble-head")
    head_w = nets.glorot_uniform(rng, n_classes, head_in)
    return EnsembleNet(branches, n_channels, head_w, np.zeros(n_classes), n_classes)


def fine_tune(net, train_xy, val_xy, cfg: TrainConfig):
    """Train a classifier (dense or ensemble) with cross-entropy.

    `train_xy`/`val_xy` pair inputs with integer labels in
    [0, class_count). Returns (trained copy, history); the input model is
    untouched.
    """
    if isinstance(net, EnsembleNet):
        model = net.copy()
        n_classes = net.class_count
        trained = model
    elif isinstance(net, DenseNet):
        if net.topology.activations[-1] != "softmax":
            raise ShapeError("classifier net must end in softmax")
        model = nets.DenseModel(net.copy(), "softmax_ce")
        n_classes = net.topology.output_dim
        trained = model.net
    else:
        raise TypeError(f"cannot fine-tune {type(net).__name__}")

    def encode(xy):
        x, labels = xy
        labels = np.asarray(labels)
        if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
            raise ValueError("labels must lie in [0, class_count)")
        return x, nets.one_hot(labels, n_classes)

    history = nets.fit(model, encode(train_xy), encode(val_xy), cfg)
    return trained, history


# ---------------------------------------------------------------------------
# Reconstruction fidelity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReconstructionReport:
    """Distribution of per-signal absolute errors on the [0,1] scale."""

    n_signals: int
    mean_abs_error: float
    std_abs_error: float
    percentiles: dict
    histogram_counts: np.ndarray
    histogram_edges: np.ndarray
    mse: float


def reconstruction_report(
    artifact: FinArtifact,
    test_signals,
    config: fe.FeatureConfig = fe.FeatureConfig(),
) -> ReconstructionReport:
    """Compare network outputs against the oracle on fresh signals.

    Absolute errors compare clipped predictions with normalized targets,
    so every error lies in [0,1]. The `mse` field uses unclipped outputs
    and therefore matches training-time validation loss when evaluated on
    the pretraining validation corpus.
    """
    signals = list(test_signals)
    if not signals:
        raise ValueError("reconstruction report needs at least one signal")
    # one oracle and one scalogram call per (length, sample rate); normally
    # there is one
    by_geometry = {}
    for i, signal in enumerate(signals):
        by_geometry.setdefault((len(signal), signal.sample_rate), []).append(i)
    raw = np.empty((len(signals), fe.feature_width(artifact.feature, config.n_mfcc)))
    inputs = np.empty((len(signals), sg.DEFAULT_N_SCALES * sg.DEFAULT_N_FRAMES))
    for (_, fs), rows in by_geometry.items():
        samples = np.stack([signals[i].samples for i in rows])
        try:
            raw[rows] = fe.compute_features(samples, fs, artifact.feature, config)
        except Exception as exc:
            # a degenerate row is named; any other failure fails every row
            i = rows[getattr(exc, "row", None) or 0]
            reason = getattr(exc, "reason", exc)
            raise FeatureError(artifact.feature, f"signal {i}: {reason}") from exc
        mags, _ = sg.scalograms(samples, fs)
        inputs[rows] = mags.reshape(len(rows), -1)
    targets = fe.normalize_feature(raw, artifact.norm_lo, artifact.norm_hi)
    preds = nets.forward(artifact.net, inputs)

    mse = float(np.mean((preds - targets) ** 2))
    abs_err = np.abs(np.clip(preds, 0.0, 1.0) - targets).mean(axis=1)
    counts, edges = np.histogram(abs_err, bins=50, range=(0.0, 1.0))
    qs = (5, 25, 50, 75, 95)
    pct = {f"p{q}": float(v) for q, v in zip(qs, np.percentile(abs_err, qs))}
    return ReconstructionReport(
        n_signals=len(abs_err),
        mean_abs_error=float(abs_err.mean()),
        std_abs_error=float(abs_err.std(ddof=1)) if len(abs_err) > 1 else 0.0,
        percentiles=pct,
        histogram_counts=counts,
        histogram_edges=edges,
        mse=mse,
    )
