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

import contextlib
import hashlib
import json
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from . import features as fe
from . import nets
from . import signals as sg
from .errors import (
    CorpusDegenerateError,
    CorruptArtifact,
    DegenerateSignal,
    FeatureError,
    ShapeError,
    UnsupportedVersion,
)
from .nets import DenseNet, Topology, TrainConfig
from .rng import derive_seed, rng_for

FORMAT_VERSION = 3
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
    sha256: str = None  # the digest recorded in the file it was loaded from

    def __post_init__(self):
        fe.feature_width(self.feature)
        lo = np.asarray(self.norm_lo, dtype=np.float64)
        hi = np.asarray(self.norm_hi, dtype=np.float64)
        out = self.net.topology.output_dim
        if lo.shape != (out,) or hi.shape != (out,):
            raise ShapeError("normalization vectors must match the output dim")
        if not np.all(hi > lo):
            raise ValueError("norm_hi must exceed norm_lo elementwise")
        digest = self.gen_spec_digest
        if not (isinstance(digest, str) and len(digest) == 64
                and all(c in "0123456789abcdef" for c in digest)):
            raise ValueError("gen_spec_digest must be a 64-char hex string")
        object.__setattr__(self, "norm_lo", lo)
        object.__setattr__(self, "norm_hi", hi)


def split_indices(seed: int, n: int):
    """Deterministic train/validation index split of range(n); validation
    takes `VAL_FRACTION` of it."""
    perm = rng_for(seed, "pretrain-split").permutation(n)
    n_val = int(round(VAL_FRACTION * n))  # below n for every n >= 1
    if n_val < 1:
        raise ValueError("corpus too small to split")
    return perm[n_val:], perm[:n_val]


# One-entry memo of the last corpus's samples, keyed on (recipe digest,
# n_signals): corpus_inputs and every corpus_targets call on one corpus
# share a single generation pass. It holds length x 8 bytes per signal
# (82 MB for the default 20k corpus).
_last_corpus = (None, None)


def corpus_samples(gen: sg.GenSpec, n_signals: int) -> np.ndarray:
    """Samples of corpus indices 0..n_signals-1 as a read-only
    (n_signals, length) array, generated once per corpus."""
    global _last_corpus
    key = (sg.gen_spec_digest(gen), n_signals)
    memo_key, samples = _last_corpus
    if memo_key == key:
        return samples
    samples = sg.generate_rows(gen, range(n_signals))
    samples.setflags(write=False)
    _last_corpus = (key, samples)
    return samples


def corpus_inputs(gen: sg.GenSpec, n_signals: int) -> np.ndarray:
    """Flattened scalograms for corpus indices 0..n_signals-1.

    This is the expensive half of corpus construction and is independent
    of the imitated feature, so it can be computed once and shared.
    """
    mags = sg.scalograms(corpus_samples(gen, n_signals), gen.sample_rate)
    return mags.reshape(n_signals, sg.DEFAULT_N_SCALES * sg.DEFAULT_N_FRAMES)


def corpus_targets(feature: str, gen: sg.GenSpec, n_signals: int) -> np.ndarray:
    """Raw (unnormalized) oracle values for corpus indices 0..n_signals-1."""
    return fe.compute_features(corpus_samples(gen, n_signals), gen.sample_rate, feature)


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
    corpus=None,
) -> FinArtifact:
    """Train a fresh feature regressor on a synthetic corpus.

    The corpus is split 85/15 into train/validation, targets are scaled
    into [0,1] with a percentile range fitted on the training portion, and
    the returned artifact carries the best-validation-epoch parameters.
    `corpus` may carry a precomputed (inputs, raw_targets) pair for the
    same `gen` (from the corpus_* helpers), overriding `n_signals`. A
    `topology` whose end sizes do not fit the corpus inputs and the
    feature width is the `ShapeError` of the first training step.
    """
    width = fe.feature_width(feature)
    if corpus is not None:
        inputs, raw_targets = corpus
        if inputs.shape[0] != raw_targets.shape[0]:
            raise ShapeError("corpus inputs and targets disagree on size")
        if raw_targets.shape[1] != width:
            raise ShapeError("corpus targets do not match the feature width")
        n_signals = inputs.shape[0]
    else:
        inputs = corpus_inputs(gen, n_signals)
        raw_targets = corpus_targets(feature, gen, n_signals)
    if topology is None:
        topology = default_fin_topology(inputs.shape[1], width)

    train_idx, val_idx = split_indices(cfg.seed, n_signals)
    lo, hi = normalization_range(raw_targets[train_idx])
    targets = fe.normalize_feature(raw_targets, lo, hi)

    net = nets.init_random(topology, derive_seed(cfg.seed, "pretrain-init"))
    rows = np.asarray(inputs, dtype=nets.DTYPE)
    train_xy = (rows[train_idx], targets[train_idx])
    val_xy = (rows[val_idx], targets[val_idx])
    del rows, inputs  # the float32 corpus copy is not needed during training
    history = nets.fit(nets.DenseModel(net), train_xy, val_xy, cfg)
    return FinArtifact(
        feature=feature,
        net=net,
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


def _finite_number(text: str) -> float:
    """`json`'s hook for NaN, Infinity, -Infinity and numbers with a
    fraction or exponent: it refuses any that is not finite, such as 1e400."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text}")
    return value


def _read_json(text):
    """The document in JSON `text`; a non-finite number is a `ValueError`."""
    return json.loads(text, parse_constant=_finite_number, parse_float=_finite_number)


def _fin_digest(header: dict, payload: bytes) -> str:
    """SHA-256 of the canonical header (without `sha256`), then the payload."""
    return hashlib.sha256(_canonical_json(header).encode("ascii") + payload).hexdigest()


@contextlib.contextmanager
def _replacing(path):
    """Binary file for writing, opened at a temporary path beside `path`
    that replaces `path` when the block ends. A failed write or move
    removes the temporary and leaves any earlier file at `path` as it was."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):  # the write or the move failed
            os.remove(tmp)


def _fin_header(fields) -> dict:
    """The `.fin` header document without `sha256`, from `fields`, which
    maps its top-level names to values (`topology` a `Topology`): the one
    statement of the header's fields and of the JSON type of each."""
    return {
        "format_version": FORMAT_VERSION,
        "feature": fields["feature"],
        "topology": {
            "layer_sizes": list(fields["topology"].layer_sizes),
            "activations": list(fields["topology"].activations),
        },
        "norm_lo": [float(v) for v in fields["norm_lo"]],
        "norm_hi": [float(v) for v in fields["norm_hi"]],
        "gen_spec_digest": fields["gen_spec_digest"],
        "oracle_digest": fe.oracle_digest(fields["feature"]),
        "history_summary": {
            "best_val_loss": float(fields["history_summary"]["best_val_loss"]),
            "epochs": int(fields["history_summary"]["epochs"]),
        },
    }


def save_fin(artifact: FinArtifact, path) -> None:
    """Write format v3: the canonical JSON header line, then the net's
    parameter buffer as little-endian float32 in memory order, through
    `_replacing`, so a failed write leaves any earlier file at `path` intact."""
    header = _fin_header({**vars(artifact), "topology": artifact.net.topology})
    payload = artifact.net.buffer.astype("<f4", copy=False).tobytes()
    header["sha256"] = _fin_digest(header, payload)
    with _replacing(path) as fh:
        fh.write(_canonical_json(header).encode("ascii"))
        fh.write(payload)


def _differing_field(built: dict, found: dict, prefix=""):
    """Dotted name of the first key, in sorted order, that only one of
    `built` and `found` holds, or that they hold with another value or
    JSON type; None if there is none."""
    for key in sorted(built.keys() | found.keys()):
        mine, theirs = built.get(key), found.get(key)
        if isinstance(mine, dict) and isinstance(theirs, dict):
            if name := _differing_field(mine, theirs, f"{prefix}{key}."):
                return name
        elif key not in built or key not in found or json.dumps(mine) != json.dumps(theirs):
            return prefix + key
    return None


def load_fin(path) -> FinArtifact:
    """Read a `.fin` file, which loads only as `save_fin` writes it: past
    the version and digest checks, line 1 must be the canonical JSON of
    the header that `_fin_header` rebuilds from the parsed fields, so
    every field has the value and JSON type `save_fin` gives it, and
    `oracle_digest` is the running oracle's. Then the payload size and the
    artifact's own value checks apply."""
    with open(path, "rb") as fh:
        line = fh.readline()
        payload = fh.read()
    try:
        doc = _read_json(line)
    except ValueError as exc:
        raise CorruptArtifact(f"unparseable artifact header: {exc}") from exc
    if not isinstance(doc, dict):
        raise CorruptArtifact("artifact header must be an object")
    version = doc.get("format_version")
    if version is not None and type(version) is not int:  # true and 1.0 are not 1
        raise CorruptArtifact(f"format_version has the wrong JSON type: {version!r}")
    if version != FORMAT_VERSION:
        raise UnsupportedVersion(f"format_version {version!r} is not supported;"
                                 f" re-run `fin pretrain` to write version {FORMAT_VERSION}")
    sha256 = doc.pop("sha256", None)
    if sha256 != _fin_digest(doc, payload):
        raise CorruptArtifact("sha256 is missing or does not match the header and payload")
    try:
        topology = Topology(doc["topology"]["layer_sizes"], doc["topology"]["activations"])
        header = _fin_header({**doc, "topology": topology})
    except (KeyError, TypeError, ValueError) as exc:
        raise CorruptArtifact(f"malformed artifact field: {exc}") from exc
    if doc.get("oracle_digest") != header["oracle_digest"]:
        raise CorruptArtifact(f"oracle_digest {doc.get('oracle_digest')!r} is not the digest of"
                              f" this version's {header['feature']} oracle,"
                              f" {header['oracle_digest']}; re-run `fin pretrain`")
    if line != _canonical_json({**header, "sha256": sha256}).encode("ascii"):
        name = _differing_field(header, doc)
        raise CorruptArtifact(f"header field {name} is unknown or of the wrong JSON type" if name
                              else "the header line is not the canonical JSON of its document")

    expected = 4 * nets.count_params(topology)
    if len(payload) != expected:
        raise CorruptArtifact(f"weight payload holds {len(payload)} bytes, expected {expected}")
    weights, biases = nets.layer_views(topology, np.frombuffer(payload, dtype="<f4"))
    try:
        return FinArtifact(header["feature"], DenseNet(topology, weights, biases),
                           header["norm_lo"], header["norm_hi"], header["gen_spec_digest"],
                           header["history_summary"], sha256)
    except (ShapeError, ValueError) as exc:
        raise CorruptArtifact(str(exc)) from exc


# ---------------------------------------------------------------------------
# Transfer
# ---------------------------------------------------------------------------

def attach_head(artifact: FinArtifact, n_classes: int, seed: int) -> DenseNet:
    """Swap the regression layer for a fresh softmax classification head.

    Retained layers are bit-identical copies of the artifact's (the
    constructor copies them); only the new head depends on the seed.
    """
    if n_classes < 2:
        raise ValueError("need at least two classes")
    body = artifact.net
    if len(body.weights) < 2:
        raise ShapeError("artifact net must have at least two layers")
    sizes = body.topology.layer_sizes[:-1] + (n_classes,)
    acts = body.topology.activations[:-1] + ("softmax",)
    rng = rng_for(seed, "head")
    head_w = nets.glorot_uniform(rng, n_classes, sizes[-2]).T
    weights = body.weights[:-1] + [head_w]
    biases = body.biases[:-1] + [np.zeros(n_classes)]
    return DenseNet(Topology(sizes, acts), weights, biases)


@dataclass
class EnsembleNet:
    """Per-channel feature branches feeding one softmax head.

    Input shape is (batch, n_channels, tf_dim). Every branch runs on every
    channel; branch outputs are concatenated branch-major then
    channel-major, and the head maps that vector to class probabilities.
    Branches share weights across channels, so fine-tuning accumulates
    their gradients over all channels.

    Like `DenseNet`, the constructor copies every parameter into one flat
    buffer (`nets.DTYPE` unless `buffer` is given): each branch in turn,
    then the head weights and bias. The branches are `DenseNet`s over
    their blocks of it. The head keeps the (class_count, width) shape it
    is built with: its products are only class_count wide, so its layout
    does not set the step's speed.
    """

    branches: list
    n_channels: int
    head_w: np.ndarray
    head_b: np.ndarray
    buffer: np.ndarray = field(default=None, kw_only=True, repr=False)

    def __post_init__(self):
        head_w, head_b = np.asarray(self.head_w), np.asarray(self.head_b)
        if not self.branches:
            raise ValueError("ensemble needs at least one branch")
        if self.n_channels < 1:
            raise ValueError("n_channels must be positive")
        in_dims = {b.topology.input_dim for b in self.branches}
        if len(in_dims) != 1:
            raise ShapeError("branch input dims must all agree")
        width = self.head_input_dim
        if head_b.ndim != 1 or head_w.shape != (head_b.size, width):
            raise ShapeError(f"head expects input dim {width} and a bias vector,"
                             f" got {head_w.shape} and {head_b.shape}")
        size = sum(b.buffer.size for b in self.branches) + head_w.size + head_b.size
        self.buffer = nets.parameter_buffer(size, self.buffer)
        *blocks, self.head_w, self.head_b = self._layout(self.buffer)
        self.branches = [b.copy(block) for b, block in zip(self.branches, blocks)]
        self.head_w[...] = head_w
        self.head_b[...] = head_b

    def _layout(self, buffer: np.ndarray) -> list:
        """Views of a flat buffer laid out like `self.buffer`: one block
        per branch, then the head weights and bias."""
        shapes = [(b.buffer.size,) for b in self.branches]
        shapes += [(self.class_count, self.head_input_dim), (self.class_count,)]
        return nets.flat_views(buffer, shapes)

    @property
    def class_count(self) -> int:
        return len(self.head_b)

    @property
    def input_dim(self) -> int:
        return self.branches[0].topology.input_dim

    @property
    def head_input_dim(self) -> int:
        return self.n_channels * sum(b.topology.output_dim for b in self.branches)

    def parameters(self) -> list:
        out = []
        for branch in self.branches:
            out.extend(branch.parameters())
        out.extend((self.head_w, self.head_b))
        return out

    def copy(self, buffer=None) -> "EnsembleNet":
        """An independent copy, in `buffer` if one is given."""
        return replace(self, buffer=buffer)

    def __deepcopy__(self, memo) -> "EnsembleNet":
        # as for DenseNet: the copy's parameters must view its own buffer
        return self.copy(np.empty_like(self.buffer))

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

    def loss_and_grads(self, x: np.ndarray, targets: np.ndarray, grad=None):
        """(loss, gradient buffer); the gradients are written into `grad`,
        laid out like `self.buffer` (a new one when None)."""
        x = self._check_input(x)
        targets = np.atleast_2d(np.asarray(targets, dtype=self.head_w.dtype))
        batch = x.shape[0]
        if grad is None:
            grad = np.empty_like(self.buffer)
        *grad_blocks, grad_head_w, grad_head_b = self._layout(grad)
        concat, caches = self._forward_cached(x)
        logits = concat @ self.head_w.T + self.head_b
        value = nets.loss_value("softmax_ce", logits, targets)
        delta = (nets._softmax(logits) - targets) / batch

        d_concat = delta @ self.head_w
        offset = 0
        for branch, grad_block, (pre, post) in zip(self.branches, grad_blocks, caches):
            width = branch.topology.output_dim
            block = d_concat[:, offset : offset + self.n_channels * width]
            offset += self.n_channels * width
            d_out = block.reshape(batch * self.n_channels, width)
            acts = branch.topology.activations
            d_final = nets._activation_delta(acts[-1], pre[-1], post[-1], d_out)
            grads_w, grads_b = nets.layer_views(branch.topology, grad_block)
            nets.backward_stack(branch.weights, acts, pre, post, d_final, grads_w, grads_b)
        np.matmul(delta.T, concat, out=grad_head_w)
        np.sum(delta, axis=0, out=grad_head_b)
        return value, grad

    def eval_loss(self, x: np.ndarray, targets: np.ndarray) -> float:
        return nets.loss_value("softmax_ce", self.logits(x), targets)


def build_ensemble(
    artifacts: list, n_channels: int, n_classes: int, seed: int
) -> EnsembleNet:
    """Compose trained feature regressors into a multi-channel classifier.

    Branch weights are bit-exact copies; only the softmax head is freshly
    initialized from the seed.
    """
    if n_classes < 2:
        raise ValueError("need at least two classes")
    head_in = n_channels * sum(a.net.topology.output_dim for a in artifacts)
    head_w = nets.glorot_uniform(rng_for(seed, "ensemble-head"), n_classes, head_in)
    return EnsembleNet([a.net for a in artifacts], n_channels, head_w, np.zeros(n_classes))


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
        model = nets.DenseModel(net.copy())
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
    histogram_counts: np.ndarray
    histogram_edges: np.ndarray
    mse: float


def reconstruction_report(artifact: FinArtifact, test_signals) -> ReconstructionReport:
    """Compare network outputs against the oracle on fresh signals.

    The signals must share one length and sample rate (a `ValueError`
    names the first that does not), so one oracle call and one scalogram
    call cover them all. A signal the oracle cannot take is a
    `FeatureError` naming it.

    Absolute errors compare clipped predictions with normalized targets,
    so every error lies in [0,1]. The `mse` field uses unclipped outputs
    and therefore matches training-time validation loss when evaluated on
    the pretraining validation corpus.
    """
    signals = list(test_signals)
    if not signals:
        raise ValueError("reconstruction report needs at least one signal")
    fs = signals[0].sample_rate
    for i, signal in enumerate(signals):
        if (len(signal), signal.sample_rate) != (len(signals[0]), fs):
            raise ValueError(f"signal {i} differs in length or sample rate from signal 0")
    samples = np.stack([signal.samples for signal in signals])
    try:
        raw = fe.compute_features(samples, fs, artifact.feature)
    except DegenerateSignal as exc:
        raise FeatureError(artifact.feature, f"signal {exc.row}: {exc.reason}") from exc
    except ValueError as exc:
        raise FeatureError(artifact.feature, exc) from exc
    inputs = sg.scalograms(samples, fs).reshape(len(signals), -1)
    targets = fe.normalize_feature(raw, artifact.norm_lo, artifact.norm_hi)
    preds = nets.forward(artifact.net, inputs)

    mse = float(np.mean((preds - targets) ** 2))
    abs_err = np.abs(np.clip(preds, 0.0, 1.0) - targets).mean(axis=1)
    counts, edges = np.histogram(abs_err, bins=50, range=(0.0, 1.0))
    return ReconstructionReport(
        n_signals=len(abs_err),
        mean_abs_error=float(abs_err.mean()),
        histogram_counts=counts,
        histogram_edges=edges,
        mse=mse,
    )
