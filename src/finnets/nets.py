"""Minimal dense-network engine.

Plain feedforward networks trained with mini-batch gradient descent plus
momentum and early stopping — nothing more, because the imitating networks
are deliberately small and simple.

Networks train and infer in float32 (`DTYPE`), the dtype `.fin` stores,
so a saved and reloaded net is the trained one exactly. Arrays cross into
float32 once: the `DenseNet` constructor copies its parameters into a
float32 buffer, `fit` casts its training arrays once per run, and
`forward_stack` (under `forward`) and `DenseModel.loss_and_grads` cast
their inputs, a no-op for arrays already in float32. Losses come back as
Python floats. `finite_difference_check` runs on a float64 copy of the
model, rebuilt through the model's constructor on a float64 buffer,
because central differences need the precision.

Weights are stored (in, out), so a layer computes `a @ w + b` and its
weight gradient is `a.T @ delta`. A model's parameters are views of one
flat buffer (`DenseNet.buffer`, laid out [W0, b0, W1, b1, ...]), its
gradients are written in place into a buffer of the same layout, and
`fit` updates the whole model with one `sgd_update` call per step. The
update runs in blocks of `_BLOCK` entries that stay in cache across its
four passes, with the same per-element arithmetic as whole-buffer passes.

The loss is read from the last layer, never passed in: a softmax layer
trains on cross-entropy against one-hot targets (`softmax_ce`), any
elementwise layer on mean squared error (`mse`).

The training loop is generic over a small model protocol (`buffer`,
`parameters`, `loss_and_grads`, `eval_loss`, `copy`) so the per-channel
ensemble networks train through the same code path as plain dense
networks.
"""

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import DivergedError, ShapeError
from .rng import rng_for

ACTIVATIONS = ("relu", "tanh", "linear", "softmax")
DTYPE = np.float32


@dataclass(frozen=True)
class Topology:
    """Layer sizes (input first) and one activation tag per affine layer."""

    layer_sizes: tuple
    activations: tuple

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.layer_sizes)
        acts = tuple(self.activations)
        if len(sizes) < 2 or any(s < 1 for s in sizes):
            raise ValueError("need at least two positive layer sizes")
        if len(acts) != len(sizes) - 1:
            raise ValueError("need one activation per non-input layer")
        unknown = set(acts) - set(ACTIVATIONS)
        if unknown:
            raise ValueError(f"unknown activations: {sorted(unknown)}")
        if "softmax" in acts[:-1]:
            raise ValueError("softmax is only allowed on the final layer")
        object.__setattr__(self, "layer_sizes", sizes)
        object.__setattr__(self, "activations", acts)

    @property
    def input_dim(self) -> int:
        return self.layer_sizes[0]

    @property
    def output_dim(self) -> int:
        return self.layer_sizes[-1]


def count_params(topology: Topology) -> int:
    """Total number of weights and biases."""
    sizes = topology.layer_sizes
    return sum(o * i + o for i, o in zip(sizes[:-1], sizes[1:]))


def parameter_buffer(size: int, buffer=None) -> np.ndarray:
    """`buffer` if it is a flat array of `size` entries, a new `DTYPE`
    one if it is None."""
    if buffer is None:
        return np.empty(size, dtype=DTYPE)
    if buffer.shape != (size,):
        raise ShapeError(f"parameter buffer must have shape ({size},), got {buffer.shape}")
    return buffer


def flat_views(buffer: np.ndarray, shapes) -> list:
    """Consecutive C-order views of a flat buffer, one per shape."""
    views, cursor = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(buffer[cursor : cursor + size].reshape(shape))
        cursor += size
    return views


def layer_views(topology: Topology, buffer: np.ndarray):
    """(weights, biases) views of a flat array laid out like the buffer of
    a net of this topology, such as its gradient buffer or a loaded file."""
    sizes = topology.layer_sizes
    views = flat_views(buffer, [s for i, o in zip(sizes[:-1], sizes[1:]) for s in ((i, o), (o,))])
    return views[0::2], views[1::2]


@dataclass
class DenseNet:
    """A stack of affine layers; weights are (in, out), biases (out,).

    The constructor is the one float32 boundary: it copies the given
    weights and biases, cast to `DTYPE`, into one flat buffer laid out
    [W0, b0, W1, b1, ...], and `weights`/`biases` are views of it. With
    `buffer` given, the parameters are copied into that flat array
    instead, in its dtype: an ensemble places its branches in its own
    buffer that way, and gradcheck builds its float64 copy. A layer count,
    parameter shape or `buffer` shape that does not fit `topology` is a
    `ShapeError`, and a parameter that is not finite a `ValueError`.
    """

    topology: Topology
    weights: list
    biases: list
    buffer: np.ndarray = field(default=None, kw_only=True, repr=False)

    def __post_init__(self):
        sizes = self.topology.layer_sizes
        if len(self.weights) != len(sizes) - 1 or len(self.biases) != len(sizes) - 1:
            raise ShapeError("layer count mismatch")
        given = self.parameters()
        self.buffer = parameter_buffer(count_params(self.topology), self.buffer)
        self.weights, self.biases = layer_views(self.topology, self.buffer)
        for k, (view, array) in enumerate(zip(self.parameters(), given)):
            array = np.asarray(array)
            if array.shape != view.shape:
                raise ShapeError(f"layer {k // 2} parameter shape mismatch")
            view[...] = array
            if not np.all(np.isfinite(view)):
                raise ValueError(f"layer {k // 2} parameters must be finite")

    def parameters(self) -> list:
        """Live parameter arrays, interleaved [W0, b0, W1, b1, ...]."""
        out = []
        for w, b in zip(self.weights, self.biases):
            out.extend((w, b))
        return out

    def copy(self, buffer=None) -> "DenseNet":
        """An independent copy, in `buffer` if one is given."""
        return DenseNet(self.topology, self.weights, self.biases, buffer=buffer)

    def __deepcopy__(self, memo) -> "DenseNet":
        # copying field by field would leave the weights and biases
        # separate arrays, no longer views of the copy's buffer
        return self.copy(np.empty_like(self.buffer))


def glorot_uniform(rng: np.random.Generator, out_dim: int, in_dim: int) -> np.ndarray:
    """An (out_dim, in_dim) Glorot-uniform draw; transpose it for a layer."""
    limit = np.sqrt(6.0 / (in_dim + out_dim))
    return rng.uniform(-limit, limit, size=(out_dim, in_dim))


def init_random(topology: Topology, seed: int) -> DenseNet:
    """Glorot-uniform weights, zero biases, deterministic in the seed.

    Each layer draws (out, in) and is transposed, so a seed gives the same
    values whatever the storage layout.
    """
    rng = rng_for(seed, "init")
    sizes = topology.layer_sizes
    weights = [
        glorot_uniform(rng, sizes[i + 1], sizes[i]).T for i in range(len(sizes) - 1)
    ]
    biases = [np.zeros(sizes[i + 1]) for i in range(len(sizes) - 1)]
    return DenseNet(topology, weights, biases)


def _softmax(z: np.ndarray) -> np.ndarray:
    """Row softmax, normalised in float64 and rounded once to z's dtype,
    so a probability does not carry float32 exp and division errors."""
    z64 = z.astype(np.float64)
    e = np.exp(z64 - z64.max(axis=-1, keepdims=True))
    return (e / e.sum(axis=-1, keepdims=True)).astype(z.dtype)


def _apply_activation(tag: str, z: np.ndarray) -> np.ndarray:
    if tag == "relu":
        return np.maximum(z, 0.0)
    if tag == "tanh":
        return np.tanh(z)
    if tag == "linear":
        return z
    if tag == "softmax":
        return _softmax(z)
    raise ValueError(f"unknown activation {tag!r}")


def _activation_delta(tag: str, z: np.ndarray, a: np.ndarray, upstream: np.ndarray):
    """Gradient through an activation, given pre-activation z and output a."""
    if tag == "relu":
        return upstream * (z > 0.0)
    if tag == "tanh":
        return upstream * (1.0 - a * a)
    if tag == "linear":
        return upstream
    raise ValueError(f"cannot backprop elementwise through {tag!r}")


def forward_stack(weights, biases, activations, batch: np.ndarray):
    """Forward pass through a raw layer stack; returns (pre, post) caches.

    `post[0]` is the input batch, `post[-1]` the output; `pre[k]` is the
    pre-activation feeding layer k's activation. The layers compute in the
    parameters' dtype whatever the batch's dtype.
    """
    pre, post = [], [batch]
    a = np.asarray(batch, dtype=weights[0].dtype)
    for w, b, tag in zip(weights, biases, activations):
        z = a @ w
        z += b
        a = _apply_activation(tag, z)
        pre.append(z)
        post.append(a)
    return pre, post


def backward_stack(weights, activations, pre, post, delta, grads_w, grads_b):
    """Gradients for a raw layer stack, written in place.

    `delta` is the loss gradient at the final pre-activation. Layer k's
    gradients go into `grads_w[k]` and `grads_b[k]`, arrays shaped like
    its weights and bias (in training, views of a gradient buffer).
    """
    for layer in range(len(weights) - 1, -1, -1):
        np.matmul(post[layer].T, delta, out=grads_w[layer])
        np.sum(delta, axis=0, out=grads_b[layer])
        if layer > 0:
            upstream = delta @ weights[layer].T
            delta = _activation_delta(
                activations[layer - 1], pre[layer - 1], post[layer], upstream
            )


def _check_batch(net: DenseNet, batch: np.ndarray):
    if batch.ndim != 2 or batch.shape[1] != net.topology.input_dim:
        raise ShapeError(
            f"input dim {batch.shape[-1]} != network input {net.topology.input_dim}"
        )


def forward(net: DenseNet, x: np.ndarray) -> np.ndarray:
    """Run the network on a vector or a batch; returns its output."""
    x = np.asarray(x)
    single = x.ndim == 1
    batch = x[None, :] if single else x
    _check_batch(net, batch)
    _, post = forward_stack(net.weights, net.biases, net.topology.activations, batch)
    return post[-1][0] if single else post[-1]


def loss_value(loss: str, output: np.ndarray, targets: np.ndarray) -> float:
    """Mean batch loss. For softmax_ce, `output` must be the logits."""
    if loss == "mse":
        # overflow to inf is fine here: it is how divergence gets detected
        with np.errstate(over="ignore"):
            diff = output - targets
            return float(np.mean(diff * diff))
    if loss == "softmax_ce":
        logits = output
        shifted = logits - logits.max(axis=1, keepdims=True)
        log_z = np.log(np.exp(shifted).sum(axis=1))
        log_p = (shifted * targets).sum(axis=1) - log_z
        return float(-log_p.mean())
    raise ValueError(f"unknown loss {loss!r}")


def _loss_for(topology: Topology) -> str:
    """The loss a net trains on: softmax_ce after a softmax, else mse."""
    return "softmax_ce" if topology.activations[-1] == "softmax" else "mse"


# Entries per block of `sgd_update`: a block of the parameter, gradient
# and velocity buffers (768 KB in float32) stays in L2 across its four passes.
_BLOCK = 1 << 16


def sgd_update(params: np.ndarray, grad: np.ndarray, velocity: np.ndarray,
               lr: float, momentum: float):
    """In-place momentum step: v <- momentum*v - lr*g; p <- p + v.

    Takes three 1-D arrays of one length. `fit` passes the model's whole
    parameter, gradient and velocity buffers, so this runs once per model
    per step. The gradient is consumed: it is scaled by `lr` in place.
    The four passes run block by block over `_BLOCK` entries at a time,
    so each block is read from memory once; every entry gets the same
    float operations as in four whole-buffer passes.
    """
    if params.ndim != 1:
        raise ShapeError(f"sgd_update takes 1-D buffers, got shape {params.shape}")
    for start in range(0, params.size, _BLOCK):
        block = slice(start, start + _BLOCK)
        g, v = grad[block], velocity[block]
        g *= lr
        v *= momentum
        v -= g
        params[block] += v


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.01
    momentum: float = 0.9
    batch_size: int = 64
    max_epochs: int = 60
    patience: int = 8
    seed: int = 0

    def __post_init__(self):
        if not (0 < self.learning_rate < math.inf):
            raise ValueError("learning_rate must be positive and finite")
        if not (0.0 <= self.momentum < 1.0):
            raise ValueError("momentum must lie in [0, 1)")
        if self.batch_size < 1 or self.max_epochs < 1 or self.patience < 1:
            raise ValueError("batch_size, max_epochs, patience must be positive")
        if self.patience > self.max_epochs:
            raise ValueError("patience must not exceed max_epochs")


@dataclass
class TrainHistory:
    """Per-epoch record of a training run; epochs are 1-based."""

    train_losses: list = field(default_factory=list)
    val_losses: list = field(default_factory=list)
    wall_seconds: list = field(default_factory=list)
    best_epoch: int = 0
    stopped_epoch: int = 0

    @property
    def best_val_loss(self) -> float:
        return self.val_losses[self.best_epoch - 1]


class DenseModel:
    """Adapter exposing a DenseNet to the generic training loop."""

    def __init__(self, net: DenseNet):
        self.net = net
        self.loss = _loss_for(net.topology)

    @property
    def buffer(self) -> np.ndarray:
        return self.net.buffer

    def parameters(self) -> list:
        return self.net.parameters()

    def copy(self, buffer=None) -> "DenseModel":
        return DenseModel(self.net.copy(buffer))

    def loss_and_grads(self, inputs, targets, grad=None):
        """Analytic gradients of the mean batch loss the final layer implies.

        Returns (loss, gradient buffer). The gradients are written into
        `grad`, a flat buffer laid out like `buffer` (a new one when None).
        softmax_ce takes one-hot targets.
        """
        net = self.net
        dtype = net.weights[0].dtype
        inputs = np.atleast_2d(np.asarray(inputs, dtype=dtype))
        targets = np.atleast_2d(np.asarray(targets, dtype=dtype))
        if targets.shape[0] != inputs.shape[0]:
            raise ShapeError("batch size mismatch between inputs and targets")
        if targets.shape[1] != net.topology.output_dim:
            raise ShapeError("target dim does not match network output")
        _check_batch(net, inputs)
        acts = net.topology.activations
        pre, post = forward_stack(net.weights, net.biases, acts, inputs)
        output = post[-1]
        if self.loss == "softmax_ce":
            value = loss_value(self.loss, pre[-1], targets)
            delta = (output - targets) / inputs.shape[0]  # gradient at the logits
        else:
            value = loss_value(self.loss, output, targets)
            upstream = 2.0 * (output - targets) / output.size
            delta = _activation_delta(acts[-1], pre[-1], output, upstream)
        if grad is None:
            grad = np.empty_like(net.buffer)
        grads_w, grads_b = layer_views(net.topology, grad)
        backward_stack(net.weights, acts, pre, post, delta, grads_w, grads_b)
        return value, grad

    def eval_loss(self, inputs, targets) -> float:
        if self.loss == "softmax_ce":
            logits = _forward_logits(self.net, inputs)
            return loss_value("softmax_ce", logits, targets)
        return loss_value("mse", forward(self.net, inputs), targets)


def _forward_logits(net: DenseNet, x: np.ndarray) -> np.ndarray:
    """Forward pass stopping before a final softmax."""
    a = np.atleast_2d(np.asarray(x, dtype=net.weights[0].dtype))
    for w, b, tag in zip(net.weights, net.biases, net.topology.activations):
        z = a @ w + b
        a = z if tag == "softmax" else _apply_activation(tag, z)
    return a


def fit(model, train_xy, val_xy, cfg: TrainConfig) -> TrainHistory:
    """Generic mini-batch training loop with early stopping.

    Shuffles with a per-epoch stream derived from (cfg.seed, epoch),
    tracks validation loss after every epoch, and restores the parameters
    of the best validation epoch before returning. Raises `DivergedError`
    on a non-finite training or validation loss, and `ValueError` on an
    empty training or validation set.

    Inputs and training targets are cast once to the parameters' dtype.
    Validation targets are kept as given, so the validation loss is
    measured against them exactly. Each step writes the gradients into
    one buffer and updates the model's whole parameter buffer at once.
    """
    params = model.buffer
    dtype = params.dtype
    train_x, train_t = (np.asarray(a, dtype=dtype) for a in train_xy)
    val_x, val_t = np.asarray(val_xy[0], dtype=dtype), val_xy[1]
    n = len(train_x)
    if n == 0 or len(val_x) == 0:
        raise ValueError("training and validation sets must be non-empty")

    grad = np.empty_like(params)
    velocity = np.zeros_like(params)
    best_params = np.empty_like(params)
    history = TrainHistory()
    best_val = np.inf
    bad_epochs = 0

    for epoch in range(1, cfg.max_epochs + 1):
        t0 = time.perf_counter()
        order = rng_for(cfg.seed, "shuffle", epoch).permutation(n)
        total, seen = 0.0, 0
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            value, _ = model.loss_and_grads(train_x[idx], train_t[idx], grad)
            if not np.isfinite(value):
                raise DivergedError(epoch)
            sgd_update(params, grad, velocity, cfg.learning_rate, cfg.momentum)
            total += value * idx.size
            seen += idx.size
        train_loss = total / seen
        val_loss = model.eval_loss(val_x, val_t)
        if not np.isfinite(val_loss):
            raise DivergedError(epoch)

        history.train_losses.append(train_loss)
        history.val_losses.append(float(val_loss))
        history.wall_seconds.append(time.perf_counter() - t0)
        history.stopped_epoch = epoch

        if val_loss < best_val:
            best_val = val_loss
            history.best_epoch = epoch
            best_params[...] = params
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= cfg.patience:
                break

    params[...] = best_params
    return history


def one_hot(labels: np.ndarray, n_classes: int) -> np.ndarray:
    labels = np.asarray(labels)
    out = np.zeros((labels.size, n_classes))
    out[np.arange(labels.size), labels] = 1.0
    return out


# ---------------------------------------------------------------------------
# Finite-difference verification
# ---------------------------------------------------------------------------

# Central-difference step of the gradient check, taken on a float64 copy.
GRADCHECK_STEP = 1e-5


def finite_difference_check(
    model,
    inputs: np.ndarray,
    targets: np.ndarray,
    corrupt: bool = False,
) -> float:
    """Max relative error between backprop and central finite differences
    of step `GRADCHECK_STEP`.

    `model` follows the training protocol (`buffer`, `parameters`,
    `loss_and_grads`, `eval_loss`, `copy`), so dense and ensemble networks
    are checked alike. The check runs on a float64 copy of `model`, which
    is left untouched. With `corrupt` set, the largest entry of the first
    parameter's analytic gradient is perturbed before comparison; this
    negative control must make the check fail.
    """
    model = model.copy(np.empty(model.buffer.size, dtype=np.float64))
    _, analytic = model.loss_and_grads(inputs, targets)
    if corrupt:
        first = analytic[: model.parameters()[0].size]
        i = np.argmax(np.abs(first))
        first[i] = first[i] * 1.5 + 1e-2

    params = model.buffer
    h = GRADCHECK_STEP
    max_rel = 0.0
    for i in range(params.size):
        orig = params[i]
        params[i] = orig + h
        up = model.eval_loss(inputs, targets)
        params[i] = orig - h
        down = model.eval_loss(inputs, targets)
        params[i] = orig
        numeric = (up - down) / (2.0 * h)
        rel = abs(analytic[i] - numeric) / max(abs(analytic[i]), abs(numeric), 1e-8)
        max_rel = max(max_rel, rel)
    return max_rel


def _gradcheck_case(rng: np.random.Generator):
    """One random small net and batch, relu pre-activations kept off zero."""
    depth = int(rng.integers(2, 5))
    sizes = [int(rng.integers(3, 9)) for _ in range(depth + 1)]
    use_ce = bool(rng.random() < 0.5)
    hidden = [str(rng.choice(["relu", "tanh", "linear"])) for _ in range(depth - 1)]
    final = "softmax" if use_ce else str(rng.choice(["tanh", "linear"]))
    topo = Topology(tuple(sizes), tuple(hidden + [final]))
    net = init_random(topo, int(rng.integers(0, 2 ** 31)))
    batch = int(rng.integers(3, 7))
    for _ in range(50):
        inputs = rng.standard_normal((batch, sizes[0]))
        pre, _ = forward_stack(net.weights, net.biases, topo.activations, inputs)
        margins = [
            np.abs(z).min()
            for z, tag in zip(pre, topo.activations)
            if tag == "relu"
        ]
        if not margins or min(margins) > 1e-3:
            break
    if use_ce:
        targets = one_hot(rng.integers(0, sizes[-1], size=batch), sizes[-1])
    else:
        targets = rng.standard_normal((batch, sizes[-1]))
    return net, inputs, targets


def gradcheck_suite(n_nets: int = 20, seed: int = 2024) -> float:
    """Finite-difference sweep over random nets; returns the max rel error."""
    rng = rng_for(seed, "gradcheck")
    worst = 0.0
    for _ in range(n_nets):
        net, inputs, targets = _gradcheck_case(rng)
        worst = max(worst, finite_difference_check(DenseModel(net), inputs, targets))
    return worst
