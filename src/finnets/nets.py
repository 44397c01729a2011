"""Minimal dense-network engine.

Plain feedforward networks trained with mini-batch gradient descent plus
momentum and early stopping — nothing more, because the imitating networks
are deliberately small and simple.

Networks train and infer in float32 (`DTYPE`), the dtype `.fin` stores,
so a saved and reloaded net is the trained one exactly. Arrays cross into
float32 once: `DenseNet` casts its parameters on construction, `fit`
casts its training arrays once per run, and `forward_stack` (under
`forward`) and `backprop` cast their inputs, a no-op for arrays already
in float32. Losses come back as Python floats. `finite_difference_check`
runs on a float64 copy of the model, because central differences need
the precision.

The loss is read from the last layer, never passed in: a softmax layer
trains on cross-entropy against one-hot targets (`softmax_ce`), any
elementwise layer on mean squared error (`mse`).

The training loop is generic over a small model protocol (`parameters`,
`loss_and_grads`, `eval_loss`) so the per-channel ensemble networks train
through the same code path as plain dense networks.
"""

import copy
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


@dataclass
class DenseNet:
    """A stack of affine layers; weights are (out, in), biases (out,).

    Parameters are stored as `DTYPE`; arrays of another dtype are cast.
    """

    topology: Topology
    weights: list
    biases: list

    def __post_init__(self):
        self.weights = [np.asarray(w, dtype=DTYPE) for w in self.weights]
        self.biases = [np.asarray(b, dtype=DTYPE) for b in self.biases]
        sizes = self.topology.layer_sizes
        if len(self.weights) != len(sizes) - 1 or len(self.biases) != len(sizes) - 1:
            raise ShapeError("layer count mismatch")
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.shape != (sizes[i + 1], sizes[i]) or b.shape != (sizes[i + 1],):
                raise ShapeError(f"layer {i} parameter shape mismatch")
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise ValueError(f"layer {i} parameters must be finite")

    def parameters(self) -> list:
        """Live parameter arrays, interleaved [W0, b0, W1, b1, ...]."""
        out = []
        for w, b in zip(self.weights, self.biases):
            out.extend((w, b))
        return out

    def copy(self) -> "DenseNet":
        return DenseNet(
            self.topology,
            [w.copy() for w in self.weights],
            [b.copy() for b in self.biases],
        )


def glorot_uniform(rng: np.random.Generator, out_dim: int, in_dim: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (in_dim + out_dim))
    return rng.uniform(-limit, limit, size=(out_dim, in_dim))


def init_random(topology: Topology, seed: int) -> DenseNet:
    """Glorot-uniform weights, zero biases, deterministic in the seed."""
    rng = rng_for(seed, "init")
    sizes = topology.layer_sizes
    weights = [
        glorot_uniform(rng, sizes[i + 1], sizes[i]) for i in range(len(sizes) - 1)
    ]
    biases = [np.zeros(sizes[i + 1]) for i in range(len(sizes) - 1)]
    return DenseNet(topology, weights, biases)


def _softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


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
        z = a @ w.T + b
        a = _apply_activation(tag, z)
        pre.append(z)
        post.append(a)
    return pre, post


def backward_stack(weights, activations, pre, post, delta):
    """Gradients for a raw layer stack.

    `delta` is the loss gradient at the final pre-activation. Returns
    (grads_w, grads_b) in layer order.
    """
    grads_w = [None] * len(weights)
    grads_b = [None] * len(weights)
    for layer in range(len(weights) - 1, -1, -1):
        grads_w[layer] = delta.T @ post[layer]
        grads_b[layer] = delta.sum(axis=0)
        if layer > 0:
            upstream = delta @ weights[layer]
            delta = _activation_delta(
                activations[layer - 1], pre[layer - 1], post[layer], upstream
            )
    return grads_w, grads_b


def forward(net: DenseNet, x: np.ndarray, want_cache: bool = False):
    """Run the network on a vector or a batch.

    Returns the output, or (output, cache) when `want_cache` is set; the
    cache holds per-layer pre-activations and activations for backprop.
    """
    x = np.asarray(x)
    single = x.ndim == 1
    batch = x[None, :] if single else x
    if batch.ndim != 2 or batch.shape[1] != net.topology.input_dim:
        raise ShapeError(
            f"input dim {batch.shape[-1]} != network input {net.topology.input_dim}"
        )
    pre, post = forward_stack(
        net.weights, net.biases, net.topology.activations, batch
    )
    out = post[-1][0] if single else post[-1]
    if want_cache:
        return out, (pre, post)
    return out


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


def backprop(net: DenseNet, inputs: np.ndarray, targets: np.ndarray):
    """Analytic gradients of the mean batch loss the final layer implies.

    Returns (grads_w, grads_b, loss_value). softmax_ce takes one-hot
    targets.
    """
    dtype = net.weights[0].dtype
    inputs = np.atleast_2d(np.asarray(inputs, dtype=dtype))
    targets = np.atleast_2d(np.asarray(targets, dtype=dtype))
    if targets.shape[0] != inputs.shape[0]:
        raise ShapeError("batch size mismatch between inputs and targets")
    if targets.shape[1] != net.topology.output_dim:
        raise ShapeError("target dim does not match network output")
    acts = net.topology.activations
    loss = _loss_for(net.topology)
    output, (pre, post) = forward(net, inputs, want_cache=True)
    batch = inputs.shape[0]
    if loss == "softmax_ce":
        value = loss_value(loss, pre[-1], targets)
        delta = (post[-1] - targets) / batch  # gradient at the logits
    else:
        value = loss_value(loss, output, targets)
        upstream = 2.0 * (output - targets) / output.size
        delta = _activation_delta(acts[-1], pre[-1], post[-1], upstream)

    grads_w, grads_b = backward_stack(net.weights, acts, pre, post, delta)
    return grads_w, grads_b, value


def sgd_update(params: list, grads: list, velocity: list, lr: float, momentum: float):
    """In-place momentum step: v <- momentum*v - lr*g; p <- p + v.

    The gradients are consumed: each is scaled by `lr` in place.
    """
    for p, g, v in zip(params, grads, velocity):
        g *= lr
        v *= momentum
        v -= g
        p += v


def zero_velocity(params: list) -> list:
    return [np.zeros_like(p) for p in params]


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.01
    momentum: float = 0.9
    batch_size: int = 64
    max_epochs: int = 60
    patience: int = 8
    seed: int = 0

    def __post_init__(self):
        if not (self.learning_rate > 0):
            raise ValueError("learning_rate must be positive")
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

    def parameters(self) -> list:
        return self.net.parameters()

    def loss_and_grads(self, inputs, targets):
        grads_w, grads_b, value = backprop(self.net, inputs, targets)
        grads = []
        for gw, gb in zip(grads_w, grads_b):
            grads.extend((gw, gb))
        return value, grads

    def eval_loss(self, inputs, targets) -> float:
        if self.loss == "softmax_ce":
            logits = _forward_logits(self.net, inputs)
            return loss_value("softmax_ce", logits, targets)
        return loss_value("mse", forward(self.net, inputs), targets)


def _forward_logits(net: DenseNet, x: np.ndarray) -> np.ndarray:
    """Forward pass stopping before a final softmax."""
    a = np.atleast_2d(np.asarray(x, dtype=net.weights[0].dtype))
    for w, b, tag in zip(net.weights, net.biases, net.topology.activations):
        z = a @ w.T + b
        a = z if tag == "softmax" else _apply_activation(tag, z)
    return a


def fit(model, train_xy, val_xy, cfg: TrainConfig) -> TrainHistory:
    """Generic mini-batch training loop with early stopping.

    Shuffles with a per-epoch stream derived from (cfg.seed, epoch),
    tracks validation loss after every epoch, and restores the parameters
    of the best validation epoch before returning. Raises `DivergedError`
    on a non-finite training or validation loss.

    Inputs and training targets are cast once to the parameters' dtype.
    Validation targets are kept as given, so the validation loss is
    measured against them exactly.
    """
    params = model.parameters()
    dtype = params[0].dtype
    train_x, train_t = (np.asarray(a, dtype=dtype) for a in train_xy)
    val_x, val_t = np.asarray(val_xy[0], dtype=dtype), val_xy[1]
    n = len(train_x)
    if n == 0 or len(val_x) == 0:
        raise ValueError("training and validation sets must be non-empty")

    velocity = zero_velocity(params)
    history = TrainHistory()
    best_val = np.inf
    best_params = None
    bad_epochs = 0

    for epoch in range(1, cfg.max_epochs + 1):
        t0 = time.perf_counter()
        order = rng_for(cfg.seed, "shuffle", epoch).permutation(n)
        total, seen = 0.0, 0
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            value, grads = model.loss_and_grads(train_x[idx], train_t[idx])
            if not np.isfinite(value):
                raise DivergedError(epoch)
            sgd_update(params, grads, velocity, cfg.learning_rate, cfg.momentum)
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
            best_params = [p.copy() for p in params]
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= cfg.patience:
                break

    for p, best in zip(params, best_params):
        p[...] = best
    return history


def train(net: DenseNet, train_xy, val_xy, cfg: TrainConfig):
    """Train a copy of `net`, returning (best network, history).

    The input network is left untouched; the returned network carries the
    parameters of the epoch with the lowest validation loss.
    """
    model = DenseModel(net.copy())
    history = fit(model, train_xy, val_xy, cfg)
    return model.net, history


def one_hot(labels: np.ndarray, n_classes: int) -> np.ndarray:
    labels = np.asarray(labels)
    out = np.zeros((labels.size, n_classes))
    out[np.arange(labels.size), labels] = 1.0
    return out


# ---------------------------------------------------------------------------
# Finite-difference verification
# ---------------------------------------------------------------------------

def finite_difference_check(
    model,
    inputs: np.ndarray,
    targets: np.ndarray,
    h: float = 1e-5,
    corrupt: bool = False,
) -> float:
    """Max relative error between backprop and central finite differences.

    `model` follows the training protocol (`parameters`, `loss_and_grads`,
    `eval_loss`), so dense and ensemble networks are checked alike. The
    check runs on a float64 copy of `model`, which is left untouched. With
    `corrupt` set, the largest entry of the first analytic gradient is
    perturbed before comparison; this negative control must make the
    check fail.
    """
    model = _float64_copy(model)
    _, analytic = model.loss_and_grads(inputs, targets)
    if corrupt:
        first = analytic[0]
        pos = np.unravel_index(np.argmax(np.abs(first)), first.shape)
        first[pos] = first[pos] * 1.5 + 1e-2

    max_rel = 0.0
    for param, grad in zip(model.parameters(), analytic):
        flat_p = param.ravel()
        flat_g = grad.ravel()
        for i in range(flat_p.size):
            orig = flat_p[i]
            flat_p[i] = orig + h
            up = model.eval_loss(inputs, targets)
            flat_p[i] = orig - h
            down = model.eval_loss(inputs, targets)
            flat_p[i] = orig
            numeric = (up - down) / (2.0 * h)
            rel = abs(flat_g[i] - numeric) / max(abs(flat_g[i]), abs(numeric), 1e-8)
            max_rel = max(max_rel, rel)
    return max_rel


def _float64_copy(model):
    """Deep copy of a training-protocol model with float64 parameters.

    Every parameter array is pre-seeded in deepcopy's memo with its
    float64 copy, so this works for any model structure. deepcopy does not
    rerun constructors, so `DenseNet`'s cast to `DTYPE` does not apply.
    """
    memo = {id(p): p.astype(np.float64) for p in model.parameters()}
    return copy.deepcopy(model, memo)


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
        _, (pre, _) = forward(net, inputs, want_cache=True)
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


def gradcheck_suite(n_nets: int = 20, seed: int = 2024, h: float = 1e-5) -> float:
    """Finite-difference sweep over random nets; returns the max rel error."""
    rng = rng_for(seed, "gradcheck")
    worst = 0.0
    for _ in range(n_nets):
        net, inputs, targets = _gradcheck_case(rng)
        worst = max(worst, finite_difference_check(DenseModel(net), inputs, targets, h))
    return worst
