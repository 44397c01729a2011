"""The dense step on one parameter buffer.

`fit` updates a model through one flat parameter buffer, with weights
stored (in, out) and gradients written in place. These tests replay the
same steps with a plain per-array reference in the (out, in) layout and
check that the two agree to float32 rounding, and that the parameters
stay views of their model's buffer.
"""

import copy

import numpy as np
import pytest

from finnets import engine, nets
from finnets.rng import rng_for

# float32 rounding over a few steps: the two layouts may sum in another
# order, so entries differ by a few ulps of the parameters and updates
RTOL, ATOL = 1e-5, 1e-6
STEPS = 3


def _forward(ws, bs, acts, a):
    pre, post = [], [a]
    for w, b, tag in zip(ws, bs, acts):
        z = a @ w.T + b
        a = np.maximum(z, 0.0) if tag == "relu" else z
        pre.append(z)
        post.append(a)
    return pre, post


def _backward(ws, acts, pre, post, delta):
    gw, gb = [None] * len(ws), [None] * len(ws)
    for k in range(len(ws) - 1, -1, -1):
        gw[k] = delta.T @ post[k]
        gb[k] = delta.sum(axis=0)
        if k:
            delta = delta @ ws[k]
            if acts[k - 1] == "relu":
                delta = delta * (pre[k - 1] > 0.0)
    return gw, gb


def _softmax(z):
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _momentum_steps(params, n, cfg, step):
    """Replay one `fit` epoch: `step(idx)` returns gradients in
    `params` order, applied per array."""
    velocity = [np.zeros_like(p) for p in params]
    order = rng_for(cfg.seed, "shuffle", 1).permutation(n)
    for start in range(0, n, cfg.batch_size):
        grads = step(order[start : start + cfg.batch_size])
        for p, g, v in zip(params, grads, velocity):
            v *= cfg.momentum
            v -= cfg.learning_rate * g
            p += v


def _dense_reference(net, x, t, cfg):
    """(out, in) weights and biases after one epoch of per-array steps."""
    ws = [w.T.copy() for w in net.weights]
    bs = [b.copy() for b in net.biases]
    acts = net.topology.activations

    def step(idx):
        pre, post = _forward(ws, bs, acts, x[idx])
        delta = 2.0 * (post[-1] - t[idx]) / post[-1].size
        gw, gb = _backward(ws, acts, pre, post, delta)
        return gw + gb

    _momentum_steps(ws + bs, len(x), cfg, step)
    return ws, bs


def _ensemble_reference(ens, x, t, cfg):
    """Per-branch (out, in) weights and biases, head weight and bias."""
    branches = [([w.T.copy() for w in b.weights], [v.copy() for v in b.biases],
                 b.topology.activations) for b in ens.branches]
    head_w, head_b = ens.head_w.copy(), ens.head_b.copy()
    channels = ens.n_channels

    def step(idx):
        batch = len(idx)
        flat = x[idx].reshape(batch * channels, -1)
        caches = [_forward(ws, bs, acts, flat) for ws, bs, acts in branches]
        concat = np.concatenate([post[-1].reshape(batch, -1) for _, post in caches], axis=1)
        delta = (_softmax(concat @ head_w.T + head_b) - t[idx]) / batch
        d_concat = delta @ head_w
        grads, offset = [], 0
        for (ws, _, acts), (pre, post) in zip(branches, caches):
            width = ws[-1].shape[0] * channels
            d_out = d_concat[:, offset : offset + width].reshape(batch * channels, -1)
            offset += width
            grads += sum(_backward(ws, acts, pre, post, d_out), [])
        return grads + [delta.T @ concat, delta.sum(axis=0)]

    params = [p for ws, bs, _ in branches for p in ws + bs] + [head_w, head_b]
    _momentum_steps(params, len(x), cfg, step)
    return branches, head_w, head_b


def _assert_on_buffer(model, buffer):
    for p in model.parameters():
        assert np.shares_memory(p, buffer)
    # negative control: a copy shares nothing with the original
    for dup in (model.copy(), copy.deepcopy(model)):
        assert not np.shares_memory(dup.buffer, buffer)
        for p in dup.parameters():
            assert np.shares_memory(p, dup.buffer)
            assert not np.shares_memory(p, buffer)


@pytest.mark.parametrize("batch", [16, 64])
def test_dense_fit_matches_per_array_reference(batch):
    topo = nets.Topology((1024, 512, 256, 64, 1), ("relu", "relu", "relu", "linear"))
    net = nets.init_random(topo, 3)
    rng = rng_for(batch, "dense-step")
    x = rng.standard_normal((STEPS * batch, 1024)).astype(np.float32)
    t = rng.random((STEPS * batch, 1)).astype(np.float32)
    cfg = nets.TrainConfig(batch_size=batch, max_epochs=1, patience=1, seed=2)
    model = nets.DenseModel(net.copy())
    nets.fit(model, (x, t), (x[:8], t[:8]), cfg)

    ws, bs = _dense_reference(net, x, t, cfg)
    for got_w, got_b, ref_w, ref_b in zip(model.net.weights, model.net.biases, ws, bs):
        assert got_w.shape == ref_w.T.shape
        np.testing.assert_allclose(got_w, ref_w.T, rtol=RTOL, atol=ATOL)
        np.testing.assert_allclose(got_b, ref_b, rtol=RTOL, atol=ATOL)
    # the steps moved the weights by far more than the tolerance
    assert np.abs(model.net.weights[-1] - net.weights[-1]).max() > 100 * ATOL
    _assert_on_buffer(model, model.buffer)


def test_ensemble_fit_matches_per_array_reference():
    def branch(width, seed):
        return nets.init_random(nets.Topology((24, 8, width), ("relu", "linear")), seed)

    arts = [
        engine.FinArtifact("entropy", branch(2, 5), np.zeros(2), np.ones(2), "0" * 64,
                           {"best_val_loss": 0.1, "epochs": 1}),
        engine.FinArtifact("kurtosis", branch(1, 6), np.zeros(1), np.ones(1), "0" * 64,
                           {"best_val_loss": 0.1, "epochs": 1}),
    ]
    ens = engine.build_ensemble(arts, n_channels=2, n_classes=3, seed=4)
    rng = rng_for(7, "ensemble-step")
    x = rng.standard_normal((STEPS * 16, 2, 24)).astype(np.float32)
    t = nets.one_hot(rng.integers(0, 3, size=len(x)), 3).astype(np.float32)
    cfg = nets.TrainConfig(learning_rate=0.1, batch_size=16, max_epochs=1, patience=1, seed=1)
    model = ens.copy()
    nets.fit(model, (x, t), (x[:8], t[:8]), cfg)

    branches, head_w, head_b = _ensemble_reference(ens, x, t, cfg)
    for got, (ws, bs, _) in zip(model.branches, branches):
        for got_w, ref_w in zip(got.weights, ws):
            np.testing.assert_allclose(got_w, ref_w.T, rtol=RTOL, atol=ATOL)
        for got_b, ref_b in zip(got.biases, bs):
            np.testing.assert_allclose(got_b, ref_b, rtol=RTOL, atol=ATOL)
    np.testing.assert_allclose(model.head_w, head_w, rtol=RTOL, atol=ATOL)
    np.testing.assert_allclose(model.head_b, head_b, rtol=RTOL, atol=ATOL)
    assert np.abs(model.head_w - ens.head_w).max() > 100 * ATOL
    _assert_on_buffer(model, model.buffer)
    for b in model.branches:
        assert np.shares_memory(b.buffer, model.buffer)


def test_float64_copy_is_one_buffer_and_leaves_the_model_alone():
    net = nets.init_random(nets.Topology((5, 4, 2), ("tanh", "linear")), 1)
    head = nets.init_random(nets.Topology((5, 3, 2), ("relu", "linear")), 2)
    art = engine.FinArtifact("entropy", head, np.zeros(2), np.ones(2), "0" * 64,
                             {"best_val_loss": 0.1, "epochs": 1})
    ens = engine.build_ensemble([art], n_channels=2, n_classes=2, seed=3)
    for model in (nets.DenseModel(net), ens):
        before = model.buffer.copy()
        # the copy `finite_difference_check` runs on
        twin = model.copy(np.empty(model.buffer.size, dtype=np.float64))
        assert twin.buffer.dtype == np.float64
        for p in twin.parameters():
            assert p.dtype == np.float64
            assert np.shares_memory(p, twin.buffer)
        np.testing.assert_array_equal(twin.buffer, before)
        twin.buffer[:] += 1.0
        assert model.buffer.dtype == np.float32
        np.testing.assert_array_equal(model.buffer, before)
