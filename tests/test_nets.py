"""Dense network engine: forward, gradients, SGD, early stopping."""

import numpy as np
import pytest

from finnets import nets
from finnets.errors import DivergedError, ShapeError
from finnets.rng import rng_for


def tiny_topology():
    return nets.Topology((3, 4, 2), ("relu", "linear"))


def test_topology_validation():
    with pytest.raises(ValueError):
        nets.Topology((5,), ())
    with pytest.raises(ValueError):
        nets.Topology((5, 0), ("linear",))
    with pytest.raises(ValueError):
        nets.Topology((5, 3), ("relu", "linear"))
    with pytest.raises(ValueError):
        nets.Topology((5, 3), ("sigmoid",))
    with pytest.raises(ValueError):
        nets.Topology((5, 3, 2), ("softmax", "linear"))
    topo = nets.Topology((5, 3, 2), ("tanh", "softmax"))
    assert topo.input_dim == 5 and topo.output_dim == 2


def test_count_params():
    assert nets.count_params(tiny_topology()) == 3 * 4 + 4 + 4 * 2 + 2
    default = nets.Topology(
        (1024, 512, 256, 64, 1), ("relu", "relu", "relu", "linear")
    )
    assert nets.count_params(default) == 672641


def test_init_random_deterministic_and_bounded():
    topo = nets.Topology((8, 6, 3), ("relu", "linear"))
    a = nets.init_random(topo, 42)
    b = nets.init_random(topo, 42)
    c = nets.init_random(topo, 43)
    for wa, wb in zip(a.weights, b.weights):
        np.testing.assert_array_equal(wa, wb)
    assert any(
        not np.array_equal(wa, wc) for wa, wc in zip(a.weights, c.weights)
    )
    for w, (fan_out, fan_in) in zip(a.weights, ((6, 8), (3, 6))):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        assert w.shape == (fan_out, fan_in)
        assert np.abs(w).max() <= limit
    for bias in a.biases:
        np.testing.assert_array_equal(bias, 0.0)


def test_forward_shapes_and_softmax_rows():
    topo = nets.Topology((4, 5, 3), ("tanh", "softmax"))
    net = nets.init_random(topo, 0)
    single = nets.forward(net, np.ones(4))
    batch = nets.forward(net, np.ones((7, 4)))
    assert single.shape == (3,)
    assert batch.shape == (7, 3)
    np.testing.assert_allclose(batch.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(batch > 0)
    with pytest.raises(ShapeError):
        nets.forward(net, np.ones(5))


def test_loss_values_by_hand():
    out = np.array([[1.0, 2.0]])
    tgt = np.array([[0.0, 0.0]])
    assert nets.loss_value("mse", out, tgt) == pytest.approx(2.5)
    logits = np.array([[0.0, 0.0]])
    one = np.array([[1.0, 0.0]])
    assert nets.loss_value("softmax_ce", logits, one) == pytest.approx(np.log(2.0))


def test_cross_entropy_is_numerically_stable():
    hot = np.array([[1.0, 0.0]])
    easy = nets.loss_value("softmax_ce", np.array([[1000.0, 0.0]]), hot)
    hard = nets.loss_value("softmax_ce", np.array([[0.0, 1000.0]]), hot)
    assert easy == pytest.approx(0.0, abs=1e-12)
    assert hard == pytest.approx(1000.0, rel=1e-9)
    assert np.isfinite(easy) and np.isfinite(hard)


def test_backprop_matches_finite_differences():
    rng = rng_for(123, "nets-fd")
    mse_net = nets.init_random(nets.Topology((3, 5, 2), ("relu", "linear")), 7)
    x = rng.standard_normal((6, 3))
    y = rng.standard_normal((6, 2))
    assert nets.finite_difference_check(nets.DenseModel(mse_net, "mse"), x, y) < 1e-6

    ce_net = nets.init_random(nets.Topology((3, 4, 3), ("tanh", "softmax")), 8)
    labels = nets.one_hot(rng.integers(0, 3, size=6), 3)
    ce_model = nets.DenseModel(ce_net, "softmax_ce")
    assert nets.finite_difference_check(ce_model, x, labels) < 1e-6


def test_backprop_shape_errors():
    ce_net = nets.init_random(nets.Topology((3, 4, 2), ("tanh", "softmax")), 0)
    mse_net = nets.init_random(tiny_topology(), 0)
    x = np.ones((4, 3))
    with pytest.raises(ShapeError):
        nets.backprop(mse_net, x, np.ones((4, 2)), "softmax_ce")
    with pytest.raises(ShapeError):
        nets.backprop(ce_net, x, np.ones((4, 2)), "mse")
    with pytest.raises(ShapeError):
        nets.backprop(ce_net, x, np.ones((3, 2)), "softmax_ce")


def test_training_stays_float32_on_float64_data():
    rng = rng_for(12, "dtype")
    x = rng.standard_normal((40, 3))
    y = rng.standard_normal((40, 2))
    net = nets.init_random(tiny_topology(), 3)
    assert all(p.dtype == np.float32 for p in net.parameters())
    cfg = nets.TrainConfig(max_epochs=1, patience=1, batch_size=8, seed=0)
    best, hist = nets.train(net, (x[:32], y[:32]), (x[32:], y[32:]), cfg, "mse")
    assert all(p.dtype == np.float32 for p in best.parameters())
    assert nets.forward(best, x).dtype == np.float32
    assert all(type(v) is float for v in hist.train_losses + hist.val_losses)
    ce_net = nets.init_random(nets.Topology((3, 4, 2), ("tanh", "softmax")), 1)
    targets = nets.one_hot(rng.integers(0, 2, size=8), 2)
    value, grads = nets.DenseModel(ce_net, "softmax_ce").loss_and_grads(x[:8], targets)
    assert type(value) is float
    assert all(g.dtype == np.float32 for g in grads)


def test_gradcheck_runs_on_a_float64_copy():
    net = nets.init_random(nets.Topology((3, 5, 2), ("tanh", "linear")), 7)
    before = [p.copy() for p in net.parameters()]
    rng = rng_for(5, "copy")
    model = nets.DenseModel(net, "mse")
    x, y = rng.standard_normal((4, 3)), rng.standard_normal((4, 2))
    # float32 central differences at h=1e-5 would miss this by orders
    assert nets.finite_difference_check(model, x, y) < 1e-6
    for b, p in zip(before, net.parameters()):
        assert p.dtype == np.float32
        np.testing.assert_array_equal(p, b)


def test_gradcheck_suite_passes_and_control_fails():
    assert nets.gradcheck_suite(n_nets=20, seed=2024) <= 1e-4
    rng = rng_for(9, "corrupt")
    net = nets.init_random(nets.Topology((3, 4, 2), ("relu", "linear")), 5)
    x = rng.standard_normal((4, 3))
    y = rng.standard_normal((4, 2))
    model = nets.DenseModel(net, "mse")
    assert nets.finite_difference_check(model, x, y, corrupt=True) > 1e-4


def test_sgd_recurrence_by_hand():
    p = np.array([1.0])
    v = np.array([0.0])
    g = np.array([0.5])
    nets.sgd_update([p], [g], [v], lr=0.1, momentum=0.9)
    assert p[0] == pytest.approx(0.95, abs=1e-12)
    assert g[0] == pytest.approx(0.05, abs=1e-12)  # consumed: scaled by lr
    nets.sgd_update([p], [np.array([0.5])], [v], lr=0.1, momentum=0.9)
    # v2 = 0.9*(-0.05) - 0.05 = -0.095
    assert p[0] == pytest.approx(0.855, abs=1e-12)


def test_sgd_without_momentum_is_plain_descent():
    p = np.array([2.0, -1.0])
    v = np.zeros(2)
    g = np.array([1.0, 4.0])
    nets.sgd_update([p], [g], [v], lr=0.25, momentum=0.0)
    np.testing.assert_allclose(p, [1.75, -2.0], atol=1e-12)


def test_training_converges_on_linear_regression():
    rng = rng_for(77, "linreg")
    x = rng.standard_normal((256, 2))
    y = x @ np.array([[2.0], [-1.0]]) + 0.5
    net = nets.init_random(nets.Topology((2, 1), ("linear",)), 3)
    cfg = nets.TrainConfig(learning_rate=0.05, max_epochs=60, patience=60, seed=1)
    best, hist = nets.train(net, (x[:200], y[:200]), (x[200:], y[200:]), cfg, "mse")
    assert hist.best_val_loss < 1e-3
    assert hist.best_val_loss <= hist.val_losses[0]
    got = nets.forward(best, np.eye(2))
    np.testing.assert_allclose(got.ravel(), [2.5, -0.5], atol=0.05)


def test_train_is_deterministic_and_preserves_input_net():
    rng = rng_for(31, "det")
    x = rng.standard_normal((64, 3))
    y = rng.standard_normal((64, 2))
    net = nets.init_random(tiny_topology(), 11)
    before = [w.copy() for w in net.weights]
    cfg = nets.TrainConfig(max_epochs=5, patience=5, batch_size=16, seed=4)
    a, _ = nets.train(net, (x[:48], y[:48]), (x[48:], y[48:]), cfg, "mse")
    b, _ = nets.train(net, (x[:48], y[:48]), (x[48:], y[48:]), cfg, "mse")
    for wa, wb in zip(a.weights, b.weights):
        np.testing.assert_array_equal(wa, wb)
    for w0, w1 in zip(before, net.weights):
        np.testing.assert_array_equal(w0, w1)


def test_early_stopping_restores_best_epoch():
    rng = rng_for(55, "early")
    # tiny noisy train set and aggressive lr invite overfitting
    x = rng.standard_normal((24, 3))
    y = rng.standard_normal((24, 1))
    xv = rng.standard_normal((64, 3))
    yv = rng.standard_normal((64, 1))
    net = nets.init_random(nets.Topology((3, 16, 1), ("tanh", "linear")), 2)
    cfg = nets.TrainConfig(
        learning_rate=0.3, batch_size=4, max_epochs=200, patience=5, seed=9
    )
    best, hist = nets.train(net, (x, y), (xv, yv), cfg, "mse")
    assert hist.stopped_epoch < 200
    assert hist.best_epoch <= hist.stopped_epoch
    assert hist.best_val_loss == min(hist.val_losses)
    restored = nets.loss_value("mse", nets.forward(best, xv), yv)
    assert restored == pytest.approx(hist.best_val_loss, abs=1e-12)


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_divergence_raises_with_epoch():
    rng = rng_for(66, "diverge")
    x = 100.0 * rng.standard_normal((32, 3))
    y = 100.0 * rng.standard_normal((32, 1))
    net = nets.init_random(nets.Topology((3, 8, 1), ("relu", "linear")), 0)
    cfg = nets.TrainConfig(learning_rate=50.0, max_epochs=30, patience=30, seed=0)
    with pytest.raises(DivergedError) as err:
        nets.train(net, (x, y), (x, y), cfg, "mse")
    assert isinstance(err.value.epoch, int)


def test_train_config_validation():
    with pytest.raises(ValueError):
        nets.TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        nets.TrainConfig(momentum=1.0)
    with pytest.raises(ValueError):
        nets.TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        nets.TrainConfig(patience=10, max_epochs=5)


def test_one_hot():
    out = nets.one_hot(np.array([0, 2, 1]), 3)
    np.testing.assert_array_equal(
        out, [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]]
    )


def test_net_copy_is_deep():
    net = nets.init_random(tiny_topology(), 1)
    dup = net.copy()
    dup.weights[0][0, 0] += 1.0
    assert net.weights[0][0, 0] != dup.weights[0][0, 0]


def test_forward_stack_agrees_with_forward():
    net = nets.init_random(nets.Topology((4, 6, 3), ("relu", "softmax")), 14)
    x = rng_for(2, "stack").standard_normal((5, 4))
    pre, post = nets.forward_stack(
        net.weights, net.biases, net.topology.activations, x
    )
    assert len(pre) == 2
    assert len(post) == 3  # input batch rides along as post[0]
    np.testing.assert_array_equal(post[0], x)
    np.testing.assert_array_equal(post[-1], nets.forward(net, x))
