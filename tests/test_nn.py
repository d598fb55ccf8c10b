"""Numerical building blocks: layers, losses, Adam, payload codecs."""

import numpy as np
import pytest

from coldroute import nn
from coldroute.errors import NonFiniteLoss


# --- activations -----------------------------------------------------------

def test_relu_and_grad_at_kink():
    x = np.array([-2.0, 0.0, 3.0])
    assert np.array_equal(nn.relu(x), [0.0, 0.0, 3.0])
    assert np.array_equal(nn.relu_grad(x), [0.0, 0.0, 1.0])  # 0 at the kink


def test_sigmoid_is_stable_and_symmetric():
    with np.errstate(over="raise"):
        hi = nn.sigmoid(np.array([1000.0]))
        lo = nn.sigmoid(np.array([-1000.0]))
    assert hi[0] == pytest.approx(1.0)
    assert lo[0] == pytest.approx(0.0)
    x = np.linspace(-20, 20, 41)
    assert np.allclose(nn.sigmoid(-x), 1.0 - nn.sigmoid(x), atol=1e-15)
    assert nn.sigmoid(np.array([0.0]))[0] == pytest.approx(0.5)


# --- affine layer ----------------------------------------------------------

def test_affine_forward_hand_value():
    layer = nn.AffineLayer.create(2, 2, np.random.default_rng(0))
    layer.W = np.array([[1.0, 2.0], [3.0, 4.0]])
    layer.b = np.array([0.5, -0.5])
    out = layer(np.array([[1.0, 1.0]]))
    assert np.allclose(out, [[3.5, 6.5]])
    # 2-D batch goes through x @ W.T + b
    batch = layer(np.array([[1.0, 1.0], [0.0, 1.0]]))
    assert np.allclose(batch, [[3.5, 6.5], [2.5, 3.5]])


def test_affine_identity():
    layer = nn.AffineLayer(np.eye(3), np.zeros(3))
    x = np.arange(6, dtype=np.float64).reshape(2, 3)
    assert np.array_equal(layer(x), x)


def test_affine_backward_matches_finite_difference():
    rng = np.random.default_rng(1)
    layer1 = nn.AffineLayer.create(3, 4, rng)
    layer2 = nn.AffineLayer.create(1, 3, rng)
    x = rng.standard_normal((5, 4))
    target = rng.standard_normal(5)

    def loss_fn(_params):
        a = layer1(x)
        h = nn.relu(a)
        pred = layer2(h).ravel()
        loss, d_pred = nn.mse(pred, target)
        d_out = d_pred.reshape(-1, 1)
        d_a = (d_out @ layer2.W) * nn.relu_grad(a)
        return loss, [*layer1.grads(x, d_a), *layer2.grads(h, d_out)]

    params = [layer1.W, layer1.b, layer2.W, layer2.b]
    assert nn.finite_diff_check(loss_fn, params) < 1e-6


def test_finite_diff_check_catches_wrong_gradients():
    rng = np.random.default_rng(2)
    layer = nn.AffineLayer.create(2, 3, rng)
    x = rng.standard_normal((4, 3))
    target = rng.standard_normal((4, 2))

    def bad_loss_fn(_params):
        pred = layer(x)
        loss, d_pred = nn.mse(pred, target)
        return loss, [0.5 * g for g in layer.grads(x, d_pred)]  # deliberately scaled wrong

    assert nn.finite_diff_check(bad_loss_fn, [layer.W, layer.b]) > 0.1


def test_finite_diff_check_rejects_nonfinite_loss():
    p = [np.array([1.0])]

    def nan_loss(_params):
        return float("nan"), [np.array([0.0])]

    with pytest.raises(NonFiniteLoss):
        nn.finite_diff_check(nan_loss, p)


# --- losses ----------------------------------------------------------------

def test_mse_hand_value_and_gradient():
    loss, grad = nn.mse(np.array([1.0, 2.0]), np.array([0.0, 0.0]))
    assert loss == pytest.approx(2.5)
    assert np.allclose(grad, [1.0, 2.0])  # 2 * diff / n
    zero, zgrad = nn.mse(np.array([3.0]), np.array([3.0]))
    assert zero == 0.0
    assert np.array_equal(zgrad, [0.0])


# --- Adam ------------------------------------------------------------------

def test_adam_first_step_moves_by_learning_rate():
    p = np.array([0.0])
    state = nn.AdamState.for_params([p], lr=1e-3)
    nn.adam_step(state, [p], [np.array([2.0])])
    # bias corrections cancel on step one: delta = lr * g / (|g| + eps)
    assert p[0] == pytest.approx(-1e-3, rel=1e-6)


def test_adam_zero_gradient_leaves_params():
    p = np.array([1.5, -2.5])
    state = nn.AdamState.for_params([p], lr=1e-2)
    nn.adam_step(state, [p], [np.zeros(2)])
    assert np.array_equal(p, [1.5, -2.5])


def test_adam_descends_a_quadratic():
    p = np.array([5.0])
    state = nn.AdamState.for_params([p], lr=0.1)
    for _ in range(500):
        nn.adam_step(state, [p], [2.0 * p])  # d/dp of p^2
    assert abs(p[0]) < 1e-2


# --- payload codec ---------------------------------------------------------

def test_array_payload_round_trip_exact():
    rng = np.random.default_rng(3)
    for arr in [rng.standard_normal((3, 4)), rng.standard_normal(7), np.zeros(0)]:
        payload = nn.array_to_payload(arr)
        back = nn.payload_to_array(payload)
        assert back.shape == arr.shape
        assert np.array_equal(back, arr)
        # payload is JSON-serializable as-is
        import json

        json.dumps(payload)
