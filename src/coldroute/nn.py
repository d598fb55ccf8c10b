"""Minimal dense numeric core: affine layers, MSE, Adam, checkpoint payloads.

Everything runs on 64-bit numpy arrays with hand-derived gradients.  There
is deliberately no autodiff: the model zoo is three small architectures and
explicit backward passes keep every gradient checkable against central
finite differences.

Vectors are 1-D ``float64`` arrays, matrices row-major 2-D ``float64`` arrays.
An :class:`AffineLayer` holds only ``W`` and ``b``: ``layer(x)`` maps a batch
of rows to ``x Wᵀ + b``; ``layer.grads(x, dy)`` returns fresh weight and bias
gradients ``(dyᵀ x, Σ dy)``, and the input gradient ``dy @ layer.W`` is
written at the call site.  Each model's ``loss_and_grads`` feeds :func:`adam_step`.
"""

from __future__ import annotations

import base64
from dataclasses import dataclass, field

import numpy as np

from . import records
from .errors import ShapeMismatch


def _as_f64(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def relu_grad(x: np.ndarray) -> np.ndarray:
    """Derivative of relu at ``x`` (0 at the kink)."""
    return (x > 0.0).astype(np.float64)


def sigmoid(x: np.ndarray) -> np.ndarray:
    # 1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) below: overflow-free for large |x|
    ex = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, ex) / (1.0 + ex)


@dataclass
class AffineLayer:
    """Dense layer ``y = x Wᵀ + b`` on a batch of rows; it holds only ``W`` and ``b``."""

    W: np.ndarray
    b: np.ndarray

    def __post_init__(self) -> None:
        self.W = _as_f64(self.W)
        self.b = _as_f64(self.b)
        if self.W.ndim != 2 or self.b.ndim != 1 or self.W.shape[0] != self.b.shape[0]:
            raise ShapeMismatch(
                f"affine parameters disagree: W {self.W.shape}, b {self.b.shape}"
            )

    @classmethod
    def create(cls, out_dim: int, in_dim: int, rng: np.random.Generator) -> "AffineLayer":
        """Glorot-scaled random weights, zero bias."""
        scale = np.sqrt(2.0 / (in_dim + out_dim))
        return cls(W=rng.normal(0.0, scale, size=(out_dim, in_dim)), b=np.zeros(out_dim))

    @property
    def out_dim(self) -> int:
        return self.W.shape[0]

    @property
    def in_dim(self) -> int:
        return self.W.shape[1]

    def __call__(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise ShapeMismatch(f"expected a batch of rows of width {self.in_dim}, got {x.shape}")
        return x @ self.W.T + self.b

    def grads(self, x: np.ndarray, dy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Weight and bias gradients at the batch ``x``, given the gradient ``dy`` of its output."""
        if dy.shape != (x.shape[0], self.out_dim):
            raise ShapeMismatch(f"upstream gradient shape {dy.shape} unexpected")
        return dy.T @ x, dy.sum(axis=0)


class Layered:
    """A model of named affine layers: one table of its arrays gives Adam's
    parameter and gradient lists and the ``{name}.w`` / ``{name}.b`` arrays of
    its checkpoint.  With ``biases = False`` only the weights are trained and stored.
    """

    biases = True

    def named_layers(self) -> list[tuple[str, AffineLayer]]:
        raise NotImplementedError

    def _arrays(self) -> list[tuple[str, AffineLayer, str]]:
        """(checkpoint key, layer, attribute) per array: each layer's ``W``, then its ``b``."""
        attrs = ("W", "b") if self.biases else ("W",)
        return [(f"{n}.{a.lower()}", layer, a) for n, layer in self.named_layers() for a in attrs]

    def params(self) -> list[np.ndarray]:
        return [getattr(layer, attr) for _, layer, attr in self._arrays()]

    def pack(self, grads: dict[str, tuple[np.ndarray, np.ndarray]]) -> list[np.ndarray]:
        """The gradient list in ``params`` order, from each layer's weight and bias gradients."""
        return [grads[key.rpartition(".")[0]][attr == "b"] for key, _, attr in self._arrays()]

    def params_payload(self) -> dict:
        return {key: array_to_payload(getattr(layer, attr)) for key, layer, attr in self._arrays()}

    def load_params(self, params: dict) -> None:
        """Set every array from a checkpoint's; each must keep its shape."""
        for key, layer, attr in self._arrays():
            array = payload_to_array(records.check(params, {key: dict})[key])
            shape = getattr(layer, attr).shape
            if array.shape != shape:
                raise ShapeMismatch(f"{key!r} has shape {array.shape}, not {shape}")
            setattr(layer, attr, array)


def mse(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean squared error and its gradient with respect to ``pred``.

    loss = mean((pred - target)²), grad = 2 (pred - target) / n with n the
    total element count.
    """
    pred = _as_f64(pred)
    target = _as_f64(target)
    if pred.shape != target.shape:
        raise ShapeMismatch(f"mse shapes differ: {pred.shape} vs {target.shape}")
    if pred.size == 0:
        raise ShapeMismatch("mse over empty arrays")
    diff = pred - target
    loss = float(np.mean(diff * diff))
    grad = 2.0 * diff / diff.size
    return loss, grad


@dataclass
class AdamState:
    """Per-parameter first/second moment accumulators for Adam."""

    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: list[np.ndarray] = field(default_factory=list)
    v: list[np.ndarray] = field(default_factory=list)

    @classmethod
    def for_params(cls, params: list[np.ndarray], lr: float = 1e-3) -> "AdamState":
        return cls(
            lr=lr,
            m=[np.zeros_like(p) for p in params],
            v=[np.zeros_like(p) for p in params],
        )


def adam_step(state: AdamState, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
    """One bias-corrected Adam update, applied to ``params`` in place."""
    if len(params) != len(state.m) or len(params) != len(grads):
        raise ShapeMismatch("parameter/gradient count differs from optimizer state")
    state.step += 1
    t = state.step
    b1, b2 = state.beta1, state.beta2
    for p, g, m, v in zip(params, grads, state.m, state.v):
        if p.shape != g.shape:
            raise ShapeMismatch(f"grad shape {g.shape} != param shape {p.shape}")
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1**t)
        v_hat = v / (1.0 - b2**t)
        p -= state.lr * m_hat / (np.sqrt(v_hat) + state.eps)


# --- checkpoint payloads ---------------------------------------------------

def array_to_payload(a: np.ndarray) -> dict:
    """JSON-safe encoding of an array: shape plus base64 little-endian f64."""
    a = _as_f64(a)
    return {
        "shape": list(a.shape),
        "data": base64.b64encode(a.astype("<f8").tobytes()).decode("ascii"),
    }


def payload_to_array(payload: dict) -> np.ndarray:
    payload = records.check(payload, {"shape": list[int]})
    if not isinstance(payload.get("data"), str):  # "" holds an empty array
        raise ShapeMismatch("array payload has no base64 'data' string")
    raw = base64.b64decode(payload["data"], validate=True)
    return np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(payload["shape"])
