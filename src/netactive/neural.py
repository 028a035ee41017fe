"""Feed-forward regression network: manual backprop, inverted dropout, Adam."""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

ACTIVATIONS = ("relu", "tanh")


@dataclass
class NetworkSpec:
    """Architecture description: [n_inputs, hidden..., 1] plus dropout settings."""

    layer_sizes: list[int]
    dropout_rate: float = 0.0
    activation: str = "relu"
    weight_init_scale: float = 1.0

    def __post_init__(self):
        sizes = [int(s) for s in self.layer_sizes]
        if len(sizes) < 2 or any(s <= 0 for s in sizes):
            raise ValueError(f"layer_sizes must be >=2 positive ints, got {sizes}")
        if sizes[-1] != 1:
            raise ValueError("output layer size must be 1 (scalar regression)")
        if not (0.0 <= self.dropout_rate < 1.0):
            raise ValueError("dropout_rate must lie in [0, 1)")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"activation must be one of {ACTIVATIONS}")
        if self.weight_init_scale <= 0.0:
            raise ValueError("weight_init_scale must be positive")
        self.layer_sizes = sizes

    @property
    def n_inputs(self) -> int:
        return self.layer_sizes[0]

    @property
    def hidden_sizes(self) -> list[int]:
        return self.layer_sizes[1:-1]

    @property
    def keep_prob(self) -> float:
        return 1.0 - self.dropout_rate


@dataclass
class NetworkParams:
    """Weights and biases; weight l has shape (fan_out, fan_in)."""

    spec: NetworkSpec
    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def __post_init__(self):
        sizes = self.spec.layer_sizes
        expected = [(sizes[i + 1], sizes[i]) for i in range(len(sizes) - 1)]
        got = [w.shape for w in self.weights]
        if got != expected:
            raise ValueError(f"weight shapes {got} do not match spec {expected}")
        for i, b in enumerate(self.biases):
            if b.shape != (sizes[i + 1],):
                raise ValueError(f"bias {i} has shape {b.shape}, expected ({sizes[i + 1]},)")

    def copy(self) -> NetworkParams:
        return NetworkParams(
            spec=self.spec,
            weights=[w.copy() for w in self.weights],
            biases=[b.copy() for b in self.biases],
        )

    def all_finite(self) -> bool:
        return all(np.all(np.isfinite(w)) for w in self.weights) and all(
            np.all(np.isfinite(b)) for b in self.biases
        )


@dataclass
class TrainHyper:
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


@dataclass
class AdamState:
    """First/second moment estimates plus the bias-correction step counter."""

    m_weights: list[np.ndarray]
    m_biases: list[np.ndarray]
    v_weights: list[np.ndarray]
    v_biases: list[np.ndarray]
    t: int = 0

    @classmethod
    def zeros_like(cls, params: NetworkParams) -> AdamState:
        return cls(
            m_weights=[np.zeros_like(w) for w in params.weights],
            m_biases=[np.zeros_like(b) for b in params.biases],
            v_weights=[np.zeros_like(w) for w in params.weights],
            v_biases=[np.zeros_like(b) for b in params.biases],
        )


@dataclass
class ForwardCache:
    """Values kept from a batched forward pass for exact gradient computation."""

    pre_activations: list[np.ndarray]
    activations: list[np.ndarray]  # post-activation, post-mask; activations[0] is x
    masks: list[np.ndarray] | None


def _act(z: np.ndarray, kind: str) -> np.ndarray:
    if kind == "relu":
        return np.maximum(z, 0.0)
    return np.tanh(z)


def _act_grad(z: np.ndarray, kind: str) -> np.ndarray:
    if kind == "relu":
        return (z > 0.0).astype(float)
    t = np.tanh(z)
    return 1.0 - t * t


def init_params(spec: NetworkSpec, rng_seed: int) -> NetworkParams:
    """Uniform weights in [-s, s] with s = scale * sqrt(1/fan_in); zero biases."""
    rng = np.random.default_rng(rng_seed)
    weights, biases = [], []
    sizes = spec.layer_sizes
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        s = spec.weight_init_scale * np.sqrt(1.0 / fan_in)
        weights.append(rng.uniform(-s, s, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return NetworkParams(spec=spec, weights=weights, biases=biases)


def draw_dropout_masks(
    spec: NetworkSpec, rng: np.random.Generator, batch: int
) -> list[np.ndarray]:
    """Sample a {0,1} keep-mask per example for each hidden layer, (batch, h)."""
    return [
        (rng.random((batch, h)) < spec.keep_prob).astype(float) for h in spec.hidden_sizes
    ]


def forward(
    params: NetworkParams, x: np.ndarray, masks: Sequence[np.ndarray] | None = None
) -> ForwardCache:
    """Forward pass for a (B, F) matrix; deterministic when no masks are given.

    Masks, when given, match the hidden activations.  Kept activations are
    divided by the keep probability (inverted dropout) so the maskless pass
    needs no rescaling.
    """
    spec = params.spec
    a = np.asarray(x, dtype=float)
    if a.ndim != 2 or a.shape[1] != spec.n_inputs:
        raise ValueError(f"input of shape {a.shape} is not a (B, {spec.n_inputs}) matrix of features")
    if masks is not None and len(masks) != len(spec.hidden_sizes):
        raise ValueError("one dropout mask per hidden layer required")
    pre, acts = [], [a]
    n_layers = len(params.weights)
    for layer in range(n_layers):
        z = a @ params.weights[layer].T + params.biases[layer]
        pre.append(z)
        if layer < n_layers - 1:
            a = _act(z, spec.activation)
            if masks is not None:
                a = a * masks[layer] / spec.keep_prob
        else:
            a = z  # linear output
        acts.append(a)
    return ForwardCache(pre_activations=pre, activations=acts,
                        masks=list(masks) if masks is not None else None)


def predict(params: NetworkParams, x: np.ndarray) -> np.ndarray:
    """Deterministic (maskless) predictions for a (B, F) matrix."""
    return forward(params, x).activations[-1][:, 0]


def backward(
    params: NetworkParams, cache: ForwardCache, targets: np.ndarray
) -> NetworkParams:
    """Exact gradient of the batch mean of (pred - target)^2 through the cached pass."""
    spec = params.spec
    batch = cache.activations[0].shape[0]
    delta = 2.0 * (cache.activations[-1] - np.reshape(targets, (-1, 1)))  # (B, 1)
    grads_w = [None] * len(params.weights)
    grads_b = [None] * len(params.biases)
    for layer in reversed(range(len(params.weights))):
        a_prev = cache.activations[layer]
        grads_w[layer] = delta.T @ a_prev / batch
        grads_b[layer] = delta.mean(axis=0)
        if layer > 0:
            da = delta @ params.weights[layer]
            if cache.masks is not None:
                da = da * cache.masks[layer - 1] / spec.keep_prob
            delta = da * _act_grad(cache.pre_activations[layer - 1], spec.activation)
    return NetworkParams(spec=spec, weights=grads_w, biases=grads_b)


def adam_step(
    params: NetworkParams, grads: NetworkParams, state: AdamState, hyper: TrainHyper
) -> tuple[NetworkParams, AdamState]:
    """One bias-corrected Adam update; pure, returns fresh params and state."""
    t = state.t + 1
    b1, b2 = hyper.beta1, hyper.beta2
    new_w, new_b = [], []
    m_w, m_b, v_w, v_b = [], [], [], []

    def update(p, g, m, v):
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1**t)
        v_hat = v / (1.0 - b2**t)
        return p - hyper.learning_rate * m_hat / (np.sqrt(v_hat) + hyper.eps), m, v

    for i in range(len(params.weights)):
        w, m, v = update(params.weights[i], grads.weights[i], state.m_weights[i], state.v_weights[i])
        new_w.append(w)
        m_w.append(m)
        v_w.append(v)
        b, m, v = update(params.biases[i], grads.biases[i], state.m_biases[i], state.v_biases[i])
        new_b.append(b)
        m_b.append(m)
        v_b.append(v)
    return (
        NetworkParams(spec=params.spec, weights=new_w, biases=new_b),
        AdamState(m_weights=m_w, m_biases=m_b, v_weights=v_w, v_biases=v_b, t=t),
    )


def train(
    params: NetworkParams,
    x: np.ndarray,
    y: np.ndarray,
    epochs: int,
    batch_size: int,
    rng_seed: int,
    hyper: TrainHyper | None = None,
) -> tuple[NetworkParams, float]:
    """Mini-batch Adam over shuffled data with a fresh dropout mask per example.

    Returns the trained parameters (the input is never mutated) and the
    maskless mean squared error over the full set after the final epoch.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValueError("training requires a non-empty (n, F) feature matrix")
    if x.shape[0] != y.shape[0]:
        raise ValueError("feature and target counts differ")
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    hyper = hyper or TrainHyper()
    spec = params.spec
    params = params.copy()
    state = AdamState.zeros_like(params)
    rng = np.random.default_rng(rng_seed)
    n = x.shape[0]
    use_dropout = spec.dropout_rate > 0.0
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            xb, yb = x[idx], y[idx]
            masks = draw_dropout_masks(spec, rng, batch=len(idx)) if use_dropout else None
            grads = backward(params, forward(params, xb, masks), yb)
            params, state = adam_step(params, grads, state, hyper)
    residuals = predict(params, x) - y
    return params, float(np.mean(residuals * residuals))


def save_params(params: NetworkParams, path: str) -> None:
    """Write a text checkpoint: spec header, then row-major values per layer.

    The file is written beside `path` under a temporary name and renamed
    over it, so a crash mid-write never leaves a truncated checkpoint."""
    spec = params.spec
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write("netparams 1\n")
            fh.write("layers " + " ".join(str(s) for s in spec.layer_sizes) + "\n")
            fh.write(f"activation {spec.activation}\n")
            fh.write(f"dropout_rate {spec.dropout_rate!r}\n")
            fh.write(f"weight_init_scale {spec.weight_init_scale!r}\n")
            for w, b in zip(params.weights, params.biases):
                fh.write(" ".join(repr(float(v)) for v in w.ravel()) + "\n")
                fh.write(" ".join(repr(float(v)) for v in b.ravel()) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load_params(path: str) -> NetworkParams:
    """Read a save_params checkpoint.

    A truncated file, a line with the wrong number of values or a
    non-finite value raises ValueError naming the path and line."""
    with open(path, encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh]
    if not lines or not lines[0].startswith("netparams"):
        raise ValueError(f"{path}: not a parameter checkpoint")

    def words(no: int, count: int | None = None) -> list[str]:
        if no >= len(lines):
            raise ValueError(f"{path}: line {no + 1}: missing (truncated checkpoint)")
        got = lines[no].split()
        if count is not None and len(got) != count:
            raise ValueError(f"{path}: line {no + 1}: expected {count} values, found {len(got)}")
        return got

    def values(no: int, count: int) -> np.ndarray:
        out = np.array([float(v) for v in words(no, count)])
        if not np.all(np.isfinite(out)):
            raise ValueError(f"{path}: line {no + 1}: non-finite value")
        return out

    spec = NetworkSpec(
        layer_sizes=[int(v) for v in words(1)[1:]],
        activation=words(2, 2)[1],
        dropout_rate=float(words(3, 2)[1]),
        weight_init_scale=float(words(4, 2)[1]),
    )
    weights, biases = [], []
    cursor = 5
    for fan_in, fan_out in zip(spec.layer_sizes[:-1], spec.layer_sizes[1:]):
        weights.append(values(cursor, fan_out * fan_in).reshape(fan_out, fan_in))
        biases.append(values(cursor + 1, fan_out))
        cursor += 2
    return NetworkParams(spec=spec, weights=weights, biases=biases)
