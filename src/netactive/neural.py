"""Feed-forward regression network: manual backprop, inverted dropout, Adam."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

ACTIVATIONS = ("relu", "tanh")
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # Adam's fixed settings


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


def _layer_views(spec: NetworkSpec, flat: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per-layer weight and bias views of a flat parameter vector."""
    weights, biases, offset = [], [], 0
    sizes = spec.layer_sizes
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        weights.append(flat[offset : offset + fan_out * fan_in].reshape(fan_out, fan_in))
        offset += fan_out * fan_in
        biases.append(flat[offset : offset + fan_out])
        offset += fan_out
    if offset != flat.shape[0]:
        raise ValueError(f"flat vector of {flat.shape[0]} values does not fit spec {sizes}")
    return weights, biases


@dataclass
class NetworkParams:
    """Weights and biases; weight l has shape (fan_out, fan_in).

    Every value lives in one contiguous vector, `flat`: layer by layer, the
    row-major weight matrix followed by its bias.  `weights` and `biases`
    are views into it, so an in-place update of `flat` updates them.  The
    constructor copies the given arrays into a new flat vector.
    """

    spec: NetworkSpec
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    flat: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        sizes = self.spec.layer_sizes
        expected = [(sizes[i + 1], sizes[i]) for i in range(len(sizes) - 1)]
        got = [w.shape for w in self.weights]
        if got != expected:
            raise ValueError(f"weight shapes {got} do not match spec {expected}")
        for i, b in enumerate(self.biases):
            if b.shape != (sizes[i + 1],):
                raise ValueError(f"bias {i} has shape {b.shape}, expected ({sizes[i + 1]},)")
        self.flat = np.concatenate(
            [a.ravel() for pair in zip(self.weights, self.biases) for a in pair], dtype=float
        )
        self.weights, self.biases = _layer_views(self.spec, self.flat)

    @classmethod
    def from_flat(cls, spec: NetworkSpec, flat: np.ndarray) -> NetworkParams:
        """Parameters viewing `flat` itself, without a copy."""
        params = cls.__new__(cls)
        params.spec, params.flat = spec, flat
        params.weights, params.biases = _layer_views(spec, flat)
        return params

    def copy(self) -> NetworkParams:
        return NetworkParams.from_flat(self.spec, self.flat.copy())

    def all_finite(self) -> bool:
        return bool(np.all(np.isfinite(self.flat)))


@dataclass
class AdamState:
    """Flat first/second moment estimates plus the bias-correction step counter.

    `m` and `v` match `NetworkParams.flat` element for element."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0
    _scratch: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._scratch = np.empty((2, self.m.shape[0]))

    @classmethod
    def zeros_like(cls, params: NetworkParams) -> AdamState:
        return cls(m=np.zeros_like(params.flat), v=np.zeros_like(params.flat))


@dataclass
class ForwardCache:
    """Values kept from a batched forward pass for exact gradient computation."""

    pre_activations: list[np.ndarray]
    activations: list[np.ndarray]  # post-activation, post-mask; activations[0] is x
    masks: list[np.ndarray] | None


def _act(z: np.ndarray, kind: str, out: np.ndarray | None = None) -> np.ndarray:
    if kind == "relu":
        return np.maximum(z, 0.0, out=out)
    return np.tanh(z, out=out)


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
    """Sample a {0,1} keep-mask per example for each hidden layer, (batch, h).

    One draw serves every layer, layer after layer: the same doubles as one
    rng.random((batch, h)) per layer, and each mask is a view into it."""
    keep = rng.random(batch * sum(spec.hidden_sizes))
    np.less(keep, spec.keep_prob, out=keep)
    masks, offset = [], 0
    for h in spec.hidden_sizes:
        masks.append(keep[offset : offset + batch * h].reshape(batch, h))
        offset += batch * h
    return masks


def _feature_matrix(spec: NetworkSpec, x: np.ndarray) -> np.ndarray:
    a = np.asarray(x, dtype=float)
    if a.ndim != 2 or a.shape[1] != spec.n_inputs:
        raise ValueError(f"input of shape {a.shape} is not a (B, {spec.n_inputs}) matrix of features")
    return a


def forward(
    params: NetworkParams, x: np.ndarray, masks: Sequence[np.ndarray] | None = None
) -> ForwardCache:
    """Forward pass for a (B, F) matrix; deterministic when no masks are given.

    Masks, when given, are {0,1} keep-masks matching the hidden
    activations.  Kept activations are divided by the keep probability
    (inverted dropout) so the maskless pass needs no rescaling.
    """
    spec = params.spec
    a = _feature_matrix(spec, x)
    if masks is not None and len(masks) != len(spec.hidden_sizes):
        raise ValueError("one dropout mask per hidden layer required")
    pre, acts = [], [a]
    n_layers = len(params.weights)
    for layer in range(n_layers):
        z = a @ params.weights[layer].T
        z += params.biases[layer]
        pre.append(z)
        if layer < n_layers - 1:
            a = _act(z, spec.activation)
            if masks is not None:
                a *= masks[layer]
                a /= spec.keep_prob
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
    grads = NetworkParams.from_flat(params.spec, np.empty_like(params.flat))
    _backward_into(grads, params, cache, targets)
    return grads


def _backward_into(
    grads: NetworkParams, params: NetworkParams, cache: ForwardCache, targets: np.ndarray
) -> None:
    """backward(), written into the views of an existing gradient buffer."""
    spec = params.spec
    batch = cache.activations[0].shape[0]
    delta = 2.0 * (cache.activations[-1] - np.reshape(targets, (-1, 1)))  # (B, 1)
    for layer in reversed(range(len(params.weights))):
        np.divide(delta.T @ cache.activations[layer], batch, out=grads.weights[layer])
        np.divide(np.add.reduce(delta, axis=0), batch, out=grads.biases[layer])
        if layer > 0:
            delta = delta @ params.weights[layer]
            if spec.activation == "relu":
                # The kept activation is > 0 exactly where the mask and the
                # relu derivative are both 1, so one 0/1 factor stands for
                # both: ((d*mask)/keep)*relu' and (d*(mask*relu'))/keep agree
                # bit for bit, signed zeros and non-finite values included.
                delta *= (cache.activations[layer] > 0.0).astype(float)
                if cache.masks is not None:
                    delta /= spec.keep_prob
            else:
                if cache.masks is not None:
                    delta *= cache.masks[layer - 1]
                    delta /= spec.keep_prob
                t = np.tanh(cache.pre_activations[layer - 1])
                delta *= 1.0 - t * t


def adam_step(
    params: NetworkParams, grads: NetworkParams, state: AdamState, learning_rate: float
) -> None:
    """One bias-corrected Adam update of params and state, in place.

    Every element sees the textbook expressions in their usual order, with
    b1, b2 and eps the ADAM_* constants: m = b1*m + (1-b1)*g, then
    v = b2*v + ((1-b2)*g)*g, then p - learning_rate*m_hat / (sqrt(v_hat) + eps)
    with m_hat = m/(1-b1**t) and v_hat = v/(1-b2**t)."""
    state.t += 1
    t = state.t
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    g, m, v = grads.flat, state.m, state.v
    step, denom = state._scratch
    np.multiply(m, b1, out=m)
    np.multiply(g, 1.0 - b1, out=step)
    np.add(m, step, out=m)
    np.multiply(v, b2, out=v)
    np.multiply(g, 1.0 - b2, out=step)
    np.multiply(step, g, out=step)
    np.add(v, step, out=v)
    np.divide(m, 1.0 - b1**t, out=step)
    np.multiply(step, learning_rate, out=step)
    np.divide(v, 1.0 - b2**t, out=denom)
    np.sqrt(denom, out=denom)
    np.add(denom, ADAM_EPS, out=denom)
    np.divide(step, denom, out=step)
    np.subtract(params.flat, step, out=params.flat)


def train(
    params: NetworkParams,
    x: np.ndarray,
    y: np.ndarray,
    epochs: int,
    batch_size: int,
    rng_seed: int,
    learning_rate: float = 1e-3,
) -> tuple[NetworkParams, float]:
    """Mini-batch Adam over shuffled data with a fresh dropout mask per example.

    Returns the trained parameters (the input is never mutated) and the
    maskless mean squared error over the full set after the final epoch.
    Each epoch draws one permutation and then, in one call, the dropout
    masks of all its batches, batch by batch and layer by layer: the same
    stream of random doubles as one draw_dropout_masks call per batch.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValueError("training requires a non-empty (n, F) feature matrix")
    if x.shape[0] != y.shape[0]:
        raise ValueError("feature and target counts differ")
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    spec = params.spec
    params = params.copy()
    grads = NetworkParams.from_flat(spec, np.empty_like(params.flat))
    state = AdamState.zeros_like(params)
    rng = np.random.default_rng(rng_seed)
    n = x.shape[0]
    batches = [slice(start, start + batch_size) for start in range(0, n, batch_size)]
    # One epoch's keep-masks live in one buffer, batch by batch and layer by
    # layer; each batch's per-layer masks are fixed views into it.
    batch_masks = [None] * len(batches)
    if spec.dropout_rate > 0.0:
        draws = np.empty(n * sum(spec.hidden_sizes))
        keep = np.empty_like(draws)
        offset = 0
        for k, rows in enumerate(batches):
            count = min(batch_size, n - rows.start)
            batch_masks[k] = []
            for h in spec.hidden_sizes:
                batch_masks[k].append(keep[offset : offset + count * h].reshape(count, h))
                offset += count * h
    for _ in range(epochs):
        order = rng.permutation(n)
        if spec.dropout_rate > 0.0:
            rng.random(out=draws)
            np.less(draws, spec.keep_prob, out=keep)
        for rows, masks in zip(batches, batch_masks):
            idx = order[rows]
            _backward_into(grads, params, forward(params, x[idx], masks), y[idx])
            adam_step(params, grads, state, learning_rate)
    residuals = predict(params, x) - y
    return params, float(np.mean(residuals * residuals))

