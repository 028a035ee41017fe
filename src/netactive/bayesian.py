"""Predictive uncertainty: MC-dropout epistemic variance and committee disagreement."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .neural import (
    NetworkParams,
    NetworkSpec,
    TrainHyper,
    _act,
    draw_dropout_masks,
    init_params,
    predict,
    train,
)

MC_GROUP_ROWS = 256  # rows per stacked matrix product when scoring few rows


@dataclass
class Committee:
    """Independently trained members sharing one architecture."""

    members: list[NetworkParams]

    def __post_init__(self):
        if len(self.members) < 2:
            raise ValueError("a committee needs at least 2 members")
        spec = self.members[0].spec
        if any(m.spec.layer_sizes != spec.layer_sizes for m in self.members):
            raise ValueError("committee members must share one architecture")

    def disagreement(self, x: np.ndarray) -> np.ndarray:
        """Unbiased variance of the deterministic member predictions per row
        of a (n, F) input, shape (n,)."""
        return np.stack([predict(m, x) for m in self.members]).var(axis=0, ddof=1)


def mc_predict(
    params: NetworkParams, x: np.ndarray, n_passes: int, rng_seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """MC-dropout means and epistemic variances for a (n, F) matrix.

    Runs n_passes stochastic forwards with independent masks; the sample
    mean and unbiased sample variance of the passes give the predictive
    mean and epistemic variance of each row.  Each pass draws one mask
    shared across all rows, so per-row results do not depend on row order
    or on which other rows are scored with them.  With dropout disabled
    every pass is the deterministic pass and the variance is exactly zero.
    """
    if n_passes < 1:
        raise ValueError("n_passes must be >= 1")
    spec = params.spec
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError("mc_predict expects a 2-D feature matrix")
    if spec.dropout_rate == 0.0 or not spec.hidden_sizes:
        means = predict(params, x)
        return means, np.zeros_like(means)
    masks = draw_dropout_masks(spec, np.random.default_rng(rng_seed), n_passes)
    n = x.shape[0]
    # Passes run in groups stacked into one (group * n, h) matrix, so a
    # single row evaluates many passes per matrix product while a large
    # matrix runs one pass at a time.
    group = max(1, MC_GROUP_ROWS // n)
    first = _act(x @ params.weights[0].T + params.biases[0], spec.activation)
    outs = np.empty((n_passes, n))
    for start in range(0, n_passes, group):
        passes = slice(start, start + group)
        a = first * masks[0][passes, None, :] / spec.keep_prob  # (group, n, h1)
        for layer in range(1, len(params.weights) - 1):
            z = a.reshape(-1, a.shape[-1]) @ params.weights[layer].T + params.biases[layer]
            a = _act(z, spec.activation).reshape(len(a), n, -1)
            a = a * masks[layer][passes, None, :] / spec.keep_prob
        out = a.reshape(-1, a.shape[-1]) @ params.weights[-1].T + params.biases[-1]
        outs[passes] = out.reshape(len(a), n)
    epistemic = outs.var(axis=0, ddof=1) if n_passes > 1 else np.zeros(n)
    return outs.mean(axis=0), epistemic


def committee_train(
    spec: NetworkSpec,
    x: np.ndarray,
    y: np.ndarray,
    n_members: int,
    base_seed: int,
    epochs: int,
    batch_size: int,
    hyper: TrainHyper | None = None,
) -> Committee:
    """Train members with seeds base_seed..base_seed+K-1 (distinct inits and shuffles)."""
    if n_members < 2:
        raise ValueError("n_members must be >= 2")
    members = []
    for k in range(n_members):
        seed = base_seed + k
        params = init_params(spec, seed)
        params, _ = train(params, x, y, epochs=epochs, batch_size=batch_size,
                          rng_seed=seed, hyper=hyper)
        members.append(params)
    return Committee(members=members)
