"""Predictive uncertainty: MC-dropout epistemic variance and committee disagreement."""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .neural import (
    NetworkParams,
    _act,
    _feature_matrix,
    draw_dropout_masks,
    predict,
)

MC_GROUP_ROWS = 256  # rows per stacked matrix product when scoring few rows
MC_TILE_ROWS = 1024  # rows per tile of a large matrix; a multiple of 16

# Threads mc_predict may score tiles on, one per CPU this process may run
# on; numpy and BLAS release the interpreter lock in the array operations,
# so the threads run side by side.
if hasattr(os, "sched_getaffinity"):
    WORKERS = len(os.sched_getaffinity(0))
else:  # platforms without CPU affinity
    WORKERS = os.cpu_count() or 1


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
    params: NetworkParams, x: np.ndarray, n_passes: int, rng_seed: int | np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """MC-dropout means and epistemic variances for a (n, F) matrix.

    Runs n_passes stochastic forwards with independent masks, drawn from
    np.random.default_rng(rng_seed): a seed, or a Generator that is used as
    it stands.  The sample mean and unbiased sample variance of the passes
    give the predictive mean and epistemic variance of each row.  Each pass
    draws one mask shared across all rows, so mathematically a row's result
    does not depend on row order or on which other rows are scored with it.
    With dropout disabled every pass is the deterministic pass and the
    variance is exactly zero.

    Bitwise, a row's last bit can depend on its place in a stacked matrix
    product: OpenBLAS blocks rows into micro-kernel panels, and a lone row
    goes through the matrix-vector path instead.  A matrix of 2 * MC_TILE_ROWS
    rows or more is therefore scored one row tile at a time, with tiles that
    start at multiples of MC_TILE_ROWS (itself a multiple of the panel
    heights) and a last tile that takes the remainder, MC_TILE_ROWS to
    2 * MC_TILE_ROWS - 1 rows: every row keeps the panel position it has in
    the whole-matrix product, and no tile is small enough to leave the
    matrix-matrix path.  A smaller matrix is one tile.

    Several tiles are scored in min(WORKERS, tiles) parts of whole tiles,
    cut at the tile bounds nearest an equal share of the rows (_part_cuts).
    The calling thread sets up every part's buffers and scores the first
    part, and a thread pool scores each other part; a tile's arithmetic
    does not depend on the part it falls in, so the bytes do not depend on
    the number of threads.  A one-tile matrix is one part, with no cut to
    search and no thread to start.  Every part ends before this returns,
    and the first failure in row order is re-raised.
    """
    if n_passes < 1:
        raise ValueError("n_passes must be >= 1")
    spec = params.spec
    x = _feature_matrix(spec, x)
    n = x.shape[0]
    if spec.dropout_rate == 0.0 or not spec.hidden_sizes or n == 0:
        means = predict(params, x)
        return means, np.zeros_like(means)
    masks = draw_dropout_masks(spec, np.random.default_rng(rng_seed), n_passes)
    tile = MC_TILE_ROWS if n >= 2 * MC_TILE_ROWS else n
    bounds = [*range(0, n - tile + 1, tile), n]
    # Within a tile, passes run in groups stacked into one (group * rows, h)
    # matrix, so a single row evaluates many passes per matrix product while
    # a large tile runs one pass at a time.  The group size follows the
    # widest tile (the last), whichever part of the rows a tile falls in.
    group = max(1, MC_GROUP_ROWS // (bounds[-1] - bounds[-2]))
    means, epistemic = np.empty(n), np.zeros(n)
    # Tiles are the parts' units, so every row keeps its tile, and its bits,
    # whatever the number of parts.  The parts' buffers are set up here, in
    # row order, so they come from the calling thread's allocator, which
    # reuses them later.
    cuts = _part_cuts(bounds, WORKERS) if len(bounds) > 2 else bounds
    parts = []
    for lo, hi in zip(cuts, cuts[1:]):
        tiles = bounds[bounds.index(lo) : bounds.index(hi) + 1]
        parts.append((tiles, _part_buffers(params, n_passes, group, tiles[-1] - tiles[-2])))
    first, *rest = parts
    if rest:
        with ThreadPoolExecutor(len(rest)) as pool:  # the exit waits for every part
            futures = [pool.submit(_score_tiles, params, x, masks, group, *part, means, epistemic)
                       for part in rest]
            _score_tiles(params, x, masks, group, *first, means, epistemic)
        for future in futures:
            future.result()
    else:
        _score_tiles(params, x, masks, group, *first, means, epistemic)
    return means, epistemic


def _part_buffers(params: NetworkParams, n_passes: int, group: int, width: int) -> tuple:
    """The buffers of a part whose widest tile (the last) has `width` rows:
    the first layer's activations, each hidden layer's for one group of
    passes, the outputs of every pass and, for group 1, one pass's masked
    weights per layer past the first.  Every tile and group of the part
    reuses them, so a tile's passes stay in cache."""
    sizes, depth = params.spec.hidden_sizes, min(group, n_passes)
    return (
        np.empty((width, sizes[0])),
        [np.empty((depth, width, h)) for h in sizes],
        np.empty((n_passes, width)),
        [np.empty_like(w) for w in params.weights[1:]] if group == 1 else None,
    )


def _score_tiles(params: NetworkParams, x: np.ndarray, masks: list[np.ndarray], group: int,
                 tiles: list[int], buffers: tuple, means: np.ndarray,
                 epistemic: np.ndarray) -> None:
    """Score the tiles of rows tiles[0]:tiles[-1] into `means` and
    `epistemic` with one part's buffers (see _part_buffers).

    One tile's passes at a time: a column's mean and variance reduce over
    its own passes only, so taking them per tile is bit for bit the same
    and scoring a large pool holds no (n_passes, n) matrix.  A product that
    serves one pass (group 1) takes the pass's masks in the next layer's
    weights, an (h_out, h_in) multiply in place of a (rows, h_in) one;
    stacked passes mask the activations."""
    spec, weights, biases = params.spec, params.weights, params.biases
    keep, n_passes = spec.keep_prob, len(masks[0])
    first, hidden, outs, folded = buffers
    for t_lo, t_hi in zip(tiles, tiles[1:]):
        rows = t_hi - t_lo
        # (a * m) / keep and (a / keep) * m agree bit for bit for m in {0, 1},
        # so every hidden layer is divided by keep before its mask is
        # applied, and the first layer once per tile
        z = first[:rows]
        np.matmul(x[t_lo:t_hi], weights[0].T, out=z)
        np.add(z, biases[0], out=z)
        _act(z, spec.activation, out=z)
        np.divide(z, keep, out=z)
        for start in range(0, n_passes, group):
            passes = slice(start, start + group)
            # several tiles means one pass per group, so these slices of the
            # buffers and of the result are contiguous and reshape to views
            count = min(group, n_passes - start)
            a = z
            for layer in range(1, len(weights)):
                w = weights[layer]
                if group == 1:
                    # (a * m) @ w.T and a @ (w * m).T agree bit for bit for
                    # m in {0, 1}, with the same operand shapes
                    w = np.multiply(w, masks[layer - 1][start], out=folded[layer - 1])
                else:
                    # several passes share the product: mask the activations,
                    # stacked one pass after another
                    a = np.multiply(a, masks[layer - 1][passes, None, :],
                                    out=hidden[layer - 1][:count, :rows])
                if layer < len(hidden):
                    out = hidden[layer][:count, :rows]
                else:
                    out = outs[passes, :rows, None]
                np.matmul(a.reshape(-1, a.shape[-1]), w.T, out=out.reshape(-1, out.shape[-1]))
                np.add(out, biases[layer], out=out)
                if layer < len(hidden):
                    _act(out, spec.activation, out=out)
                    np.divide(out, keep, out=out)
                a = out
        # numpy's mean(axis=0) and var(axis=0, ddof=1) step by step, in
        # place, the same ufunc calls without their Python wrappers, so no
        # tile allocates a (n_passes, rows) temporary
        tile_outs, mean, var = outs[:, :rows], means[t_lo:t_hi], epistemic[t_lo:t_hi]
        np.add.reduce(tile_outs, axis=0, out=mean)
        np.divide(mean, n_passes, out=mean)
        if n_passes > 1:
            np.subtract(tile_outs, mean, out=tile_outs)
            np.multiply(tile_outs, tile_outs, out=tile_outs)
            np.add.reduce(tile_outs, axis=0, out=var)
            np.divide(var, n_passes - 1, out=var)


def _part_cuts(bounds: list[int], workers: int) -> list[int]:
    """The tile bounds that cut rows 0:bounds[-1] into min(workers, tiles)
    runs of whole tiles, each cut at the tile bound nearest an equal share
    of the rows, not of the tiles: 3,800 rows in 3 tiles on 2 workers give
    2048 and 1752 rows, not 1024 and 2776."""
    n, parts = bounds[-1], min(workers, len(bounds) - 1)
    inner = {min(bounds, key=lambda b: abs(b - n * j / parts)) for j in range(1, parts)}
    return sorted({0, n} | inner)
