"""Query strategies and the budgeted annotate-and-collect acquisition decision."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# Entries in one of _min_distances' temporaries: a block's (rows, references)
# estimates, or the (pairs, F) differences of one exact pass.
DIST_BLOCK_ENTRIES = 2**18

# The AcquisitionInputs arrays each strategy reads; the loops compute no others.
STRATEGY_INPUTS = {
    "random": (),
    "uncertainty": ("epistemic_std",),
    "qbc": ("committee_var",),
    "coreset": ("nearest_labeled",),
    "hybrid": ("epistemic_std", "nearest_labeled"),
}
STRATEGIES = tuple(STRATEGY_INPUTS)


def strategy_inputs(strategy: str) -> tuple[str, ...]:
    """The inputs `strategy` reads, or ValueError for an unknown strategy."""
    if strategy not in STRATEGY_INPUTS:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    return STRATEGY_INPUTS[strategy]


class BudgetError(RuntimeError):
    """A charge would push spending past the budget total."""


class BudgetExhausted(RuntimeError):
    """Not enough budget for a single annotation; loops stop on this."""


@dataclass
class Budget:
    """Abstract acquisition funds: annotation and collection draw from one pot."""

    total: float
    annotation_cost: float = 1.0
    collection_cost: float = 0.25
    spent: float = 0.0

    def __post_init__(self):
        if self.total < 0.0:
            raise ValueError("budget total must be non-negative")
        if self.annotation_cost <= 0.0 or self.collection_cost <= 0.0:
            raise ValueError("per-item costs must be positive")
        if not (0.0 <= self.spent <= self.total):
            raise ValueError("spent must lie in [0, total]")

    @property
    def remaining(self) -> float:
        return self.total - self.spent

    def can_afford(self, cost: float) -> bool:
        return cost <= self.remaining + 1e-9

    def affordable(self, unit_cost: float, wanted: int, reserved: float = 0.0) -> int:
        """The largest n <= wanted with can_afford(reserved + n * unit_cost), or 0.
        The rounded charge never falls as n grows, so a bisection finds it."""
        if self.can_afford(reserved + wanted * unit_cost):
            return wanted  # always so when the remaining budget is infinite
        lo, hi = 0, wanted  # lo is 0 or affordable; hi is refused
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if self.can_afford(reserved + mid * unit_cost):
                lo = mid
            else:
                hi = mid
        return lo

    def charge(self, cost: float) -> None:
        if cost < 0.0:
            raise ValueError("cannot charge a negative cost")
        if not self.can_afford(cost):
            raise BudgetError(f"charge {cost} exceeds remaining budget {self.remaining}")
        self.spent = min(self.spent + cost, self.total)


@dataclass
class CollectRegion:
    """Ball in normalized feature space describing where to gather new samples."""

    centroid: np.ndarray
    radius: float


@dataclass
class AcquisitionDecision:
    annotate_ids: list[int]
    collect_count: int = 0
    collect_region: CollectRegion | None = None

    def __post_init__(self):
        if len(set(self.annotate_ids)) != len(self.annotate_ids):
            raise ValueError("annotate_ids must be distinct")
        if self.collect_count < 0:
            raise ValueError("collect_count must be non-negative")


@dataclass
class CollectPolicy:
    enabled: bool = False
    collect_fraction: float = 0.5

    def __post_init__(self):
        if not (0.0 <= self.collect_fraction <= 1.0):
            raise ValueError("collect_fraction must lie in [0, 1]")


@dataclass
class AcquisitionInputs:
    """Snapshot of model and pool state a strategy needs to score candidates.

    Row i of every per-candidate array belongs to candidate_ids[i], and the
    ids ascend.  Feature vectors are in normalized space.  Which arrays must
    be present depends on the strategy: STRATEGY_INPUTS names them.

    nearest_labeled[i] is candidate i's Euclidean distance to its nearest
    labeled point, as _min_distances gives it (inf for every candidate when
    there is no labeled point).  decide_acquisition never measures distances
    to the labeled set itself: the caller owns that vector.  run_pool_cycles
    carries it from one cycle to the next for the strategies that read it
    (loop._NearestLabeled), and updates only the rows and references that
    changed; select_core_set computes it from scratch.
    """

    candidate_ids: np.ndarray  # (n,) ints, ascending
    candidate_features: np.ndarray  # (n, F)
    epistemic_std: np.ndarray | None = None  # (n,)
    committee_var: np.ndarray | None = None  # (n,)
    nearest_labeled: np.ndarray | None = None  # (n,), >= 0
    select_seed: int = 0
    hybrid_beta: float = 0.5

    def __post_init__(self):
        n = len(self.candidate_ids)
        for name in ("epistemic_std", "committee_var", "nearest_labeled"):
            values = getattr(self, name)
            if values is not None and np.shape(values) != (n,):
                raise ValueError(f"{name} has shape {np.shape(values)}, expected ({n},)")
        distances = self.nearest_labeled
        if distances is not None and not (np.asarray(distances) >= 0.0).all():
            raise ValueError("nearest_labeled holds negative or nan distances")


def rank_uncertainty(ids: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """Ids sorted by score descending, ties broken by ascending id."""
    if not len(ids):
        raise ValueError("scores must be non-empty")
    finite = np.isfinite(scores)
    if not finite.all():
        raise ValueError(f"non-finite scores for ids {ids[~finite][:5].tolist()}")
    return ids[np.lexsort((ids, -scores))]


def _min_distances(points: np.ndarray, references: np.ndarray) -> np.ndarray:
    """Euclidean distance from each point to its nearest reference (inf if none).

    A pair's distance is sqrt(((x - r)**2).sum()) over its contiguous
    length-F row, numpy's row sum, and a point's result is the least of
    those.  A BLAS estimate of every squared distance only picks which
    pairs are measured: those within a rounding margin of the row's least
    estimate, which always include a nearest reference.  So the bytes
    depend neither on the BLAS kernel nor on how rows are blocked.
    Non-finite points or references raise ValueError."""
    points = np.ascontiguousarray(points, dtype=float)
    references = np.ascontiguousarray(references, dtype=float)
    if not np.isfinite(references).all():
        raise ValueError("distances need finite points and references")
    n, dim = points.shape
    best = np.full(n, np.inf)
    rows_per_pass = max(1, DIST_BLOCK_ENTRIES // max(1, dim))
    if len(references) == 1:  # each row's one candidate: no estimate to make
        for lo in range(0, n, rows_per_pass):
            best[lo : lo + rows_per_pass] = _exact_distances(
                points[lo : lo + rows_per_pass] - references[0])
    elif len(references):
        # The estimate is |r|^2 - 2 r.x: the squared distance less |x|^2,
        # which is the same for every reference of a row.  Rounding margin:
        # with s = |x|^2 + max|r|^2 and u = eps / 2, F-term dot products and
        # squared norms err by gamma_F times s in any summation order (FMA
        # or not), and the add by u times at most 2s, so an estimate is off
        # by at most (2F + 2) u s.  An exact value (F differences, squares
        # and a sum of non-negative terms) is off the true squared distance
        # d^2 by at most gamma_(F+2) d^2 <= (2F + 4) u s, as d^2 <= 2s.  If
        # r* is a nearest reference by exact value and r' has the least
        # estimate, est(r*) <= est(r') plus two of each error,
        # (8F + 12) u s = (4F + 6) eps s.  The margin is four times that,
        # with an absolute term for values that underflow.  If an estimate
        # overflows, its row's limit is nan or infinite, or the estimate is
        # nan, and the row keeps every such pair.
        scaled = -2.0 * references  # exact: a power of two
        ref_sq = np.einsum("ij,ij->i", references, references)
        slack = (16 * dim + 64) * np.finfo(float).eps
        floor = (16 * dim + 64) * np.finfo(float).tiny
        block = max(1, DIST_BLOCK_ENTRIES // len(references))
        for lo in range(0, n, block):
            x = points[lo : lo + block]
            with np.errstate(over="ignore", invalid="ignore"):
                est = scaled @ x.T  # (references, rows): a column's least is one pass
                est += ref_sq[:, np.newaxis]
                s = np.einsum("ij,ij->i", x, x) + ref_sq.max()
                limit = est.min(axis=0) + (slack * s + floor)
                keep = ~(est > limit)  # a nan estimate or limit keeps its pair
            refs, rows = np.divmod(np.flatnonzero(keep), len(x))
            for start in range(0, len(rows), rows_per_pass):
                r, c = rows[start : start + rows_per_pass], refs[start : start + rows_per_pass]
                np.minimum.at(best, lo + r, _exact_distances(x[r] - references[c]))
    # a non-finite point has a non-finite distance, so only then are the
    # points checked (a k-center pick's one-reference call stays this cheap)
    if not np.isfinite(best).all() and not np.isfinite(points).all():
        raise ValueError("distances need finite points and references")
    return best


def _exact_distances(diff: np.ndarray) -> np.ndarray:
    """Row norms of a C-contiguous (pairs, F) difference, squared in place."""
    np.multiply(diff, diff, out=diff)  # bit for bit diff ** 2
    dist = diff.sum(axis=1)
    return np.sqrt(dist, out=dist)


def select_core_set(
    labeled_features: np.ndarray,
    candidate_ids: np.ndarray,
    candidate_features: np.ndarray,
    k: int,
) -> list[int]:
    """Greedy k-center selection for diversity.

    Repeats k times: pick the candidate whose distance to the nearest point
    in (labeled set plus already-selected candidates) is largest, ties by
    ascending id.  Candidate ids must ascend.  Returns ids in selection
    order.
    """
    points = np.asarray(candidate_features, dtype=float)
    return _greedy_k_center(candidate_ids, points, _min_distances(points, labeled_features), k)


def _greedy_k_center(
    candidate_ids: np.ndarray, points: np.ndarray, nearest_labeled: np.ndarray, k: int
) -> list[int]:
    """select_core_set's greedy loop, started from each candidate's distance
    to the labeled set (not modified)."""
    n = len(candidate_ids)
    if not n:
        raise ValueError("no candidates to select from")
    if not (1 <= k <= n):
        raise ValueError(f"k={k} must lie in [1, {n}]")
    min_d = nearest_labeled
    chosen: list[int] = []
    for _ in range(k):
        pick = int(np.argmax(min_d))  # argmax takes the first (lowest-id) maximum
        chosen.append(int(candidate_ids[pick]))
        min_d = np.minimum(min_d, _min_distances(points, points[pick : pick + 1]))
        min_d[pick] = -np.inf
    return chosen


def hybrid_score(uncertainty: np.ndarray, diversity: np.ndarray, beta: float) -> np.ndarray:
    """Geometric blend uncertainty^beta * diversity^(1-beta), elementwise.

    beta=1 recovers pure uncertainty ranking and beta=0 pure diversity
    ranking (up to ties)."""
    if np.any(uncertainty < 0.0) or np.any(diversity < 0.0):
        raise ValueError("inputs must be non-negative")
    if not (0.0 <= beta <= 1.0):
        raise ValueError("beta must lie in [0, 1]")
    return uncertainty**beta * diversity ** (1.0 - beta)


def random_select(candidate_ids: Sequence[int], k: int, rng_seed: int) -> list[int]:
    """Uniform sample of k ids without replacement, deterministic per seed."""
    ids = np.sort(np.asarray(candidate_ids, dtype=int))
    if k > len(ids):
        raise ValueError(f"k={k} exceeds candidate count {len(ids)}")
    order = np.random.default_rng(rng_seed).permutation(len(ids))
    return ids[order[:k]].tolist()


def decide_acquisition(
    strategy: str,
    inputs: AcquisitionInputs,
    batch_size: int,
    budget: Budget,
    collect_policy: CollectPolicy | None = None,
) -> AcquisitionDecision:
    """Choose which unlabeled ids to annotate and how many new samples to collect.

    The annotation batch is the strategy's top picks truncated to what
    budget.affordable allows.  When collection is enabled, additionally
    request floor(batch_size * collect_fraction) new samples (as many as
    budget.affordable allows after the batch) from a ball around the chosen
    batch: centroid of its normalized features, radius their maximum
    distance to that centroid.

    Raises BudgetExhausted when not even one annotation is affordable.
    """
    required = strategy_inputs(strategy)
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    ids = inputs.candidate_ids
    if not len(ids):
        raise ValueError("no unlabeled candidates")
    collect_policy = collect_policy or CollectPolicy()

    affordable = budget.affordable(budget.annotation_cost, min(batch_size, len(ids)))
    if affordable < 1:
        raise BudgetExhausted(
            f"remaining budget {budget.remaining} cannot cover one annotation"
        )

    for name in required:
        if getattr(inputs, name) is None:
            raise ValueError(f"strategy {strategy!r} requires {name}")

    if strategy == "random":
        chosen = random_select(ids, affordable, inputs.select_seed)
    elif strategy == "coreset":
        chosen = _greedy_k_center(
            ids, inputs.candidate_features, inputs.nearest_labeled, affordable
        )
    else:
        scores = inputs.committee_var if strategy == "qbc" else inputs.epistemic_std
        if strategy == "hybrid":
            dists = inputs.nearest_labeled
            if np.isposinf(dists).all():
                dists = np.ones(len(ids))  # no labeled set: rank by uncertainty alone
            scores = hybrid_score(scores, dists, inputs.hybrid_beta)
        chosen = rank_uncertainty(ids, scores)[:affordable].tolist()

    collect_count = 0
    region = None
    if collect_policy.enabled:
        wanted = int(math.floor(batch_size * collect_policy.collect_fraction + 1e-9))
        collect_count = budget.affordable(budget.collection_cost, wanted,
                                          reserved=len(chosen) * budget.annotation_cost)
        if collect_count > 0:
            batch_points = inputs.candidate_features[np.searchsorted(ids, chosen)]
            centroid = batch_points.mean(axis=0)
            radius = float(_min_distances(batch_points, centroid[np.newaxis]).max())
            region = CollectRegion(centroid=centroid, radius=radius)

    return AcquisitionDecision(
        annotate_ids=list(chosen), collect_count=collect_count, collect_region=region
    )
