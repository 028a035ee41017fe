"""Query strategies and the budgeted annotate-and-collect acquisition decision."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

STRATEGIES = ("random", "uncertainty", "qbc", "coreset", "hybrid")

# Cap on the elements of the (n, block, F) difference temporary in
# _min_distances; about 8 MB of float64 whatever the candidate count.
_DIST_BLOCK_ELEMENTS = 2**20


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
    cost: float = 0.0

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
    ids ascend.  Feature vectors are in normalized space.  Which score array
    must be present depends on the strategy (epistemic_std for
    uncertainty/hybrid, committee_var for qbc).
    """

    candidate_ids: np.ndarray  # (n,) ints, ascending
    candidate_features: np.ndarray  # (n, F)
    labeled_features: np.ndarray
    epistemic_std: np.ndarray | None = None  # (n,)
    committee_var: np.ndarray | None = None  # (n,)
    select_seed: int = 0
    hybrid_beta: float = 0.5

    def __post_init__(self):
        n = len(self.candidate_ids)
        for name in ("epistemic_std", "committee_var"):
            scores = getattr(self, name)
            if scores is not None and np.shape(scores) != (n,):
                raise ValueError(f"{name} has shape {np.shape(scores)}, expected ({n},)")


def rank_uncertainty(ids: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """Ids sorted by score descending, ties broken by ascending id."""
    if not len(ids):
        raise ValueError("scores must be non-empty")
    finite = np.isfinite(scores)
    if not finite.all():
        raise ValueError(f"non-finite scores for ids {ids[~finite][:5].tolist()}")
    return ids[np.lexsort((ids, -scores))]


def _min_distances(points: np.ndarray, references: np.ndarray) -> np.ndarray:
    """Euclidean distance from each point to its nearest reference (inf if none)."""
    n, dim = points.shape
    references = np.asarray(references, dtype=float)
    block = max(1, _DIST_BLOCK_ELEMENTS // max(1, n * dim))
    best = np.full(n, np.inf)
    for start in range(0, len(references), block):
        refs = references[start : start + block]
        d = np.sqrt(((points[:, None, :] - refs[None, :, :]) ** 2).sum(axis=-1))
        best = np.minimum(best, d.min(axis=1))
    return best


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
    n = len(candidate_ids)
    if not n:
        raise ValueError("no candidates to select from")
    if not (1 <= k <= n):
        raise ValueError(f"k={k} must lie in [1, {n}]")
    points = np.asarray(candidate_features, dtype=float)
    min_d = _min_distances(points, labeled_features)
    chosen: list[int] = []
    for _ in range(k):
        pick = int(np.argmax(min_d))  # argmax takes the first (lowest-id) maximum
        chosen.append(int(candidate_ids[pick]))
        d_new = np.sqrt(((points - points[pick]) ** 2).sum(axis=1))
        min_d = np.minimum(min_d, d_new)
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

    The annotation batch is the strategy's top picks truncated to what the
    remaining budget affords.  When collection is enabled, additionally
    request floor(batch_size * collect_fraction) new samples (again budget
    permitting) from a ball around the chosen batch: centroid of its
    normalized features, radius their maximum distance to that centroid.

    Raises BudgetExhausted when not even one annotation is affordable.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    ids = inputs.candidate_ids
    if not len(ids):
        raise ValueError("no unlabeled candidates")
    collect_policy = collect_policy or CollectPolicy()

    if math.isinf(budget.remaining):
        by_budget = batch_size
    else:
        by_budget = int(math.floor(budget.remaining / budget.annotation_cost + 1e-9))
    affordable = min(batch_size, by_budget, len(ids))
    if affordable < 1:
        raise BudgetExhausted(
            f"remaining budget {budget.remaining} cannot cover one annotation"
        )

    if strategy == "random":
        chosen = random_select(ids, affordable, inputs.select_seed)
    elif strategy == "coreset":
        chosen = select_core_set(inputs.labeled_features, ids, inputs.candidate_features, affordable)
    else:
        needed = "committee_var" if strategy == "qbc" else "epistemic_std"
        scores = getattr(inputs, needed)
        if scores is None:
            raise ValueError(f"strategy {strategy!r} requires {needed} scores")
        if strategy == "hybrid":
            dists = _min_distances(inputs.candidate_features, inputs.labeled_features)
            if not len(inputs.labeled_features):
                dists = np.ones(len(ids))  # no labeled set: rank by uncertainty alone
            scores = hybrid_score(scores, dists, inputs.hybrid_beta)
        chosen = rank_uncertainty(ids, scores)[:affordable].tolist()

    annotate_cost = len(chosen) * budget.annotation_cost
    collect_count = 0
    region = None
    if collect_policy.enabled:
        wanted = int(math.floor(batch_size * collect_policy.collect_fraction + 1e-9))
        slack = budget.remaining - annotate_cost
        if math.isinf(slack):
            collect_count = wanted
        else:
            collect_count = min(wanted, int(math.floor(slack / budget.collection_cost + 1e-9)))
        collect_count = max(collect_count, 0)
        if collect_count > 0:
            batch_points = inputs.candidate_features[np.searchsorted(ids, chosen)]
            centroid = batch_points.mean(axis=0)
            radius = float(np.sqrt(((batch_points - centroid) ** 2).sum(axis=1)).max())
            region = CollectRegion(centroid=centroid, radius=radius)

    cost = annotate_cost + collect_count * budget.collection_cost
    return AcquisitionDecision(
        annotate_ids=list(chosen), collect_count=collect_count, collect_region=region, cost=cost
    )
