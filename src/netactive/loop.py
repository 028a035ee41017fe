"""The three active-learning loops: pool-based ranking, stream-based
arrival filtering, and density-model query synthesis."""

from __future__ import annotations

import bisect
import copy
import math
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

import numpy as np

from . import seeding
from .acquisition import (
    STRATEGY_INPUTS,
    AcquisitionInputs,
    Budget,
    BudgetExhausted,
    CollectPolicy,
    CollectRegion,
    _min_distances,
    decide_acquisition,
    strategy_inputs,
)
from .bayesian import Committee, mc_predict
from .dataset import ORIGIN_COLLECTED, ORIGIN_SYNTHESIZED, DataPool, fit_normalizer
from .neural import NetworkParams, NetworkSpec, init_params, predict, train
from .synth import TwinWorld, fit_gmm, realize_scenario, sample_gmm, twin_label, twin_labels

STREAM_MIN_HISTORY = 10  # arrivals observed before the rolling threshold is trusted


class OracleError(RuntimeError):
    """Invalid oracle request (already labeled, unknown id, no ground truth)."""


class TrainingDiverged(ArithmeticError):
    """Training produced non-finite parameters; the run cannot continue."""


@dataclass
class CurveRow:
    iteration: int
    labeled_count: int
    budget_spent: float
    test_rmse: float
    mean_epistemic_std: float
    aleatoric_var: float


@dataclass
class LearningCurve:
    rows: list[CurveRow] = field(default_factory=list)

    def append(self, row: CurveRow) -> None:
        if self.rows:
            last = self.rows[-1]
            if row.iteration <= last.iteration:
                raise ValueError("iterations must be strictly increasing")
            if row.labeled_count < last.labeled_count:
                raise ValueError("labeled_count must be non-decreasing")
            if row.budget_spent < last.budget_spent - 1e-9:
                raise ValueError("budget_spent must be non-decreasing")
        elif row.iteration != 0:
            raise ValueError("curves start at iteration 0")
        self.rows.append(row)

    def final_rmse(self) -> float:
        return self.rows[-1].test_rmse

    def to_csv(self, path: str) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(CURVE_HEADER + "\n")
            for r in self.rows:
                fh.write(
                    f"{r.iteration},{r.labeled_count},{r.budget_spent:.6g},"
                    f"{r.test_rmse:.6g},{r.mean_epistemic_std:.6g},{r.aleatoric_var:.6g}\n"
                )


CURVE_HEADER = "iteration,labeled_count,budget_spent,test_rmse,mean_epistemic_std,aleatoric_var"


def read_curve_csv(path: str) -> LearningCurve:
    curve = LearningCurve()
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != CURVE_HEADER:
            raise ValueError(f"{path}: unexpected curve header {header!r}")
        for line in fh:
            it, count, spent, rmse, epi, alea = line.strip().split(",")
            curve.append(
                CurveRow(int(it), int(count), float(spent), float(rmse), float(epi), float(alea))
            )
    return curve


@dataclass
class StreamPolicy:
    """Query an arrival when its epistemic score clears a rolling quantile."""

    uncertainty_threshold_quantile: float = 0.9
    window: int = 100
    max_queries: int = 10_000

    def __post_init__(self):
        if not (0.0 < self.uncertainty_threshold_quantile < 1.0):
            raise ValueError("quantile must lie strictly between 0 and 1")
        if self.window < STREAM_MIN_HISTORY:
            raise ValueError(f"window must hold at least {STREAM_MIN_HISTORY} scores, "
                             "or no threshold is ever trusted")
        if self.max_queries < 1:
            raise ValueError("max_queries must be positive")


@dataclass
class StreamDecision:
    arrival_index: int
    score: float
    threshold: float
    queried: bool


@dataclass
class SynthesisPolicy:
    """Density-model proposal settings for membership query synthesis."""

    gmm_components: int = 4
    gmm_em_iters: int = 50
    candidate_multiple: int = 4
    probe_features: np.ndarray | None = None
    probe_size: int = 200


@dataclass
class LoopConfig:
    """Everything a loop needs beyond the pool, oracle and master seed."""

    spec: NetworkSpec
    learning_rate: float = 1e-3
    strategy: str = "uncertainty"
    iterations: int = 10
    batch_size: int = 4
    mc_passes: int = 50
    initial_epochs: int = 300
    fine_tune_epochs: int = 60
    train_batch_size: int = 64
    warm_start: bool = True
    hybrid_beta: float = 0.5
    qbc_members: int = 5
    collect_policy: CollectPolicy = field(default_factory=CollectPolicy)
    aleatoric_val_fraction: float = 0.15
    stream_retrain_every: int = 10
    stream_epochs: int = 5


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


class PoolOracle:
    """Performs every acquisition write on the pool and charges the budget
    for it; the loops only decide what to acquire.  A plain pool oracle can
    only annotate: reveal a pool sample's hidden ground-truth label."""

    has_twin_world = False  # True when the oracle can also collect and synthesize

    def __init__(self, pool: DataPool, budget: Budget):
        self.pool = pool
        self.budget = budget

    def annotate(self, sample_id: int, iteration: int) -> float:
        """Charge one annotation and move an unlabeled sample into the labeled
        partition, acquired at `iteration`.  A rejected id charges nothing."""
        if not self.pool.has_hidden_label(sample_id):
            raise OracleError(f"sample {sample_id} is not unlabeled or has no ground truth")
        self.budget.charge(self.budget.annotation_cost)
        return self.pool.reveal(sample_id, iteration)

    def collect(self, region: CollectRegion, count: int, iteration: int) -> list[int]:
        raise OracleError("collection requires a twin-world oracle")


class TwinOracle(PoolOracle):
    """Pool oracle backed by a twin world: can also collect new samples in a
    requested region and label synthesized scenarios directly."""

    has_twin_world = True

    def __init__(self, pool: DataPool, budget: Budget, world: TwinWorld, rng_seed: int):
        super().__init__(pool, budget)
        self.world = world
        self._rng_seed = rng_seed
        self._calls = 0

    def _next_rng(self) -> np.random.Generator:
        self._calls += 1
        return np.random.default_rng(seeding.derive_seed(self._rng_seed, self._calls))

    def collect(self, region: CollectRegion, count: int, iteration: int) -> list[int]:
        """Gather `count` new unlabeled samples near the region centroid; return their ids.

        Points are drawn uniformly in the normalized-space ball, mapped back
        to raw features, snapped onto the valid schema and registered in one
        block, their ground truth hidden.  Each sample's draws come in a
        fixed order (direction, radius, its scenario's observation noise,
        its label-noise seed), and the block is labeled in one batch.
        Charges count * collection_cost once, after every sample is labeled,
        so a twin-world failure or an unaffordable charge leaves budget and
        pool untouched."""
        if count < 1:
            return []
        if self.pool.normalizer is None:
            raise OracleError("collection requires a fitted normalizer on the pool")
        rng = self._next_rng()
        dim = region.centroid.shape[0]
        rows, noise_seeds = [], []
        for _ in range(count):
            direction = rng.standard_normal(dim)
            norm = np.linalg.norm(direction)
            direction = direction / norm if norm > 0 else direction
            offset = direction * region.radius * rng.random() ** (1.0 / dim)
            raw = self.pool.normalizer.denormalize(region.centroid + offset)
            rows.append(realize_scenario(self.world, raw, rng))
            noise_seeds.append(int(rng.integers(0, 2**31)))
        rows = np.array(rows)
        labels = twin_labels(self.world, rows, noise_seeds)  # the block at once, in draw order
        self.budget.charge(count * self.budget.collection_cost)
        ids = list(range(self.pool.next_id, self.pool.next_id + count))
        self.pool.add(ids, rows, labels, "unlabeled", ORIGIN_COLLECTED, iteration)
        return ids

    def synthesize(self, features: np.ndarray, iteration: int) -> int:
        """Induce a proposed scenario in the twin world, observe its label,
        register the result as a labeled sample acquired at `iteration`; return its id.

        Charges one annotation plus one collection once the twin world has
        labeled the scenario, so a failure leaves budget and pool untouched."""
        rng = self._next_rng()
        raw = realize_scenario(self.world, np.asarray(features, dtype=float), rng)
        label = twin_label(self.world, raw, int(rng.integers(0, 2**31)))
        self.budget.charge(self.budget.annotation_cost + self.budget.collection_cost)
        sid = self.pool.next_id
        self.pool.add([sid], raw[None, :], [label], "labeled", ORIGIN_SYNTHESIZED, iteration)
        return sid


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------


class _LoopState:
    """Model, committee, folds, label scaling and the learning curve shared by
    the loop drivers.  fit() makes every training call and record() writes
    every curve row, each after checking the pool's invariants; the drivers
    decide, and the oracle makes every acquisition write."""

    def __init__(self, config: LoopConfig, pool: DataPool, oracle: PoolOracle, master_seed: int):
        if oracle.pool is not pool:
            raise ValueError("the oracle is bound to another pool than the loop's")
        self.config = config
        self.pool = pool
        self.budget = oracle.budget
        self.master_seed = master_seed
        self.curve = LearningCurve()
        if pool.normalizer is None:
            pool.normalizer = fit_normalizer(pool)
        if not len(pool.labeled):
            raise ValueError("pool needs a non-empty labeled seed")
        if not len(pool.test):
            raise ValueError("pool needs a non-empty test set")
        # A fixed slice of the initial seed is reserved for aleatoric
        # estimation and never trained on, so its residuals stay out of fold.
        seed_ids = pool.labeled
        n_val = math.floor(len(seed_ids) * config.aleatoric_val_fraction)
        order = np.random.default_rng(
            seeding.derive_seed(master_seed, seeding.STREAM_ALEATORIC)
        ).permutation(len(seed_ids))
        self.val_ids = np.sort(seed_ids[order[:n_val]])
        # Targets are standardized against the seed labels (fixed for the
        # whole run): training is scale-free while every reported quantity
        # stays in Mbps.
        seed_labels = pool.labels_of(seed_ids)
        self.label_mean = float(seed_labels.mean())
        self.label_std = max(float(seed_labels.std()), 1e-8)
        # the fresh initialization every cold restart trains from; train copies it
        self.init = init_params(config.spec, seeding.derive_seed(master_seed, seeding.STREAM_INIT))
        self.params = self.init
        self.committee: Committee | None = None
        # the pool loop's last scoring: unlabeled ids, features and stds
        self.candidates: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self.x_test = pool.normalized_features(pool.test)  # the test partition never changes
        self.y_test = pool.labels_of(pool.test)

    def training_data(self) -> tuple[np.ndarray, np.ndarray]:
        ids = np.setdiff1d(self.pool.labeled, self.val_ids)
        y = self.pool.labels_of(ids)
        return self.pool.normalized_features(ids), (y - self.label_mean) / self.label_std

    def predict_mbps(self, x: np.ndarray) -> np.ndarray:
        return predict(self.params, x) * self.label_std + self.label_mean

    def fit(self, iteration: int, epochs: int) -> None:
        """Train the model, and the committee if the strategy reads one.  A cold
        restart trains both from fresh initializations for initial_epochs."""
        if not self.config.warm_start and iteration > 0:
            epochs = self.config.initial_epochs
        self.fit_model(iteration, epochs)
        self.fit_committee(iteration, epochs)

    def fit_model(self, iteration: int, epochs: int) -> None:
        """Train the model further, or afresh from self.init on a cold restart."""
        x, y = self.training_data()
        seed = seeding.derive_seed(self.master_seed, iteration, seeding.STREAM_TRAIN)
        start = self.init if not self.config.warm_start and iteration > 0 else self.params
        self.params = self._trained(start, x, y, epochs, seed, iteration)

    def fit_committee(self, iteration: int, epochs: int) -> None:
        """Train the committee if the strategy reads committee_var: fresh members
        at its first fit and at every cold restart, else the current ones."""
        if "committee_var" not in STRATEGY_INPUTS[self.config.strategy]:
            return
        x, y = self.training_data()
        base = seeding.derive_seed(self.master_seed, iteration, seeding.STREAM_QBC)
        fresh = self.committee is None or not self.config.warm_start
        starts = ([init_params(self.config.spec, base + k) for k in range(self.config.qbc_members)]
                  if fresh else self.committee.members)
        self.committee = Committee(members=[
            self._trained(start, x, y, epochs, base + k, iteration, "committee ")
            for k, start in enumerate(starts)
        ])

    def _trained(self, start: NetworkParams, x: np.ndarray, y: np.ndarray, epochs: int,
                 seed: int, iteration: int, trainee: str = "") -> NetworkParams:
        """The loops' one call into `train`: `start` trained on (x, y), or
        TrainingDiverged naming `iteration` if a parameter is non-finite."""
        params, _ = train(start, x, y, epochs=epochs, batch_size=self.config.train_batch_size,
                          rng_seed=seed, learning_rate=self.config.learning_rate)
        if not params.all_finite():
            raise TrainingDiverged(
                f"{trainee}training produced non-finite parameters at iteration {iteration}")
        return params

    def aleatoric(self) -> float:
        """Mean squared residual (Mbps^2) on the held-out fold."""
        ids = self.val_ids if len(self.val_ids) else self.pool.labeled
        x = self.pool.normalized_features(ids)
        residuals = self.predict_mbps(x) - self.pool.labels_of(ids)
        return float(np.mean(residuals * residuals))

    def rmse(self) -> float:
        residuals = self.predict_mbps(self.x_test) - self.y_test
        return float(np.sqrt(np.mean(residuals * residuals)))

    def epistemic_std_mbps(self, x: np.ndarray, seed: int | np.random.Generator) -> np.ndarray:
        _, epi_var = mc_predict(self.params, x, self.config.mc_passes, seed)
        return np.sqrt(epi_var) * self.label_std

    def record(self, iteration: int, uncertainty: float) -> None:
        """Check the pool's invariants, then append the curve row for `iteration`."""
        self.pool.check_invariants()
        self.curve.append(CurveRow(iteration, len(self.pool.labeled), self.budget.spent,
                                   self.rmse(), uncertainty, self.aleatoric()))

    def fork(self, strategy: str, oracle: PoolOracle) -> _LoopState:
        """This start, with the strategy set to `strategy`, for its cycles through
        `oracle`.  The oracle's pool is a copy of the start's pool or the
        start's own, which the fork takes over with the curve; the start is
        spent then.  The rest is never changed in place, so it is shared.  A
        committee the strategy reads is trained here, as part of iteration 0."""
        strategy_inputs(strategy)  # an unknown strategy is refused before any training
        if self.candidates is None:
            raise ValueError("the start is spent: a fork took over its pool")
        fork = copy.copy(self)
        fork.config = replace(self.config, strategy=strategy)
        fork.pool, fork.budget = oracle.pool, oracle.budget
        if oracle.pool is self.pool:
            self.candidates = None  # the fork alone holds them, and drops them as it cycles
        else:
            fork.curve = LearningCurve(self.curve.rows[:])
        fork.fit_committee(0, fork.config.initial_epochs)
        return fork

    def score_arrival(self, sample_id: int, rng: np.random.Generator) -> float:
        """Admit a stream arrival into the unlabeled partition, its label
        hidden, and return its epistemic standard deviation (Mbps), scored
        with dropout masks drawn from `rng`."""
        self.pool.admit(sample_id)
        return float(self.epistemic_std_mbps(self.pool.normalized_features([sample_id]), rng)[0])

    def score_unlabeled(self, iteration: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Ascending unlabeled ids, their normalized features and their
        epistemic standard deviations (Mbps)."""
        ids = self.pool.unlabeled
        x = self.pool.normalized_features(ids)
        seed = seeding.derive_seed(self.master_seed, iteration, seeding.STREAM_SCORE)
        return ids, x, self.epistemic_std_mbps(x, seed)


class _NearestLabeled:
    """Each candidate's distance to its nearest labeled point, carried from
    one acquisition cycle to the next for the strategies that read it.

    Between two cycles of the pool loop the labeled set only grows, and the
    candidate set only loses the ids just labeled and gains collected ones.
    So an update keeps the rows of candidates seen before, folds in their
    distances to the newly labeled points with np.minimum, and measures
    only unseen candidates against the whole labeled set.  A pair's distance
    does not depend on the other rows or references, and the minimum of
    correctly rounded square roots is the square root of the minimum, so
    the vector equals _min_distances from scratch bit for bit.
    """

    def __init__(self, pool: DataPool):
        self.pool = pool
        self.ids = np.zeros(0, dtype=int)  # ascending candidate ids of the last update
        self.dists = np.zeros(0)
        self.covered = np.zeros(0, dtype=int)  # ascending labeled ids those distances cover

    def update(self, ids: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Distances for candidates `ids` (ascending) with normalized features `x`."""
        labeled = self.pool.labeled  # a superset of covered: labels are never withdrawn
        seen = np.isin(ids, self.ids, assume_unique=True)
        dists = np.empty(len(ids))
        added = np.setdiff1d(labeled, self.covered, assume_unique=True)
        new = _min_distances(x[seen], self.pool.normalized_features(added))  # inf if none added
        dists[seen] = np.minimum(self.dists[np.searchsorted(self.ids, ids[seen])], new)
        if not seen.all():
            dists[~seen] = _min_distances(x[~seen], self.pool.normalized_features(labeled))
        self.ids, self.dists, self.covered = ids, dists, labeled
        return dists


# ---------------------------------------------------------------------------
# Pool-based loop
# ---------------------------------------------------------------------------


def run_pool_loop(
    config: LoopConfig, pool: DataPool, oracle: PoolOracle, rng_seed: int
) -> LearningCurve:
    """Classic cycle: train on the seed, then per iteration score the
    unlabeled pool, acquire a batch through the oracle, fine-tune, record.

    Stops at the configured iteration count, on budget exhaustion, or when
    the unlabeled pool empties, whichever comes first.  Bit-reproducible
    for a fixed config and master seed.  The one fork of the start takes
    over `pool`, so the acquisitions land in it."""
    return run_pool_cycles(start_pool_loop(config, pool, oracle, rng_seed), config.strategy, oracle)


def start_pool_loop(
    config: LoopConfig, pool: DataPool, oracle: PoolOracle, rng_seed: int
) -> _LoopState:
    """Iteration 0 of the pool loop: the seed fit, the first scoring and
    curve row 0.  It draws on the master seed and the strategy-free config
    alone, so every strategy on one master seed forks the same start."""
    if not len(pool.unlabeled):
        raise ValueError("pool-based loop needs a non-empty unlabeled set")
    if config.collect_policy.enabled and not oracle.has_twin_world:
        raise ValueError("collection is enabled but the oracle cannot collect")

    start = _LoopState(config, pool, oracle, rng_seed)
    start.fit_model(0, config.initial_epochs)
    # The scored unlabeled set is the next cycle's candidate set: nothing
    # changes the unlabeled partition between scoring and selection.
    start.candidates = start.score_unlabeled(0)
    start.record(0, _mean(start.candidates[2]))
    return start


def run_pool_cycles(start: _LoopState, strategy: str, oracle: PoolOracle) -> LearningCurve:
    """Cycles 1.. of the pool loop for `strategy` on a fork of `start` (see
    _LoopState.fork), acquiring through `oracle`."""
    state = start.fork(strategy, oracle)
    config, reads = state.config, STRATEGY_INPUTS[strategy]
    nearest = _NearestLabeled(state.pool) if "nearest_labeled" in reads else None
    for iteration in range(1, config.iterations + 1):
        ids, x, stds = state.candidates
        if not len(ids):
            break
        inputs = AcquisitionInputs(
            candidate_ids=ids,
            candidate_features=x,
            epistemic_std=stds,
            committee_var=state.committee.disagreement(x) if "committee_var" in reads else None,
            nearest_labeled=nearest.update(ids, x) if nearest else None,
            select_seed=seeding.derive_seed(state.master_seed, iteration, seeding.STREAM_SELECT),
            hybrid_beta=config.hybrid_beta,
        )
        try:
            decision = decide_acquisition(
                strategy, inputs, config.batch_size, oracle.budget, config.collect_policy
            )
        except BudgetExhausted:
            break

        for sid in decision.annotate_ids:
            oracle.annotate(sid, iteration)
        if decision.collect_count > 0:
            oracle.collect(decision.collect_region, decision.collect_count, iteration)

        state.fit(iteration, config.fine_tune_epochs)
        state.candidates = state.score_unlabeled(iteration)
        state.record(iteration, _mean(state.candidates[2]))
    return state.curve


def _mean(values: Sequence[float]) -> float:
    return float(np.mean(values)) if len(values) else float("nan")


# ---------------------------------------------------------------------------
# Stream-based loop
# ---------------------------------------------------------------------------


class _SortedWindow:
    """The last `size` stream scores, in arrival order and sorted, so the
    rolling threshold costs one insort and one delete per arrival instead
    of a sort."""

    def __init__(self, size: int):
        self.size = size
        self.recent: deque[float] = deque()  # arrival order
        self._sorted: list[float] = []  # the non-NaN scores of `recent`, ascending
        self._nans = 0  # NaN scores in `recent`, which bisect cannot order

    def push(self, score: float) -> None:
        if len(self.recent) == self.size:
            leaving = self.recent.popleft()
            if math.isnan(leaving):
                self._nans -= 1
            else:
                del self._sorted[bisect.bisect_left(self._sorted, leaving)]
        self.recent.append(score)
        if math.isnan(score):
            self._nans += 1
        else:
            bisect.insort(self._sorted, score)

    def quantile(self, q: float) -> float:
        """np.quantile(self.recent, q) bit for bit: numpy's "linear" method
        in its own operation order, and NaN when a NaN is in the window.
        (0.0 and -0.0 tie, so either may stand at an index; scores are
        standard deviations and never -0.0.)"""
        if self._nans:
            return float("nan")
        s = self._sorted
        n = len(s)
        v = (n - 1) * q
        lo = math.floor(v)
        g = v - lo
        a, b = s[lo], s[min(lo + 1, n - 1)]
        d = b - a
        return b - d * (1 - g) if g >= 0.5 else a + d * g


def run_stream_loop(
    config: LoopConfig,
    arrivals: Iterable[int],
    pool: DataPool,
    oracle: PoolOracle,
    policy: StreamPolicy,
    rng_seed: int,
) -> tuple[LearningCurve, list[StreamDecision]]:
    """Decide per arrival whether to query its label.

    `arrivals` yields ids waiting in `pool` as arrivals.  Each is admitted as
    unlabeled, and queried when its epistemic std exceeds the rolling quantile
    of the last `window` arrival scores, budget remains and the query cap is
    not hit.  The model fine-tunes every config.stream_retrain_every queries.
    Arrival `index` draws its dropout masks from
    default_rng(derive_seed(rng_seed, index, STREAM_SCORE)), whose states
    are derived in blocks on one reused generator (seeding.derived_generators).
    Returns the learning curve plus the full per-arrival decision log."""
    if config.strategy != "uncertainty":  # it ranks by MC-dropout; a committee goes unread
        raise ValueError("the stream loop scores by epistemic uncertainty only, "
                         f"not strategy {config.strategy!r}")
    state = _LoopState(config, pool, oracle, rng_seed)
    state.fit(0, config.initial_epochs)
    seed_stds = state.epistemic_std_mbps(
        pool.normalized_features(pool.labeled),
        seeding.derive_seed(rng_seed, 0, seeding.STREAM_SCORE),
    )
    state.record(0, _mean(seed_stds))

    window = _SortedWindow(policy.window)
    log: list[StreamDecision] = []
    queries = 0
    pending = 0
    # zip takes the next arrival first, so the generators stop with the arrivals
    scorers = zip(enumerate(arrivals), seeding.derived_generators(rng_seed, seeding.STREAM_SCORE))
    for (index, sample_id), rng in scorers:
        score = state.score_arrival(sample_id, rng)
        if len(window.recent) >= STREAM_MIN_HISTORY:
            threshold = window.quantile(policy.uncertainty_threshold_quantile)
        else:
            threshold = float("inf")
        queried = (
            score > threshold
            and queries < policy.max_queries
            and oracle.budget.can_afford(oracle.budget.annotation_cost)
        )
        if queried:
            oracle.annotate(sample_id, index)
            queries += 1
            pending += 1
            if pending >= config.stream_retrain_every:
                state.fit(index + 1, config.stream_epochs)
                pending = 0
                state.record(len(state.curve.rows), _mean(window.recent))
        window.push(score)
        log.append(StreamDecision(index, score, threshold, queried))

    if pending > 0:
        state.fit(len(log) + 1, config.stream_epochs)
        state.record(len(state.curve.rows), _mean(window.recent))
    return state.curve, log


# ---------------------------------------------------------------------------
# Membership query synthesis loop
# ---------------------------------------------------------------------------


def run_synthesis_loop(
    config: LoopConfig,
    pool: DataPool,
    oracle: PoolOracle,
    policy: SynthesisPolicy,
    rng_seed: int,
) -> LearningCurve:
    """Fabricate query points instead of picking them from a pool.

    Each iteration fits a density model to the labeled features, samples
    candidate_multiple * batch_size proposals, keeps the batch with the
    highest epistemic std, and realizes them: a twin-world oracle labels
    the proposal directly (annotation + collection cost), while a plain
    pool oracle snaps the proposal to its nearest unlabeled sample and
    annotates that (annotation cost), degrading gracefully to pool-based
    querying.  The curve's uncertainty column tracks a fixed probe set."""
    if config.strategy != "uncertainty":  # it ranks by MC-dropout; a committee goes unread
        raise ValueError("the synthesis loop scores by epistemic uncertainty only, "
                         f"not strategy {config.strategy!r}")
    state = _LoopState(config, pool, oracle, rng_seed)
    state.fit(0, config.initial_epochs)

    if policy.probe_features is not None:
        probe = np.asarray(policy.probe_features, dtype=float)
    else:
        gmm0 = fit_gmm(
            pool.feature_matrix(pool.labeled), policy.gmm_components, policy.gmm_em_iters,
            seeding.derive_seed(rng_seed, 0, seeding.STREAM_GMM_FIT),
        )
        probe = sample_gmm(
            gmm0, policy.probe_size, seeding.derive_seed(rng_seed, seeding.STREAM_PROBE)
        )
    probe_norm = pool.normalizer.normalize(probe)

    def probe_std(iteration: int) -> float:
        stds = state.epistemic_std_mbps(
            probe_norm, seeding.derive_seed(rng_seed, iteration, seeding.STREAM_SCORE)
        )
        return float(np.mean(stds))

    state.record(0, probe_std(0))
    per_sample_cost = (
        oracle.budget.annotation_cost + oracle.budget.collection_cost
        if oracle.has_twin_world
        else oracle.budget.annotation_cost
    )
    for iteration in range(1, config.iterations + 1):
        gmm = fit_gmm(
            pool.feature_matrix(pool.labeled),
            policy.gmm_components, policy.gmm_em_iters,
            seeding.derive_seed(rng_seed, iteration, seeding.STREAM_GMM_FIT),
        )
        n_candidates = policy.candidate_multiple * config.batch_size
        proposals = sample_gmm(
            gmm, n_candidates,
            seeding.derive_seed(rng_seed, iteration, seeding.STREAM_GMM_SAMPLE),
        )
        proposals_norm = pool.normalizer.normalize(proposals)
        proposal_stds = state.epistemic_std_mbps(
            proposals_norm, seeding.derive_seed(rng_seed, iteration, seeding.STREAM_SELECT)
        )
        # Stable sort keeps density-model order among ties (e.g. dropout 0).
        keep = np.argsort(-proposal_stds, kind="stable")[: config.batch_size]
        if not oracle.has_twin_world:
            keep = keep[: len(pool.unlabeled)]  # each proposal labels one unlabeled sample
        keep = keep[: oracle.budget.affordable(per_sample_cost, len(keep))]
        if not len(keep):
            break
        for idx in keep:
            if oracle.has_twin_world:
                oracle.synthesize(proposals[idx], iteration)
            else:
                ids = pool.unlabeled
                dists = _min_distances(pool.normalized_features(ids), proposals_norm[idx : idx + 1])
                oracle.annotate(int(ids[np.argmin(dists)]), iteration)  # the nearest unlabeled
        state.fit(iteration, config.fine_tune_epochs)
        state.record(iteration, probe_std(iteration))
    return state.curve
