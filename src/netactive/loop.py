"""The three active-learning loops: pool-based ranking, stream-based
arrival filtering, and density-model query synthesis."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import seeding
from .acquisition import (
    AcquisitionInputs,
    Budget,
    BudgetExhausted,
    CollectPolicy,
    CollectRegion,
    decide_acquisition,
)
from .bayesian import Committee, committee_train, mc_predict
from .dataset import ORIGIN_COLLECTED, ORIGIN_SYNTHESIZED, DataPool, Sample, fit_normalizer
from .neural import NetworkSpec, TrainHyper, init_params, predict, train
from .synth import TwinWorld, fit_gmm, realize_scenario, sample_gmm, twin_label

STREAM_MIN_HISTORY = 10  # arrivals observed before the rolling threshold is trusted


class OracleError(RuntimeError):
    """Invalid oracle request (already labeled, unknown id, no ground truth)."""


class CollectionUnsupported(OracleError):
    """This oracle cannot gather new samples (no twin world behind it)."""


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
        if self.window < 1 or self.max_queries < 1:
            raise ValueError("window and max_queries must be positive")


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
    hyper: TrainHyper = field(default_factory=TrainHyper)
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
    """Reveals hidden ground-truth labels of pool samples, charging the budget."""

    supports_collection = False
    supports_synthesis = False

    def __init__(self, pool: DataPool, budget: Budget):
        self.pool = pool
        self.budget = budget

    def annotate(self, sample_id: int) -> float:
        if sample_id not in self.pool.unlabeled:
            raise OracleError(f"sample {sample_id} is not unlabeled; refusing to annotate")
        if not self.pool.has_hidden_label(sample_id):
            raise OracleError(f"no ground truth available for sample {sample_id}")
        self.budget.charge(self.budget.annotation_cost)
        return self.pool.take_hidden_label(sample_id)

    def collect(self, region: CollectRegion, count: int, iteration: int) -> list[Sample]:
        raise CollectionUnsupported("collection requires a twin-world oracle")


class TwinOracle(PoolOracle):
    """Pool oracle backed by a twin world: can also collect new samples in a
    requested region and label synthesized scenarios directly."""

    supports_collection = True
    supports_synthesis = True

    def __init__(self, pool: DataPool, budget: Budget, world: TwinWorld, rng_seed: int):
        super().__init__(pool, budget)
        self.world = world
        self._rng_seed = rng_seed
        self._calls = 0

    def _next_rng(self) -> np.random.Generator:
        self._calls += 1
        return np.random.default_rng(seeding.derive_seed(self._rng_seed, self._calls))

    def collect(self, region: CollectRegion, count: int, iteration: int) -> list[Sample]:
        """Gather `count` new unlabeled samples near the region centroid.

        Points are drawn uniformly in the normalized-space ball, mapped back
        to raw features, snapped onto the valid schema and registered with
        their ground truth hidden.  Charges count * collection_cost once."""
        if count < 1:
            return []
        if self.pool.normalizer is None:
            raise OracleError("collection requires a fitted normalizer on the pool")
        self.budget.charge(count * self.budget.collection_cost)
        rng = self._next_rng()
        dim = region.centroid.shape[0]
        out = []
        for _ in range(count):
            direction = rng.standard_normal(dim)
            norm = np.linalg.norm(direction)
            direction = direction / norm if norm > 0 else direction
            offset = direction * region.radius * rng.random() ** (1.0 / dim)
            raw = self.pool.normalizer.denormalize(region.centroid + offset)
            raw = realize_scenario(self.world, raw, rng)
            label = twin_label(self.world, raw, int(rng.integers(0, 2**31)))
            sample = Sample(
                id=self.pool.allocate_id(),
                features=raw,
                label=label,
                origin=ORIGIN_COLLECTED,
                iteration_acquired=iteration,
            )
            self.pool.add_unlabeled(sample)  # hides the label again
            out.append(sample)
        return out

    def synthesize(self, features: np.ndarray, iteration: int) -> Sample:
        """Induce a proposed scenario in the twin world and observe its label.

        Charges one annotation plus one collection."""
        self.budget.charge(self.budget.annotation_cost + self.budget.collection_cost)
        rng = self._next_rng()
        raw = realize_scenario(self.world, np.asarray(features, dtype=float), rng)
        label = twin_label(self.world, raw, int(rng.integers(0, 2**31)))
        return Sample(
            id=self.pool.allocate_id(),
            features=raw,
            label=label,
            origin=ORIGIN_SYNTHESIZED,
            iteration_acquired=iteration,
        )


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------


class _LoopState:
    """Model, folds, label scaling and bookkeeping shared by the loop drivers."""

    def __init__(self, config: LoopConfig, pool: DataPool, master_seed: int):
        self.config = config
        self.pool = pool
        self.master_seed = master_seed
        if pool.normalizer is None:
            pool.normalizer = fit_normalizer(pool)
        if not pool.labeled:
            raise ValueError("pool needs a non-empty labeled seed")
        if not pool.test:
            raise ValueError("pool needs a non-empty test set")
        # A fixed slice of the initial seed is reserved for aleatoric
        # estimation and never trained on, so its residuals stay out of fold.
        seed_ids = sorted(pool.labeled)
        n_val = math.floor(len(seed_ids) * config.aleatoric_val_fraction)
        order = np.random.default_rng(
            seeding.derive_seed(master_seed, seeding.STREAM_ALEATORIC)
        ).permutation(len(seed_ids))
        self.val_ids = sorted(seed_ids[i] for i in order[:n_val])
        # Targets are standardized against the seed labels (fixed for the
        # whole run): training is scale-free while every reported quantity
        # stays in Mbps.
        seed_labels = pool.labels_of(seed_ids)
        self.label_mean = float(seed_labels.mean())
        self.label_std = max(float(seed_labels.std()), 1e-8)
        self.params = init_params(
            config.spec, seeding.derive_seed(master_seed, seeding.STREAM_INIT)
        )
        self.committee: Committee | None = None
        self.test_ids = sorted(pool.test)
        self.x_test = pool.normalized_features(self.test_ids)
        self.y_test = pool.labels_of(self.test_ids)

    def training_data(self) -> tuple[np.ndarray, np.ndarray]:
        ids = sorted(self.pool.labeled - set(self.val_ids))
        y = self.pool.labels_of(ids)
        return self.pool.normalized_features(ids), (y - self.label_mean) / self.label_std

    def predict_mbps(self, x: np.ndarray) -> np.ndarray:
        return predict(self.params, x) * self.label_std + self.label_mean

    def fit(self, iteration: int, epochs: int) -> None:
        """Warm-start from the current parameters; cold restart retrains
        from the same fresh initialization with the full initial schedule."""
        x, y = self.training_data()
        seed = seeding.derive_seed(self.master_seed, iteration, seeding.STREAM_TRAIN)
        if self.config.warm_start or iteration == 0:
            base = self.params
        else:
            base = init_params(
                self.config.spec, seeding.derive_seed(self.master_seed, seeding.STREAM_INIT)
            )
            epochs = self.config.initial_epochs
        self.params, _ = train(
            base, x, y, epochs=epochs, batch_size=self.config.train_batch_size,
            rng_seed=seed, hyper=self.config.hyper,
        )
        if not self.params.all_finite():
            raise ArithmeticError("training produced non-finite parameters")

    def fit_committee(self, iteration: int, epochs: int) -> None:
        x, y = self.training_data()
        base_seed = seeding.derive_seed(self.master_seed, iteration, seeding.STREAM_QBC)
        if self.committee is None or not self.config.warm_start:
            self.committee = committee_train(
                self.config.spec, x, y, self.config.qbc_members, base_seed,
                epochs=epochs, batch_size=self.config.train_batch_size, hyper=self.config.hyper,
            )
        else:
            members = []
            for k, member in enumerate(self.committee.members):
                p, _ = train(member, x, y, epochs=epochs,
                             batch_size=self.config.train_batch_size,
                             rng_seed=base_seed + k, hyper=self.config.hyper)
                members.append(p)
            self.committee = Committee(members=members)

    def aleatoric(self) -> float:
        """Mean squared residual (Mbps^2) on the held-out fold."""
        ids = self.val_ids if self.val_ids else sorted(self.pool.labeled)
        x = self.pool.normalized_features(ids)
        residuals = self.predict_mbps(x) - self.pool.labels_of(ids)
        return float(np.mean(residuals * residuals))

    def rmse(self) -> float:
        residuals = self.predict_mbps(self.x_test) - self.y_test
        return float(np.sqrt(np.mean(residuals * residuals)))

    def epistemic_std_mbps(self, x: np.ndarray, seed: int) -> np.ndarray:
        _, epi_var = mc_predict(self.params, x, self.config.mc_passes, seed)
        return np.sqrt(epi_var) * self.label_std

    def score_unlabeled(self, iteration: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sorted unlabeled ids, their normalized features and their
        epistemic standard deviations (Mbps)."""
        ids = sorted(self.pool.unlabeled)
        x = self.pool.normalized_features(ids)
        stds = np.zeros(0)
        if ids:
            seed = seeding.derive_seed(self.master_seed, iteration, seeding.STREAM_SCORE)
            stds = self.epistemic_std_mbps(x, seed)
        return np.array(ids, dtype=int), x, stds

    def check_hygiene(self) -> None:
        self.pool.check_invariants()
        if self.pool.test != frozenset(self.test_ids):
            raise AssertionError("test partition changed during the run")
        if self.pool.labeled & set(self.test_ids):
            raise AssertionError("test ids leaked into the labeled set")


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
    for a fixed config and master seed."""
    if not pool.unlabeled:
        raise ValueError("pool-based loop needs a non-empty unlabeled set")
    if oracle.budget.total <= 0.0:
        raise ValueError("budget must be positive")
    if config.collect_policy.enabled and not oracle.supports_collection:
        raise ValueError("collection is enabled but the oracle cannot collect")

    state = _LoopState(config, pool, rng_seed)
    state.fit(0, config.initial_epochs)
    if config.strategy == "qbc":
        state.fit_committee(0, config.initial_epochs)
    # The scored unlabeled set is the next cycle's candidate set: nothing
    # changes the unlabeled partition between scoring and selection.
    ids, x, stds = state.score_unlabeled(0)
    curve = LearningCurve()
    curve.append(
        CurveRow(0, len(pool.labeled), oracle.budget.spent, state.rmse(),
                 _mean(stds), state.aleatoric())
    )

    for iteration in range(1, config.iterations + 1):
        if not len(ids):
            break
        inputs = AcquisitionInputs(
            candidate_ids=ids,
            candidate_features=x,
            labeled_features=pool.normalized_features(sorted(pool.labeled)),
            epistemic_std=stds,
            committee_var=state.committee.disagreement(x) if config.strategy == "qbc" else None,
            select_seed=seeding.derive_seed(rng_seed, iteration, seeding.STREAM_SELECT),
            hybrid_beta=config.hybrid_beta,
        )
        try:
            decision = decide_acquisition(
                config.strategy, inputs, config.batch_size, oracle.budget,
                config.collect_policy,
            )
        except BudgetExhausted:
            break

        for sid in decision.annotate_ids:
            label = oracle.annotate(sid)
            pool.mark_labeled(sid, label, iteration)
        if decision.collect_count > 0:
            oracle.collect(decision.collect_region, decision.collect_count, iteration)

        state.fit(iteration, config.fine_tune_epochs)
        if config.strategy == "qbc":
            state.fit_committee(iteration, config.fine_tune_epochs)
        ids, x, stds = state.score_unlabeled(iteration)
        state.check_hygiene()
        curve.append(
            CurveRow(iteration, len(pool.labeled), oracle.budget.spent, state.rmse(),
                     _mean(stds), state.aleatoric())
        )
    return curve


def _mean(values: Sequence[float]) -> float:
    return float(np.mean(values)) if len(values) else float("nan")


# ---------------------------------------------------------------------------
# Stream-based loop
# ---------------------------------------------------------------------------


def run_stream_loop(
    config: LoopConfig,
    arrivals: Iterator[Sample] | Iterable[Sample],
    pool: DataPool,
    oracle: PoolOracle,
    policy: StreamPolicy,
    rng_seed: int,
) -> tuple[LearningCurve, list[StreamDecision]]:
    """Decide per arrival whether to query its label.

    An arrival is queried when its epistemic std exceeds the rolling
    quantile of the last `window` arrival scores, budget remains and the
    query cap is not hit.  The model fine-tunes every
    config.stream_retrain_every queries.  Returns the learning curve plus
    the full per-arrival decision log."""
    state = _LoopState(config, pool, rng_seed)
    state.fit(0, config.initial_epochs)
    curve = LearningCurve()
    seed_feats = pool.normalized_features(sorted(pool.labeled))
    seed_stds = state.epistemic_std_mbps(
        seed_feats, seeding.derive_seed(rng_seed, 0, seeding.STREAM_SCORE)
    )
    curve.append(
        CurveRow(0, len(pool.labeled), oracle.budget.spent, state.rmse(),
                 float(np.mean(seed_stds)), state.aleatoric())
    )

    history: list[float] = []
    log: list[StreamDecision] = []
    queries = 0
    pending = 0
    retrains = 0

    def record_row():
        nonlocal retrains
        retrains += 1
        window_scores = history[-policy.window :]
        curve.append(
            CurveRow(retrains, len(pool.labeled), oracle.budget.spent, state.rmse(),
                     _mean(window_scores), state.aleatoric())
        )

    for index, sample in enumerate(arrivals):
        pool.add_unlabeled(sample)
        score = float(state.epistemic_std_mbps(
            pool.normalized_features([sample.id]),
            seeding.derive_seed(rng_seed, index, seeding.STREAM_SCORE),
        )[0])
        window_scores = history[-policy.window :]
        if len(window_scores) >= STREAM_MIN_HISTORY:
            threshold = float(
                np.quantile(window_scores, policy.uncertainty_threshold_quantile)
            )
        else:
            threshold = float("inf")
        queried = (
            score > threshold
            and queries < policy.max_queries
            and oracle.budget.can_afford(oracle.budget.annotation_cost)
        )
        if queried:
            label = oracle.annotate(sample.id)
            pool.mark_labeled(sample.id, label, index)
            queries += 1
            pending += 1
            if pending >= config.stream_retrain_every:
                state.fit(index + 1, config.stream_epochs)
                pending = 0
                record_row()
        history.append(score)
        log.append(StreamDecision(index, score, threshold, queried))

    if pending > 0:
        state.fit(len(log) + 1, config.stream_epochs)
        record_row()
    state.check_hygiene()
    return curve, log


# ---------------------------------------------------------------------------
# Membership query synthesis loop
# ---------------------------------------------------------------------------


def _nearest_unlabeled(pool: DataPool, proposal_norm: np.ndarray) -> int:
    ids = sorted(pool.unlabeled)
    feats = pool.normalized_features(ids)
    d = np.sqrt(((feats - proposal_norm) ** 2).sum(axis=1))
    return ids[int(np.argmin(d))]


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
    state = _LoopState(config, pool, rng_seed)
    state.fit(0, config.initial_epochs)

    labeled_feats = pool.feature_matrix(sorted(pool.labeled))
    if policy.probe_features is not None:
        probe = np.asarray(policy.probe_features, dtype=float)
    else:
        gmm0 = fit_gmm(
            labeled_feats, policy.gmm_components, policy.gmm_em_iters,
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

    curve = LearningCurve()
    curve.append(
        CurveRow(0, len(pool.labeled), oracle.budget.spent, state.rmse(),
                 probe_std(0), state.aleatoric())
    )

    per_sample_cost = (
        oracle.budget.annotation_cost + oracle.budget.collection_cost
        if oracle.supports_synthesis
        else oracle.budget.annotation_cost
    )
    for iteration in range(1, config.iterations + 1):
        gmm = fit_gmm(
            pool.feature_matrix(sorted(pool.labeled)),
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

        realized = 0
        for idx in keep:
            if not oracle.budget.can_afford(per_sample_cost):
                break
            if oracle.supports_synthesis:
                sample = oracle.synthesize(proposals[idx], iteration)
                pool.add_labeled(sample)
            else:
                if not pool.unlabeled:
                    break
                sid = _nearest_unlabeled(pool, proposals_norm[idx])
                label = oracle.annotate(sid)
                pool.mark_labeled(sid, label, iteration)
            realized += 1
        if realized == 0:
            break
        state.fit(iteration, config.fine_tune_epochs)
        state.check_hygiene()
        curve.append(
            CurveRow(iteration, len(pool.labeled), oracle.budget.spent, state.rmse(),
                     probe_std(iteration), state.aleatoric())
        )
    return curve
