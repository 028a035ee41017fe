import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netactive.acquisition import (
    AcquisitionInputs,
    Budget,
    BudgetError,
    BudgetExhausted,
    CollectPolicy,
    decide_acquisition,
    hybrid_score,
    random_select,
    rank_uncertainty,
    select_core_set,
)


def brute_force_k_center(labeled, candidates, k):
    """Quadratic reference: recompute every point-to-set distance each round.

    Shares no code with the library implementation."""
    references = [list(p) for p in labeled]
    remaining = dict(candidates)
    chosen = []
    for _ in range(k):
        best_id, best_dist = None, -1.0
        for cid in sorted(remaining):
            point = remaining[cid]
            if references:
                dist = min(
                    math.sqrt(sum((a - b) ** 2 for a, b in zip(point, ref)))
                    for ref in references
                )
            else:
                dist = math.inf
            if dist > best_dist:
                best_id, best_dist = cid, dist
        chosen.append(best_id)
        references.append(list(remaining.pop(best_id)))
    return chosen


def rank(scores):
    """rank_uncertainty over {id: score}, as a list of ids."""
    ids = sorted(scores)
    return rank_uncertainty(np.array(ids), np.array([scores[i] for i in ids])).tolist()


def core_set(labeled, candidates, k):
    """select_core_set over {id: feature vector}."""
    ids = sorted(candidates)
    points = np.stack([candidates[i] for i in ids]) if ids else np.zeros((0, labeled.shape[1]))
    return select_core_set(labeled, np.array(ids, dtype=int), points, k)


class TestRankUncertainty:
    def test_sorts_descending(self):
        assert rank({0: 0.1, 1: 0.5, 2: 0.3}) == [1, 2, 0]

    def test_tie_break_ascending_id(self):
        assert rank({1: 0.4, 0: 0.4}) == [0, 1]
        # row order does not decide ties either
        assert rank_uncertainty(np.array([7, 3, 5]), np.array([0.4, 0.4, 0.9])).tolist() == [
            5, 3, 7
        ]

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(0)
        scores = {i: float(s) for i, s in enumerate(rng.random(30))}
        cubed = {i: s**3 for i, s in scores.items()}
        assert rank(scores) == rank(cubed)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            rank({0: float("nan")})

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            rank({})

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=30, deadline=None)
    def test_exp_transform_property(self, seed):
        rng = np.random.default_rng(seed)
        scores = {i: float(s) for i, s in enumerate(rng.random(20) * 5)}
        transformed = {i: float(np.exp(s)) for i, s in scores.items()}
        assert rank(scores) == rank(transformed)


class TestSelectCoreSet:
    def test_picks_farthest_single(self):
        labeled = np.array([[0.0, 0.0]])
        candidates = {0: np.array([1.0, 0.0]), 1: np.array([0.9, 0.0]), 2: np.array([0.0, 2.0])}
        # min-distances to the labeled point are 1, 0.9, 2
        assert core_set(labeled, candidates, k=1) == [2]

    def test_second_pick_accounts_for_first(self):
        labeled = np.array([[0.0, 0.0]])
        candidates = {0: np.array([1.0, 0.0]), 1: np.array([0.9, 0.0]), 2: np.array([0.0, 2.0])}
        # after picking (0,2): distances of the rest to {(0,0),(0,2)} are 1 and 0.9
        assert core_set(labeled, candidates, k=2) == [2, 0]

    def test_exhaustive_selection_is_permutation(self):
        rng = np.random.default_rng(1)
        candidates = {i: rng.normal(size=3) for i in range(8)}
        chosen = core_set(rng.normal(size=(2, 3)), candidates, k=8)
        assert sorted(chosen) == list(range(8))

    def test_matches_brute_force_battery(self):
        # 50 random instances, exact selection-sequence equality
        rng = np.random.default_rng(2024)
        for trial in range(50):
            n = int(rng.integers(5, 101))
            k = int(rng.integers(1, min(n, 10) + 1))
            n_labeled = int(rng.integers(1, 20))
            dim = int(rng.integers(2, 6))
            labeled = rng.normal(size=(n_labeled, dim))
            candidates = {int(i): rng.normal(size=dim) for i in rng.choice(5 * n, n, replace=False)}
            fast = core_set(labeled, candidates, k)
            slow = brute_force_k_center(labeled, candidates, k)
            assert fast == slow, f"trial {trial}: {fast} != {slow}"

    def test_empty_candidates(self):
        with pytest.raises(ValueError, match="no candidates"):
            core_set(np.zeros((1, 2)), {}, k=1)

    def test_k_too_large(self):
        with pytest.raises(ValueError):
            core_set(np.zeros((1, 2)), {0: np.zeros(2)}, k=2)


class TestHybridScore:
    def test_beta_one_pure_uncertainty(self):
        assert hybrid_score(0.7, 0.1, beta=1.0) == 0.7

    def test_beta_zero_pure_diversity(self):
        assert hybrid_score(0.7, 0.1, beta=0.0) == 0.1

    def test_geometric_mean(self):
        assert hybrid_score(4.0, 9.0, beta=0.5) == 6.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            hybrid_score(-0.1, 1.0, beta=0.5)


class TestRandomSelect:
    def test_full_selection_is_permutation(self):
        ids = [5, 2, 9, 1]
        assert sorted(random_select(ids, k=4, rng_seed=0)) == sorted(ids)

    def test_deterministic(self):
        ids = list(range(20))
        assert random_select(ids, 5, rng_seed=3) == random_select(ids, 5, rng_seed=3)

    def test_uniformity(self):
        # 10,000 draws of k=1 from 4 ids: expect 2500 +- 150 each (~3 sigma)
        counts = {i: 0 for i in range(4)}
        for seed in range(10_000):
            counts[random_select([0, 1, 2, 3], 1, rng_seed=seed)[0]] += 1
        for count in counts.values():
            assert abs(count - 2500) <= 150

    def test_k_too_large(self):
        with pytest.raises(ValueError):
            random_select([1, 2], 3, rng_seed=0)


class TestBudget:
    def test_charge_accumulates(self):
        budget = Budget(total=10.0)
        budget.charge(3.0)
        budget.charge(2.5)
        assert budget.spent == 5.5
        assert budget.remaining == 4.5

    def test_overcharge_rejected(self):
        budget = Budget(total=1.0)
        with pytest.raises(BudgetError):
            budget.charge(1.5)
        assert budget.spent == 0.0

    @given(st.lists(st.floats(min_value=0.01, max_value=5.0), max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_spent_never_exceeds_total(self, charges):
        budget = Budget(total=20.0)
        for c in charges:
            if budget.can_afford(c):
                budget.charge(c)
        assert 0.0 <= budget.spent <= budget.total


def uniform_inputs(n, seed=0, scores=None, points=None):
    rng = np.random.default_rng(seed)
    candidates = rng.normal(size=(n, 2))
    labeled = rng.normal(size=(4, 2))
    stds = rng.random(n) if scores is None else np.array([scores[i] for i in range(n)])
    return AcquisitionInputs(
        candidate_ids=np.arange(n),
        candidate_features=candidates if points is None else points,
        labeled_features=labeled,
        epistemic_std=stds,
        select_seed=7,
    )


class TestDecideAcquisition:
    def test_budget_truncates_batch(self):
        inputs = uniform_inputs(10)
        budget = Budget(total=3.0, annotation_cost=1.0)
        decision = decide_acquisition("uncertainty", inputs, batch_size=4, budget=budget)
        assert len(decision.annotate_ids) == 3
        assert decision.cost == 3.0

    def test_uncertainty_follows_ranking(self):
        inputs = uniform_inputs(3, scores={0: 0.1, 1: 0.9, 2: 0.5})
        decision = decide_acquisition(
            "uncertainty", inputs, batch_size=2, budget=Budget(total=100.0)
        )
        assert decision.annotate_ids == [1, 2]

    def test_collect_count_and_cost(self):
        inputs = uniform_inputs(10)
        budget = Budget(total=1000.0, annotation_cost=1.0, collection_cost=0.25)
        decision = decide_acquisition(
            "uncertainty", inputs, batch_size=4, budget=budget,
            collect_policy=CollectPolicy(enabled=True, collect_fraction=0.5),
        )
        assert decision.collect_count == 2
        assert decision.cost == 4 * 1.0 + 2 * 0.25
        assert decision.collect_region is not None
        assert decision.collect_region.radius >= 0.0

    def test_collect_region_geometry(self):
        scores = {0: 1.0, 1: 0.9, 2: 0.0}
        inputs = uniform_inputs(
            3, scores=scores, points=np.array([[0.0, 0.0], [2.0, 0.0], [50.0, 50.0]])
        )
        decision = decide_acquisition(
            "uncertainty", inputs, batch_size=2, budget=Budget(total=100.0),
            collect_policy=CollectPolicy(enabled=True, collect_fraction=1.0),
        )
        np.testing.assert_allclose(decision.collect_region.centroid, [1.0, 0.0])
        np.testing.assert_allclose(decision.collect_region.radius, 1.0)

    def test_exhausted_budget_signals_stop(self):
        inputs = uniform_inputs(5)
        budget = Budget(total=10.0, annotation_cost=1.0, spent=9.5)
        with pytest.raises(BudgetExhausted):
            decide_acquisition("uncertainty", inputs, batch_size=2, budget=budget)

    def test_collection_truncated_by_budget(self):
        inputs = uniform_inputs(10)
        budget = Budget(total=4.5, annotation_cost=1.0, collection_cost=0.25)
        decision = decide_acquisition(
            "uncertainty", inputs, batch_size=4, budget=budget,
            collect_policy=CollectPolicy(enabled=True, collect_fraction=1.0),
        )
        # 4 annotations leave 0.5 -> only 2 of the requested 4 collections
        assert decision.collect_count == 2
        assert decision.cost <= budget.remaining

    def test_random_strategy_deterministic(self):
        inputs = uniform_inputs(20)
        a = decide_acquisition("random", inputs, batch_size=5, budget=Budget(total=100.0))
        b = decide_acquisition("random", inputs, batch_size=5, budget=Budget(total=100.0))
        assert a.annotate_ids == b.annotate_ids

    def test_qbc_requires_committee_scores(self):
        inputs = uniform_inputs(5)
        with pytest.raises(ValueError, match="committee"):
            decide_acquisition("qbc", inputs, batch_size=2, budget=Budget(total=10.0))

    def test_unknown_strategy(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            decide_acquisition("psychic", uniform_inputs(3), 1, Budget(total=10.0))

    def test_batch_size_must_be_positive(self):
        with pytest.raises(ValueError, match="batch_size"):
            decide_acquisition("uncertainty", uniform_inputs(3), 0, Budget(total=10.0))

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=25, deadline=None)
    def test_score_transform_leaves_selection_unchanged(self, seed):
        rng = np.random.default_rng(seed)
        scores = {i: float(s) for i, s in enumerate(rng.random(15))}
        inputs_raw = uniform_inputs(15, seed=seed, scores=scores)
        inputs_exp = uniform_inputs(
            15, seed=seed, scores={i: float(np.exp(s)) for i, s in scores.items()}
        )
        a = decide_acquisition("uncertainty", inputs_raw, 4, Budget(total=100.0))
        b = decide_acquisition("uncertainty", inputs_exp, 4, Budget(total=100.0))
        assert a.annotate_ids == b.annotate_ids

    def test_hybrid_strategy_blends(self):
        rng = np.random.default_rng(4)
        inputs = AcquisitionInputs(
            candidate_ids=np.arange(12),
            candidate_features=rng.normal(size=(12, 2)),
            labeled_features=rng.normal(size=(3, 2)),
            epistemic_std=rng.random(12),
            hybrid_beta=0.5,
        )
        decision = decide_acquisition("hybrid", inputs, 3, Budget(total=100.0))
        assert len(decision.annotate_ids) == 3
        assert len(set(decision.annotate_ids)) == 3

    def test_coreset_strategy_uses_distances(self):
        labeled = np.array([[0.0, 0.0]])
        inputs = AcquisitionInputs(
            candidate_ids=np.arange(3),
            candidate_features=np.array([[1.0, 0.0], [0.9, 0.0], [0.0, 2.0]]),
            labeled_features=labeled,
        )
        decision = decide_acquisition("coreset", inputs, 1, Budget(total=10.0))
        assert decision.annotate_ids == [2]
