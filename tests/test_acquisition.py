import dataclasses
import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netactive import bayesian
from netactive.acquisition import (
    AcquisitionInputs,
    Budget,
    BudgetError,
    BudgetExhausted,
    CollectPolicy,
    _min_distances,
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


def blocked_min_distances(points, references):
    """The blocked formula _min_distances used to have: as many references
    per (n, block, F) difference temporary as fit in 2**20 elements."""
    n, dim = points.shape
    block = max(1, 2**20 // max(1, n * dim))
    best = np.full(n, np.inf)
    for start in range(0, len(references), block):
        refs = references[start : start + block]
        d = np.sqrt(((points[:, None, :] - refs[None, :, :]) ** 2).sum(axis=-1))
        best = np.minimum(best, d.min(axis=1))
    return best


def adversarial_layouts(rng, n, m, dim, scale):
    """(name, points, references) of n points and m references in `dim`
    features, laid out where a distance shortlist could go wrong."""
    points, references = rng.normal(size=(n, dim)) * scale, rng.normal(size=(m, dim)) * scale
    picks = rng.integers(0, max(m, 1), size=n)  # a reference per point
    grid = rng.integers(-3, 4, size=(n + m + 1, dim)) * scale
    centre, half = grid[-1:], grid[n : n + (m + 1) // 2]
    yield "gaussian", points, references
    yield "offset", points + 1e6, references + 1e6
    if m:
        yield "near_ties", references[picks] + rng.normal(size=(n, dim)) * 1e-9 * scale, references
        yield "points_are_references", references[picks], references
        yield "identical_references", points, np.repeat(references[:1], m, axis=0)
        # the references come in pairs mirrored about the first point
        mirrored = np.concatenate([centre + half, centre - half])[:m]
        yield "mirror_ties", np.concatenate([centre, grid[:n]])[:n], mirrored
    yield "integer_grid", grid[:n], grid[n : n + m]


class TestMinDistances:
    # (candidates, references, features): a block of the blocked formula holds
    # every reference, several of them (11 and 2), or one at a time; the
    # kernel's estimate blocks hold every row or a share of them.
    @pytest.mark.parametrize("n,m,dim", [(40, 30, 3), (300, 50, 19), (5000, 40, 19),
                                         (20_000, 5, 19), (60_000, 3, 19), (1, 7, 1000),
                                         (0, 272, 19), (1, 0, 40), (3, 1, 1), (5000, 1, 40),
                                         (5000, 2, 1), (3, 2, 1000), (1000, 272, 19),
                                         (3, 272, 1000), (1, 272, 40)])
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3, 1e-6, 1e6])
    def test_matches_blocked_formula_bit_for_bit(self, n, m, dim, scale):
        rng = np.random.default_rng(n + m + dim)
        for name, points, references in adversarial_layouts(rng, n, m, dim, scale):
            assert (_min_distances(points, references).tobytes()
                    == blocked_min_distances(points, references).tobytes()), name

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 5000])
    @pytest.mark.parametrize("m", [0, 272])
    def test_bytes_do_not_depend_on_worker_count(self, monkeypatch, workers, n, m):
        # the kernel runs in the calling thread: with parts as short as one
        # row and up to three workers, no thread starts and the bytes hold
        def no_thread(self):
            raise AssertionError("a thread was started")

        rng = np.random.default_rng(n + m)
        points, references = rng.normal(size=(n, 19)), rng.normal(size=(m, 19))
        monkeypatch.setattr(bayesian, "WORKERS", workers)
        monkeypatch.setattr(threading.Thread, "start", no_thread)
        assert (_min_distances(points, references).tobytes()
                == blocked_min_distances(points, references).tobytes())

    def test_overflowing_estimate_keeps_every_reference(self):
        # |x|^2 overflows for the first and last point, so their estimates
        # are inf or nan; each still gets its exact nearest distance
        points = np.array([[1e154] * 19, [1.0] * 19, [-1e154] * 19, [1e200, 0.0] + [0.0] * 17])
        references = np.array([[1e154] * 19, [0.0] * 19, [-1e154] * 19, [2.0] * 19,
                               [1e200, 1.0] + [0.0] * 17])
        with np.errstate(over="ignore"):
            got = _min_distances(points, references)
            expected = blocked_min_distances(points, references)
        assert got.tobytes() == expected.tobytes()
        assert got.tolist() == [0.0, math.sqrt(19.0), 0.0, 1.0]

    def test_fewer_than_two_parts_of_rows_start_no_thread(self, monkeypatch):
        # the pool loop's few collected candidates are measured in the
        # calling thread, and so are 2048 rows or more
        def no_thread(self):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(bayesian, "WORKERS", 3)
        monkeypatch.setattr(threading.Thread, "start", no_thread)
        references = np.ones((272, 19))
        for n in (0, 8, 2047, 2048):
            assert _min_distances(np.zeros((n, 19)), references).shape == (n,)

    @pytest.mark.parametrize("where, m", [("points", 0), ("points", 1), ("points", 5),
                                          ("references", 1), ("references", 5)])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_refused(self, where, m, bad):
        points, references = np.zeros((4, 3)), np.ones((m, 3))
        (points if where == "points" else references)[-1, 1] = bad
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="finite"):
            _min_distances(points, references)

    def test_no_references_gives_inf(self):
        assert np.array_equal(_min_distances(np.zeros((3, 2)), np.zeros((0, 2))),
                              np.full(3, np.inf))


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

    @given(
        total=st.floats(min_value=0.0, max_value=1e6),
        spent_share=st.floats(min_value=0.0, max_value=1.0),
        unit_cost=st.floats(min_value=1e-12, max_value=1e4),
        reserved_share=st.floats(min_value=0.0, max_value=1.2),
        wanted=st.integers(min_value=0, max_value=10**12),
        more=st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=300, deadline=None)
    def test_affordable_is_the_largest_affordable_count(
        self, total, spent_share, unit_cost, reserved_share, wanted, more
    ):
        budget = Budget(total=total, spent=total * spent_share)
        reserved = budget.remaining * reserved_share
        n = budget.affordable(unit_cost, wanted, reserved=reserved)
        assert 0 <= n <= wanted
        if n > 0:
            assert budget.can_afford(reserved + n * unit_cost)
        if n < wanted:
            assert not budget.can_afford(reserved + (n + 1) * unit_cost)
        assert budget.affordable(unit_cost, wanted + more, reserved=reserved) >= n

    def test_affordable_counts_past_a_rounded_estimate(self):
        # 16384 + n * 1e-12 rounds to a multiple of ~3.6e-12: n = 1002 fits
        # the tolerance although (remaining - reserved + 1e-9) / cost is 1000
        budget = Budget(total=16384.0)
        n = budget.affordable(1e-12, 1003, reserved=16384.0)
        assert budget.can_afford(16384.0 + n * 1e-12)
        assert not budget.can_afford(16384.0 + (n + 1) * 1e-12)
        assert budget.affordable(1e-12, 1004, reserved=16384.0) == n

    def test_affordable_with_infinite_budget_is_wanted(self):
        budget = Budget(total=math.inf, annotation_cost=1e300)
        assert budget.affordable(1e300, 10**15, reserved=1e300) == 10**15

    def test_affordable_counts_within_the_tolerance(self):
        # can_afford's 1e-9 slack affords twice the floor estimate here ...
        assert Budget(total=1e-9).affordable(1e-12, 10**6) == 2000
        # ... and absorbs the rounding of 3 * 0.1 = 0.30000000000000004
        assert Budget(total=0.3).affordable(0.1, 10) == 3
        assert Budget(total=0.3).affordable(1000.0, 5) == 0


def charge_like_pool_loop(budget, decision):
    """Charge a decision the way run_pool_loop's oracle does: one annotation
    at a time, then the whole collection at once."""
    for _ in decision.annotate_ids:
        budget.charge(budget.annotation_cost)
    if decision.collect_count > 0:
        budget.charge(decision.collect_count * budget.collection_cost)


def uniform_inputs(n, seed=0, scores=None, points=None):
    rng = np.random.default_rng(seed)
    candidates = rng.normal(size=(n, 2))
    labeled = rng.normal(size=(4, 2))
    stds = rng.random(n) if scores is None else np.array([scores[i] for i in range(n)])
    points = candidates if points is None else points
    return AcquisitionInputs(
        candidate_ids=np.arange(n),
        candidate_features=points,
        epistemic_std=stds,
        nearest_labeled=_min_distances(points, labeled),
        select_seed=7,
    )


class TestDecideAcquisition:
    def test_budget_truncates_batch(self):
        inputs = uniform_inputs(10)
        budget = Budget(total=3.0, annotation_cost=1.0)
        decision = decide_acquisition("uncertainty", inputs, batch_size=4, budget=budget)
        assert len(decision.annotate_ids) == 3
        charge_like_pool_loop(budget, decision)
        assert budget.spent == 3.0

    @given(
        annotations=st.integers(min_value=0, max_value=40),
        collections=st.integers(min_value=0, max_value=40),
        shortfall=st.floats(min_value=0.0, max_value=2e-9),
        annotation_cost=st.floats(min_value=1e-3, max_value=1e3),
        collection_cost=st.floats(min_value=1e-3, max_value=1e3),
        batch_size=st.integers(min_value=1, max_value=40),
        collect_fraction=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=400, deadline=None)
    def test_a_decision_is_always_chargeable(
        self, annotations, collections, shortfall, annotation_cost, collection_cost, batch_size,
        collect_fraction,
    ):
        # totals just short of a whole number of charges, by up to two
        # cost-scaled tolerances: where a second sizing rule would overplan
        total = annotations * annotation_cost + collections * collection_cost
        total = max(0.0, total - shortfall * max(annotation_cost, collection_cost))
        budget = Budget(total=total, annotation_cost=annotation_cost,
                        collection_cost=collection_cost)
        policy = CollectPolicy(enabled=True, collect_fraction=collect_fraction)
        try:
            decision = decide_acquisition("uncertainty", uniform_inputs(30), batch_size,
                                          budget, policy)
        except BudgetExhausted:
            assert not budget.can_afford(annotation_cost)
            return
        charge_like_pool_loop(budget, decision)  # raises BudgetError on an overplan
        assert budget.spent <= budget.total

    @pytest.mark.parametrize("total, collect", [(999.9999995, False), (1999.9999995, True)])
    def test_no_charge_planned_past_the_tolerance(self, total, collect):
        # the old floor rule planned one more annotation (or collection) here
        # than charge accepts, and the run aborted with BudgetError
        budget = Budget(total=total, annotation_cost=1000.0, collection_cost=1000.0)
        policy = CollectPolicy(enabled=collect, collect_fraction=1.0)
        if not collect:
            with pytest.raises(BudgetExhausted):
                decide_acquisition("uncertainty", uniform_inputs(5), 1, budget, policy)
            return
        decision = decide_acquisition("uncertainty", uniform_inputs(5), 1, budget, policy)
        assert (len(decision.annotate_ids), decision.collect_count) == (1, 0)
        charge_like_pool_loop(budget, decision)
        assert budget.spent == 1000.0

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
        charge_like_pool_loop(budget, decision)
        assert budget.spent == 4 * 1.0 + 2 * 0.25
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
        charge_like_pool_loop(budget, decision)
        assert budget.spent <= budget.total

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
        candidates = rng.normal(size=(12, 2))
        inputs = AcquisitionInputs(
            candidate_ids=np.arange(12),
            candidate_features=candidates,
            nearest_labeled=_min_distances(candidates, rng.normal(size=(3, 2))),
            epistemic_std=rng.random(12),
            hybrid_beta=0.5,
        )
        decision = decide_acquisition("hybrid", inputs, 3, Budget(total=100.0))
        assert len(decision.annotate_ids) == 3
        assert len(set(decision.annotate_ids)) == 3

    def test_coreset_strategy_uses_distances(self):
        labeled = np.array([[0.0, 0.0]])
        candidates = np.array([[1.0, 0.0], [0.9, 0.0], [0.0, 2.0]])
        inputs = AcquisitionInputs(
            candidate_ids=np.arange(3),
            candidate_features=candidates,
            nearest_labeled=_min_distances(candidates, labeled),
        )
        decision = decide_acquisition("coreset", inputs, 1, Budget(total=10.0))
        assert decision.annotate_ids == [2]

    @pytest.mark.parametrize(
        "distances",
        [np.ones(4), np.array([0.1, -0.2, 0.3, 0.4, 0.5]), np.array([0.1, np.nan, 0.3, 0.4, 0.5])],
        ids=["misshaped", "negative", "nan"],
    )
    def test_bad_nearest_labeled_rejected(self, distances):
        with pytest.raises(ValueError, match="nearest_labeled"):
            AcquisitionInputs(
                candidate_ids=np.arange(5),
                candidate_features=np.zeros((5, 2)),
                epistemic_std=np.ones(5),
                nearest_labeled=distances,
            )

    @pytest.mark.parametrize("strategy", ["coreset", "hybrid"])
    def test_distance_strategies_require_nearest_labeled(self, strategy):
        inputs = dataclasses.replace(uniform_inputs(5), nearest_labeled=None)
        with pytest.raises(ValueError, match="nearest_labeled"):
            decide_acquisition(strategy, inputs, batch_size=2, budget=Budget(total=10.0))

    def test_uncertainty_requires_epistemic_std(self):
        inputs = dataclasses.replace(uniform_inputs(5), epistemic_std=None)
        with pytest.raises(ValueError, match="epistemic_std"):
            decide_acquisition("uncertainty", inputs, batch_size=2, budget=Budget(total=10.0))

    def test_hybrid_without_labeled_set_ranks_by_uncertainty(self):
        inputs = uniform_inputs(10, seed=3)
        inputs.nearest_labeled = _min_distances(inputs.candidate_features, np.zeros((0, 2)))
        assert np.isposinf(inputs.nearest_labeled).all()
        hybrid = decide_acquisition("hybrid", inputs, 4, Budget(total=100.0))
        uncertainty = decide_acquisition("uncertainty", inputs, 4, Budget(total=100.0))
        assert hybrid.annotate_ids == uncertainty.annotate_ids
