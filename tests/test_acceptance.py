"""Acceptance gate: every release criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion.  The heavy directional benchmark (criterion 4) shares its
runs with the budget/hygiene checks (criterion 5) through a module fixture.
"""

import itertools
import math
import time

import numpy as np
import pytest

from netactive.acquisition import Budget, select_core_set
from netactive.bayesian import mc_predict
from netactive.config import ExperimentConfig
from netactive.dataset import fit_normalizer, split_pool
from netactive.loop import (
    LoopConfig,
    PoolOracle,
    StreamPolicy,
    SynthesisPolicy,
    TwinOracle,
    run_pool_cycles,
    run_stream_loop,
    run_synthesis_loop,
    start_pool_loop,
)
from netactive.neural import (
    NetworkParams,
    NetworkSpec,
    backward,
    draw_dropout_masks,
    forward,
    init_params,
)
from netactive.runner import extract_stream_arrivals, run_experiment
from netactive.synth import (
    N_FEATURES,
    TwinWorld,
    fit_gmm,
    generate_synthetic_dataset,
)

BENCHMARK_SEEDS = list(range(10))


def report(criterion, passed, detail):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {criterion}: {detail}"


# -------------------------------------------------------------------------
# 1. gradient oracle
# -------------------------------------------------------------------------


def central_difference_grads(params, x, targets, masks, step=1e-5):
    """Central differences of the batch-mean squared error."""

    def loss(p):
        return np.mean((forward(p, x, masks).activations[-1][:, 0] - targets) ** 2)

    out_w, out_b = [], []
    for layer in range(len(params.weights)):
        gw = np.zeros_like(params.weights[layer])
        for idx in np.ndindex(*gw.shape):
            hi = params.copy()
            hi.weights[layer][idx] += step
            lo = params.copy()
            lo.weights[layer][idx] -= step
            gw[idx] = (loss(hi) - loss(lo)) / (2 * step)
        out_w.append(gw)
        gb = np.zeros_like(params.biases[layer])
        for idx in np.ndindex(*gb.shape):
            hi = params.copy()
            hi.biases[layer][idx] += step
            lo = params.copy()
            lo.biases[layer][idx] -= step
            gb[idx] = (loss(hi) - loss(lo)) / (2 * step)
        out_b.append(gb)
    return out_w + out_b


def test_criterion_1_gradient_oracle():
    start = time.monotonic()
    spec = NetworkSpec([3, 4, 1], dropout_rate=0.4, activation="tanh")
    rng = np.random.default_rng(2024)
    worst = 0.0
    for trial in range(20):
        params = init_params(spec, 3000 + trial)
        for batch, masked in itertools.product((1, 3), (False, True)):
            x = rng.normal(size=(batch, 3))
            targets = rng.normal(size=batch)
            masks = draw_dropout_masks(spec, rng, batch) if masked else None
            grads = backward(params, forward(params, x, masks), targets)
            numeric = central_difference_grads(params, x, targets, masks)
            for analytic, fd in zip(grads.weights + grads.biases, numeric):
                denom = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), 1e-6)
                worst = max(worst, float(np.max(np.abs(analytic - fd) / denom)))
    elapsed = time.monotonic() - start
    report(
        "1 (gradient oracle)",
        worst < 1e-4 and elapsed < 10.0,
        f"max relative error {worst:.2e} over 20 nets at B=1 and B=3, "
        f"with and without masks, in {elapsed:.1f}s",
    )


# -------------------------------------------------------------------------
# 2. MC-dropout exact oracle
# -------------------------------------------------------------------------


def test_criterion_2_mc_dropout_exact_oracle():
    start = time.monotonic()
    spec = NetworkSpec([2, 2, 1], dropout_rate=0.5, activation="tanh")
    params = NetworkParams(
        spec=spec,
        weights=[np.array([[1.0, -0.5], [0.5, 1.0]]), np.array([[1.2, 0.8]])],
        biases=[np.array([0.1, -0.2]), np.array([0.3])],
    )
    x = np.array([[0.7, -0.4]])
    outs = np.array(
        [
            forward(params, x, [np.array([bits], dtype=float)]).activations[-1][0, 0]
            for bits in itertools.product([0, 1], repeat=2)
        ]
    )
    exact_mean, exact_var = outs.mean(), outs.var()
    means, variances = mc_predict(params, x, n_passes=100_000, rng_seed=123)
    mean_err = abs(means[0] - exact_mean) / abs(exact_mean)
    var_err = abs(variances[0] - exact_var) / exact_var

    no_dropout = init_params(NetworkSpec([2, 4, 1], dropout_rate=0.0), 7)
    zero_var = mc_predict(no_dropout, x, n_passes=1000, rng_seed=5)[1][0]
    elapsed = time.monotonic() - start
    report(
        "2 (MC-dropout exact oracle)",
        mean_err < 0.01 and var_err < 0.05 and zero_var == 0.0 and elapsed < 30.0,
        f"mean err {mean_err:.4f}, var err {var_err:.4f}, "
        f"dropout-0 variance {zero_var}, {elapsed:.1f}s",
    )


# -------------------------------------------------------------------------
# 3. core-set equivalence
# -------------------------------------------------------------------------


def brute_force_k_center(labeled, candidates, k):
    references = [list(p) for p in labeled]
    remaining = dict(candidates)
    chosen = []
    for _ in range(k):
        best_id, best_dist = None, -1.0
        for cid in sorted(remaining):
            point = remaining[cid]
            dist = min(
                math.sqrt(sum((a - b) ** 2 for a, b in zip(point, ref)))
                for ref in references
            ) if references else math.inf
            if dist > best_dist:
                best_id, best_dist = cid, dist
        chosen.append(best_id)
        references.append(list(remaining.pop(best_id)))
    return chosen


def test_criterion_3_core_set_equivalence():
    start = time.monotonic()
    rng = np.random.default_rng(777)
    mismatches = 0
    for _ in range(50):
        n = int(rng.integers(5, 101))
        k = int(rng.integers(1, min(n, 10) + 1))
        dim = int(rng.integers(2, 6))
        labeled = rng.normal(size=(int(rng.integers(1, 25)), dim))
        candidates = {int(i): rng.normal(size=dim) for i in rng.choice(1000, n, replace=False)}
        ids = sorted(candidates)
        points = np.stack([candidates[i] for i in ids])
        if select_core_set(labeled, ids, points, k) != brute_force_k_center(
            labeled, candidates, k
        ):
            mismatches += 1
    elapsed = time.monotonic() - start
    report(
        "3 (core-set equivalence)",
        mismatches == 0 and elapsed < 10.0,
        f"{mismatches} mismatches over 50 instances in {elapsed:.1f}s",
    )


# -------------------------------------------------------------------------
# 4 + 5. directional benchmark and its budget/hygiene invariants
# -------------------------------------------------------------------------


def benchmark_loop_config():
    return LoopConfig(
        spec=NetworkSpec([N_FEATURES, 64, 64, 1], dropout_rate=0.2, activation="relu"),
        learning_rate=1e-3,
        iterations=12,
        batch_size=16,
        mc_passes=50,
        initial_epochs=800,
        fine_tune_epochs=120,
        train_batch_size=64,
    )


@pytest.fixture(scope="module")
def benchmark_battery():
    """10 paired (uncertainty, random) runs on the default synthetic world.
    Both strategies on a seed share its split and fork one iteration 0."""
    world = TwinWorld()
    corpus = generate_synthetic_dataset(world, 5000, rng_seed=0)
    runs = {}
    for seed in BENCHMARK_SEEDS:
        split = split_pool(corpus, test_fraction=0.2, seed_labeled_fraction=0.05, rng_seed=seed)
        split.normalizer = fit_normalizer(split)
        oracles = {strategy: PoolOracle(pool, Budget(total=500.0, annotation_cost=1.0))
                   for strategy, pool in (("uncertainty", split.copy()), ("random", split))}
        start = start_pool_loop(benchmark_loop_config(), split, oracles["random"], seed)
        for strategy, oracle in oracles.items():
            pool, budget = oracle.pool, oracle.budget
            curve = run_pool_cycles(start, strategy, oracle)
            runs[(strategy, seed)] = {
                "curve": curve,
                "pool": pool,
                "budget": budget,
                "seed_size": curve.rows[0].labeled_count,
            }
    return runs


def test_criterion_4_directional_benchmark(benchmark_battery):
    start = time.monotonic()
    wins = 0
    reductions = {"uncertainty": [], "random": []}
    for seed in BENCHMARK_SEEDS:
        unc = benchmark_battery[("uncertainty", seed)]["curve"]
        rnd = benchmark_battery[("random", seed)]["curve"]
        reductions["uncertainty"].append(unc.rows[0].test_rmse - unc.final_rmse())
        reductions["random"].append(rnd.rows[0].test_rmse - rnd.final_rmse())
        if unc.final_rmse() < rnd.final_rmse():
            wins += 1
    mean_unc = float(np.mean(reductions["uncertainty"]))
    mean_rnd = float(np.mean(reductions["random"]))
    elapsed = time.monotonic() - start
    report(
        "4 (directional benchmark)",
        wins >= 8 and mean_unc >= 2.0 * mean_rnd,
        f"uncertainty wins {wins}/10 paired seeds; mean RMSE reduction "
        f"{mean_unc:.1f} vs {mean_rnd:.1f} Mbps (ratio "
        f"{mean_unc / mean_rnd if mean_rnd else float('inf'):.2f}, "
        f"scored in {elapsed:.1f}s after shared battery)",
    )


def test_criterion_5_budget_and_hygiene(benchmark_battery):
    violations = []
    for (strategy, seed), run in benchmark_battery.items():
        budget, pool, curve = run["budget"], run["pool"], run["curve"]
        granted = curve.rows[-1].labeled_count - run["seed_size"]
        if not 0.0 <= budget.spent <= budget.total:
            violations.append(f"{strategy}/{seed}: spent outside [0, total]")
        if budget.spent != granted * budget.annotation_cost:
            violations.append(f"{strategy}/{seed}: charge mismatch")
        if set(pool.labeled) & set(pool.test):
            violations.append(f"{strategy}/{seed}: test id labeled")
        if any(pool.samples[tid].iteration_acquired is not None for tid in pool.test):
            violations.append(f"{strategy}/{seed}: test id annotated")
        counts = [r.labeled_count for r in curve.rows]
        grew = [b - a for a, b in zip(counts, counts[1:])]
        if any(g > 16 for g in grew) or any(g < 0 for g in grew):
            violations.append(f"{strategy}/{seed}: labeled growth outside grants")
    report(
        "5 (budget and hygiene invariants)",
        not violations,
        f"{len(violations)} violations across 20 benchmark runs"
        + (f": {violations[:3]}" if violations else ""),
    )


# -------------------------------------------------------------------------
# 6. determinism
# -------------------------------------------------------------------------


def test_criterion_6_determinism(tmp_path):
    config = ExperimentConfig(
        synthetic_n=600,
        strategies="uncertainty,random",
        seeds="3",
        iterations=3,
        batch_size=4,
        hidden_sizes="32",
        mc_passes=25,
        initial_epochs=60,
        fine_tune_epochs=20,
    )
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    run_experiment(config, output_dir=str(out_a))
    run_experiment(config, output_dir=str(out_b))
    diffs = []
    for name in sorted(p.name for p in out_a.iterdir()):
        if (out_a / name).read_bytes() != (out_b / name).read_bytes():
            diffs.append(name)
    report(
        "6 (determinism)",
        not diffs,
        f"repeated run produced byte-identical artifacts "
        f"({len(list(out_a.iterdir()))} files)" if not diffs else f"differs: {diffs}",
    )


# -------------------------------------------------------------------------
# 7. stream loop query rate and bounds
# -------------------------------------------------------------------------


def test_criterion_7_stream_loop():
    start = time.monotonic()
    world = TwinWorld()
    counts = []
    violations = []
    for seed in BENCHMARK_SEEDS:
        corpus = generate_synthetic_dataset(world, 2600, rng_seed=seed)
        pool = split_pool(corpus, test_fraction=0.2, seed_labeled_fraction=0.1, rng_seed=seed)
        pool.normalizer = fit_normalizer(pool)
        arrivals = extract_stream_arrivals(pool, 1000, rng_seed=seed + 1000)
        config = LoopConfig(
            spec=NetworkSpec([N_FEATURES, 64, 64, 1], dropout_rate=0.2),
            mc_passes=25,
            initial_epochs=300,
            stream_retrain_every=10,
            stream_epochs=5,
        )
        budget = Budget(total=5000.0)
        oracle = PoolOracle(pool, budget)
        policy = StreamPolicy(
            uncertainty_threshold_quantile=0.9, window=100, max_queries=10_000
        )
        _, log = run_stream_loop(config, arrivals, pool, oracle, policy, rng_seed=seed)
        queried = sum(d.queried for d in log)
        counts.append(queried)
        if queried > policy.max_queries:
            violations.append(f"seed {seed}: max_queries exceeded")
        if budget.spent > budget.total:
            violations.append(f"seed {seed}: budget exceeded")
    elapsed = time.monotonic() - start
    report(
        "7 (stream loop)",
        all(50 <= c <= 200 for c in counts) and not violations,
        f"query counts {counts} over 10 seeds, bounds clean, {elapsed:.0f}s",
    )


# -------------------------------------------------------------------------
# 8. synthesis loop epistemic reduction
# -------------------------------------------------------------------------


def test_criterion_8_synthesis_loop():
    start = time.monotonic()
    world = TwinWorld()
    probe = np.stack(
        [s.features for s in generate_synthetic_dataset(world, 200, rng_seed=777)]
    )
    reduced = 0
    deltas = []
    for seed in BENCHMARK_SEEDS:
        corpus = generate_synthetic_dataset(world, 1500, rng_seed=seed)
        pool = split_pool(corpus, test_fraction=0.2, seed_labeled_fraction=0.1, rng_seed=seed)
        pool.normalizer = fit_normalizer(pool)
        config = LoopConfig(
            spec=NetworkSpec([N_FEATURES, 64, 64, 1], dropout_rate=0.1),
            iterations=10,
            batch_size=16,
            mc_passes=50,
            initial_epochs=300,
            fine_tune_epochs=120,
        )
        oracle = TwinOracle(pool, Budget(total=5000.0), world, rng_seed=seed + 50)
        policy = SynthesisPolicy(
            gmm_components=4, gmm_em_iters=50, candidate_multiple=2, probe_features=probe
        )
        curve = run_synthesis_loop(config, pool, oracle, policy, rng_seed=seed)
        delta = curve.rows[-1].mean_epistemic_std - curve.rows[0].mean_epistemic_std
        deltas.append(delta)
        reduced += delta < 0.0
    elapsed = time.monotonic() - start
    report(
        "8 (synthesis loop)",
        reduced >= 8,
        f"probe epistemic std reduced in {reduced}/10 seeds "
        f"(mean change {np.mean(deltas):+.1f} Mbps), {elapsed:.0f}s",
    )


# -------------------------------------------------------------------------
# 9. EM monotonicity and recovery
# -------------------------------------------------------------------------


def test_criterion_9_em_monotonicity_and_recovery():
    worst_dip = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 5))
        x = rng.normal(size=(120, 3)) + rng.integers(0, 3, size=(120, 1)) * 4.0
        gmm = fit_gmm(x, k=k, em_iters=60, rng_seed=seed)
        diffs = np.diff(gmm.log_likelihood_trace)
        if diffs.size:
            worst_dip = min(worst_dip, float(diffs.min()))
    recovery_ok = True
    for seed in range(10):
        rng = np.random.default_rng(seed)
        x = np.vstack(
            [rng.normal(0.0, 1.0, size=(150, 2)), rng.normal(100.0, 1.0, size=(150, 2))]
        )
        gmm = fit_gmm(x, k=2, em_iters=100, rng_seed=seed)
        means = gmm.means[np.argsort(gmm.means[:, 0])]
        if np.any(np.abs(means[0]) >= 0.5) or np.any(np.abs(means[1] - 100.0) >= 0.5):
            recovery_ok = False
    report(
        "9 (EM monotonicity + recovery)",
        worst_dip >= -1e-9 and recovery_ok,
        f"worst log-likelihood step {worst_dip:.2e}; two-cluster recovery within 0.5",
    )


# -------------------------------------------------------------------------
# 10. dataset-gated case study (optional)
# -------------------------------------------------------------------------


def _lumos5g_path():
    import os

    return os.environ.get("NETACTIVE_LUMOS5G_CSV", "data/lumos5g.csv")


def test_criterion_10_case_study_gated(tmp_path):
    import os

    path = _lumos5g_path()
    if not os.path.exists(path):
        pytest.skip(
            "Lumos5G CSV not present; set NETACTIVE_LUMOS5G_CSV to run the "
            "dataset-gated case study"
        )
    config = ExperimentConfig(
        data_source="csv",
        csv_path=path,
        target_column="Throughput",
        categorical_column="mobility_mode",
        categorical_map_path="configs/lumos5g_mode_map.txt",
        strategies="uncertainty,random",
        batch_size=4,
        iterations=10,
        seeds="0",
        mc_passes=50,
    )
    outcome = run_experiment(config, output_dir=str(tmp_path))
    rows = outcome["summary"]
    unc = next(r for r in rows if r["strategy"] == "uncertainty" and r["seed"] == "0")
    rnd = next(r for r in rows if r["strategy"] == "random" and r["seed"] == "0")
    unc_gain = unc["rmse_initial"] - unc["rmse_final"]
    rnd_gain = rnd["rmse_initial"] - rnd["rmse_final"]
    print("\ncase study vs published reference (RMSE, Mbps):")
    print(f"  uncertainty: {unc['rmse_initial']:.1f} -> {unc['rmse_final']:.1f}  (reference 389 -> 365)")
    print(f"  random:      {rnd['rmse_initial']:.1f} -> {rnd['rmse_final']:.1f}  (reference 389 -> 385)")
    report(
        "10 (dataset-gated case study)",
        unc_gain > rnd_gain,
        f"uncertainty improvement {unc_gain:.1f} vs random {rnd_gain:.1f}",
    )
