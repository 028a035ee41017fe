"""Output checks, computed by the benchmark apart from the program.

Every check takes plain values (parsed artifact rows, ids, arrays) and
returns a list of problems; an empty list means the output passed.  The
checks re-derive what they compare from the artifacts or from properties
the method must have; none of them calls into netactive.
"""

from __future__ import annotations

import csv
import math

import numpy as np

REL_TOL = 1e-12
SCHEMA_TOL = 1e-9


def read_rows(path: str) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-9)


def _sig6(value: float) -> float:
    """The curve files print budget and RMSE with 6 significant digits."""
    return float(f"{value:.6g}")


def check_curve(
    rows: list[dict[str, str]],
    batch_size: int,
    annotation_cost: float,
    collection_cost: float,
    collect_per_cycle: int,
) -> list[str]:
    """Each cycle labels exactly batch_size samples, and the budget spent
    is annotations x cost plus collected samples x cost."""
    problems = []
    if len(rows) < 2:
        return [f"curve has {len(rows)} rows, expected at least 2"]
    labeled0 = int(rows[0]["labeled_count"])
    for i, row in enumerate(rows):
        if int(row["iteration"]) != i:
            problems.append(f"row {i}: iteration {row['iteration']}")
        labeled = int(row["labeled_count"])
        if labeled != labeled0 + i * batch_size:
            problems.append(f"row {i}: labeled_count {labeled}, expected {labeled0 + i * batch_size}")
        spent = (labeled - labeled0) * annotation_cost + i * collect_per_cycle * collection_cost
        if float(row["budget_spent"]) != _sig6(spent):
            problems.append(f"row {i}: budget_spent {row['budget_spent']}, expected {spent:.6g}")
    return problems


def check_collected_total(
    rows: list[dict[str, str]], n_collected: int, collect_per_cycle: int
) -> list[str]:
    """The pool holds exactly the samples the budget paid collection for."""
    expected = (len(rows) - 1) * collect_per_cycle
    if n_collected != expected:
        return [f"pool holds {n_collected} collected samples, budget paid for {expected}"]
    return []


def check_beats_constant(final_rmse: float, y_test: np.ndarray, train_labels: np.ndarray) -> list[str]:
    """The learner must beat predicting the training-label mean on the test set."""
    constant = float(np.mean(train_labels))
    baseline = float(np.sqrt(np.mean((np.asarray(y_test) - constant) ** 2)))
    if not final_rmse < baseline:
        return [f"final RMSE {final_rmse} is not below the constant predictor's {baseline}"]
    return []


def check_no_test_labeled(labeled_ids, test_ids) -> list[str]:
    leaked = sorted(set(labeled_ids) & set(test_ids))
    if leaked:
        return [f"test ids labeled: {leaked[:5]}"]
    return []


def check_summary(
    summary: list[dict[str, str]], curves: dict[tuple[str, int], list[dict[str, str]]]
) -> list[str]:
    """summary.csv against the per-seed values, means, standard deviations
    and paired differences recomputed from the curve files."""
    problems = []
    strategies = list(dict.fromkeys(s for s, _ in curves))
    seeds = list(dict.fromkeys(seed for _, seed in curves))
    expected: dict[tuple[str, str], dict[str, float | None]] = {}
    for strategy in strategies:
        initials = np.array([float(curves[(strategy, s)][0]["test_rmse"]) for s in seeds])
        finals = np.array([float(curves[(strategy, s)][-1]["test_rmse"]) for s in seeds])
        for k, seed in enumerate(seeds):
            diff = None
            if "random" in strategies and strategy != "random":
                diff = finals[k] - float(curves[("random", seed)][-1]["test_rmse"])
            expected[(strategy, str(seed))] = {
                "rmse_initial": initials[k], "rmse_final": finals[k],
                "rmse_reduction": initials[k] - finals[k], "rmse_final_minus_random": diff,
            }
        for label, stat in (("mean", np.mean), ("std", np.std)):
            expected[(strategy, label)] = {
                "rmse_initial": stat(initials), "rmse_final": stat(finals),
                "rmse_reduction": stat(initials - finals), "rmse_final_minus_random": None,
            }
    seen = set()
    for row in summary:
        key = (row["strategy"], row["seed"])
        seen.add(key)
        if key not in expected:
            problems.append(f"summary row {key} has no curve")
            continue
        for column, value in expected[key].items():
            cell = row[column]
            if value is None:
                if cell != "":
                    problems.append(f"summary {key} {column}: {cell!r}, expected empty")
            elif cell == "" or not _close(float(cell), float(value)):
                problems.append(f"summary {key} {column}: {cell!r}, recomputed {value!r}")
    for key in sorted(set(expected) - seen):
        problems.append(f"summary row {key} missing")
    return problems


def check_collected_schema(features: np.ndarray) -> list[str]:
    """Collected samples lie on the twin-world schema: mode 0 or 1, speed
    at least 0, center_dist = hypot(x, y), sin^2 + cos^2 = 1 for the
    compass and trajectory angles."""
    problems = []
    for i, f in enumerate(np.atleast_2d(features)):
        if f[3] not in (0.0, 1.0):
            problems.append(f"collected {i}: mode {f[3]}")
        if not f[2] >= 0.0:
            problems.append(f"collected {i}: speed {f[2]}")
        if not math.isclose(f[14], math.hypot(f[0], f[1]), rel_tol=SCHEMA_TOL, abs_tol=SCHEMA_TOL):
            problems.append(f"collected {i}: center_dist {f[14]} != hypot {math.hypot(f[0], f[1])}")
        for s, c, what in ((f[15], f[16], "compass"), (f[17], f[18], "trajectory")):
            if not abs(s * s + c * c - 1.0) <= SCHEMA_TOL:
                problems.append(f"collected {i}: {what} sin^2 + cos^2 = {s * s + c * c}")
    return problems


def check_stream_log(
    scores: list[float],
    thresholds: list[float],
    queried: list[bool],
    quantile: float,
    window: int,
    min_history: int,
    max_queries: int,
) -> dict[int, str]:
    """Per-arrival problems of a stream decision log.

    Each threshold is np.quantile of the previous `window` logged scores
    (infinite until `min_history` scores exist).  An arrival is queried
    exactly when its score is above its threshold and the query cap is not
    reached; the budget is unlimited in the benchmark."""
    problems: dict[int, str] = {}
    queries = 0
    for i, (score, threshold, was_queried) in enumerate(zip(scores, thresholds, queried)):
        previous = scores[max(0, i - window) : i]
        if len(previous) < min_history:
            expected = math.inf
        else:
            expected = float(np.quantile(previous, quantile))
        if not (threshold == expected or _close(threshold, expected)):
            problems[i] = f"threshold {threshold!r}, recomputed {expected!r}"
        elif was_queried != (score > threshold and queries < max_queries):
            problems[i] = f"queried={was_queried} with score {score!r} and threshold {threshold!r}"
        queries += was_queried
    return problems


def check_stream_totals(
    n_logged: int, n_requested: int, queries: int, max_queries: int,
    spent: float, annotation_cost: float,
) -> list[str]:
    problems = []
    if n_logged != n_requested:
        problems.append(f"decision log has {n_logged} arrivals, {n_requested} requested")
    if queries > max_queries:
        problems.append(f"{queries} queries exceed max_queries {max_queries}")
    if not _close(spent, queries * annotation_cost):
        problems.append(f"budget spent {spent}, expected {queries} x {annotation_cost}")
    return problems
