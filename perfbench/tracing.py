"""In-memory spans around calls into netactive's modules.

The program is not changed: the tracer replaces a function or method by a
timing wrapper at the place where callers look it up (a module global such
as ``netactive.loop.train``, or a class attribute such as
``DataPool.add_unlabeled``) and puts the original back on ``close``.  Each
call records one span (name, start, end, parent span, round id, work
count).  Spans stay in a list until the benchmark writes them out at the
end of the run.
"""

from __future__ import annotations

import json
import math
import os
import time
from collections import defaultdict

from netactive import bayesian, dataset, loop, neural, runner, synth


def _train_steps(params, x, y, epochs, batch_size, *args, **kwargs):
    return epochs * math.ceil(len(x) / batch_size)


def _rows(params, x, *args, **kwargs):
    return len(x)


def _row_passes(params, x, n_passes, *args, **kwargs):
    return len(x) * n_passes


def _candidates(strategy, inputs, *args, **kwargs):
    return len(inputs.candidate_features)


def _ids(pool, ids):
    return len(ids)


def _synth_samples(world, n, rng_seed):
    return n


def _collect_samples(oracle, region, count, iteration):
    return count


def _written_bytes(obj, path):
    return os.path.getsize(path)


# (owner, attribute, span name, work count or None).  A function imported
# into several modules is wrapped in each of them, so every call site is
# timed.  Sites missing from the program are skipped, and their layer
# reads zero.
SITES = [
    (loop, "train", "neural.train", _train_steps),
    (bayesian, "train", "neural.train", _train_steps),
    (loop, "predict", "neural.predict", _rows),
    (bayesian, "predict", "neural.predict", _rows),
    (neural, "predict", "neural.predict", _rows),
    (loop, "mc_predict", "bayesian.mc_predict", None),
    (loop, "mc_predict_batch", "bayesian.mc_predict_batch", _row_passes),
    (loop, "decide_acquisition", "acquisition.decide_acquisition", _candidates),
    (dataset.DataPool, "normalized_features", "dataset.normalized_features", _ids),
    (dataset.DataPool, "add_unlabeled", "dataset.add_unlabeled", None),
    (dataset.DataPool, "check_invariants", "dataset.check_invariants", None),
    (dataset, "split_pool", "dataset.split_pool", None),
    (runner, "split_pool", "dataset.split_pool", None),
    (dataset, "fit_normalizer", "dataset.fit_normalizer", None),
    (runner, "fit_normalizer", "dataset.fit_normalizer", None),
    (loop, "fit_normalizer", "dataset.fit_normalizer", None),
    (synth, "generate_synthetic_dataset", "synth.generate_synthetic_dataset", _synth_samples),
    (runner, "generate_synthetic_dataset", "synth.generate_synthetic_dataset", _synth_samples),
    (loop.PoolOracle, "annotate", "loop.annotate", None),
    (loop.TwinOracle, "collect", "loop.collect", _collect_samples),
    (loop, "run_pool_loop", "loop.run_loop", None),
    (loop, "run_stream_loop", "loop.run_loop", None),
    (runner, "run_pool_loop", "loop.run_loop", None),
    (runner, "run_stream_loop", "loop.run_loop", None),
    (loop.LearningCurve, "to_csv", "runner.artifacts", _written_bytes),
    (runner, "write_annotations", "runner.artifacts", _written_bytes),
    (runner, "write_summary", "runner.artifacts", _written_bytes),
]

# Per-layer metrics: span name -> (name of its work count, fields reported).
# A "<count>_per_s" field is the work count per second of self time.
LAYERS = {
    "neural.train": ("steps", ("calls", "steps", "self_s", "steps_per_s")),
    "neural.predict": ("rows", ("rows", "self_s")),
    "bayesian.mc_predict": (None, ("calls", "self_s")),
    "bayesian.mc_predict_batch": ("row_passes", ("row_passes", "self_s", "row_passes_per_s")),
    "acquisition.decide_acquisition": ("candidates", ("calls", "candidates", "self_s")),
    "dataset.normalized_features": ("rows", ("calls", "rows", "self_s")),
    "dataset.add_unlabeled": (None, ("calls", "self_s")),
    "dataset.check_invariants": (None, ("calls", "self_s")),
    "dataset.split_pool": (None, ("self_s",)),
    "dataset.fit_normalizer": (None, ("self_s",)),
    "synth.generate_synthetic_dataset": ("samples", ("samples", "self_s")),
    "loop.annotate": (None, ("calls", "self_s")),
    "loop.collect": ("samples", ("samples", "self_s")),
    "loop.run_loop": (None, ("self_s",)),
    "runner.artifacts": ("bytes", ("bytes", "self_s")),
}


class Tracer:
    """Records a span per call of every wrapped site while installed."""

    def __init__(self):
        # One list per span: [name, start, end, parent index, round id, count].
        self.spans: list[list] = []
        self.round_id = 0
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for owner, attr, name, count in SITES:
            original = vars(owner).get(attr)
            if original is None:
                continue
            setattr(owner, attr, self._wrap(original, name, count))
            self._originals.append((owner, attr, original))

    def close(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def _wrap(self, original, name, count):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.round_id, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if count is not None:
                span[5] = count(*args, **kwargs)
            return result

        return traced

    def layer_totals(self, round_ids: set[int]) -> dict[str, dict[str, float]]:
        """calls, self seconds and work count per span name, over the given rounds.

        A span's self time is its duration minus the durations of the spans
        it called directly."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, rid, n in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "self_s": 0.0, "count": 0}
        )
        for i, (name, start, end, parent, rid, n) in enumerate(self.spans):
            if rid in round_ids:
                t = totals[name]
                t["calls"] += 1
                t["self_s"] += end - start - child_time[i]
                t["count"] += n
        return totals

    def write(self, path: str) -> None:
        """One JSON object per span, in call order."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, rid, n) in enumerate(self.spans):
                fh.write(json.dumps(
                    {"id": i, "parent": parent, "round": rid, "name": name,
                     "start": start, "end": end, "count": n}
                ) + "\n")


def per_layer_metrics(totals: dict[str, dict[str, float]], rounds: int) -> dict[str, float]:
    """Per-round means of the span totals, flattened into the LAYERS metrics."""
    out: dict[str, float] = {}
    for layer, (count_name, fields) in LAYERS.items():
        t = totals.get(layer, {"calls": 0, "self_s": 0.0, "count": 0})
        values = {"calls": t["calls"] / rounds, "self_s": t["self_s"] / rounds}
        if count_name is not None:
            values[count_name] = t["count"] / rounds
            values[f"{count_name}_per_s"] = t["count"] / t["self_s"] if t["self_s"] else 0.0
        for field in fields:
            out[f"{layer}.{field}"] = values[field]
    return out


def unit(metric: str) -> str:
    field = metric.rsplit(".", 1)[1]
    if field.endswith("_per_s"):
        return "1/s"
    if field.endswith("_s"):
        return "s"
    return "bytes" if field == "bytes" else "count"
