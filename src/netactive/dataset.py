"""Telemetry ingestion, labeled/unlabeled/test pool management, normalization."""

from __future__ import annotations

import csv
import dataclasses
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

ORIGIN_INGESTED = "ingested"
ORIGIN_COLLECTED = "collected"
ORIGIN_SYNTHESIZED = "synthesized"
VALID_ORIGINS = frozenset({ORIGIN_INGESTED, ORIGIN_COLLECTED, ORIGIN_SYNTHESIZED})

STD_FLOOR = 1e-8


@dataclass(eq=False)
class Sample:
    """One telemetry record: feature vector plus an optional throughput label."""

    id: int
    features: np.ndarray
    label: float | None = None
    origin: str = ORIGIN_INGESTED
    iteration_acquired: int | None = None

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=float)
        if self.features.ndim != 1:
            raise ValueError(f"sample {self.id}: features must be a 1-D vector")
        if self.origin not in VALID_ORIGINS:
            raise ValueError(f"sample {self.id}: unknown origin {self.origin!r}")
        if self.label is not None:
            label = float(self.label)
            if not math.isfinite(label) or label < 0.0:
                raise ValueError(
                    f"sample {self.id}: label must be finite and non-negative, got {label!r}"
                )
            self.label = label
        if self.iteration_acquired is not None and self.iteration_acquired < 0:
            raise ValueError(f"sample {self.id}: iteration_acquired must be >= 0")


@dataclass
class Normalizer:
    """Per-feature affine map to zero mean / unit deviation."""

    means: np.ndarray
    stds: np.ndarray

    def __post_init__(self):
        self.means = np.asarray(self.means, dtype=float)
        self.stds = np.asarray(self.stds, dtype=float)
        if self.means.shape != self.stds.shape or self.means.ndim != 1:
            raise ValueError("means and stds must be 1-D vectors of equal length")
        if np.any(self.stds <= 0.0):
            raise ValueError("all stds must be positive")

    def normalize(self, x: np.ndarray) -> np.ndarray:
        return (np.asarray(x, dtype=float) - self.means) / self.stds

    def denormalize(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=float) * self.stds + self.means


class DataPool:
    """Disjoint labeled / unlabeled / test partition over a sample store.

    Ground-truth labels of unlabeled samples are hidden at construction
    time: they can only be retrieved through an oracle (which charges the
    budget), never by reading the stored sample.  The test partition is
    frozen for the lifetime of the pool.
    """

    def __init__(
        self,
        samples: Iterable[Sample],
        labeled: Iterable[int],
        unlabeled: Iterable[int],
        test: Iterable[int],
        hidden_labels: Mapping[int, float] | None = None,
        normalizer: Normalizer | None = None,
    ):
        self.samples: dict[int, Sample] = {s.id: s for s in samples}
        self.labeled: set[int] = set(labeled)
        self.unlabeled: set[int] = set(unlabeled)
        self.test: frozenset[int] = frozenset(test)
        self._hidden: dict[int, float] = dict(hidden_labels or {})
        self.normalizer = normalizer
        self._next_id = max(self.samples) + 1 if self.samples else 0
        self.check_invariants()

    # -- queries ---------------------------------------------------------

    @property
    def n_features(self) -> int:
        if not self.samples:
            raise ValueError("empty pool has no feature dimension")
        return len(next(iter(self.samples.values())).features)

    def feature_matrix(self, ids: Sequence[int]) -> np.ndarray:
        """Stack feature vectors for `ids`, preserving the given order."""
        ids = list(ids)
        if not ids:
            return np.zeros((0, self.n_features))
        return np.stack([self.samples[i].features for i in ids])

    def normalized_features(self, ids: Sequence[int]) -> np.ndarray:
        if self.normalizer is None:
            raise ValueError("pool has no fitted normalizer")
        return self.normalizer.normalize(self.feature_matrix(ids))

    def labels_of(self, ids: Sequence[int]) -> np.ndarray:
        out = []
        for i in ids:
            label = self.samples[i].label
            if label is None:
                raise ValueError(f"sample {i} has no visible label")
            out.append(label)
        return np.asarray(out, dtype=float)

    def has_hidden_label(self, sample_id: int) -> bool:
        return sample_id in self._hidden

    # -- mutation (engine-mediated) ---------------------------------------

    @property
    def next_id(self) -> int:
        """The id allocate_id hands out next."""
        return self._next_id

    def allocate_id(self) -> int:
        sid = self._next_id
        self._next_id += 1
        return sid

    def take_hidden_label(self, sample_id: int) -> float:
        """Remove and return the hidden ground truth for an unlabeled id."""
        if sample_id not in self._hidden:
            raise KeyError(f"no hidden label for sample {sample_id}")
        return self._hidden.pop(sample_id)

    def add_unlabeled(self, sample: Sample) -> None:
        """Register a new sample in the unlabeled partition.

        If the sample carries a label it is moved into the hidden store so
        that only an oracle can reveal it.
        """
        if sample.id in self.samples:
            raise ValueError(f"sample id {sample.id} already present")
        if sample.label is not None:
            self._hidden[sample.id] = sample.label
            sample = dataclasses.replace(sample, label=None)
        self.samples[sample.id] = sample
        self.unlabeled.add(sample.id)
        self._next_id = max(self._next_id, sample.id + 1)

    def add_labeled(self, sample: Sample) -> None:
        if sample.id in self.samples:
            raise ValueError(f"sample id {sample.id} already present")
        if sample.label is None:
            raise ValueError("labeled sample requires a label")
        self.samples[sample.id] = sample
        self.labeled.add(sample.id)
        self._next_id = max(self._next_id, sample.id + 1)

    def mark_labeled(self, sample_id: int, label: float, iteration: int) -> None:
        """Move an unlabeled sample into the labeled partition."""
        if sample_id not in self.unlabeled:
            raise ValueError(f"sample {sample_id} is not in the unlabeled set")
        sample = self.samples[sample_id]
        sample.label = float(label)
        sample.iteration_acquired = iteration
        self.unlabeled.discard(sample_id)
        self.labeled.add(sample_id)

    def check_invariants(self) -> None:
        sets = [self.labeled, self.unlabeled, set(self.test)]
        total = sum(len(s) for s in sets)
        union = set().union(*sets)
        if len(union) != total:
            raise AssertionError("labeled/unlabeled/test sets are not disjoint")
        missing = union - set(self.samples)
        if missing:
            raise AssertionError(f"partition references unknown ids: {sorted(missing)[:5]}")
        lengths = {len(s.features) for s in self.samples.values()}
        if len(lengths) > 1:
            raise AssertionError(f"inconsistent feature lengths: {sorted(lengths)}")


@dataclass
class LoadResult:
    samples: list[Sample]
    feature_names: list[str]
    rejected_rows: int


def _parse_cell(cell: str, mapping: Mapping[str, float] | None) -> float | None:
    """Parse one CSV cell to a finite float, using a categorical mapping if any.

    Returns None when the cell is non-empty but unparseable."""
    if mapping is not None and cell in mapping:
        return float(mapping[cell])
    try:
        value = float(cell)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def load_csv(
    path: str,
    target_column: str,
    feature_columns: Sequence[str] | str = "auto",
    categorical_maps: Mapping[str, Mapping[str, float]] | None = None,
) -> LoadResult:
    """Read a telemetry CSV into samples.

    Args:
        path: UTF-8 CSV with a header row, one record per line.
        target_column: column holding the regression target.
        feature_columns: explicit ordered column names, or "auto" to select
            every non-target column whose non-empty cells all parse as
            finite numbers (after categorical mapping).
        categorical_maps: per-column value->number mappings, e.g.
            {"mobility_mode": {"walking": 0, "driving": 1}}.

    Rows with missing (empty) values in any selected column are dropped and
    counted.  A non-numeric cell in an explicitly requested column, or in
    the target, raises with the offending row and column named.
    """
    categorical_maps = categorical_maps or {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file, expected a header row") from None
        rows = list(reader)

    if target_column not in header:
        raise ValueError(f"{path}: target column {target_column!r} not in header")
    col_index = {name: i for i, name in enumerate(header)}

    if isinstance(feature_columns, str) and feature_columns == "auto":
        selected = []
        for name in header:
            if name == target_column:
                continue
            mapping = categorical_maps.get(name)
            idx = col_index[name]
            ok = all(
                _parse_cell(row[idx], mapping) is not None
                for row in rows
                if idx < len(row) and row[idx] != ""
            )
            if ok:
                selected.append(name)
        if not selected:
            raise ValueError(f"{path}: no numeric feature columns found")
    else:
        selected = list(feature_columns)
        unknown = [c for c in selected if c not in col_index]
        if unknown:
            raise ValueError(f"{path}: feature columns not in header: {unknown}")
        if target_column in selected:
            raise ValueError(f"{path}: target column may not be a feature")

    samples: list[Sample] = []
    rejected = 0
    target_idx = col_index[target_column]
    for row_num, row in enumerate(rows, start=2):  # header is line 1
        cells = {}
        missing = False
        for name in selected + [target_column]:
            idx = col_index[name]
            raw = row[idx] if idx < len(row) else ""
            if raw == "":
                missing = True
                break
            value = _parse_cell(raw, categorical_maps.get(name))
            if value is None:
                raise ValueError(
                    f"{path}: line {row_num}, column {name!r}: "
                    f"cannot parse {raw!r} as a number (no categorical mapping)"
                )
            cells[name] = value
        if missing:
            rejected += 1
            continue
        label = cells[target_column]
        if label < 0.0:
            raise ValueError(
                f"{path}: line {row_num}, column {target_column!r}: "
                f"negative target {label!r}"
            )
        features = np.array([cells[name] for name in selected], dtype=float)
        samples.append(Sample(id=len(samples), features=features, label=label))

    return LoadResult(samples=samples, feature_names=selected, rejected_rows=rejected)


def split_pool(
    samples: Sequence[Sample],
    test_fraction: float,
    seed_labeled_fraction: float,
    rng_seed: int,
) -> DataPool:
    """Shuffle samples and partition them into test / labeled seed / unlabeled.

    Sizes are floor(n * test_fraction) for the test set, then
    floor(remainder * seed_labeled_fraction) for the labeled seed; the rest
    becomes the unlabeled pool with labels hidden.  Deterministic per seed.
    """
    n = len(samples)
    if n < 10:
        raise ValueError(f"need at least 10 samples, got {n}")
    if not (0.0 < test_fraction < 1.0 and 0.0 < seed_labeled_fraction < 1.0):
        raise ValueError("fractions must lie strictly between 0 and 1")
    unlabeled_input = [s.id for s in samples if s.label is None]
    if unlabeled_input:
        raise ValueError(f"all samples must carry labels; missing for ids {unlabeled_input[:5]}")

    n_test = math.floor(n * test_fraction)
    remainder = n - n_test
    n_labeled = math.floor(remainder * seed_labeled_fraction)
    n_unlabeled = remainder - n_labeled
    if min(n_test, n_labeled, n_unlabeled) == 0:
        raise ValueError(
            f"degenerate split: test={n_test} labeled={n_labeled} unlabeled={n_unlabeled}"
        )

    order = np.random.default_rng(rng_seed).permutation(n)
    test_ids = {samples[i].id for i in order[:n_test]}
    labeled_ids = {samples[i].id for i in order[n_test : n_test + n_labeled]}
    unlabeled_ids = {samples[i].id for i in order[n_test + n_labeled :]}

    store: list[Sample] = []
    hidden: dict[int, float] = {}
    for s in samples:
        if s.id in unlabeled_ids:
            hidden[s.id] = s.label
            store.append(dataclasses.replace(s, label=None))
        elif s.id in labeled_ids:
            store.append(dataclasses.replace(s, iteration_acquired=0))
        else:
            store.append(dataclasses.replace(s))
    return DataPool(store, labeled_ids, unlabeled_ids, test_ids, hidden_labels=hidden)


def fit_normalizer(pool: DataPool) -> Normalizer:
    """Fit per-feature statistics over labeled plus unlabeled features.

    Test features are excluded: they stand in for unseen traffic.  Standard
    deviations are clamped below at STD_FLOOR so constant features map to 0.
    """
    ids = sorted(pool.labeled | pool.unlabeled)
    if not ids:
        raise ValueError("pool has no labeled or unlabeled samples to fit on")
    x = pool.feature_matrix(ids)
    means = x.mean(axis=0)
    stds = np.maximum(x.std(axis=0), STD_FLOOR)
    return Normalizer(means=means, stds=stds)
