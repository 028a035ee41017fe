"""Telemetry ingestion, labeled/unlabeled/test pool management, normalization."""

from __future__ import annotations

import copy
import csv
import math
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass

import numpy as np

ORIGIN_INGESTED = "ingested"
ORIGIN_COLLECTED = "collected"
ORIGIN_SYNTHESIZED = "synthesized"
ORIGINS = (ORIGIN_INGESTED, ORIGIN_COLLECTED, ORIGIN_SYNTHESIZED)  # index = origin code

STD_FLOOR = 1e-8


@dataclass(eq=False)
class Sample:
    """One pool member as DataPool.samples reads it: features plus an optional label."""

    id: int
    features: np.ndarray
    label: float | None = None
    origin: str = ORIGIN_INGESTED
    iteration_acquired: int | None = None


def new_corpus(n: int, n_features: int) -> np.recarray:
    """n records with ids 0..n-1, zero `features` (n_features,) and nan `label`
    (no label), for the caller to fill: a record array, read by column or row."""
    dtype = [("id", np.int64), ("features", float, (n_features,)), ("label", float)]
    corpus = np.zeros(n, dtype).view(np.recarray)
    corpus.id = np.arange(n)
    corpus.label = np.nan
    return corpus


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
        if not (np.isfinite(self.means).all() and np.all(np.isfinite(self.stds) & (self.stds > 0))):
            raise ValueError("means must be finite, and all stds finite and positive")

    def normalize(self, x: np.ndarray) -> np.ndarray:
        return (np.asarray(x, dtype=float) - self.means) / self.stds

    def denormalize(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=float) * self.stds + self.means


# Partition codes.  Row i of a pool's columns belongs to sample id i, and the
# codes above _ABSENT are members: an _ARRIVING row waits to be admitted.
_ARRIVING, _ABSENT, _LABELED, _UNLABELED, _TEST = -1, 0, 1, 2, 3
_ADDABLE = {"labeled": _LABELED, "unlabeled": _UNLABELED, "arriving": _ARRIVING}  # never test
# Every column's dtype and the value it holds in an absent row.
_COLUMNS = {"_features": (float, 0.0), "_label": (float, np.nan), "_truth": (float, np.nan),
            "_origin": (np.int8, 0), "_iteration": (np.int64, -1), "_part": (np.int8, _ABSENT)}


class _SampleView(Mapping):
    """Read-only id -> Sample map over a pool's members, built on access.  It
    holds the pool rather than its arrays, because growth replaces them."""

    def __init__(self, pool: DataPool):
        self._pool = pool

    def __getitem__(self, sample_id: int) -> Sample:
        pool = self._pool
        if pool._code(sample_id) <= _ABSENT:
            raise KeyError(sample_id)
        label, iteration = pool._label[sample_id], pool._iteration[sample_id]
        return Sample(int(sample_id), pool._features[sample_id].copy(),
                      None if np.isnan(label) else float(label),
                      ORIGINS[pool._origin[sample_id]], None if iteration < 0 else int(iteration))

    def __iter__(self):
        return iter(np.flatnonzero(self._pool._part > _ABSENT).tolist())

    def __len__(self) -> int:
        return int(np.count_nonzero(self._pool._part > _ABSENT))


class DataPool:
    """Disjoint labeled / unlabeled / test partition over a column store.

    A row holds the raw features, the visible label (nan while hidden), the
    ground truth, an origin code (index into ORIGINS), the acquisition
    iteration (-1 for none) and one partition code.  An oracle alone reveals
    hidden ground truth; no operation changes the test partition.
    """

    def __init__(
        self,
        corpus: np.recarray,
        labeled: Iterable[int],
        unlabeled: Iterable[int],
        test: Iterable[int],
        normalizer: Normalizer | None = None,
    ):
        ids, width = corpus.id, corpus.features.shape[1]
        n = max(int(ids.max()) + 1, 0) if len(ids) else 0
        for name, (dtype, fill) in _COLUMNS.items():
            setattr(self, name, np.full((n, width) if name == "_features" else n, fill, dtype))
        self._next_id = 0
        self._check_new_ids(ids)  # first, or a repeated id reads as overlapping partitions
        parts = [np.unique(np.fromiter(p, dtype=np.int64)) for p in (labeled, unlabeled, test)]
        listed = np.concatenate(parts)
        unknown = np.setdiff1d(listed, ids)
        if len(unknown):
            raise AssertionError(f"partition references unknown ids: {unknown[:5].tolist()}")
        if len(np.unique(listed)) < len(listed):
            raise AssertionError("labeled/unlabeled/test sets are not disjoint")
        members = [np.isin(ids, part) for part in parts]
        orphans = ids[~np.logical_or.reduce(members)]
        if len(orphans):
            raise ValueError(f"sample {orphans[0]} is in no partition")
        for code, rows in zip((_LABELED, _UNLABELED, _TEST), members):
            self._write(ids[rows], corpus.features[rows], corpus.label[rows], code, 0, -1)
        self.normalizer = normalizer

    def copy(self) -> DataPool:
        """An independent pool with the same rows.  The normalizer is shared:
        nothing changes it in place."""
        twin = copy.copy(self)
        for name in _COLUMNS:
            setattr(twin, name, getattr(self, name).copy())
        return twin

    def _reserve(self, rows: int) -> None:
        """Grow every column to >= `rows` rows, by at least 1/8: amortized O(1) per sample."""
        if rows > len(self._part):
            rows = max(rows, len(self._part) * 9 // 8)
            for name, (dtype, fill) in _COLUMNS.items():
                old = getattr(self, name)
                setattr(self, name, np.full((rows, *old.shape[1:]), fill, dtype))
                getattr(self, name)[: len(old)] = old

    def _code(self, sample_id: int) -> int:
        return int(self._part[sample_id]) if 0 <= sample_id < len(self._part) else _ABSENT

    labeled = property(lambda self: np.flatnonzero(self._part == _LABELED))  # ascending ids
    unlabeled = property(lambda self: np.flatnonzero(self._part == _UNLABELED))  # ascending ids
    test = property(lambda self: np.flatnonzero(self._part == _TEST))  # ascending ids
    samples = property(_SampleView)

    @property
    def n_features(self) -> int:
        return self._features.shape[1]

    def _members(self, ids: Sequence[int]) -> np.ndarray:
        ids = np.asarray(ids, dtype=np.int64)
        absent = ids[self._part[ids] <= _ABSENT]
        if len(absent):
            raise KeyError(f"no sample with id {absent[0]}")
        return ids

    def feature_matrix(self, ids: Sequence[int]) -> np.ndarray:
        """Raw feature rows for `ids`, preserving the given order."""
        return self._features[self._members(ids)]

    def acquisitions(self, ids: Sequence[int]) -> tuple[np.ndarray, list[str]]:
        """The acquisition iteration (-1 for none) and origin name of each of `ids`."""
        ids = self._members(ids)
        return self._iteration[ids], [ORIGINS[code] for code in self._origin[ids].tolist()]

    def normalized_features(self, ids: Sequence[int]) -> np.ndarray:
        if self.normalizer is None:
            raise ValueError("pool has no fitted normalizer")
        return self.normalizer.normalize(self.feature_matrix(ids))

    def labels_of(self, ids: Sequence[int]) -> np.ndarray:
        labels = self._label[np.asarray(ids, dtype=np.int64)]
        hidden = np.isnan(labels)
        if hidden.any():
            raise ValueError(f"sample {np.asarray(ids)[hidden][0]} has no visible label")
        return labels

    def has_hidden_label(self, sample_id: int) -> bool:
        return self._code(sample_id) == _UNLABELED and not np.isnan(self._truth[sample_id])

    @property
    def next_id(self) -> int:
        """The lowest id above every id the pool has held: the id a new sample
        takes.  Only registering a sample moves it."""
        return self._next_id

    def reveal(self, sample_id: int, iteration: int) -> float:
        """Move an unlabeled sample into the labeled partition in one step: its
        hidden ground truth becomes its visible label, acquired at `iteration`."""
        if not self.has_hidden_label(sample_id):
            raise ValueError(f"sample {sample_id} is not in the unlabeled set with hidden truth")
        self._label[sample_id] = self._truth[sample_id]
        self._iteration[sample_id] = iteration
        self._part[sample_id] = _LABELED
        return float(self._label[sample_id])

    def admit(self, sample_id: int) -> None:
        """Move a stream arrival into the unlabeled partition, its label hidden."""
        if self._code(sample_id) != _ARRIVING:
            raise ValueError(f"sample {sample_id} is not arriving")
        self._part[sample_id] = _UNLABELED

    def queue_arrivals(self, ids: Sequence[int]) -> None:
        """Make the unlabeled `ids` arrivals; drop every other unlabeled sample."""
        ids = np.asarray(ids, dtype=np.int64)
        stray = ids[self._part[ids] != _UNLABELED]
        if len(stray):
            raise ValueError(f"sample {stray[0]} is not unlabeled")
        self._part[self._part == _UNLABELED] = _ABSENT
        self._part[ids] = _ARRIVING

    def add(self, ids: Sequence[int], features: np.ndarray, truth: Sequence[float],
            partition: str, origin: str, iteration: int) -> None:
        """Register new samples as one block: sample ids[k] has raw `features[k]`
        and ground truth `truth[k]` (nan for none), which "unlabeled" and
        "arriving" hide and "labeled" shows.  `origin` is an ORIGINS name, and
        every row was acquired at `iteration` (-1 for none)."""
        if partition not in _ADDABLE:
            raise ValueError(f"cannot add to partition {partition!r}")
        if origin not in ORIGINS:
            raise ValueError(f"unknown origin {origin!r}; expected one of {ORIGINS}")
        self._write(np.asarray(ids, dtype=np.int64), np.asarray(features, dtype=float),
                    np.asarray(truth, dtype=float), _ADDABLE[partition], ORIGINS.index(origin),
                    iteration)

    def _check_new_ids(self, ids: np.ndarray) -> int:
        """Refuse negative, repeated or present ids; return the lowest id above them."""
        listed = ids.tolist()  # a list tests a one-row block ~5x faster than numpy
        if listed and min(listed) < 0:
            raise ValueError(f"sample {ids[ids < 0][0]}: ids must be non-negative")
        if len(set(listed)) < len(listed):
            values, counts = np.unique(ids, return_counts=True)
            raise ValueError(f"duplicate sample id {ids[np.isin(ids, values[counts > 1])][0]}")
        known = ids[ids < len(self._part)]
        if np.count_nonzero(self._part[known]):
            raise ValueError(f"sample id {known[self._part[known] != _ABSENT][0]} already present")
        return max(listed) + 1 if listed else 0

    def _write(self, ids: np.ndarray, features: np.ndarray, truth: np.ndarray, code: int,
               origin: int, iteration: int) -> None:
        """The one insertion path: register new samples in partition `code`, every
        row checked before any is written.  `truth` is each row's ground truth (nan
        for none), which only a labeled or test row shows; `origin` indexes ORIGINS."""
        if features.ndim != 2 or not ids.shape == truth.shape == features.shape[:1]:
            raise ValueError("ids, features and truth must give one row per sample")
        top = self._check_new_ids(ids)
        if features.shape[1] != self.n_features:
            raise ValueError(f"sample {ids[0]}: inconsistent feature lengths")
        checks = ((~np.isfinite(features).all(axis=1), "non-finite features"),
                  (np.isnan(truth) & (code == _LABELED), "labeled sample requires a label"),
                  ((truth < 0.0) | (truth == np.inf), "label must be finite and non-negative"))
        for bad, reason in checks:
            if np.count_nonzero(bad):
                raise ValueError(f"sample {ids[bad][0]}: {reason}")
        self._reserve(top)
        self._features[ids] = features
        self._truth[ids] = truth
        self._label[ids] = truth if code in (_LABELED, _TEST) else np.nan
        self._origin[ids] = origin
        self._iteration[ids] = iteration
        self._part[ids] = code
        self._next_id = max(self._next_id, top)

    def check_invariants(self) -> None:
        """A labeled sample shows its label, an unlabeled one or an arrival hides it."""
        shown = ~np.isnan(self._label)
        hidden = (self._part == _UNLABELED) | (self._part == _ARRIVING)
        wrong = np.where(self._part == _LABELED, ~shown, shown & hidden)
        if wrong.any():
            raise AssertionError(f"sample {np.argmax(wrong)}: visible label contradicts partition")


@dataclass
class LoadResult:
    samples: np.recarray  # a corpus, see new_corpus
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
    """Read a telemetry CSV into a corpus (see new_corpus), ids in row order.

    Args:
        path: UTF-8 CSV with a header row, one record per line.
        target_column: column holding the regression target.
        feature_columns: explicit ordered column names, or "auto" to select
            every non-target column whose non-empty cells all parse as
            finite numbers (after categorical mapping).
        categorical_maps: per-column value->number mappings, e.g.
            {"mobility_mode": {"walking": 0, "driving": 1}}; each column
            must be in the header.

    Blank lines are skipped.  Rows with missing (empty) values in any
    selected column, or with fewer cells than the header, are dropped and
    counted.  A non-numeric cell in an explicitly requested column, or in
    the target, raises with the line the row starts on and the column
    named; so do a repeated header name and a row with more cells than
    the header.
    """
    categorical_maps = categorical_maps or {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file, expected a header row") from None
        # each record and the physical line it starts on; a blank line is
        # no record
        rows, lines, start = [], [], reader.line_num + 1
        for row in reader:
            if row:
                rows.append(row)
                lines.append(start)
            start = reader.line_num + 1

    col_index = {name: i for i, name in enumerate(header)}  # a repeated name's last column
    if len(col_index) < len(header):
        repeated = next(name for i, name in enumerate(header) if col_index[name] != i)
        raise ValueError(f"{path}: header repeats column {repeated!r}")
    long = next((i for i, row in enumerate(rows) if len(row) > len(header)), None)
    if long is not None:
        raise ValueError(f"{path}: line {lines[long]} has {len(rows[long])} cells, "
                         f"the header {len(header)}")
    if target_column not in header:
        raise ValueError(f"{path}: target column {target_column!r} not in header")
    unmapped = [name for name in categorical_maps if name not in col_index]
    if unmapped:
        raise ValueError(f"{path}: categorical column {unmapped[0]!r} not in header")

    # Each needed cell is parsed once, column by column: a float, None for an
    # unparseable cell, or "" for an empty or missing one.
    def parse_column(name: str) -> list:
        idx, mapping = col_index[name], categorical_maps.get(name)
        raws = (row[idx] if idx < len(row) else "" for row in rows)
        return [_parse_cell(raw, mapping) if raw else "" for raw in raws]

    auto = isinstance(feature_columns, str) and feature_columns == "auto"
    if auto:
        candidates = [name for name in header if name != target_column]
    else:
        candidates = list(feature_columns)
        unknown = [c for c in candidates if c not in col_index]
        if unknown:
            raise ValueError(f"{path}: feature columns not in header: {unknown}")
        if target_column in candidates:
            raise ValueError(f"{path}: target column may not be a feature")
    parsed = {name: parse_column(name) for name in candidates + [target_column]}
    selected = [name for name in candidates if not auto or None not in parsed[name]]
    if auto and not selected:
        raise ValueError(f"{path}: no numeric feature columns found")

    kept: list[list[float]] = []  # each kept row's features, then its label
    for i, (row, line) in enumerate(zip(rows, lines)):
        values = []
        for name in selected + [target_column]:
            value = parsed[name][i]
            if value == "":
                break
            if value is None:
                raise ValueError(
                    f"{path}: line {line}, column {name!r}: "
                    f"cannot parse {row[col_index[name]]!r} as a number (no categorical mapping)"
                )
            values.append(value)
        else:
            if values[-1] < 0.0:
                raise ValueError(
                    f"{path}: line {line}, column {target_column!r}: "
                    f"negative target {values[-1]!r}"
                )
            kept.append(values)

    corpus = new_corpus(len(kept), len(selected))
    table = np.array(kept, dtype=float).reshape(len(kept), len(selected) + 1)
    corpus.features, corpus.label = table[:, :-1], table[:, -1]
    return LoadResult(samples=corpus, feature_names=selected, rejected_rows=len(rows) - len(kept))


def split_pool(
    corpus: np.recarray,
    test_fraction: float,
    seed_labeled_fraction: float,
    rng_seed: int,
) -> DataPool:
    """Shuffle a corpus and partition it into test / labeled seed / unlabeled.

    Sizes are floor(n * test_fraction) for the test set, then
    floor(remainder * seed_labeled_fraction) for the labeled seed; the rest
    becomes the unlabeled pool with labels hidden.  Deterministic per seed.
    """
    n = len(corpus)
    if n < 10:
        raise ValueError(f"need at least 10 samples, got {n}")
    if not (0.0 < test_fraction < 1.0 and 0.0 < seed_labeled_fraction < 1.0):
        raise ValueError("fractions must lie strictly between 0 and 1")
    missing = corpus.id[np.isnan(corpus.label)]
    if len(missing):
        raise ValueError(f"all samples must carry labels; missing for ids {missing[:5].tolist()}")

    n_test = math.floor(n * test_fraction)
    remainder = n - n_test
    n_labeled = math.floor(remainder * seed_labeled_fraction)
    n_unlabeled = remainder - n_labeled
    if min(n_test, n_labeled, n_unlabeled) == 0:
        raise ValueError(
            f"degenerate split: test={n_test} labeled={n_labeled} unlabeled={n_unlabeled}"
        )

    order = np.random.default_rng(rng_seed).permutation(n)
    test, labeled, unlabeled = np.split(corpus.id[order], [n_test, n_test + n_labeled])
    pool = DataPool(corpus, labeled, unlabeled, test)
    pool._iteration[pool.labeled] = 0  # the seed counts as acquired before the first cycle
    return pool


def fit_normalizer(pool: DataPool) -> Normalizer:
    """Fit per-feature statistics over labeled plus unlabeled features.

    Test features are excluded: they stand in for unseen traffic.  Standard
    deviations are clamped below at STD_FLOOR so constant features map to 0.
    """
    ids = np.union1d(pool.labeled, pool.unlabeled)
    if not len(ids):
        raise ValueError("pool has no labeled or unlabeled samples to fit on")
    x = pool.feature_matrix(ids)
    means = x.mean(axis=0)
    stds = np.maximum(x.std(axis=0), STD_FLOOR)
    return Normalizer(means=means, stds=stds)
