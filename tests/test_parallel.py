import sys
import threading
import time

import numpy as np
import pytest

from netactive import parallel
from netactive.bayesian import MC_TILE_ROWS, mc_predict
from netactive.neural import NetworkSpec, init_params


def parts_of(bounds, workers, monkeypatch, part_rows=1):
    """The (lo, hi) parts run_parts gives a kernel, in row order."""
    monkeypatch.setattr(parallel, "WORKERS", workers)
    monkeypatch.setattr(parallel, "PART_ROWS", part_rows)
    parts, lock = [], threading.Lock()

    def part(lo, hi):
        def work():
            with lock:
                parts.append((lo, hi))

        return work

    parallel.run_parts(part, bounds)
    return sorted(parts)


class TestRunParts:
    @pytest.mark.parametrize("bounds, workers, expected", [
        # mc_predict's tiles of a 3750-row matrix: cut by rows, not by tiles
        ([0, 1024, 2048, 3750], 2, [(0, 2048), (2048, 3750)]),
        ([0, 1024, 2048, 3750], 3, [(0, 1024), (1024, 2048), (2048, 3750)]),
        ([0, 1024, 2048, 3750], 4, [(0, 1024), (1024, 2048), (2048, 3750)]),
        (range(5001), 3, [(0, 1667), (1667, 3333), (3333, 5000)]),
        (range(4), 3, [(0, 1), (1, 2), (2, 3)]),
        (range(3), 3, [(0, 1), (1, 2)]),
        (range(2), 3, [(0, 1)]),
        (range(1), 3, [(0, 0)]),
        (range(5001), 1, [(0, 5000)]),
    ])
    def test_parts_cover_the_rows_in_balanced_runs(self, monkeypatch, bounds, workers, expected):
        assert parts_of(bounds, workers, monkeypatch) == expected

    @pytest.mark.parametrize("rows, expected", [
        (2047, [(0, 2047)]),
        (2048, [(0, 1024), (1024, 2048)]),
        (3071, [(0, 1536), (1536, 3071)]),
        (3072, [(0, 1024), (1024, 2048), (2048, 3072)]),
    ])
    def test_no_part_is_short_of_part_rows(self, monkeypatch, rows, expected):
        assert parts_of(range(rows + 1), 3, monkeypatch, part_rows=1024) == expected

    @pytest.mark.parametrize("failing", [1, 2])
    def test_failing_part_is_reraised_after_every_part_ends(self, monkeypatch, failing):
        monkeypatch.setattr(parallel, "WORKERS", 3)
        monkeypatch.setattr(parallel, "PART_ROWS", 1)
        ended = []

        def part(lo, hi):
            def work():
                if lo == failing:
                    raise ValueError(f"part {lo} failed")
                time.sleep(0.05)
                ended.append(lo)

            return work

        with pytest.raises(ValueError, match=f"part {failing} failed"):
            parallel.run_parts(part, range(4))
        assert sorted(ended) == sorted({0, 1, 2} - {failing})

    def test_first_failure_in_row_order_wins(self, monkeypatch):
        monkeypatch.setattr(parallel, "WORKERS", 3)
        monkeypatch.setattr(parallel, "PART_ROWS", 1)

        def part(lo, hi):
            def work():
                raise ValueError(f"part {lo} failed")

            return work

        with pytest.raises(ValueError, match="part 0 failed"):
            parallel.run_parts(part, range(4))

    def test_more_threads_than_cores_keep_every_row(self, monkeypatch):
        # eight workers on a short switch interval write disjoint slices of
        # one output: any lost or misplaced write changes the bytes
        rng = np.random.default_rng(3)
        params = init_params(NetworkSpec([19, 16, 8, 1], dropout_rate=0.2), 2)
        x = rng.normal(size=(9 * MC_TILE_ROWS + 5, 19))
        monkeypatch.setattr(parallel, "WORKERS", 1)
        expected = mc_predict(params, x, 20, 7)
        monkeypatch.setattr(parallel, "WORKERS", 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                means, variances = mc_predict(params, x, 20, 7)
                assert means.tobytes() == expected[0].tobytes()
                assert variances.tobytes() == expected[1].tobytes()
        finally:
            sys.setswitchinterval(interval)
