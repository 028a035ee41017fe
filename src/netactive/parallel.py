"""Row-parallel kernels: one thread per usable CPU, each on its own rows."""

from __future__ import annotations

import bisect
import os
import threading
from typing import Callable, Sequence

# Threads a kernel call may use, one per CPU this process may run on; numpy
# and BLAS release the interpreter lock in the kernels' array operations, so
# the threads run side by side.
if hasattr(os, "sched_getaffinity"):
    WORKERS = len(os.sched_getaffinity(0))
else:  # platforms without CPU affinity
    WORKERS = os.cpu_count() or 1

# Fewest rows a part may have.  On fewer, the threads spend their time
# passing the interpreter lock between small array operations: on a 2-vCPU
# x86 box, splitting a 272-reference distance pass over 1024 rows in two was
# no faster than one part, and over 128 rows 2.6 times slower.
PART_ROWS = 1024


def run_parts(part: Callable[[int, int], Callable[[], None]], bounds: Sequence[int]) -> None:
    """Run a kernel over rows bounds[0]:bounds[-1] in contiguous parts.

    bounds ascend and list the rows a part may start or end on.  The rows
    are cut into at most WORKERS parts of about PART_ROWS rows or more,
    each as close to an equal share of the rows as those bounds allow.
    part(lo, hi) is called in the calling thread for each part, in row
    order, and returns the function that does that part's work.  So a
    part's buffers come from the calling thread's allocator, which reuses
    them later, and no worker thread's allocator keeps them once the
    thread ends.

    The calling thread does the first part's work and one thread does each
    other part's, so that work must write only into the part's own rows of
    a shared output.  With one part (fewer than two units, fewer than
    2 * PART_ROWS rows, or one worker) no thread is started.  Every part
    ends before this returns; the first exception of a part, in row order,
    is re-raised here.
    """
    first, last = bounds[0], bounds[-1]
    parts = min(WORKERS, len(bounds) - 1, (last - first) // PART_ROWS)
    if parts <= 1:
        part(first, last)()
        return
    cuts = {first, last}
    for j in range(1, parts):
        target = first + (last - first) * j / parts
        i = bisect.bisect_left(bounds, target)  # bounds[i - 1] < target <= bounds[i]
        cuts.add(bounds[i - 1] if target - bounds[i - 1] < bounds[i] - target else bounds[i])
    cuts = sorted(cuts)
    works = [part(lo, hi) for lo, hi in zip(cuts, cuts[1:])]
    errors: list[BaseException | None] = [None] * len(works)

    def work(i: int) -> None:
        try:
            works[i]()
        except BaseException as error:  # re-raised in the calling thread
            errors[i] = error

    threads = []
    try:
        for i in range(1, len(works)):
            thread = threading.Thread(target=work, args=(i,))
            thread.start()
            threads.append(thread)
        works[0]()
    finally:
        for thread in threads:
            thread.join()
    for error in errors:
        if error is not None:
            raise error
