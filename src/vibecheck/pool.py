"""An ordered map over independent items, on forked workers when it pays.

``ordered_map(fn, items, costs, min_cost)`` returns ``[fn(x) for x in
items]``.  The caller gives each item's cost and the break-even in one unit:
source bytes for the front end's files, permutations for Spearman's chunks.
A batch of two or more items costing at least ``min_cost`` runs on a
fork-context process pool, one worker per available CPU, when the platform
can fork, more than one CPU is available and no other thread is alive (a fork
copies only the calling thread, so a lock another thread holds would stay
held in the child).  Anything else runs in process, and ``multiprocessing``
is imported only when the pool is used.

Either way the results come back in input order and the first failing item
in input order raises its own error, so a command's output and its error line
do not depend on the CPU count.  ``fn`` must be a module-level function (or a
``functools.partial`` of one), and items, results and errors must pickle.  No
worker outlives the call.
"""

from __future__ import annotations

import os
import threading
from typing import Callable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")

# Source bytes below which a batch runs in process.  On a 2-vCPU x86-64 host
# (Python 3.11) the front end measures about 0.4 MB/s on one CPU, starting two
# workers and passing them their chunks costs about 15 ms, and a fresh
# interpreter first spends 20-40 ms importing ``multiprocessing``.  A forked
# batch broke even at about 32 KB in a warm process and, with both CPUs free,
# at about 60 KB in a fresh ``vcp`` process, which is how the command line runs.
FORK_MIN_BYTES = 64_000
# Chunks per worker.  A cost predicts an item's time only roughly, so more
# chunks than workers let a worker that finishes early take the next one.
_CHUNKS_PER_WORKER = 4


def available_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1  # macOS and Windows have no affinity call


def path_bytes(path: os.PathLike | str) -> int:
    """The size of the file at ``path``; 0 when it cannot be read, so that
    reading the file itself reports the problem, in input order."""
    try:
        return os.stat(path).st_size
    except (OSError, ValueError):
        return 0


def ordered_map(fn: Callable[[T], R], items: Sequence[T], costs: Sequence[int],
                min_cost: int) -> list[R]:
    """``[fn(x) for x in items]``; ``costs`` and ``min_cost`` are in one unit."""
    cpus = available_cpus() if sum(costs) >= min_cost and len(items) > 1 else 1
    if cpus < 2 or threading.active_count() != 1:
        return [fn(x) for x in items]
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        return [fn(x) for x in items]
    from concurrent.futures import ProcessPoolExecutor

    chunks = _chunks(items, costs, cpus * _CHUNKS_PER_WORKER)
    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(min(cpus, len(chunks)), mp_context=context) as pool:
        futures = [pool.submit(_map_chunk, fn, chunk) for chunk in chunks]
        try:
            # Chunks are contiguous runs of items, so the first chunk to fail,
            # in input order, holds the first failing item.
            return [result for future in futures for result in future.result()]
        except BaseException:
            pool.shutdown(cancel_futures=True)  # the ``with`` then joins every worker
            raise


def _map_chunk(fn: Callable[[T], R], chunk: Sequence[T]) -> list[R]:
    return [fn(x) for x in chunk]


def _chunks(items: Sequence[T], costs: Sequence[int], n: int) -> list[list[T]]:
    """At most ``n`` contiguous runs of ``items`` of about equal cost: an item
    goes to the run its middle unit of cost falls in."""
    total = max(sum(costs), 1)
    runs: dict[int, list[T]] = {}
    seen = 0
    for item, cost in zip(items, costs):
        runs.setdefault(min(n - 1, (2 * seen + cost) * n // (2 * total)), []).append(item)
        seen += cost
    return list(runs.values())
