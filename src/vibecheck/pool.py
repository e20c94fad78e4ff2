"""An ordered map over independent items, on forked workers when it pays.

``ordered_map(fn, items, costs, min_cost)`` returns ``[fn(x) for x in
items]``.  The caller gives each item's cost and the break-even in one unit:
source bytes for the front end's files, permutations for Spearman's chunks.
A batch of two or more items costing at least ``min_cost`` is split into
contiguous runs of about equal cost, one per available CPU, and each run is
mapped by a worker forked with ``os.fork``, when the platform can fork, more
than one CPU is available and no other thread is alive (a fork copies only
the calling thread, so a lock another thread holds would stay held in the
child).  Anything else runs in process.

A worker writes one pickle to its own pipe, ``(results, None)`` or ``(None,
error)`` for the first error of its run, and leaves through ``os._exit``, so
it never returns into the caller's stack or flushes the parent's stdio
buffers.  The parent only forks, reads and reaps: it reads the runs in input
order and raises the first run's error, so a command's output and its error
line do not depend on the CPU count.  A worker that ends without a result
(killed, crashed, or with a result or error that does not pickle) raises
``ComputationError`` with its wait status.  ``fn`` and ``items`` reach the
workers by the fork itself; results and errors must pickle.  No worker
outlives the call.
"""

from __future__ import annotations

import os
import threading
from typing import BinaryIO, Callable, NoReturn, Sequence, TypeVar

from vibecheck.errors import ComputationError

T = TypeVar("T")
R = TypeVar("R")

# Source bytes below which a batch runs in process.  On a 2-vCPU x86-64 host
# (Python 3.11) the front end measures about 0.4 MB/s on one CPU, and forking
# two workers, one contiguous run each, and reading their results back from
# their pipes takes about 2.5 ms in a small warm process.  A forked batch
# broke even at about 32 KB in a warm process and, with both CPUs free, at
# about 60 KB in a fresh ``vcp`` process, which is how the command line runs.
# Both were measured on a pool that took longer to start, so they are upper
# bounds.
FORK_MIN_BYTES = 64_000


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
    if cpus < 2 or threading.active_count() != 1 or not hasattr(os, "fork"):
        return [fn(x) for x in items]
    import pickle  # only here: a run that never forks loads neither
    import signal

    pids: list[int] = []  # the workers not yet reaped, in input order
    pipes: list[BinaryIO] = []  # the read end of each worker's pipe, in input order
    try:
        for run in _chunks(items, costs, cpus):
            read_end, write_end = os.pipe()
            pipes.append(open(read_end, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    _work(fn, run, write_end)
                pids.append(pid)
            finally:
                # A later worker would otherwise inherit this write end, and
                # the parent would never see the end of this pipe.
                os.close(write_end)
        results: list[R] = []
        for pipe in pipes:
            with pipe:
                data = pipe.read()
            status = os.waitpid(pids[0], 0)[1]
            del pids[0]
            if status != 0:
                raise ComputationError(
                    f"a worker process ended without a result (wait status {status})"
                )
            run_results, error = pickle.loads(data)
            if error is not None:
                raise error
            results += run_results
        return results
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        for pid in pids:
            os.waitpid(pid, 0)


def _work(fn: Callable[[T], R], run: Sequence[T], write_end: int) -> NoReturn:
    """Map ``run`` in a forked worker, write the pickle to ``write_end`` and
    exit without returning."""
    status = 1
    try:
        import pickle

        try:
            payload = ([fn(x) for x in run], None)
        except Exception as error:  # the first error of the run goes to the parent
            payload = (None, error)
        data = pickle.dumps(payload, pickle.HIGHEST_PROTOCOL)
        with open(write_end, "wb") as pipe:
            pipe.write(data)
        status = 0
    finally:
        os._exit(status)


def _chunks(items: Sequence[T], costs: Sequence[int], cpus: int) -> list[list[T]]:
    """At most ``cpus`` contiguous runs of ``items`` of about equal cost: an
    item goes to the run its middle unit of cost falls in."""
    total = max(sum(costs), 1)
    runs: dict[int, list[T]] = {}
    seen = 0
    for item, cost in zip(items, costs):
        runs.setdefault(min(cpus - 1, (2 * seen + cost) * cpus // (2 * total)), []).append(item)
        seen += cost
    return list(runs.values())
