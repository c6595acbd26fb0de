"""Ordered map of independent cases over a thread pool.

The randomized verify suites evaluate many cases that read no other case's
result.  ``imap_in_order`` runs them on one thread per CPU the process may
use, while the caller keeps drawing its inputs, in order, on its own thread:
the random streams and every output keep the serial order.  Threads, not
processes, because the heavy work (SuperLU, numpy kernels) releases the GIL
and the inputs need no pickling.  The BLAS thread variables
(``OMP_NUM_THREADS`` and the like) size BLAS pools, not this one, and are
not read.

A SuperLU factor must be released on the thread that made it, so ``fn``
must not return one, nor anything that holds one.  With scipy 1.17.1 a
float32 factor of a disc2d 256 operator made on a worker thread and
released on the calling thread leaks about 17 MB each time (RSS 159 -> 313
MB over 12 factors); released where it was made, RSS stays flat.
"""

from __future__ import annotations

import os
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor

# tasks in flight per worker: enough to keep every worker busy while the
# caller draws the next input, few enough that drawn inputs stay bounded
_IN_FLIGHT_PER_WORKER = 4


def _workers() -> int:
    """CPUs in the process's affinity set (all CPUs where that is unknown)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def imap_in_order(fn, items):
    """Yield ``fn(item)`` for each item of the iterable, in input order.

    ``items`` is consumed lazily on the calling thread, at most
    ``_IN_FLIGHT_PER_WORKER`` tasks per worker ahead of the result last
    yielded.  The first exception in input order is re-raised, a failed
    draw counting at the position it would have had, once the tasks not yet
    started are cancelled; the pool's threads are joined before the
    generator returns or raises.  With one worker this is a plain loop.
    """
    workers = _workers()
    if workers == 1:
        for item in items:
            yield fn(item)
        return
    items = iter(items)
    pending: deque[Future] = deque()
    pool = ThreadPoolExecutor(workers)
    try:
        while True:
            while items is not None and len(pending) < _IN_FLIGHT_PER_WORKER * workers:
                try:
                    item = next(items)
                except StopIteration:
                    items = None
                except Exception as exc:
                    failed = Future()
                    failed.set_exception(exc)
                    pending.append(failed)
                    items = None
                else:
                    pending.append(pool.submit(fn, item))
            if not pending:
                return
            yield pending.popleft().result()
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
