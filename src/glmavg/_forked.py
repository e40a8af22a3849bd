"""Replication loops over ``range(n)``, split across forked worker processes.

Every replication loop in the package (``simulate_cell``,
``prediction_band``, ``cv_compare``) draws replication i from its own
stream, so its rows do not depend on which process computes them.
``run_replications`` splits ``range(n)`` into contiguous blocks, runs
the first block in the calling process and each other block in a
fork-started child, and joins the rows in index order, so the result is
bit-identical for every worker count.  On a 2-core x86-64 host a round
trip to a child costs about 3.7 ms with ``os.fork`` and a pipe, 4.5 ms
with a ``multiprocessing.Process`` and 6 ms with a process pool, and
importing ``multiprocessing`` and ``concurrent.futures`` would add
13-19 ms to every cold CLI call; so this module uses ``os.fork``.

The loop runs serially, in the calling process, when ``workers`` is 1,
when n is 1, when the process may use only one CPU, when the platform is
not Linux with ``os.fork``, or when more than one Python thread is alive
(a fork copies only the calling thread, and a lock held by another
thread would stay held in the child; OpenBLAS, numpy's BLAS, resets its
own thread pool in a forked child).
"""

from __future__ import annotations

import os
import pickle
import signal
import sys
import threading

from .errors import DataError


def _block_count(n: int, workers: int) -> int:
    """How many blocks ``range(n)`` is split into; 1 runs it serially."""
    if not (sys.platform.startswith("linux") and hasattr(os, "fork")) or threading.active_count() > 1:
        return 1
    return max(1, min(workers, n, len(os.sched_getaffinity(0))))


def run_replications(task, n: int, workers: int) -> list:
    """``[task(0), ..., task(n - 1)]``, with every block but the first run in a forked child.

    An exception raised by ``task`` ends its block.  The one at the
    earliest index is raised, as the serial loop would raise it: a
    child sends it back pickled, with its class, message and
    attributes.  A child that exits without sending its rows raises
    ``ChildProcessError``.  Every child is reaped before this returns
    or raises.  ``workers`` below 1 raises ``DataError`` before any
    replication.
    """
    if workers < 1:
        raise DataError(f"workers must be at least 1, got {workers}")
    count = _block_count(n, workers)
    if count == 1:
        return [task(i) for i in range(n)]
    # the calling process also forks and collects, so it takes the smallest block
    bounds = [n * b // count for b in range(count + 1)]
    blocks = [range(bounds[b], bounds[b + 1]) for b in range(count)]
    live = {}  # pid -> read end of its pipe, for every child not yet reaped
    try:
        for block in blocks[1:]:
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                _run_child(task, block, read_fd, write_fd)
            os.close(write_fd)
            live[pid] = read_fd
        rows = [task(i) for i in blocks[0]]
        for pid, block in zip(list(live), blocks[1:]):
            with os.fdopen(live[pid], "rb", closefd=False) as pipe:
                payload = pipe.read()
            status = os.waitpid(pid, 0)[1]
            os.close(live.pop(pid))
            rows += _unpack(payload, status, block)
        return rows
    finally:
        # an unreaped child keeps its pid, so the kill cannot reach another process
        for pid, read_fd in live.items():
            os.close(read_fd)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _run_child(task, block: range, read_fd: int, write_fd: int):
    """Run ``block`` in a forked child, pipe back (rows, first failure) and exit; never returns.

    Any exception a replication raises is sent back, so the caller sees
    what the serial loop would raise; one that cannot be pickled ends
    the child with status 1.
    """
    status = 1
    try:
        os.close(read_fd)
        rows, failure = [], None
        for i in block:
            try:
                rows.append(task(i))
            except Exception as exc:
                failure = exc
                break
        payload = pickle.dumps((rows, failure), protocol=pickle.HIGHEST_PROTOCOL)
        with os.fdopen(write_fd, "wb") as pipe:
            pipe.write(payload)
        status = 0
    finally:
        os._exit(status)


def _unpack(payload: bytes, status: int, block: range) -> list:
    """The rows a child sent for ``block``; the failure it sent, if any, is raised.

    A child exits with status 0 only after writing its whole payload.
    """
    if status != 0 or not payload:
        raise ChildProcessError(
            f"worker process for replications {block.start}-{block.stop - 1} ended "
            f"with exit code {os.waitstatus_to_exitcode(status)} before sending its rows"
        )
    rows, failure = pickle.loads(payload)
    if failure is not None:
        raise failure
    return rows
