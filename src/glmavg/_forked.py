"""Replication loops over ``range(n)``, split across forked worker processes.

Every replication loop in the package draws replication i from its own
stream, so its rows do not depend on which process computes them.  The
callers are ``sim_harness._simulate``, which lays out all the cells of
one ``run_study1``, ``run_study2`` or ``simulate_cell`` call as one
``range(n)``, rep by rep; ``averaging._prediction_bands``, which lays
out every test row of one ``band`` run (or the one row of a
``prediction_band`` call) row by row; and ``cv_compare``.  Each makes
one call, so ``workers`` > 1 forks ``workers`` - 1 children per study,
``band`` run or ``cv`` run.  ``run_replications`` splits ``range(n)``
into contiguous blocks whose lengths differ by one at most, hands each
block to the caller's task as one ``range`` (the study harness fits and
averages a block's replications as stacks, and ``band`` a block's
replications of each test row, through one routine,
``averaging._fit_average_stack``), runs the first block in the
calling process and each other block in a fork-started child, and
joins the rows in index order, so the result is bit-identical for every
worker count.  On a 2-core x86-64 host a round trip to a child costs about
3.7 ms with ``os.fork`` and a pipe, 4.5 ms with a
``multiprocessing.Process`` and 6 ms with a process pool, and importing
``multiprocessing`` and ``concurrent.futures`` would add 13-19 ms to
every cold CLI call; so this module uses ``os.fork``.  The fork is a
fixed cost per call: an empty 2-block call takes 1.45 ms, and a child's
first Study II logistic replication takes 1.28 ms against 0.58 ms
unforked (medians of 200); ``gc.freeze()`` before the fork changed
neither figure.  So a caller makes one call for many replications, laid
out so that blocks of one length cost about the same.

The loop runs serially, in the calling process, when ``workers`` is 1,
when n is 1, when the process may use only one CPU, when the platform is
not Linux with ``os.fork``, or when more than one Python thread is alive
(a fork copies only the calling thread, and a lock held by another
thread would stay held in the child; OpenBLAS, numpy's BLAS, resets its
own thread pool in a forked child).  Whether a run's work pays for a
fork is the caller's call: the study harness caps ``workers`` by its
own floor of work per process (``sim_harness._FORK_FLOOR_MS``), and
``band`` and ``cv`` fork whenever they are asked to.

When the loop does fork, every process that runs a block runs OpenBLAS
on one thread.  The calling process sets it before the forks, so each
child starts on one thread, and restores its own previous count once
every child is reaped, on a return and on a raise.  (A child that set
it itself would restart the pool that OpenBLAS shuts down at a fork,
and the pool's new thread would spin beside the block for about
0.13 s.)  With OpenBLAS's default pool, two processes fitting n = 1000
designs at once contended for the cores: a Study I run of two n = 1000
cells (400 replications each) took 0.30-5.6 s, median 0.38 s, at
``workers=2``, and now takes 0.12 s, as with ``OPENBLAS_NUM_THREADS=1``
(11 fresh processes each, 2-core x86-64 VM).  numpy has no call for
this, so it goes through ``ctypes`` into the OpenBLAS that the process
has loaded, found among its mapped objects; ``ctypes`` is used only on
the forked path, and with no OpenBLAS found the blocks run on whatever
BLAS threads they have.
"""

from __future__ import annotations

import functools
import os
import pickle
import signal
import sys
import threading

from .errors import DataError

# (get, set) pairs of the thread-count calls an OpenBLAS build may export
_OPENBLAS_CALLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


def _block_count(n: int, workers: int) -> int:
    """How many blocks ``range(n)`` is split into; 1 runs it serially."""
    if not (sys.platform.startswith("linux") and hasattr(os, "fork")) or threading.active_count() > 1:
        return 1
    return max(1, min(workers, n, len(os.sched_getaffinity(0))))


@functools.cache
def _blas_calls():
    """The (get, set) thread-count calls of the OpenBLAS this process has loaded, or None.

    Looked up once per process, among the shared objects mapped into it,
    each opened with ``RTLD_NOLOAD`` so that nothing new is loaded.
    """
    try:
        import ctypes

        with open("/proc/self/maps") as maps:
            paths = sorted({line.split(None, 5)[5].strip() for line in maps if "openblas" in line.lower()})
    except (ImportError, OSError):
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except OSError:
            continue
        for get, set_ in _OPENBLAS_CALLS:
            if hasattr(lib, get) and hasattr(lib, set_):
                return getattr(lib, get), getattr(lib, set_)
    return None


def run_replications(task, n: int, workers: int) -> list:
    """The rows of ``range(n)``, each contiguous block of it but the first run in a forked child.

    ``range(n)`` is split into ``min(workers, n, usable CPUs)`` blocks
    (one, the serial loop, on the fallbacks of the module docstring).
    ``task(block)`` gets a contiguous ``range`` of indices and returns
    their rows in order, so a caller can share work across a block's
    replications; ``task(range(n))`` is the serial result.
    When a block fails, ``task`` raises the
    failure at its earliest index, as a loop over the indices would; the
    earliest failing block's is raised here, so the failure at the
    earliest index wins: a child sends it back pickled, with its class,
    message and attributes.  A child that exits without sending its rows
    raises ``ChildProcessError``.  Every child is reaped, and the calling
    process's BLAS thread count restored, before this returns or raises.
    ``workers`` below 1 raises ``DataError`` before any replication.
    """
    if workers < 1:
        raise DataError(f"workers must be at least 1, got {workers}")
    count = _block_count(n, workers)
    if count == 1:
        return task(range(n))
    # the calling process also forks and collects, so it takes the smallest block
    bounds = [n * b // count for b in range(count + 1)]
    blocks = [range(bounds[b], bounds[b + 1]) for b in range(count)]
    blas = _blas_calls()
    previous = blas[0]() if blas is not None else 1
    live = {}  # pid -> read end of its pipe, for every child not yet reaped
    try:
        if previous != 1:
            # set before the forks, so every child starts on one thread: a child's
            # own call would restart the pool that the fork shut down, and its new
            # thread would spin beside the block for about 0.13 s
            blas[1](1)
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
        rows = task(blocks[0])
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
        if previous != 1:
            blas[1](previous)


def _run_child(task, block: range, read_fd: int, write_fd: int):
    """Run ``block`` in a forked child, pipe back (rows, failure) and exit; never returns.

    Any exception the block raises is sent back, so the caller sees
    what the serial loop would raise; one that cannot be pickled ends
    the child with status 1.
    """
    status = 1
    try:
        os.close(read_fd)
        rows, failure = [], None
        try:
            rows = task(block)
        except Exception as exc:
            failure = exc
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
