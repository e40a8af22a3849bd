"""Time runs of the replication runner serially and forked, to place its floor of work per process.

    PYTHONPATH=src python3 tools/fork_floor.py [--repeats N] [--seed S]

``glmavg._forked.run_replications`` forks a block only when the
caller's estimate of the block's work reaches ``_FORK_FLOOR_MS`` plus
the caller's ``process_ms`` (the study harness's ``_PROCESS_MS`` of the
family).  This tool times each call below twice, at ``workers=1`` and
forked at ``workers=2`` with the floor and process costs set aside,
alternating the two, and prints the medians of ``--repeats`` runs
(default 31) with the estimated work of the forked run's larger block,
the work at which the runner forks it, and what the runner does at
``workers=2``.  OpenBLAS runs on one thread (the tool sets
``OPENBLAS_NUM_THREADS=1`` before numpy loads), so the times are those
of the blocks' own work and the fork.  The calls:

* ``empty``: a 2-block call of a task that does nothing, the fork's
  bare cost (its estimate, 1 ms a replication, is made up);
* ``study2 <family> thin R``: ``run_study2`` of either family over two
  cells (case A, beta3 0.05 and 0.5, the shape of the
  ``study2_logistic`` workload) at R = 20, 25, 30, 35, 40, 50, 100 and
  200 replications a cell;
* ``study2 <family> full R``: the stock grid (both cases, every beta3:
  12 cells) at R = 25, 50, 100 and 200;
* ``criterion 7``: the Study I run of acceptance criterion 7 (n = 100
  and 1000, case A, 1000 replications a cell);
* ``band 3 rows``: ``band``'s runner on three prostate rows, all 256
  subsets, 50 replications a row.

The last lines give the crossover of each family's Study II calls (and
of the other calls together): the largest estimated block work at which
the forked run was not faster and the smallest at which it was; then
each call that the runner sends the slower way, forked where the forked
run was not faster or serial where it was.
The default run takes about two minutes on a 2-core x86-64 VM.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy loads

import argparse  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

from glmavg import _forked, averaging, datasets, enumerate_all_subsets, run_study1, run_study2, sim_harness  # noqa: E402

THIN_REPS = (20, 25, 30, 35, 40, 50, 100, 200)
FULL_REPS = (25, 50, 100, 200)


def _study2(family, full, reps, seed):
    if full:
        return lambda workers: run_study2(family, n_reps=reps, seed=seed, workers=workers)
    return lambda workers: run_study2(
        family, beta3_grid=(0.05, 0.5), cases=("A",), n_reps=reps, seed=seed, workers=workers
    )


def _band(seed):
    data = datasets.synthetic_prostate()
    models = enumerate_all_subsets(1, data.d - 1)
    return lambda workers: averaging._prediction_bands(
        data.design, data.response, data.design[:3], models, n_sub=50, sigma=0.7, level=0.9,
        seeds=[seed, seed + 1, seed + 2], scheme="optimal", workers=workers,
    )


def calls(seed):
    """(name, call(workers)) for every timed call."""
    yield "empty", lambda workers: _forked.run_replications(lambda block: list(block), 2, workers, 1.0)
    for family in ("logistic", "linear"):
        for full, ladder in ((False, THIN_REPS), (True, FULL_REPS)):
            for reps in ladder:
                yield f"study2 {family} {'full' if full else 'thin'} {reps}", _study2(family, full, reps, seed)
    yield "criterion 7", lambda workers: run_study1(
        n_grid=(100, 1000), cases=("A",), n_reps=1000, seed=seed, workers=workers
    )
    yield "band 3 rows", _band(seed)


def block_ms(call) -> tuple[float, float]:
    """The caller's estimated work of the larger of two blocks, and the work at which it forks, from one serial run."""
    seen = []
    runner = _forked.run_replications

    def recording(task, n, workers, rep_ms, process_ms=0.0):
        seen.append((n, rep_ms, process_ms))
        return runner(task, n, workers, rep_ms, process_ms)

    modules = (_forked, sim_harness, averaging)
    for module in modules:
        module.run_replications = recording
    try:
        call(1)
    finally:
        for module in modules:
            module.run_replications = runner
    n, rep_ms, process_ms = seen[0]
    return (n - n // 2) * rep_ms, _forked._FORK_FLOOR_MS + process_ms


def timed(call, workers: int) -> float:
    start = time.perf_counter()
    call(workers)
    return (time.perf_counter() - start) * 1e3


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=31, help="runs per side of each call (default 31)")
    parser.add_argument("--seed", type=int, default=32001)
    args = parser.parse_args(argv)
    floor, process = _forked._FORK_FLOOR_MS, sim_harness._PROCESS_MS
    print(
        f"{'call':28} {'block est ms':>12} {'forks at ms':>11} {'serial ms':>10} {'forked ms':>10} "
        f"{'forked/serial':>13} runner"
    )
    wrong, paid = [], {}
    for name, call in calls(args.seed):
        estimate, threshold = block_ms(call)
        serial, forked = [], []
        _forked._FORK_FLOOR_MS, sim_harness._PROCESS_MS = 1e-9, dict.fromkeys(process, 0.0)
        try:
            for _ in range(args.repeats):
                serial.append(timed(call, 1))
                forked.append(timed(call, 2))
        finally:
            _forked._FORK_FLOOR_MS, sim_harness._PROCESS_MS = floor, process
        s, f = statistics.median(serial), statistics.median(forked)
        forks = estimate >= threshold
        if name != "empty":
            group = name.split()[1] if name.startswith("study2") else "other"
            paid.setdefault(group, []).append((estimate, f < s))
            if forks != (f < s):
                wrong.append(name)
        print(
            f"{name:28} {estimate:12.2f} {threshold:11.2f} {s:10.2f} {f:10.2f} {f / s:13.3f} "
            f"{'forks' if forks else 'serial'}",
            flush=True,
        )
    for group, runs in paid.items():
        lost = max((e for e, won in runs if not won), default=None)
        won = min((e for e, won in runs if won), default=None)
        print(
            f"{group}: forking did not pay up to {'-' if lost is None else f'{lost:.2f}'} ms "
            f"and paid from {'-' if won is None else f'{won:.2f}'} ms of estimated block work"
        )
    print(f"sent the slower way: {', '.join(wrong) or 'none'}")

if __name__ == "__main__":
    main()
