"""Time runs serially and forked, to place a study's floor of work per process.

    PYTHONPATH=src python3 tools/fork_floor.py [--repeats N] [--seed S]

A study caps its workers so that each forked block's estimated work
reaches the floor (``sim_harness._block_cap``, from ``_rep_ms`` and
``_FORK_FLOOR_MS``); ``band`` and ``cv`` fork whenever asked.  This
tool times each call below twice, at ``workers=1`` and forked at
``workers=2`` with the floor set aside, alternating the two,
and prints the medians of ``--repeats`` runs (default 31), what the
call does at ``workers=2`` and, for a study, the estimated work of the
forked run's larger block and the floor at which the study forks it.
OpenBLAS runs on one thread (the tool sets ``OPENBLAS_NUM_THREADS=1``
before numpy loads), so the times are those of the blocks' own work
and the fork.  The calls:

* ``empty``: a 2-block runner call of a task that does nothing, the
  fork's bare cost;
* ``study2 <family> thin R``: ``run_study2`` of either family over two
  cells (case A, beta3 0.05 and 0.5, the shape of the
  ``study2_logistic`` workload) at R = 20, 25, 30, 35, 40, 50, 60, 70,
  100 and 200 replications a cell;
* ``study2 <family> full R``: the stock grid (both cases, every beta3:
  12 cells) at R = 25, 50, 100 and 200;
* ``criterion 7``: the Study I run of acceptance criterion 7 (n = 100
  and 1000, case A, 1000 replications a cell);
* ``band 3 rows``: ``band``'s runner on three prostate rows, all 256
  subsets, 50 replications a row.

The last lines give the crossover of each family's Study II calls (and
of criterion 7 apart): the largest estimated block work at which the
forked run was not faster and the smallest at which it was; then each
call but ``empty`` that goes the slower way, forked where the forked
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

THIN_REPS = (20, 25, 30, 35, 40, 50, 60, 70, 100, 200)
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
    yield "empty", lambda workers: _forked.run_replications(lambda block: list(block), 2, workers)
    for family in ("logistic", "linear"):
        for full, ladder in ((False, THIN_REPS), (True, FULL_REPS)):
            for reps in ladder:
                yield f"study2 {family} {'full' if full else 'thin'} {reps}", _study2(family, full, reps, seed)
    yield "criterion 7", lambda workers: run_study1(
        n_grid=(100, 1000), cases=("A",), n_reps=1000, seed=seed, workers=workers
    )
    yield "band 3 rows", _band(seed)


def study_plan(call):
    """A study call's (larger block's estimated ms, floor ms, whether it forks at 2 workers); None for another call.

    Read from the study's cap (``sim_harness._block_cap``) in one serial run.
    """
    seen = []
    cap = sim_harness._block_cap

    def recording(configs):
        seen.append((configs, cap(configs)))
        return seen[-1][1]

    sim_harness._block_cap = recording
    try:
        call(1)
    finally:
        sim_harness._block_cap = cap
    if not seen:
        return None
    configs, blocks = seen[0]
    n = len(configs) * configs[0].n_reps
    mean_ms = sum(map(sim_harness._rep_ms, configs)) / len(configs)
    return (n - n // 2) * mean_ms, sim_harness._FORK_FLOOR_MS, blocks >= 2


def timed(call, workers: int) -> float:
    start = time.perf_counter()
    call(workers)
    return (time.perf_counter() - start) * 1e3


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=31, help="runs per side of each call (default 31)")
    parser.add_argument("--seed", type=int, default=32001)
    args = parser.parse_args(argv)
    saved = sim_harness._FORK_FLOOR_MS
    print(
        f"{'call':28} {'block est ms':>12} {'forks at ms':>11} {'serial ms':>10} {'forked ms':>10} "
        f"{'forked/serial':>13} runner"
    )
    wrong, paid = [], {}
    for name, call in calls(args.seed):
        plan = study_plan(call)
        serial, forked = [], []
        sim_harness._FORK_FLOOR_MS = 1e-9
        try:
            for _ in range(args.repeats):
                serial.append(timed(call, 1))
                forked.append(timed(call, 2))
        finally:
            sim_harness._FORK_FLOOR_MS = saved
        s, f = statistics.median(serial), statistics.median(forked)
        forks = plan is None or plan[2]
        if name != "empty" and forks != (f < s):
            wrong.append(name)
        if plan is not None:
            group = name.split()[1] if name.startswith("study2") else "other"
            paid.setdefault(group, []).append((plan[0], f < s))
        estimate, floor = ("-", "-") if plan is None else (f"{plan[0]:.2f}", f"{plan[1]:.2f}")
        print(
            f"{name:28} {estimate:>12} {floor:>11} {s:10.2f} {f:10.2f} {f / s:13.3f} "
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
