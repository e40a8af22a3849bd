"""Time one fixed call of a benchmark workload in two checkouts, alternately, in one process.

    python3 tools/ab_calls.py PARENT CHANGE --workload W [--pairs N] [--json PATH]

Each checkout's ``src/glmavg`` is loaded under a top-level name of its
own (``glmavg_parent``, ``glmavg_change``; the package finds its modules
through ``__name__``), so one process holds both.  Every workload has one
fixed call, made from the same seed on both sides:

- ``prostate_cv``: one prostate split's 30 ``optimal`` predicts over all
  K = 256 candidates (the predictor is fitted once, untimed);
- ``study1_n1000``: ``run_study1(n_grid=(1000,), cases=("A",), n_reps=50)``;
- ``study2_logistic``: the benchmark workload's own ``run_study2`` call
  (two logistic case-A cells of 25 replications, ``workers=2``).

After one untimed call per side, pair i makes the call once per side,
the parent first in even pairs and the change first in odd ones, and
takes each call's CPU time: the process's own and that of the children
it reaped (a study's forked blocks).  The report gives each side's
median and quartiles in ms and the quartiles over the pairs of
change/parent, on standard output as JSON, and in PATH with ``--json``.
The calls share one process's caches and see no start-up, so the tool
sizes a change to the code a call runs; ``tools/bench_pairs.py`` measures
what a benchmark run sees.  BLAS runs on one thread, as in the benchmark.

Both sides compile their sources, and none is cached: the tool refuses a
checkout that holds a ``__pycache__`` directory under ``src/``, as
``bench_pairs.py`` does, and writes no bytecode.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads, as perfbench/run.py pins them

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from bench_pairs import SIDES, quartiles  # noqa: E402

SEED = 0  # every call's seed, on both sides


def _prostate_cv(g):
    train, test = g.split(g.synthetic_prostate(), 67, seed=g.derive_seed(SEED, "prostate-split", 0))
    predictor = g.LinearAveragingPredictor(train.design, train.response, g.enumerate_all_subsets(1, 8))
    return lambda: [predictor.predict(row, "optimal") for row in test.design]


def _study1_n1000(g):
    return lambda: g.run_study1(n_grid=(1000,), cases=("A",), n_reps=50, seed=SEED)


def _study2_logistic(g):
    return lambda: g.run_study2(
        family="logistic", beta3_grid=(0.05, 0.5), cases=("A",), schemes=("optimal", "aic"), n_reps=25,
        seed=SEED, workers=2,
    )


WORKLOADS = {"prostate_cv": _prostate_cv, "study1_n1000": _study1_n1000, "study2_logistic": _study2_logistic}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--pairs", type=int, default=30)
    parser.add_argument("--json", type=Path, help="also write the report to this file")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    for side in SIDES:
        checkout = getattr(args, side)
        if not (checkout / "src" / "glmavg" / "__init__.py").is_file():
            parser.error(f"{checkout} has no src/glmavg/__init__.py")
        cache = next(iter(sorted((checkout / "src").rglob("__pycache__"))), None)
        if cache is not None:
            parser.error(f"{cache} holds bytecode caches; remove it, or compare fresh checkouts")
    return args


def load(checkout: Path, name: str):
    """The checkout's ``src/glmavg`` package, imported as the top-level module ``name``."""
    init = checkout / "src" / "glmavg" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def cpu_seconds() -> float:
    """CPU time of this process and of the children it has reaped."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def timed(call) -> float:
    start = cpu_seconds()
    call()
    return 1e3 * (cpu_seconds() - start)


def run_pairs(calls: dict, pairs: int) -> dict[str, list[float]]:
    """Each side's CPU ms per call, after one untimed call each, in alternating order."""
    for side in SIDES:
        calls[side]()
    ms = {side: [] for side in SIDES}
    for i in range(pairs):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            ms[side].append(timed(calls[side]))
    return ms


def report(args, ms: dict[str, list[float]]) -> dict:
    """The settings, each side's calls with their median and quartiles, and the paired ratio's quartiles."""
    r1, r2, r3 = quartiles([c / p for p, c in zip(ms["parent"], ms["change"])])
    sides = {}
    for side in SIDES:
        q1, q2, q3 = quartiles(ms[side])
        sides[side] = {"checkout": str(getattr(args, side)), "median_ms": q2, "quartiles_ms": [q1, q3], "ms": ms[side]}
    return {
        "workload": args.workload,
        "pairs": args.pairs,
        "seed": SEED,
        "clock": "CPU time of the process and its reaped children",
        "order": "the parent runs first in even pairs (counting from 0), the change in odd ones",
        **sides,
        "paired_ratio": {"median": r2, "quartiles": [r1, r3]},
        "change_faster": sum(c < p for p, c in zip(ms["parent"], ms["change"])),
    }


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    sys.dont_write_bytecode = True
    calls = {side: WORKLOADS[args.workload](load(getattr(args, side), f"glmavg_{side}")) for side in SIDES}
    record = report(args, run_pairs(calls, args.pairs))
    text = json.dumps(record, indent=2) + "\n"
    sys.stdout.write(text)
    if args.json is not None:
        args.json.write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
