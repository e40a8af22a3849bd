"""Print one SHA-256 digest of each study call's report, to compare two checkouts bit for bit.

    PYTHONPATH=src python3 tools/report_digest.py [--n-reps N] [--workers W ...]

Each line is ``name workers=W digest``.  The digest hashes the report's
rows, one line per row, each cell written exactly: a float as
``float.hex``, anything else as ``repr``.  A call that raises a
``GlmavgError`` hashes its class and message instead.  The calls are:

* ``study1_A`` and ``study1_B``: ``run_study1`` at n = 60 and 200,
  each case on its own;
* ``study2_linear_A``, ``study2_linear_B``, ``study2_logistic_A`` and
  ``study2_logistic_B``: ``run_study2`` over the stock beta3 grid;
* ``ref_study1_n1000`` and ``ref_study2_logistic``: the reference calls
  of the ``study1_n1000`` and ``study2_logistic`` benchmark workloads
  (``perfbench/workloads.py``, 40 replications at seed 0);
* ``thin_study2``: ``run_study2`` of both families over the stock grid
  (both cases, every beta3) at 2 replications a cell, the linear rows
  first.  Its blocks hold less estimated work than a study's floor of
  work per process, so it runs in one process at every worker count,
  as ``ref_study2_logistic`` and every call at ``--n-reps 1`` do;
  ``tests/test_report_digest.py`` lets the studies fork them;
* ``band_5`` and ``band_50``: prediction bands, as ``glmavg band``
  makes them (one runner call for all rows), for 3 test rows of a
  67-row ``synthetic_prostate()`` split over its 256 candidates, at 5
  replications a row (each solved alone) and at 50 (a lockstep solve
  per row); a row is one band: point, lower, upper and level;
* ``cv_cv`` and ``cv_aic``: ``cv_compare`` on ``synthetic_prostate()``
  at 2 repeats, its best subset chosen by ``select_by`` ``cv`` or
  ``aic``; the rows are the per-repeat log, then the mean errors.

``--n-reps`` sets the replications of every study call but the two
reference calls and ``thin_study2`` (default 100); the band and ``cv``
calls ignore it.  Each call runs at every ``--workers`` value
(default 1 and 2).  Run it in two checkouts, each with its own
``PYTHONPATH``, and diff the outputs: equal lines mean equal reports, to
the last bit.  The default run takes about 2 s on a 2-core x86-64 VM.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
from types import SimpleNamespace

from glmavg import (
    GlmavgError,
    StudyReport,
    cv_compare,
    enumerate_all_subsets,
    run_study1,
    run_study2,
    split,
    synthetic_prostate,
)
from glmavg.averaging import _prediction_bands


def _study1(case):
    return lambda n_reps, workers: run_study1(
        n_grid=(60, 200), cases=(case,), n_reps=n_reps, seed=1, workers=workers
    )


def _study2(family, case):
    return lambda n_reps, workers: run_study2(family, cases=(case,), n_reps=n_reps, seed=2, workers=workers)


def _thin_study2(n_reps, workers):
    rows = [run_study2(family, n_reps=2, seed=3, workers=workers).rows for family in ("linear", "logistic")]
    return StudyReport(rows=rows[0] + rows[1])


def _band(n_reps):
    def call(_, workers):
        train, test = split(synthetic_prostate(), 67, seed=4)
        bands = _prediction_bands(
            train.design, train.response, test.design[:3], enumerate_all_subsets(1, 8), n_sub=50,
            n_reps=n_reps, sigma=0.7, level=0.9, seeds=[5, 6, 7], scheme="optimal", workers=workers,
        )
        return SimpleNamespace(rows=[dataclasses.asdict(band) for band in bands])

    return call


def _cv(select_by):
    def call(_, workers):
        report = cv_compare(synthetic_prostate(), n_repeats=2, seed=8, select_by=select_by, workers=workers)
        return SimpleNamespace(rows=report.per_repeat + [report.mean_errors])

    return call


CALLS = {
    "study1_A": _study1("A"),
    "study1_B": _study1("B"),
    "study2_linear_A": _study2("linear", "A"),
    "study2_linear_B": _study2("linear", "B"),
    "study2_logistic_A": _study2("logistic", "A"),
    "study2_logistic_B": _study2("logistic", "B"),
    "ref_study1_n1000": lambda n_reps, workers: run_study1(
        n_grid=(1000,), cases=("A",), n_reps=40, seed=0, workers=workers
    ),
    "ref_study2_logistic": lambda n_reps, workers: run_study2(
        family="logistic",
        beta3_grid=(0.05, 0.5),
        cases=("A",),
        schemes=("optimal", "aic"),
        n_reps=40,
        seed=0,
        workers=workers,
    ),
    "thin_study2": _thin_study2,
    "band_5": _band(5),
    "band_50": _band(50),
    "cv_cv": _cv("cv"),
    "cv_aic": _cv("aic"),
}


def _cell(value) -> str:
    return float(value).hex() if isinstance(value, float) else repr(value)


def digest(rows) -> str:
    """SHA-256 of report rows: one line per row, its cells in key order, floats as ``float.hex``."""
    text = "\n".join(" ".join(f"{key}={_cell(row[key])}" for key in row) for row in rows)
    return hashlib.sha256(text.encode()).hexdigest()


def call_digest(call, n_reps: int, workers: int) -> str:
    """The digest of one call's report rows, or of its error's class and message."""
    try:
        rows = call(n_reps, workers).rows
    except GlmavgError as exc:
        return "error " + hashlib.sha256(f"{type(exc).__name__}: {exc}".encode()).hexdigest()
    return digest(rows)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n-reps", type=int, default=100, help="replications per cell (default 100)")
    parser.add_argument("--workers", type=int, nargs="+", default=[1, 2], help="worker counts (default 1 2)")
    args = parser.parse_args(argv)
    for name, call in CALLS.items():
        for workers in args.workers:
            print(f"{name} workers={workers} {call_digest(call, args.n_reps, workers)}", flush=True)


if __name__ == "__main__":
    main()
