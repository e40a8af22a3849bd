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
* ``study2_wide_seed`` and ``band_wide_seed``: ``study2_logistic_A`` at
  seed 2^32 + 2, and ``band_50`` at 20 replications a row with seeds
  2^32 + 5, 2^63 + 6 and 2^64 + 7, so that stream-key prefixes of two-
  and three-word seeds go through the per-stack keys
  (``rng._stack_streams``);
* ``cv_cv`` and ``cv_aic``: ``cv_compare`` on ``synthetic_prostate()``
  at 2 repeats, its best subset chosen by ``select_by`` ``cv`` or
  ``aic``; the rows are the per-repeat log, then the mean errors;
* ``oracle_paths``: every replication's estimates (``optimal``, ``aic``
  and the oracle) of one study run over six Study II-shaped cells
  (``ORACLE_CELLS``), one for each source of the oracle column: a
  candidate; the linear full design joined to the candidates' union
  factor, and with a factor of its own; a linear oracle of its own
  columns inside the candidates' union, and outside it; and a
  logistic oracle that is neither a candidate nor the full design.

``--n-reps`` sets the replications of every study call but the two
reference calls and ``thin_study2`` (default 100); the band and ``cv``
calls ignore it.  Each call runs at every ``--workers`` value
(default 1 and 2).  Run it in two checkouts, each with its own
``PYTHONPATH``, and diff the outputs: equal lines mean equal reports, to
the last bit.  The default run takes about 1 s on a 2-core x86-64 VM.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
from types import SimpleNamespace

import numpy as np

from glmavg import (
    CandidateModel,
    GlmavgError,
    ModelSet,
    StudyConfig,
    StudyReport,
    cv_compare,
    enumerate_all_subsets,
    run_study1,
    run_study2,
    split,
    synthetic_prostate,
)
from glmavg.averaging import _prediction_bands
from glmavg.sim_harness import STUDY2_X_STAR, _simulate, study2_model_sets


def _study1(case):
    return lambda n_reps, workers: run_study1(
        n_grid=(60, 200), cases=(case,), n_reps=n_reps, seed=1, workers=workers
    )


def _study2(family, case, seed=2):
    return lambda n_reps, workers: run_study2(family, cases=(case,), n_reps=n_reps, seed=seed, workers=workers)


def _thin_study2(n_reps, workers):
    rows = [run_study2(family, n_reps=2, seed=3, workers=workers).rows for family in ("linear", "logistic")]
    return StudyReport(rows=rows[0] + rows[1])


def _band(n_reps, seeds=(5, 6, 7)):
    def call(_, workers):
        train, test = split(synthetic_prostate(), 67, seed=4)
        bands = _prediction_bands(
            train.design, train.response, test.design[:3], enumerate_all_subsets(1, 8), n_sub=50,
            n_reps=n_reps, sigma=0.7, level=0.9, seeds=list(seeds), scheme="optimal", workers=workers,
        )
        return SimpleNamespace(rows=[dataclasses.asdict(band) for band in bands])

    return call


def _cv(select_by):
    def call(_, workers):
        report = cv_compare(synthetic_prostate(), n_repeats=2, seed=8, select_by=select_by, workers=workers)
        return SimpleNamespace(rows=report.per_repeat + [report.mean_errors])

    return call


# (family, candidates, oracle support) of each oracle source, over an intercept and 3 optional columns
_SPREAD = ModelSet([CandidateModel((j,), 1) for j in range(3)], 3)  # no full candidate, every column in the union
ORACLE_CELLS = (
    ("linear", study2_model_sets()["A"], (0, 1)),  # a candidate
    ("linear", _SPREAD, (0, 1, 2)),  # the full design, joined to the union factor
    ("linear", study2_model_sets()["B"], (0, 1, 2)),  # the full design, with a factor of its own
    ("linear", _SPREAD, (0, 1)),  # its own columns, inside the union
    ("linear", study2_model_sets()["B"], (0, 2)),  # its own columns, outside the union
    ("logistic", study2_model_sets()["B"], (0, 2)),  # neither a candidate nor the full design
)


def oracle_configs(n_reps):
    """The ``oracle_paths`` cells: one ``StudyConfig`` of n = 60 per entry of ``ORACLE_CELLS``."""
    return [
        StudyConfig(
            family=family,
            n=60,
            beta_true=np.array([0.3, 0.1, 0.3, 0.3]),
            candidate_set=models,
            x_star=np.asarray(STUDY2_X_STAR),
            n_reps=n_reps,
            seed=9,
            schemes=("optimal", "aic"),
            oracle=CandidateModel(oracle, 1),
            tags=("oracle_paths", cell),
        )
        for cell, (family, models, oracle) in enumerate(ORACLE_CELLS)
    ]


def _oracle_paths(n_reps, workers):
    configs = oracle_configs(n_reps)
    rows = [
        {"cell": cell, "column": column, "rep": rep, "estimate": float(value)}
        for cell, estimates in enumerate(_simulate(configs, workers))
        for column, values in estimates.items()
        for rep, value in enumerate(values)
    ]
    return SimpleNamespace(rows=rows)


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
    "study2_wide_seed": _study2("logistic", "A", seed=2**32 + 2),
    "band_wide_seed": _band(20, seeds=(2**32 + 5, 2**63 + 6, 2**64 + 7)),
    "cv_cv": _cv("cv"),
    "cv_aic": _cv("aic"),
    "oracle_paths": _oracle_paths,
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
