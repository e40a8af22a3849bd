"""Command-line front end.

Subcommands
    weights   per-model optimal/AIC/equal weights for one target covariate
    predict   averaged point estimate at one target covariate
    study1    bias/variance Monte Carlo study vs the oracle (report table)
    study2    optimal-vs-AIC Monte Carlo study over a coefficient grid
    cv        repeated train/test comparison of prediction methods
    band      subsample prediction bands for every row of a test CSV

Each handler builds its rows and its JSON payload once and ends in one
``_emit`` call: the rows as CSV (``dataio.csv_text``: a header line,
floats by ``repr``, None as an empty cell, a trailing newline), or under
``--format json`` the payload as ``json.dumps(payload, indent=2)`` plus
a newline.  ``weights`` and ``predict`` fit the family's averaging
predictor (``LinearAveragingPredictor`` or ``LogisticAveragingPredictor``)
and call its ``predict`` once.

Exit codes: 0 success, 2 data errors (bad CSV, bad arguments),
3 numerical failures (singular designs, non-convergent fits).
Output files are written atomically (temp file + rename), with the mode
a shell redirect gives (0666 less the umask).  An ``--out`` that cannot
be written (a missing directory, a directory, no permission) exits 2
with an error that names the ``--out`` path as given, and leaves no
file behind.

The parser and the ``weights``, ``predict`` and ``band`` handlers load
no ``sim_harness``, ``crossval`` or ``datasets`` code: a study handler
imports ``sim_harness`` and ``cv`` imports ``crossval`` when it runs.
Both process entry points, ``python -m glmavg.cli`` and the installed
``glmavg`` script, call ``run``: it freezes what the imports made
(``gc.freeze``) and turns the cyclic garbage collector on for ``main``,
then freezes again, so the interpreter's exit-time collections scan
nothing.  Run as ``python -m``, the module also keeps the collector off
while it imports; the script's wrapper imports the module before
``run`` starts, so there it is on.  ``main`` never touches the collector.
"""

from __future__ import annotations

import gc

if __name__ == "__main__":
    gc.disable()  # the imports make almost no garbage; run() re-enables it

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from .averaging import (
    _PREDICTORS,
    SCHEMES,
    _prediction_bands,
    # not called here: _cmd_band lays every row out in one _prediction_bands call, so the
    # tracer's cli.prediction_band hook, which looks the name up here, records no span
    prediction_band,
)
from .dataio import csv_text, load_csv
from .errors import DataError, GlmavgError, NumericalError
from .glm_fit import require_finite
from .model_space import ModelSet, _checked_candidates, enumerate_all_subsets
from .mse_weights import LinearQFactory


def _write_atomic(path: str, text: str) -> None:
    """Write ``text`` to ``path`` through a temp file in the same directory and a rename.

    The temp file has a random name and is created with mode 0666, which
    the kernel masks with the process umask: a shell redirect's mode.
    An ``OSError`` names ``path`` as given, never the temp file, and no
    temp file is left behind.  A directory at ``path`` is a ``DataError``
    raised before any file is made.
    """
    if os.path.isdir(path):
        raise DataError(f"--out {path!r} is a directory")
    try:
        directory = os.path.dirname(os.path.abspath(path))
        tmp = os.path.join(directory, f".glmavg-{os.urandom(8).hex()}.tmp")
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None


def _emit(args, columns, rows, payload) -> None:
    """Every command's output: ``rows`` as CSV, or ``payload`` as JSON under ``--format json``."""
    text = json.dumps(payload, indent=2) + "\n" if args.format == "json" else csv_text(columns, rows)
    if args.out:
        _write_atomic(args.out, text)
    else:
        sys.stdout.write(text)


def _parse_floats(text: str, what: str) -> np.ndarray:
    """The comma-separated numbers of flag ``what``; a blank ``text`` gives none.

    An empty entry raises ``DataError`` with its 1-based position, so
    ``1,,2`` is never read as ``1,2``.
    """
    entries = [v.strip() for v in text.split(",")] if text.strip() else []
    if "" in entries:
        raise DataError(f"{what} entry {entries.index('') + 1} of {len(entries)} is empty")
    try:
        return np.array([float(v) for v in entries])
    except ValueError as exc:
        raise DataError(f"cannot parse {what}: {exc}") from None


def _load_models(args, p: int) -> ModelSet:
    """The ``--models`` file's candidates, checked against a design of p columns, or all p - 1 predictors' subsets."""
    if args.models:
        with open(args.models) as handle:
            return _checked_candidates(ModelSet.from_jsonl(handle.read()), p)
    return enumerate_all_subsets(1, p - 1)


def _given(value, keyword: str, convert=None) -> dict:
    """``{keyword: value}``, through ``convert``, when the flag was given, else nothing.

    A flag left out passes no keyword, so the library default stands and
    the parser need not import the module that defines it.
    """
    if value is None:
        return {}
    return {keyword: value if convert is None else convert(value)}


def _dataset_and_x_star(args):
    dataset = load_csv(args.data, args.response, family=args.family)
    x_star = _parse_floats(args.x_star, "--x-star")
    if x_star.shape[0] != dataset.d:
        raise DataError(
            f"--x-star has {x_star.shape[0]} entries, design has {dataset.d} columns "
            "(include the leading intercept 1)"
        )
    return dataset, x_star


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_point(args) -> None:
    """``weights`` and ``predict``: one averaged estimate at x*, shaped per command."""
    if args.dump_q and args.format != "json":
        raise DataError("--dump-q needs --format json")
    dataset, x_star = _dataset_and_x_star(args)
    models = _load_models(args, dataset.d)
    require_finite("x_star", x_star)  # before any candidate is fit
    predictor = _PREDICTORS[args.family](dataset.design, dataset.response, models)
    estimate = predictor.predict(x_star, args.scheme)

    if args.command == "weights":
        payload = {
            "scheme": args.scheme,
            "family": args.family,
            "estimate": estimate.value,
            "weights": estimate.weights.tolist(),
            "per_model": estimate.per_model.tolist(),
            "models": [list(m.included) for m in models],
        }
        columns = ("model", "included", "weight", "per_model_value")
        rows = [
            dict(zip(columns, (k, " ".join(map(str, m.included)), w, v)))
            for k, (m, w, v) in enumerate(zip(models, payload["weights"], payload["per_model"]))
        ]
    else:
        payload = {
            "family": args.family,
            "scheme": args.scheme,
            "estimate": estimate.value,
            "weights": estimate.weights.tolist(),
        }
        columns, rows = ("family", "scheme", "estimate"), [payload]
    if estimate.solution is not None:
        payload.update(
            objective=estimate.solution.objective,
            kkt_residual=estimate.solution.kkt_residual,
            iterations=estimate.solution.iterations,
        )
    if args.dump_q and estimate.q_hat is not None:
        payload.update(bias=estimate.q_hat.bias.tolist(), q_matrix=estimate.q_hat.matrix.tolist())
    _emit(args, columns, rows, payload)


def _cmd_study1(args) -> None:
    from .sim_harness import REPORT_COLUMNS, run_study1

    report = run_study1(
        n_grid=list(_parse_floats(args.n_grid, "--n-grid")),
        cases=args.cases.split(","),
        seed=args.seed,
        workers=args.workers,
        **_given(args.reps, "n_reps"),
    )
    _emit(args, REPORT_COLUMNS, report.rows, {"columns": list(REPORT_COLUMNS), "rows": report.rows})


def _cmd_study2(args) -> None:
    from .sim_harness import REPORT_COLUMNS, run_study2

    report = run_study2(
        family=args.family,
        cases=args.cases.split(","),
        schemes=tuple(args.schemes.split(",")),
        seed=args.seed,
        workers=args.workers,
        **_given(args.beta3, "beta3_grid", lambda text: [float(v) for v in _parse_floats(text, "--beta3")]),
        **_given(args.reps, "n_reps"),
    )
    _emit(args, REPORT_COLUMNS, report.rows, {"columns": list(REPORT_COLUMNS), "rows": report.rows})


def _cmd_cv(args) -> None:
    from .crossval import cv_compare

    dataset = load_csv(args.data, args.response, family="linear")
    report = cv_compare(
        dataset,
        seed=args.seed,
        n_train=args.n_train,
        models=_load_models(args, dataset.d) if args.models else None,
        select_by=args.select_by,
        workers=args.workers,
        **_given(args.methods, "methods", lambda text: tuple(text.split(","))),
        **_given(args.reps, "n_repeats"),
    )
    rows = [{"method": method, "mean_error": err} for method, err in report.mean_errors.items()]
    _emit(args, ("method", "mean_error"), rows, dataclasses.asdict(report))


def _cmd_band(args) -> None:
    train = load_csv(args.data, args.response, family="linear")
    test = load_csv(args.test_data, args.response, family="linear")
    if test.column_names != train.column_names:
        raise DataError("training and test files must have the same columns")
    models = _load_models(args, train.d)
    sigma = args.sigma
    if sigma is None:
        # the full design's divisor-n residual sd, from its R factor: a factory with no candidates
        sigma = float(np.sqrt(LinearQFactory(train.design, train.response, []).sigma2))

    bands = _prediction_bands(
        train.design,
        train.response,
        test.design,
        models,
        n_sub=args.n_sub,
        sigma=sigma,
        level=args.level,
        seeds=[args.seed + i for i in range(test.n)],
        scheme=args.scheme,
        workers=args.workers,
        **_given(args.reps, "n_reps"),
    )
    columns = ("index", "actual", "predicted", "lower", "upper")
    rows = [
        dict(zip(columns, (i, float(test.response[i]), band.point, band.lower, band.upper)))
        for i, band in enumerate(bands)
    ]
    _emit(args, columns, rows, {"level": args.level, "sigma": sigma, "rows": rows})


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    # each subcommand takes only the flag groups it reads
    output_args = argparse.ArgumentParser(add_help=False)
    output_args.add_argument("--out", default=None, help="output path (default: stdout)")
    output_args.add_argument("--format", choices=("csv", "json"), default="csv")

    run_args = argparse.ArgumentParser(add_help=False)
    run_args.add_argument("--seed", type=int, default=0, help="base random seed")
    run_args.add_argument("--reps", type=int, default=None, help="replication / repeat count")
    run_args.add_argument("--workers", type=int, default=1,
                          help="worker processes for the replications (at least 1; output is "
                               "identical for every count; serial on one CPU, off Linux, or "
                               "when a study's work is too small to split)")

    data_args = argparse.ArgumentParser(add_help=False)
    data_args.add_argument("--data", required=True, help="input CSV with a header row")
    data_args.add_argument("--response", required=True, help="response column name")
    data_args.add_argument(
        "--models", default=None, help="candidate-set JSON-lines file (default: all subsets)"
    )

    parser = argparse.ArgumentParser(
        prog="glmavg",
        description="Frequentist model averaging for linear and logistic regression.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    point_args = argparse.ArgumentParser(add_help=False)
    point_args.add_argument("--family", choices=tuple(_PREDICTORS), default="linear")
    point_args.add_argument(
        "--x-star", required=True, help="comma-separated covariate vector incl. intercept 1"
    )
    point_args.add_argument("--scheme", choices=SCHEMES, default="optimal")
    point_args.add_argument(
        "--dump-q", action="store_true", help="include the Q matrix in JSON output"
    )

    p = sub.add_parser("weights", parents=[output_args, data_args, point_args],
                       help="per-model weights for one target covariate")
    p.set_defaults(handler=_cmd_point)

    p = sub.add_parser("predict", parents=[output_args, data_args, point_args],
                       help="averaged estimate at one target covariate")
    p.set_defaults(handler=_cmd_point)

    p = sub.add_parser("study1", parents=[output_args, run_args],
                       help="bias/variance study vs the oracle")
    p.add_argument("--cases", default="A,B")
    p.add_argument("--n-grid", default=",".join(str(n) for n in range(100, 1001, 100)))
    p.set_defaults(handler=_cmd_study1)

    p = sub.add_parser("study2", parents=[output_args, run_args],
                       help="optimal vs AIC weighting study")
    p.add_argument("--family", choices=tuple(_PREDICTORS), default="linear")
    p.add_argument("--cases", default="A,B")
    p.add_argument("--beta3", default=None)
    p.add_argument("--schemes", default="optimal,aic")
    p.set_defaults(handler=_cmd_study2)

    p = sub.add_parser("cv", parents=[output_args, run_args, data_args],
                       help="repeated train/test method comparison")
    p.add_argument("--methods", default=None)
    p.add_argument("--n-train", type=int, default=None)
    p.add_argument("--select-by", default="cv", help="best-subset rule; cv_compare checks it")
    p.set_defaults(handler=_cmd_cv)

    p = sub.add_parser("band", parents=[output_args, run_args, data_args],
                       help="prediction bands for each test row")
    p.add_argument("--test-data", required=True, help="test CSV with the same columns")
    p.add_argument("--n-sub", type=int, default=50)
    p.add_argument("--level", type=float, default=0.9)
    p.add_argument("--sigma", type=float, default=None,
                   help="noise sd (default: full-model residual sd on the training data)")
    p.add_argument("--scheme", choices=SCHEMES, default="optimal")
    p.set_defaults(handler=_cmd_band)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.handler(args)
    except DataError as exc:
        print(f"glmavg: data error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"glmavg: numerical failure: {exc}", file=sys.stderr)
        return 3
    except GlmavgError as exc:
        print(f"glmavg: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"glmavg: {exc}", file=sys.stderr)
        return 2
    return 0


def run() -> None:
    """The process entry point: ``main`` on ``sys.argv``, then exit with its code."""
    gc.freeze()  # the imports' objects: a later collection need not scan them
    gc.enable()  # a long study still collects
    code = main()
    gc.freeze()  # so the exit-time collections scan nothing
    sys.exit(code)


if __name__ == "__main__":
    run()
