"""Command-line front end.

Subcommands
    weights   per-model optimal/AIC/equal weights for one target covariate
    predict   averaged point estimate at one target covariate
    study1    bias/variance Monte Carlo study vs the oracle (report table)
    study2    optimal-vs-AIC Monte Carlo study over a coefficient grid
    cv        repeated train/test comparison of prediction methods
    band      subsample prediction bands for every row of a test CSV

Exit codes: 0 success, 2 data errors (bad CSV, bad arguments),
3 numerical failures (singular designs, non-convergent fits).
Output files are written atomically (temp file + rename).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

import numpy as np

from .averaging import (
    Functional,
    fit_and_average_linear,
    fit_and_average_logistic,
    prediction_band,
)
from .crossval import DEFAULT_METHODS, SELECTION_RULES, cv_compare
from .dataio import load_csv
from .errors import DataError, GlmavgError, NumericalError
from .glm_fit import full_linear_fit
from .model_space import ModelSet, enumerate_all_subsets
from .sim_harness import STUDY2_BETA3_GRID, run_study1, run_study2


def _write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".glmavg-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(args, text: str) -> None:
    if args.out:
        _write_atomic(args.out, text)
    else:
        sys.stdout.write(text)


def _parse_floats(text: str, what: str) -> np.ndarray:
    try:
        return np.array([float(v) for v in text.split(",") if v.strip() != ""])
    except ValueError as exc:
        raise DataError(f"cannot parse {what}: {exc}") from None


def _load_models(args, q: int) -> ModelSet:
    if args.models:
        with open(args.models) as handle:
            models = ModelSet.from_jsonl(handle.read())
        if models.p_fixed + models.q != q + 1:
            raise DataError(
                f"model set is over {models.p_fixed + models.q} coefficients, "
                f"data has {q + 1}"
            )
        return models
    return enumerate_all_subsets(1, q)


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
    dataset, x_star = _dataset_and_x_star(args)
    models = _load_models(args, dataset.d - 1)
    if args.family == "logistic":
        functional, average = Functional.logistic_point(x_star), fit_and_average_logistic
    else:
        functional, average = Functional.linear_point(x_star), fit_and_average_linear
    estimate = average(dataset.design, dataset.response, models, functional, args.scheme)

    if args.format == "json":
        if args.command == "weights":
            payload = {
                "scheme": args.scheme,
                "family": args.family,
                "estimate": estimate.value,
                "weights": estimate.weights.tolist(),
                "per_model": estimate.per_model.tolist(),
                "models": [list(m.included) for m in models],
            }
        else:
            payload = {
                "family": args.family,
                "scheme": args.scheme,
                "estimate": estimate.value,
                "weights": estimate.weights.tolist(),
            }
        if estimate.solution is not None:
            payload.update(
                objective=estimate.solution.objective,
                kkt_residual=estimate.solution.kkt_residual,
                iterations=estimate.solution.iterations,
            )
        if args.dump_q and estimate.q_hat is not None:
            q_hat = estimate.q_hat
            payload.update(bias=q_hat.bias.tolist(), q_matrix=q_hat.matrix.tolist())
        _emit(args, json.dumps(payload, indent=2) + "\n")
    elif args.dump_q:
        raise DataError("--dump-q needs --format json")
    elif args.command == "weights":
        lines = ["model,included,weight,per_model_value"]
        for k, model in enumerate(models):
            included = " ".join(str(i) for i in model.included)
            lines.append(
                f"{k},{included},{float(estimate.weights[k])!r},{float(estimate.per_model[k])!r}"
            )
        _emit(args, "\n".join(lines) + "\n")
    else:
        _emit(args, f"family,scheme,estimate\n{args.family},{args.scheme},{estimate.value!r}\n")


def _cmd_study1(args) -> None:
    report = run_study1(
        n_grid=list(_parse_floats(args.n_grid, "--n-grid")),
        cases=args.cases.split(","),
        n_reps=args.reps if args.reps is not None else 1000,
        seed=args.seed,
        workers=args.workers,
        fixed_design=args.fixed_design,
    )
    _emit(args, report.to_json_text() if args.format == "json" else report.to_csv_text())


def _cmd_study2(args) -> None:
    report = run_study2(
        family=args.family,
        beta3_grid=[float(v) for v in _parse_floats(args.beta3, "--beta3")],
        cases=args.cases.split(","),
        schemes=tuple(args.schemes.split(",")),
        n_reps=args.reps if args.reps is not None else 500,
        seed=args.seed,
        workers=args.workers,
        fixed_design=args.fixed_design,
    )
    _emit(args, report.to_json_text() if args.format == "json" else report.to_csv_text())


def _cmd_cv(args) -> None:
    dataset = load_csv(args.data, args.response, family="linear")
    report = cv_compare(
        dataset,
        methods=tuple(args.methods.split(",")),
        n_repeats=args.reps if args.reps is not None else 5,
        seed=args.seed,
        n_train=args.n_train,
        models=_load_models(args, dataset.d - 1) if args.models else None,
        select_by=args.select_by,
        workers=args.workers,
    )
    if args.format == "json":
        _emit(args, json.dumps(report.to_dict(), indent=2) + "\n")
    else:
        lines = ["method,mean_error"]
        for method, err in report.mean_errors.items():
            lines.append(f"{method},{err!r}")
        _emit(args, "\n".join(lines) + "\n")


def _cmd_band(args) -> None:
    train = load_csv(args.data, args.response, family="linear")
    test = load_csv(args.test_data, args.response, family="linear")
    if test.d != train.d:
        raise DataError("training and test files must have the same columns")
    models = _load_models(args, train.d - 1)
    sigma = args.sigma
    if sigma is None:
        sigma = float(np.sqrt(full_linear_fit(train.design, train.response).sigma2))
    n_reps = args.reps if args.reps is not None else 50

    lines = ["index,actual,predicted,lower,upper"]
    rows = []
    for i in range(test.n):
        band = prediction_band(
            train.design,
            train.response,
            test.design[i],
            models,
            n_sub=args.n_sub,
            n_reps=n_reps,
            sigma=sigma,
            level=args.level,
            seed=args.seed + i,
            scheme=args.scheme,
            workers=args.workers,
        )
        actual = float(test.response[i])
        lines.append(f"{i},{actual!r},{band.point!r},{band.lower!r},{band.upper!r}")
        rows.append(
            {
                "index": i,
                "actual": actual,
                "predicted": band.point,
                "lower": band.lower,
                "upper": band.upper,
            }
        )
    if args.format == "json":
        _emit(args, json.dumps({"level": args.level, "sigma": sigma, "rows": rows}, indent=2) + "\n")
    else:
        _emit(args, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="base random seed")
    common.add_argument("--reps", type=int, default=None, help="replication / repeat count")
    common.add_argument("--out", default=None, help="output path (default: stdout)")
    common.add_argument("--format", choices=("csv", "json"), default="csv")
    common.add_argument(
        "--dump-q", action="store_true", help="include the Q matrix in JSON output"
    )
    common.add_argument("--workers", type=int, default=1,
                        help="worker processes for the replications (at least 1; output is "
                             "identical for every count; serial on one CPU or off Linux)")

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
    point_args.add_argument("--family", choices=("linear", "logistic"), default="linear")
    point_args.add_argument(
        "--x-star", required=True, help="comma-separated covariate vector incl. intercept 1"
    )
    point_args.add_argument("--scheme", choices=("optimal", "aic", "equal"), default="optimal")

    p = sub.add_parser("weights", parents=[common, data_args, point_args],
                       help="per-model weights for one target covariate")
    p.set_defaults(handler=_cmd_point)

    p = sub.add_parser("predict", parents=[common, data_args, point_args],
                       help="averaged estimate at one target covariate")
    p.set_defaults(handler=_cmd_point)

    p = sub.add_parser("study1", parents=[common], help="bias/variance study vs the oracle")
    p.add_argument("--cases", default="A,B")
    p.add_argument("--n-grid", default=",".join(str(n) for n in range(100, 1001, 100)))
    p.add_argument("--fixed-design", action="store_true")
    p.set_defaults(handler=_cmd_study1)

    p = sub.add_parser("study2", parents=[common], help="optimal vs AIC weighting study")
    p.add_argument("--family", choices=("linear", "logistic"), default="linear")
    p.add_argument("--cases", default="A,B")
    p.add_argument("--beta3", default=",".join(repr(b) for b in STUDY2_BETA3_GRID))
    p.add_argument("--schemes", default="optimal,aic")
    p.add_argument("--fixed-design", action="store_true")
    p.set_defaults(handler=_cmd_study2)

    p = sub.add_parser("cv", parents=[common, data_args],
                       help="repeated train/test method comparison")
    p.add_argument("--methods", default=",".join(DEFAULT_METHODS))
    p.add_argument("--n-train", type=int, default=None)
    p.add_argument("--select-by", choices=SELECTION_RULES, default="cv")
    p.set_defaults(handler=_cmd_cv)

    p = sub.add_parser("band", parents=[common, data_args],
                       help="prediction bands for each test row")
    p.add_argument("--test-data", required=True, help="test CSV with the same columns")
    p.add_argument("--n-sub", type=int, default=50)
    p.add_argument("--level", type=float, default=0.9)
    p.add_argument("--sigma", type=float, default=None,
                   help="noise sd (default: full-model residual sd on the training data)")
    p.add_argument("--scheme", choices=("optimal", "aic", "equal"), default="optimal")
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


if __name__ == "__main__":
    sys.exit(main())
