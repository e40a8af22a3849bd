"""Repeated train/test comparison of prediction methods.

The comparison protocol mirrors a crude repeated holdout: each repeat
draws one train/test split, every method sees exactly the same split
(paired comparison), prediction error is the mean squared error over
the test rows, and errors are averaged over repeats.

``best_subset`` performs an all-subsets search over the optional
predictors; the subset is chosen inside the training split only —
either by 5-fold cross-validation (default) or by training AIC — then
refit on the whole training split and scored once on the test split.
Selection fits all 2^q candidates at once through ``LinearQFactory``:
one factory per inner fold (or one on the training split for AIC).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .averaging import LinearAveragingPredictor
from .dataio import Dataset, split
from .errors import DataError
from .glm_fit import ols_fit
from .model_space import ModelSet, enumerate_all_subsets, subset_columns
from .mse_weights import LinearQFactory, aic_values
from .rng import derive_seed, substream

DEFAULT_METHODS = ("avg_optimal", "avg_aic", "best_subset", "full_model")
SELECTION_RULES = ("cv", "aic")
_TRAIN_FRACTION = 67 / 97  # the stock prostate protocol's 67/30 split, kept proportional


@dataclass
class CvReport:
    """Per-method mean prediction errors plus the per-repeat log."""

    mean_errors: dict[str, float]
    per_repeat: list[dict] = field(default_factory=list)
    n_train: int = 0
    n_test: int = 0
    n_repeats: int = 0
    seed: int = 0

    def to_dict(self) -> dict:
        return {
            "mean_errors": self.mean_errors,
            "n_train": self.n_train,
            "n_test": self.n_test,
            "n_repeats": self.n_repeats,
            "seed": self.seed,
            "per_repeat": self.per_repeat,
        }


def _default_n_train(n: int) -> int:
    n_train = int(round(n * _TRAIN_FRACTION))
    return min(max(n_train, 1), n - 1)


def _test_mse(beta: np.ndarray, model, test: Dataset) -> float:
    X_test = subset_columns(test.design, model)
    return float(np.mean((test.response - X_test @ beta) ** 2))


def _cv_folds(n: int, n_folds: int, seed: int, repeat: int):
    perm = substream(seed, "folds", repeat).permutation(n)
    return np.array_split(perm, n_folds)


def _check_select_by(select_by: str) -> None:
    if select_by not in SELECTION_RULES:
        raise DataError(f"unknown selection rule {select_by!r}; expected one of {SELECTION_RULES}")


def select_best_subset(
    train: Dataset,
    *,
    select_by: str = "cv",
    n_folds: int = 5,
    seed: int = 0,
    repeat: int = 0,
):
    """Pick the optional-predictor subset by inner CV (or training AIC).

    Returns the winning CandidateModel.  Ties break toward the earlier
    model in enumeration order, which is also the smaller index set.
    Each inner fold fits every candidate in one ``LinearQFactory`` and
    scores them all with one product of the held-out design and the
    padded coefficients.  More than ``MAX_ENUMERABLE_Q`` optional
    predictors raise ``CapacityError``.
    """
    _check_select_by(select_by)
    candidates = enumerate_all_subsets(1, train.d - 1)
    if select_by == "aic":
        factory = LinearQFactory(train.design, train.response, candidates)
        return candidates[int(np.argmin(aic_values(factory.logliks(), factory.dims())))]

    scores = np.zeros(len(candidates))
    for fold in _cv_folds(train.n, n_folds, seed, repeat):
        mask = np.ones(train.n, dtype=bool)
        mask[fold] = False
        inner_train, held = train.take(np.flatnonzero(mask)), train.take(fold)
        factory = LinearQFactory(inner_train.design, inner_train.response, candidates)
        residuals = held.response[:, None] - held.design @ factory.padded_betas().T
        scores += np.mean(residuals**2, axis=0) * fold.size
    return candidates[int(np.argmin(scores))]


def best_subset_cv(
    dataset: Dataset,
    n_repeats: int = 5,
    seed: int = 0,
    *,
    n_train: int | None = None,
    select_by: str = "cv",
) -> float:
    """Mean test MSE of best-subset selection over repeated holdout splits.

    The ``best_subset`` entry of :func:`cv_compare` run on that method
    alone, so both report the same number for the same arguments.
    """
    report = cv_compare(
        dataset,
        methods=("best_subset",),
        n_repeats=n_repeats,
        seed=seed,
        n_train=n_train,
        select_by=select_by,
    )
    return report.mean_errors["best_subset"]


def cv_compare(
    dataset: Dataset,
    methods=DEFAULT_METHODS,
    n_repeats: int = 5,
    seed: int = 0,
    *,
    n_train: int | None = None,
    models: ModelSet | None = None,
    select_by: str = "cv",
    workers: int = 1,
) -> CvReport:
    """Compare prediction methods on identical repeated holdout splits.

    Averaging methods predict each test row with x* set to that row's
    covariates (weights re-solved per row for the optimal scheme; AIC
    weights depend on the training fit only).  Each repeat's split and
    fold seeds derive from (seed, repeat).  Repeats run serially in
    index order; ``workers`` is accepted for compatibility and does not
    change the schedule or the report.
    """
    if dataset.family != "linear":
        raise DataError("cv_compare supports the linear family only")
    if n_repeats < 1:
        raise DataError("n_repeats must be at least 1")
    unknown = set(methods) - set(DEFAULT_METHODS)
    if unknown:
        raise DataError(f"unknown methods {sorted(unknown)}; expected subset of {DEFAULT_METHODS}")
    _check_select_by(select_by)
    if n_train is None:
        n_train = _default_n_train(dataset.n)
    if models is None and {"avg_optimal", "avg_aic"} & set(methods):
        models = enumerate_all_subsets(1, dataset.d - 1)
    if models is not None and models.p_fixed + models.q != dataset.d:
        raise DataError(
            f"model set is over {models.p_fixed + models.q} coefficients, "
            f"data has {dataset.d}"
        )

    per_repeat = []
    errors: dict[str, list[float]] = {m: [] for m in methods}
    for repeat in range(n_repeats):
        train, test = split(dataset, n_train, derive_seed(seed, "cv-split", repeat))
        predictor = None
        if {"avg_optimal", "avg_aic"} & set(methods):
            predictor = LinearAveragingPredictor(train.design, train.response, models)
        for method in methods:
            if method == "full_model":
                fit = ols_fit(train.design, train.response)
                err = float(np.mean((test.response - test.design @ fit.beta) ** 2))
            elif method == "best_subset":
                model = select_best_subset(train, select_by=select_by, seed=seed, repeat=repeat)
                fit = ols_fit(subset_columns(train.design, model), train.response, model=model)
                err = _test_mse(fit.beta, model, test)
            else:
                scheme = "optimal" if method == "avg_optimal" else "aic"
                preds = np.array(
                    [predictor.predict(test.design[i], scheme).value for i in range(test.n)]
                )
                err = float(np.mean((test.response - preds) ** 2))
            errors[method].append(err)
            per_repeat.append({"repeat": repeat, "method": method, "error": err})

    return CvReport(
        mean_errors={m: float(np.mean(errors[m])) for m in methods},
        per_repeat=per_repeat,
        n_train=n_train,
        n_test=dataset.n - n_train,
        n_repeats=n_repeats,
        seed=seed,
    )
