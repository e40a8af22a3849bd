"""Repeated train/test comparison of prediction methods.

The comparison protocol mirrors a crude repeated holdout: each repeat
draws one train/test split, every method sees exactly the same split
(paired comparison), prediction error is the mean squared error over
the test rows, and errors are averaged over repeats.

``best_subset`` performs an all-subsets search over the optional
predictors; the subset is chosen inside the training split only —
either by 5-fold cross-validation (default) or by training AIC — then
refit on the whole training split and scored once on the test split.
Each repeat fits the training split once, in one
``LinearAveragingPredictor`` (the split factory: a ``LinearQFactory``
with ``predict``), and every method asks it directly: the full model's
coefficients, the AIC rule's log-likelihoods, the chosen subset's
coefficients and the averaged predictions.  Inner CV folds
fit all 2^q candidates in one factory per fold.  Best-subset selection
alone is ``cv_compare(dataset, methods=("best_subset",))``; its
``mean_errors["best_subset"]`` is the mean test MSE.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._forked import run_replications
from .averaging import LinearAveragingPredictor
from .dataio import Dataset, split
from .errors import DataError
from .model_space import ModelSet, enumerate_all_subsets
from .mse_weights import LinearQFactory, aic_values
from .rng import _checked_keys, derive_seed, substream

DEFAULT_METHODS = ("avg_optimal", "avg_aic", "best_subset", "full_model")
_SCHEMES = {"avg_optimal": "optimal", "avg_aic": "aic"}  # averaging method -> weighting scheme
SELECTION_RULES = ("cv", "aic")
_TRAIN_FRACTION = 67 / 97  # the stock prostate protocol's 67/30 split, kept proportional
_N_FOLDS = 5  # inner folds of the CV selection rule


@dataclass
class CvReport:
    """Per-method mean prediction errors plus the per-repeat log.

    The fields are in the order of the CLI's JSON keys.
    """

    mean_errors: dict[str, float]
    n_train: int
    n_test: int
    n_repeats: int
    seed: int
    per_repeat: list[dict]


def _check_select_by(select_by: str) -> None:
    if select_by not in SELECTION_RULES:
        raise DataError(f"unknown selection rule {select_by!r}; expected one of {SELECTION_RULES}")


def _select(train: Dataset, candidates, select_by: str, factory, seed, repeat) -> int:
    """Index of the candidate that the rule picks on ``train``; ties go to the earlier one.

    The AIC rule reads ``factory``, which the caller fits on ``train``
    over ``candidates``.  The CV rule ignores it: it fits one factory
    per inner fold and scores every candidate at once with one product
    of the held-out design and the padded coefficients.
    """
    if select_by == "aic":
        return int(np.argmin(aic_values(factory.logliks(), factory.dims())))
    scores = np.zeros(len(candidates))
    for fold in np.array_split(substream(seed, "folds", repeat).permutation(train.n), _N_FOLDS):
        inner_train, held_out = train.take(np.setdiff1d(np.arange(train.n), fold)), train.take(fold)
        fold_fit = LinearQFactory(inner_train.design, inner_train.response, candidates)
        residuals = held_out.response[:, None] - held_out.design @ fold_fit.padded_betas().T
        scores += np.mean(residuals**2, axis=0) * fold.size
    return int(np.argmin(scores))


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
    weights depend on the training fit only).  Each repeat fits one
    split factory on its training rows, and every method's test
    predictions come from it.  It holds ``models`` (default: all
    subsets) when an averaging method is requested; otherwise all
    subsets when ``best_subset`` selects by AIC; otherwise the CV rule's
    chosen subset, or no candidate for ``full_model`` alone.  It always
    fits the full design.  Only the inner CV folds and a ``best_subset``
    that needs subsets a custom ``models`` set lacks fit outside it.

    Each repeat's split and fold seeds derive from (seed, repeat), so
    the report is bit for bit the same for every ``workers``: up to
    ``workers`` processes run contiguous blocks of repeats (serially when
    ``workers`` is 1, on one usable CPU, off Linux, or while another
    Python thread is alive), and the log is joined in repeat order.
    An empty ``methods``, a method named twice, a training split too
    small for the full design (or, under the CV rule, for its inner
    folds), a negative ``seed``, or ``workers`` below 1 raises
    ``DataError`` before any split.
    """
    if dataset.family != "linear":
        raise DataError("cv_compare supports the linear family only")
    if n_repeats < 1:
        raise DataError("n_repeats must be at least 1")
    if len(methods) == 0:
        raise DataError("methods must name at least one method")
    unknown = set(methods) - set(DEFAULT_METHODS)
    if unknown:
        raise DataError(f"unknown methods {sorted(unknown)}; expected subset of {DEFAULT_METHODS}")
    if len(set(methods)) < len(methods):
        raise DataError(f"methods {list(methods)} name a method more than once")
    _check_select_by(select_by)
    _checked_keys(seed)
    if n_train is None:
        n_train = min(max(int(round(dataset.n * _TRAIN_FRACTION)), 1), dataset.n - 1)
    cv_best = "best_subset" in methods and select_by == "cv"
    # the CV rule fits on n_train less its largest inner fold
    fit_rows = n_train - (n_train + _N_FOLDS - 1) // _N_FOLDS if cv_best else n_train
    if fit_rows < dataset.d:
        raise DataError(f"n_train={n_train} leaves {fit_rows} rows to fit the design's {dataset.d} columns")
    averaging = [m for m in methods if m in _SCHEMES]
    subsets = enumerate_all_subsets(1, dataset.d - 1) if "best_subset" in methods else []
    if models is None and averaging:
        models = enumerate_all_subsets(1, dataset.d - 1)
    if models is not None and models.p_fixed + models.q != dataset.d:
        raise DataError(
            f"model set is over {models.p_fixed + models.q} coefficients, "
            f"data has {dataset.d}"
        )

    def run_repeat(repeat):
        train, test = split(dataset, n_train, derive_seed(seed, "cv-split", repeat))
        chosen = subsets[_select(train, subsets, "cv", None, seed, repeat)] if cv_best else None
        needed = [chosen] if cv_best else list(subsets)  # the candidates best_subset reads
        held = list(models) if averaging else needed  # the split factory holds only what is read
        predictor = LinearAveragingPredictor(train.design, train.response, held)
        preds = {"full_model": test.design @ predictor.beta_full}
        if "best_subset" in methods:
            source = predictor
            if held != needed and chosen not in held:  # a custom ``models`` set lacks them
                source = LinearQFactory(train.design, train.response, needed)
            if not cv_best:
                chosen = subsets[_select(train, subsets, "aic", source, seed, repeat)]
            cols = chosen.column_indices()
            beta = source.padded_betas()[source.models.index(chosen)]
            preds["best_subset"] = test.design[:, cols] @ beta[cols]
        for method in averaging:
            preds[method] = np.array([predictor.predict(x, _SCHEMES[method]).value for x in test.design])
        return [
            {"repeat": repeat, "method": m, "error": float(np.mean((test.response - preds[m]) ** 2))}
            for m in methods
        ]

    repeats = run_replications(lambda block: [run_repeat(r) for r in block], n_repeats, workers)
    per_repeat = [row for rows in repeats for row in rows]
    mean_errors = {m: float(np.mean([r["error"] for r in per_repeat if r["method"] == m])) for m in methods}
    return CvReport(
        mean_errors=mean_errors,
        n_train=n_train,
        n_test=dataset.n - n_train,
        n_repeats=n_repeats,
        seed=seed,
        per_repeat=per_repeat,
    )
