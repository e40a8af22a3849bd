"""Repeated train/test comparison of prediction methods.

The comparison protocol mirrors a crude repeated holdout: each repeat
draws one train/test split, every method sees exactly the same split
(paired comparison), prediction error is the mean squared error over
the test rows, and errors are averaged over repeats.

``best_subset`` performs an all-subsets search over the optional
predictors; the subset is chosen inside the training split only —
either by 5-fold cross-validation (default) or by training AIC — then
refit on the whole training split and scored once on the test split.
Each repeat fits its training split once per candidate set: the split
factory (a ``LinearAveragingPredictor``, a ``LinearQFactory`` with
``predict``) and, when ``best_subset`` is asked and the split factory
holds another set, one ``LinearQFactory`` over all subsets.  The full
model's coefficients and the averaged predictions come from the split
factory; ``best_subset`` reads the all-subsets fit under both rules
(the AIC rule's log-likelihoods and the chosen subset's coefficients),
so its errors do not depend on the other methods asked.  Inner CV
folds fit all 2^q candidates in one factory per fold.  Best-subset
selection alone is ``cv_compare(dataset, methods=("best_subset",))``;
its ``mean_errors["best_subset"]`` is the mean test MSE, the same as in
a run with every method.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._forked import run_replications
from .averaging import LinearAveragingPredictor
from .dataio import Dataset, split
from .errors import DataError
from .glm_fit import _checked_names, _integer
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


def _cv_choice(train: Dataset, candidates, seed, repeat) -> int:
    """Index of the candidate with the least inner 5-fold CV error on ``train``; ties go to the earlier one.

    It fits one factory per inner fold and scores every candidate at
    once with one product of the held-out design and the padded
    coefficients.
    """
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
    split factory on its training rows: over ``models`` (default: all
    subsets) when an averaging method is requested, else over all
    subsets when ``best_subset`` is, else over no candidate.  It always
    fits the full design, which ``full_model`` reads.  ``best_subset``
    reads the all-subsets fit of the split under both rules: the split
    factory when ``models`` is all subsets, else one factory of its own.
    The AIC rule takes the least AIC of that fit; the CV rule fits the
    inner folds first, and its chosen subset's coefficients come from
    that fit too.  So ``best_subset``'s errors do not depend on the other
    methods asked.  Under the CV rule with no averaging over all subsets,
    the split fits all 2^q subsets to read one of them: under 1 ms a
    repeat on prostate.

    Each repeat's split and fold seeds derive from (seed, repeat), so
    the report is bit for bit the same for every ``workers``: up to
    ``workers`` processes run contiguous blocks of repeats (serially when
    ``workers`` is 1, on one usable CPU, off Linux, or while another
    Python thread is alive), and the log is joined in repeat order.
    An empty ``methods``, an unknown method or one named twice
    (``glm_fit._checked_names``), an ``n_repeats``, ``n_train`` or
    ``workers`` that is no integer (``glm_fit._integer``), an
    ``n_repeats`` or ``workers`` below 1, a training split too small for
    the full design (or, under the CV rule, for its inner folds), or a
    ``seed`` that is negative or neither an int nor a str raises
    ``DataError`` before any split.
    """
    if dataset.family != "linear":
        raise DataError("cv_compare supports the linear family only")
    n_repeats = _integer(n_repeats, "n_repeats", 1)
    _checked_names("methods", methods, DEFAULT_METHODS)
    if select_by not in SELECTION_RULES:
        raise DataError(f"unknown selection rule {select_by!r}; expected one of {SELECTION_RULES}")
    _checked_keys(seed)
    if n_train is None:
        n_train = min(max(int(round(dataset.n * _TRAIN_FRACTION)), 1), dataset.n - 1)
    n_train = _integer(n_train, "n_train")
    cv_best = "best_subset" in methods and select_by == "cv"
    # the CV rule fits on n_train less its largest inner fold
    fit_rows = n_train - (n_train + _N_FOLDS - 1) // _N_FOLDS if cv_best else n_train
    if fit_rows < dataset.d:
        raise DataError(f"n_train={n_train} leaves {fit_rows} rows to fit the design's {dataset.d} columns")
    averaging = [m for m in methods if m in _SCHEMES]
    subsets = []
    if "best_subset" in methods or (models is None and averaging):
        subsets = enumerate_all_subsets(1, dataset.d - 1)
    if models is None:
        models = subsets
    elif models.p_fixed + models.q != dataset.d:
        raise DataError(f"model set is over {models.p_fixed + models.q} coefficients, data has {dataset.d}")
    split_models = models if averaging else subsets
    own_subsets_fit = "best_subset" in methods and split_models != subsets

    def run_repeat(repeat):
        train, test = split(dataset, n_train, derive_seed(seed, "cv-split", repeat))
        chosen = _cv_choice(train, subsets, seed, repeat) if cv_best else None  # the folds fit first
        predictor = LinearAveragingPredictor(train.design, train.response, split_models)
        preds = {"full_model": test.design @ predictor.beta_full}
        if "best_subset" in methods:
            fit = LinearQFactory(train.design, train.response, subsets) if own_subsets_fit else predictor
            if chosen is None:
                chosen = int(np.argmin(aic_values(fit.logliks(), fit.dims())))
            cols = subsets[chosen].column_indices()
            preds["best_subset"] = test.design[:, cols] @ fit.padded_betas()[chosen][cols]
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
