"""Frequentist model averaging for linear and logistic regression.

Fit every candidate model, estimate the asymptotic mean squared error
of the weighted-average estimator as an explicit quadratic form in the
weights, and minimise it over the probability simplex.  Ships the
averaging estimator, smoothed-AIC and equal-weight baselines, a seeded
Monte Carlo study harness, a repeated train/test comparison pipeline,
subsample prediction bands, and a CLI front end.
"""

import importlib

__version__ = "0.1.0"

# each public name by its home module; ``import glmavg`` loads none of them, and the
# first lookup of a name imports its module and keeps the object here (PEP 562)
_HOMES = {
    "averaging": (
        "AveragedEstimate",
        "Functional",
        "LinearAveragingPredictor",
        "LogisticAveragingPredictor",
        "PredictionBand",
        "fit_and_average_linear",
        "fit_and_average_logistic",
        "prediction_band",
    ),
    "crossval": ("CvReport", "cv_compare"),
    "dataio": ("Dataset", "load_csv", "save_csv", "split"),
    "datasets": ("synthetic_prostate",),
    "errors": (
        "CapacityError",
        "DataError",
        "GlmavgError",
        "NonConvergenceError",
        "NumericalError",
        "SingularDesignError",
    ),
    "glm_fit": ("FitResult", "ProbVector", "logistic_mle", "logistic_pseudo_fit", "ols_fit"),
    "model_space": (
        "CandidateModel",
        "ModelSet",
        "enumerate_all_subsets",
        "nested_sequence",
        "subset_columns",
        "subset_point",
    ),
    "mse_weights": (
        "LinearQFactory",
        "LogisticQFactory",
        "QuadraticForm",
        "WeightSolution",
        "aic_weights",
        "build_q_logistic",
        "equal_weights",
        "solve_simplex_qp",
    ),
    "rng": ("derive_seed", "substream"),
    "sim_harness": (
        "StudyConfig",
        "StudyReport",
        "run_study1",
        "run_study2",
        "simulate_cell",
        "study1_model_sets",
        "study2_model_sets",
    ),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _HOMES:  # a home module itself, as an eager package import would have bound it
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_HOMES))
