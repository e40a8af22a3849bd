"""Frequentist model averaging for linear and logistic regression.

Fit every candidate model, estimate the asymptotic mean squared error
of the weighted-average estimator as an explicit quadratic form in the
weights, and minimise it over the probability simplex.  Ships the
averaging estimator, smoothed-AIC and equal-weight baselines, a seeded
Monte Carlo study harness, a repeated train/test comparison pipeline,
subsample prediction bands, and a CLI front end.
"""

from .averaging import (
    AveragedEstimate,
    Functional,
    LinearAveragingPredictor,
    LogisticAveragingPredictor,
    PredictionBand,
    fit_and_average_linear,
    fit_and_average_logistic,
    prediction_band,
)
from .crossval import CvReport, cv_compare
from .dataio import Dataset, load_csv, save_csv, split
from .datasets import synthetic_prostate
from .errors import (
    CapacityError,
    DataError,
    GlmavgError,
    NonConvergenceError,
    NumericalError,
    SingularDesignError,
)
from .glm_fit import (
    FitResult,
    ProbVector,
    logistic_mle,
    logistic_pseudo_fit,
    ols_fit,
)
from .model_space import (
    CandidateModel,
    ModelSet,
    enumerate_all_subsets,
    nested_sequence,
    subset_columns,
    subset_point,
)
from .mse_weights import (
    LinearQFactory,
    LogisticQFactory,
    QuadraticForm,
    WeightSolution,
    aic_weights,
    build_q_logistic,
    equal_weights,
    solve_simplex_qp,
)
from .rng import derive_seed, substream
from .sim_harness import (
    StudyConfig,
    StudyReport,
    run_study1,
    run_study2,
    simulate_cell,
    study1_model_sets,
    study2_model_sets,
)

__version__ = "0.1.0"

__all__ = [
    "AveragedEstimate",
    "CandidateModel",
    "CapacityError",
    "CvReport",
    "DataError",
    "Dataset",
    "FitResult",
    "Functional",
    "GlmavgError",
    "LinearAveragingPredictor",
    "LinearQFactory",
    "LogisticAveragingPredictor",
    "LogisticQFactory",
    "ModelSet",
    "NonConvergenceError",
    "NumericalError",
    "PredictionBand",
    "ProbVector",
    "QuadraticForm",
    "SingularDesignError",
    "StudyConfig",
    "StudyReport",
    "WeightSolution",
    "aic_weights",
    "build_q_logistic",
    "cv_compare",
    "derive_seed",
    "enumerate_all_subsets",
    "equal_weights",
    "fit_and_average_linear",
    "fit_and_average_logistic",
    "load_csv",
    "logistic_mle",
    "logistic_pseudo_fit",
    "nested_sequence",
    "ols_fit",
    "prediction_band",
    "run_study1",
    "run_study2",
    "save_csv",
    "simulate_cell",
    "solve_simplex_qp",
    "split",
    "study1_model_sets",
    "study2_model_sets",
    "subset_columns",
    "subset_point",
    "substream",
    "synthetic_prostate",
]
