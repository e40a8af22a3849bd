"""Argument checks that no other test reaches, each pinned through a public call.

Every case is one ``DataError`` raise of ``src/glmavg`` that
``tools/untested_lines.py`` listed as never run by the suite; each call
here reaches it the way a user's call would, and must raise it with its
own message.
"""

import numpy as np
import pytest

from glmavg import (
    CandidateModel,
    DataError,
    Dataset,
    LinearQFactory,
    ModelSet,
    QuadraticForm,
    StudyConfig,
    aic_weights,
    enumerate_all_subsets,
    nested_sequence,
    study2_model_sets,
    subset_columns,
    subset_point,
)

X = np.column_stack([np.ones(6), np.arange(6.0), np.arange(6.0) ** 2])
Y = np.arange(6.0) % 2

CASES = {
    "Dataset column names": (
        lambda: Dataset(Y, X, ["(intercept)", "a"], "linear"),
        "need one column name per design column",
    ),
    "CandidateModel negative p_fixed": (lambda: CandidateModel((0,), -1), "p_fixed must be non-negative, got -1"),
    "ModelSet negative q": (lambda: ModelSet([CandidateModel((), 1)], -1), "q must be non-negative, got -1"),
    "JSONL inconsistent q": (
        lambda: ModelSet.from_jsonl(
            '{"p_fixed": 1, "q": 2, "included": [0]}\n{"p_fixed": 1, "q": 3, "included": [1]}\n'
        ),
        r"inconsistent q on line 2: 3 != 2",
    ),
    "JSONL empty": (lambda: ModelSet.from_jsonl("\n  \n"), "no model records found"),
    "enumerate_all_subsets negative q": (lambda: enumerate_all_subsets(1, -1), "q must be non-negative, got -1"),
    "nested_sequence negative q": (lambda: nested_sequence(1, -1), "q must be non-negative, got -1"),
    "subset_columns 1-d design": (
        lambda: subset_columns(np.ones(3), CandidateModel((0,), 1)),
        "full_design must be a 2-d matrix",
    ),
    "subset_point 2-d point": (
        lambda: subset_point(np.ones((2, 2)), CandidateModel((0,), 1)),
        "x_star must be a 1-d vector",
    ),
    "subset_point short point": (
        lambda: subset_point(np.ones(2), CandidateModel((1,), 1)),
        "x_star has length 2, model needs index 2",
    ),
    "QuadraticForm no models": (
        lambda: QuadraticForm.from_parts(np.zeros(0), np.zeros((3, 0))),
        "a quadratic form needs at least one model",
    ),
    "factory narrow design": (
        lambda: LinearQFactory(X[:, :2], Y, [CandidateModel((1,), 1)]),
        "design has 2 columns, model needs column 2",
    ),
    "aic_weights stacked logliks": (
        lambda: aic_weights(np.zeros((2, 3)), [1, 2, 3]),
        "logliks and dims must be non-empty vectors of the same length",
    ),
    "StudyConfig no replications": (
        lambda: StudyConfig(
            family="linear",
            n=20,
            beta_true=np.ones(4),
            candidate_set=study2_model_sets()["A"],
            x_star=np.ones(4),
            n_reps=0,
            seed=0,
        ),
        "n_reps must be at least 1, got 0",
    ),
}


@pytest.mark.parametrize("call, message", CASES.values(), ids=CASES.keys())
def test_each_check_raises_its_data_error(call, message):
    with pytest.raises(DataError, match=f"^{message}$"):
        call()
