"""Every entry point that takes a design and its response refuses a malformed one with ``DataError``.

Each entry point below takes (X, y): a 0-d, 1-d or 3-d design, a 2-d or
short response, a ragged nested list for either, or a non-finite entry
in either must raise ``DataError``
before any fit or draw, whatever the family.  The fits and the band's
draws are patched to fail loudly, so an input that reaches them fails
the test with an ``AssertionError`` instead.
"""

import numpy as np
import pytest

import glmavg.averaging as averaging
import glmavg.glm_fit as glm_fit
import glmavg.mse_weights as mse_weights
from glmavg import (
    DataError,
    Dataset,
    Functional,
    LinearAveragingPredictor,
    LinearQFactory,
    LogisticAveragingPredictor,
    LogisticQFactory,
    build_q_logistic,
    fit_and_average_linear,
    fit_and_average_logistic,
    logistic_mle,
    logistic_pseudo_fit,
    nested_sequence,
    ols_fit,
    prediction_band,
)

MODELS = nested_sequence(1, 2)
X_STAR = np.array([1.0, 0.2, -0.1])


def _data():
    rng = np.random.default_rng(40)
    X = np.column_stack([np.ones(30), rng.standard_normal((30, 2))])
    return X, rng.standard_normal(30), np.tile([0.0, 1.0, 1.0], 10), rng.uniform(0.2, 0.8, size=30)


# (name, family, call): family picks the response ("linear" y, "logistic" 0/1, "target" probabilities)
ENTRY_POINTS = [
    ("Dataset", "linear", lambda X, y: Dataset(y, X, ["(intercept)", "a", "b"], "linear")),
    ("LinearQFactory", "linear", lambda X, y: LinearQFactory(X, y, MODELS)),
    ("LogisticQFactory", "logistic", lambda X, y: LogisticQFactory(X, y, MODELS)),
    ("LinearAveragingPredictor", "linear", lambda X, y: LinearAveragingPredictor(X, y, MODELS)),
    ("LogisticAveragingPredictor", "logistic", lambda X, y: LogisticAveragingPredictor(X, y, MODELS)),
    (
        "fit_and_average_linear",
        "linear",
        lambda X, y: fit_and_average_linear(X, y, MODELS, Functional.linear_point(X_STAR)),
    ),
    (
        "fit_and_average_logistic",
        "logistic",
        lambda X, y: fit_and_average_logistic(X, y, MODELS, Functional.logistic_point(X_STAR)),
    ),
    (
        "prediction_band",
        "linear",
        lambda X, y: prediction_band(X, y, X_STAR, MODELS, n_sub=10, n_reps=2, sigma=1.0),
    ),
    ("build_q_logistic", "logistic", lambda X, y: build_q_logistic(X, y, MODELS, X_STAR)),
    ("ols_fit", "linear", lambda X, y: ols_fit(X, y)),
    ("logistic_mle", "logistic", lambda X, y: logistic_mle(X, y)),
    ("logistic_pseudo_fit", "target", lambda X, y: logistic_pseudo_fit(X, y)),
]


def _with(array, index, value):
    array = array.copy()
    array[index] = value
    return array


MALFORMED = {
    "0-d-design": lambda X, y: (X[0, 1], y),
    "1-d-design": lambda X, y: (X[:, 1], y),
    "3-d-design": lambda X, y: (X[:, :, None], y),  # one row per response still
    "stacked-design": lambda X, y: (X[None], y),
    "2-d-response": lambda X, y: (X, y[:, None]),
    "short-response": lambda X, y: (X, y[:-1]),
    "nan-in-design": lambda X, y: (_with(X, (3, 1), np.nan), y),
    "inf-in-response": lambda X, y: (X, _with(y, 3, np.inf)),
    "ragged-design": lambda X, y: ([*X[:-1].tolist(), X[-1, :-1].tolist()], y),  # numpy refuses it with ValueError
    "ragged-response": lambda X, y: (X, [*y[:-1].tolist(), [y[-1], 0.0]]),
}


def _inputs(family):
    X, y, y01, target = _data()
    return X, {"linear": y, "logistic": y01, "target": target}[family]


@pytest.mark.parametrize("name, family, call", ENTRY_POINTS, ids=[name for name, *_ in ENTRY_POINTS])
def test_well_formed_inputs_are_accepted(name, family, call):
    call(*_inputs(family))


@pytest.fixture
def no_fit_or_draw(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a fit or a draw started before the inputs were checked")

    for module, names in [
        (glm_fit, ["_augmented_r", "_damped_newton"]),
        (mse_weights, ["_augmented_r", "_least_squares_from_r", "_mle_fits"]),
        (averaging, ["_stack_streams", "run_replications"]),
    ]:
        for attribute in names:
            monkeypatch.setattr(module, attribute, refuse)


@pytest.mark.parametrize("malformed", MALFORMED.values(), ids=MALFORMED.keys())
@pytest.mark.parametrize("name, family, call", ENTRY_POINTS, ids=[name for name, *_ in ENTRY_POINTS])
@pytest.mark.usefixtures("no_fit_or_draw")
def test_malformed_inputs_are_data_errors_before_any_fit(name, family, call, malformed):
    with pytest.raises(DataError):
        call(*malformed(*_inputs(family)))


@pytest.mark.parametrize("name, family, call", ENTRY_POINTS, ids=[name for name, *_ in ENTRY_POINTS])
@pytest.mark.usefixtures("no_fit_or_draw")
def test_each_rule_words_its_failure_alike(name, family, call):
    # every entry point reads its (X, y) through one check, with one message per rule
    X, y = _inputs(family)
    expected = {
        "3-d-design": "design matrix must be 2-d",
        "short-response": "y must be a vector with one entry per design row",
        "nan-in-design": "design and response must be finite",
    }
    for case, message in expected.items():
        with pytest.raises(DataError, match=message):
            call(*MALFORMED[case](X, y))


@pytest.mark.parametrize("family", ["linear", "logistic"])
@pytest.mark.parametrize(
    "width, point, message",
    [(4, 3, "design has 4 columns, model space needs 3"), (3, 4, "x_star has length 4, model space needs 3")],
    ids=["wide-design", "long-x-star"],
)
@pytest.mark.usefixtures("no_fit_or_draw")
def test_the_one_shot_wrappers_check_widths_before_any_fit(family, width, point, message):
    X, y = _inputs(family)
    X = np.column_stack([X, X[:, 1:]])[:, :width]
    call = {"linear": fit_and_average_linear, "logistic": fit_and_average_logistic}[family]
    functional = Functional(f"{family}_point", np.ones(point))
    with pytest.raises(DataError, match=f"^{message}$"):
        call(X, y, MODELS, functional)


@pytest.mark.parametrize(
    "call",
    [
        lambda X, y: logistic_mle(X, y),
        lambda X, y: LogisticQFactory(X, y, MODELS),
        lambda X, y: fit_and_average_logistic(X, y, MODELS, Functional.logistic_point(X_STAR)),
    ],
    ids=["logistic_mle", "LogisticQFactory", "fit_and_average_logistic"],
)
@pytest.mark.usefixtures("no_fit_or_draw")
def test_logistic_responses_must_be_coded_0_1(call):
    X, y01 = _inputs("logistic")
    with pytest.raises(DataError, match="logistic responses must be coded 0/1"):
        call(X, _with(y01, 0, 0.5))
