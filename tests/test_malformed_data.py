"""Every entry point that takes a design and its response refuses a malformed one with ``DataError``.

Each entry point below takes (X, y): a 0-d, 1-d or 3-d design, a 2-d or
short response, a ragged nested list for either, or a non-finite entry
in either must raise ``DataError``
before any fit or draw, whatever the family.  The fits and the band's
draws are patched to fail loudly, so an input that reaches them fails
the test with an ``AssertionError`` instead.

Every other public call that takes a float array (x*, a quadratic
form's parts, log-likelihoods, a fit's coefficients, a study cell's
coefficients) refuses a ragged one with ``DataError`` too, and every
call that takes a count or an index refuses one that is no integer.
So does every call that takes a seed (a float one) or row indices (a
float, bool or ragged list), before any fit, draw, split or replication.
A ``QuadraticForm`` built directly refuses its parts as
``QuadraticForm.from_parts`` does, and both keep read-only copies.
Every entry point that takes a candidate set refuses one that is neither
a ``ModelSet`` over the design's columns nor a list or tuple of
``CandidateModel``s within them, and takes a plain list with the
``ModelSet``'s answer, bit for bit; ``Dataset`` and ``StudyConfig``
refuse a family that is not one of the names, a name that is no string
too.
"""

import re

import numpy as np
import pytest

import glmavg.averaging as averaging
import glmavg.crossval as crossval
import glmavg.glm_fit as glm_fit
import glmavg.mse_weights as mse_weights
import glmavg.sim_harness as sim_harness
from glmavg import (
    CandidateModel,
    DataError,
    Dataset,
    FitResult,
    Functional,
    LinearAveragingPredictor,
    LinearQFactory,
    LogisticAveragingPredictor,
    LogisticQFactory,
    ModelSet,
    QuadraticForm,
    StudyConfig,
    aic_weights,
    build_q_logistic,
    cv_compare,
    derive_seed,
    enumerate_all_subsets,
    equal_weights,
    fit_and_average_linear,
    fit_and_average_logistic,
    logistic_mle,
    logistic_pseudo_fit,
    nested_sequence,
    ols_fit,
    prediction_band,
    run_study1,
    run_study2,
    simulate_cell,
    solve_simplex_qp,
    split,
    study2_model_sets,
    subset_columns,
    subset_point,
    substream,
    synthetic_prostate,
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
    [
        (4, 3, "design has 4 columns, model space needs 3"),
        (3, 4, r"x_star must be a vector of length 3, got shape \(4,\)"),
    ],
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


RAGGED = [1.0, [0.2, 0.3], -0.1]  # numpy refuses it with ValueError
SUBSET = CandidateModel((0,), 1)


def _study_config(**fields):
    values = dict(
        family="linear", n=20, beta_true=np.ones(4), candidate_set=study2_model_sets()["A"],
        x_star=np.ones(4), n_reps=2, seed=0,
    )
    return StudyConfig(**{**values, **fields})


@pytest.fixture(scope="module")
def fitted():
    # built before no_fit_or_draw patches the fits (a module fixture is set up first)
    X, y, y01, _ = _data()
    return {"linear": LinearAveragingPredictor(X, y, MODELS), "logistic": LogisticAveragingPredictor(X, y01, MODELS)}


# (name, call of the fitted predictors): each passes one ragged float array
RAGGED_CALLS = [
    ("Functional.linear_point", lambda fitted: Functional.linear_point(RAGGED)),
    ("Functional.logistic_point", lambda fitted: Functional.logistic_point(RAGGED)),
    *[
        (f"{family}-{method}", lambda fitted, family=family, method=method: getattr(fitted[family], method)(RAGGED))
        for family in ("linear", "logistic")
        for method in ("predict", "q_form", "per_model_values")
    ],
    ("build_q_logistic", lambda fitted: build_q_logistic(*_inputs("logistic"), MODELS, RAGGED)),
    ("QuadraticForm.from_parts-bias", lambda fitted: QuadraticForm.from_parts(RAGGED, np.ones((2, 3)))),
    ("QuadraticForm.from_parts-gram", lambda fitted: QuadraticForm.from_parts(np.ones(2), [[1.0, 2.0], [3.0]])),
    ("QuadraticForm-bias", lambda fitted: QuadraticForm(bias=RAGGED, gram_factor=np.ones((2, 3)))),
    ("QuadraticForm-gram", lambda fitted: QuadraticForm(bias=np.ones(2), gram_factor=[[1.0, 2.0], [3.0]])),
    ("aic_weights-logliks", lambda fitted: aic_weights(RAGGED, [1, 2, 3])),
    ("aic_weights-dims", lambda fitted: aic_weights([-1.0, -2.0, -3.0], RAGGED)),
    ("subset_point", lambda fitted: subset_point(RAGGED, SUBSET)),
    ("subset_columns", lambda fitted: subset_columns([[1.0, 2.0], [3.0]], SUBSET)),
    ("StudyConfig-beta_true", lambda fitted: _study_config(beta_true=[*RAGGED, 1.0])),
    ("StudyConfig-x_star", lambda fitted: _study_config(x_star=[*RAGGED, 1.0])),
    ("FitResult", lambda fitted: FitResult(beta=RAGGED, loglik=0.0, dim=3)),
    (
        "prediction_band-test_point",
        lambda fitted: prediction_band(*_inputs("linear"), RAGGED, MODELS, n_sub=10, n_reps=2, sigma=1.0),
    ),
]


@pytest.mark.parametrize("call", [call for _, call in RAGGED_CALLS], ids=[name for name, _ in RAGGED_CALLS])
@pytest.mark.usefixtures("no_fit_or_draw")
def test_a_ragged_float_array_is_a_data_error_before_any_fit(fitted, call):
    with pytest.raises(DataError, match="^expected an array of numbers: "):
        call(fitted)


# the two ways to build a quadratic form; both run its one check (``QuadraticForm.__post_init__``)
FORM_CONSTRUCTORS = {
    "QuadraticForm": lambda bias, gram_factor: QuadraticForm(bias=bias, gram_factor=gram_factor),
    "from_parts": QuadraticForm.from_parts,
}
SHAPES = r"^bias must be \(K,\) and gram_factor \(rows, K\)$"
# (name, bias, gram_factor, message): parts of numbers that make no quadratic form (RAGGED_CALLS has ragged ones)
BAD_FORM_PARTS = [
    ("bias-3-factor-2x4", np.ones(3), np.ones((2, 4)), SHAPES),
    ("2-d-bias", np.ones((1, 2)), np.ones((2, 2)), SHAPES),
    ("no-models", np.zeros(0), np.zeros((3, 0)), "^a quadratic form needs at least one model$"),
]


@pytest.mark.parametrize("build", FORM_CONSTRUCTORS.values(), ids=FORM_CONSTRUCTORS)
@pytest.mark.parametrize(
    "bias, gram_factor, message", [case[1:] for case in BAD_FORM_PARTS], ids=[case[0] for case in BAD_FORM_PARTS]
)
def test_both_quadratic_form_constructors_refuse_bad_parts_alike(build, bias, gram_factor, message):
    with pytest.raises(DataError, match=message):
        build(bias, gram_factor)


def _bits(solution):
    return solution.weights.tobytes(), solution.objective, solution.iterations, solution.kkt_residual


@pytest.mark.parametrize("build", FORM_CONSTRUCTORS.values(), ids=FORM_CONSTRUCTORS)
def test_a_quadratic_form_keeps_read_only_copies_of_its_parts(build):
    bias, gram_factor = np.array([1.0, 2.0]), np.array([[1.0, 0.5]])
    form = build(bias, gram_factor)
    solution = solve_simplex_qp(form)
    assert solution.weights.tolist() == [1.0, 0.0]
    bias[0], gram_factor[0, 1] = -5.0, 3.0  # the caller changes its arrays afterwards
    assert form.bias.tolist() == [1.0, 2.0] and form.gram_factor.tolist() == [[1.0, 0.5]]
    assert not form.bias.flags.writeable and not form.gram_factor.flags.writeable
    assert _bits(solve_simplex_qp(form)) == _bits(solution)


@pytest.mark.parametrize("build", FORM_CONSTRUCTORS.values(), ids=FORM_CONSTRUCTORS)
def test_a_quadratic_form_takes_nested_lists(build):
    expected = solve_simplex_qp(QuadraticForm.from_parts(np.array([1.0, 2.0]), np.array([[1.0, 0.5]])))
    assert _bits(solve_simplex_qp(build([1.0, 2.0], [[1.0, 0.5]]))) == _bits(expected)


# (name, call, message): each passes one count or index that is no integer
NON_INTEGERS = [
    ("CandidateModel-index", lambda: CandidateModel((1.9,), 1), "an optional index must be an integer, got 1.9"),
    ("CandidateModel-p_fixed", lambda: CandidateModel((1,), 1.0), "p_fixed must be an integer, got 1.0"),
    ("ModelSet-q", lambda: ModelSet([CandidateModel((0,), 1)], 2.7), "q must be an integer, got 2.7"),
    ("StudyConfig-n", lambda: _study_config(n=100.5), "n must be an integer, got 100.5"),
    ("StudyConfig-n_reps", lambda: _study_config(n_reps=2.5), "n_reps must be an integer, got 2.5"),
]


@pytest.mark.parametrize("call, message", [case[1:] for case in NON_INTEGERS], ids=[case[0] for case in NON_INTEGERS])
def test_a_count_or_index_that_is_no_integer_is_a_data_error(call, message):
    with pytest.raises(DataError, match=f"^{message}$"):
        call()


def test_numpy_integers_are_integers():
    model = CandidateModel((np.int64(1),), np.int32(1))
    assert model == CandidateModel((1,), 1) and type(model.p_fixed) is int
    assert ModelSet([model], np.int64(2)).q == 2
    config = _study_config(n=np.int64(20), n_reps=np.uint8(2))
    assert (config.n, config.n_reps) == (20, 2) and type(config.n) is int


def _band(**arguments):
    return prediction_band(*_inputs("linear"), X_STAR, MODELS, **{"n_sub": 10, "n_reps": 2, "sigma": 1.0, **arguments})


def _cv(**arguments):
    return cv_compare(synthetic_prostate(), **arguments)


def _take(indices):
    return synthetic_prostate().take(indices)


STUDY2 = dict(beta3_grid=(0.1,), cases=("A",), n_reps=2)
FLOAT_KEY = "stream keys must be int or str, got float"

# (name, call, message): each passes one count, seed or list of row indices that is no integer
NO_INTEGER_ARGUMENTS = [
    ("prediction_band-n_sub", lambda: _band(n_sub=10.5), "n_sub must be an integer, got 10.5"),
    ("prediction_band-n_reps", lambda: _band(n_reps=2.5), "n_reps must be an integer, got 2.5"),
    ("prediction_band-workers", lambda: _band(workers=1.5), "workers must be an integer, got 1.5"),
    ("prediction_band-seed", lambda: _band(seed=1.5), FLOAT_KEY),
    ("cv_compare-n_repeats", lambda: _cv(n_repeats=2.5), "n_repeats must be an integer, got 2.5"),
    ("cv_compare-n_train", lambda: _cv(n_train=67.5), "n_train must be an integer, got 67.5"),
    ("cv_compare-workers", lambda: _cv(workers=1.5), "workers must be an integer, got 1.5"),
    ("cv_compare-seed", lambda: _cv(seed=1.5), FLOAT_KEY),
    ("enumerate_all_subsets-q", lambda: enumerate_all_subsets(1, 2.5), "q must be an integer, got 2.5"),
    ("nested_sequence-q", lambda: nested_sequence(1, 2.5), "q must be an integer, got 2.5"),
    ("split-n_train", lambda: split(synthetic_prostate(), 10.5, 0), "n_train must be an integer, got 10.5"),
    ("equal_weights-K", lambda: equal_weights(2.5), "K must be an integer, got 2.5"),
    (
        "run_study1-workers",
        lambda: run_study1(n_grid=(60,), cases=("A",), n_reps=2, workers=1.5),
        "workers must be an integer, got 1.5",
    ),
    ("run_study2-workers", lambda: run_study2(**STUDY2, workers=1.5), "workers must be an integer, got 1.5"),
    (
        "simulate_cell-workers",
        lambda: simulate_cell(_study_config(), workers=1.5),
        "workers must be an integer, got 1.5",
    ),
    ("run_study2-seed", lambda: run_study2(**STUDY2, seed=1.5), FLOAT_KEY),
    ("substream-seed", lambda: substream(1.5), FLOAT_KEY),
    ("derive_seed-seed", lambda: derive_seed(1.5), FLOAT_KEY),
    ("Dataset.take-float", lambda: _take([0.5, 1.7]), "row indices must be integers, got float64 entries"),
    ("Dataset.take-bool", lambda: _take([True, False]), "row indices must be integers, got bool entries"),
    ("Dataset.take-ragged", lambda: _take([[0, 1], [2]]), "expected an array of row indices: "),
    # a bool is an int to operator.index: split(data, True, 0) would train on one row
    ("split-n_train-bool", lambda: split(synthetic_prostate(), True, 0), "n_train must be an integer, got True"),
    ("run_study2-n_reps-bool", lambda: run_study2(**{**STUDY2, "n_reps": True}), "n_reps must be an integer, got True"),
    ("run_study2-workers-bool", lambda: run_study2(**STUDY2, workers=True), "workers must be an integer, got True"),
    ("equal_weights-K-numpy-bool", lambda: equal_weights(np.True_), "K must be an integer, got np.True_"),
]


@pytest.fixture
def no_split_or_replication(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a split or a replication started before the arguments were checked")

    monkeypatch.setattr(crossval, "split", refuse)
    monkeypatch.setattr(sim_harness, "_run_block", refuse)


@pytest.mark.parametrize(
    "call, message", [case[1:] for case in NO_INTEGER_ARGUMENTS], ids=[case[0] for case in NO_INTEGER_ARGUMENTS]
)
@pytest.mark.usefixtures("no_fit_or_draw", "no_split_or_replication")
def test_a_count_seed_or_row_index_that_is_no_integer_is_a_data_error_before_any_run(call, message):
    with pytest.raises(DataError, match=f"^{re.escape(message)}"):
        call()


@pytest.mark.parametrize("index", [97, 1000, -1, -97])
def test_a_row_index_outside_the_rows_is_a_data_error(index):
    # numpy would raise IndexError past the end, and count a negative index from the end
    with pytest.raises(DataError, match=rf"^row indices must be in \[0, 97\), got {index}$"):
        _take([0, index, 1])


def test_cv_refuses_a_training_split_of_every_row_before_any_repeat(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a repeat started before n_train was checked")

    monkeypatch.setattr(crossval, "run_replications", refuse)
    for n_train in (97, 98):
        with pytest.raises(DataError, match=rf"^n_train must be in \(0, 97\), got {n_train}$"):
            _cv(n_train=n_train, workers=2)


def test_integer_row_indices_are_taken_in_order():
    data = synthetic_prostate()
    assert data.take([]).n == 0
    picked = data.take(np.array([3, 1], dtype=np.uint8))
    np.testing.assert_array_equal(picked.response, data.response[[3, 1]])


PAIR = [MODELS[0], MODELS[1]]  # two candidates over X_STAR's three columns, as a plain list
NOT_CANDIDATES = "candidates must be a ModelSet, or a list or tuple of CandidateModel"

# (name, call, message): a candidate set or a family name that no entry point takes
REFUSED_INTAKE = [
    ("LinearQFactory-tuples", lambda: LinearQFactory(*_inputs("linear"), [(0, 1)]), NOT_CANDIDATES),
    ("LinearQFactory-None", lambda: LinearQFactory(*_inputs("linear"), None), NOT_CANDIDATES),
    (
        "LinearQFactory-narrow-ModelSet",
        lambda: LinearQFactory(*_inputs("linear"), enumerate_all_subsets(1, 1)),
        "design has 3 columns, model space needs 2",
    ),
    (
        "LogisticAveragingPredictor-tuples",
        lambda: LogisticAveragingPredictor(*_inputs("logistic"), [(0, 1)]),
        NOT_CANDIDATES,
    ),
    (
        "fit_and_average_linear-None",
        lambda: fit_and_average_linear(*_inputs("linear"), None, Functional.linear_point(X_STAR)),
        NOT_CANDIDATES,
    ),
    (
        "prediction_band-empty",
        lambda: prediction_band(*_inputs("linear"), X_STAR, [], n_sub=10, n_reps=2, sigma=1.0),
        "a prediction band needs at least one candidate model",
    ),
    ("cv_compare-empty", lambda: _cv(models=[]), "averaging needs at least one candidate model"),
    ("cv_compare-tuples", lambda: _cv(models=[(0, 1)]), NOT_CANDIDATES),
    (
        "StudyConfig-list",
        lambda: _study_config(candidate_set=list(study2_model_sets()["A"])),
        "candidate_set must be a ModelSet",
    ),
    (
        "Dataset-family-list",
        lambda: Dataset(_inputs("linear")[1], _inputs("linear")[0], ["(intercept)", "a", "b"], ["linear"]),
        "unknown family ['linear']",
    ),
    (
        "Dataset-family-set",
        lambda: Dataset(_inputs("linear")[1], _inputs("linear")[0], ["(intercept)", "a", "b"], {"linear"}),
        "unknown family {'linear'}",
    ),
    ("StudyConfig-family-list", lambda: _study_config(family=["linear"]), "unknown family ['linear']"),
]


@pytest.mark.parametrize("call, message", [case[1:] for case in REFUSED_INTAKE], ids=[case[0] for case in REFUSED_INTAKE])
@pytest.mark.usefixtures("no_fit_or_draw", "no_split_or_replication")
def test_a_bad_candidate_set_or_family_is_a_data_error_before_any_run(call, message):
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        call()


def _estimate_bits(estimate):
    return float(estimate.value).hex(), estimate.weights.tobytes(), estimate.per_model.tobytes()


PROSTATE_PAIR = ModelSet(list(nested_sequence(1, 8))[:2], 8)  # over the prostate design's nine columns

# (name, model set, call of a candidate set): the answer's bits
PLAIN_LIST_CALLS = [
    *[
        (
            f"fit_and_average_linear-{scheme}",
            ModelSet(PAIR, 2),
            lambda models, scheme=scheme: _estimate_bits(
                fit_and_average_linear(*_inputs("linear"), models, Functional.linear_point(X_STAR), scheme)
            ),
        )
        for scheme in averaging.SCHEMES
    ],
    (
        "fit_and_average_logistic",
        ModelSet(PAIR, 2),
        lambda models: _estimate_bits(
            fit_and_average_logistic(*_inputs("logistic"), models, Functional.logistic_point(X_STAR))
        ),
    ),
    (
        "prediction_band",
        ModelSet(PAIR, 2),
        lambda models: [
            float(v).hex()
            for v in vars(prediction_band(*_inputs("linear"), X_STAR, models, n_sub=10, n_reps=8, sigma=1.0)).values()
        ],
    ),
    (
        "cv_compare",
        PROSTATE_PAIR,
        lambda models: [float(row["error"]).hex() for row in _cv(models=models, n_repeats=2, select_by="aic").per_repeat],
    ),
]


@pytest.mark.parametrize(
    "model_set, call", [case[1:] for case in PLAIN_LIST_CALLS], ids=[case[0] for case in PLAIN_LIST_CALLS]
)
def test_a_plain_list_of_candidates_gives_the_model_set_answer_bit_for_bit(model_set, call):
    assert call(list(model_set)) == call(model_set)
