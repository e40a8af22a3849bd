import json
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from oracles import (
    full_linear_fit,
    grid_min_objective,
    q_linear_double_sum,
    q_logistic_double_sum,
    random_psd,
    reduced_ols_fit,
)

import glmavg._lockstep as _lockstep
import glmavg.averaging as averaging
import glmavg.crossval as crossval
import glmavg.glm_fit as glm_fit
import glmavg.mse_weights as mse_weights
from glmavg.sim_harness import STUDY1_BETA, STUDY1_P_FIXED, STUDY1_Q, run_study1, study1_model_sets
from glmavg import (
    CandidateModel,
    DataError,
    LinearAveragingPredictor,
    LinearQFactory,
    LogisticAveragingPredictor,
    LogisticQFactory,
    NonConvergenceError,
    NumericalError,
    QuadraticForm,
    SingularDesignError,
    aic_weights,
    build_q_logistic,
    derive_seed,
    enumerate_all_subsets,
    equal_weights,
    logistic_mle,
    logistic_pseudo_fit,
    ols_fit,
    solve_simplex_qp,
    split,
    subset_columns,
    subset_point,
    synthetic_prostate,
)

def _linear_instance(seed, n=100, q=3):
    rng = np.random.default_rng(seed)
    X = np.column_stack([np.ones(n), rng.standard_normal((n, q))])
    y = X @ rng.uniform(-1, 1, size=q + 1) + rng.standard_normal(n)
    x_star = np.concatenate([[1.0], rng.standard_normal(q)])
    return X, y, x_star


# ---------------------------------------------------------------------------
# Qhat construction
# ---------------------------------------------------------------------------


class TestBuildQLinear:
    def test_full_model_only(self):
        X, y, x_star = _linear_instance(0)
        full_model = CandidateModel((0, 1, 2), 1)
        qf = LinearQFactory(X, y, [full_model]).q_form(x_star)
        full = full_linear_fit(X, y)
        assert qf.bias[0] == pytest.approx(0.0, abs=1e-12)
        expected_var = full.sigma2 * (x_star @ np.linalg.inv(X.T @ X) @ x_star)
        assert qf.matrix[0, 0] == pytest.approx(expected_var, rel=1e-10)

    def test_duplicated_model_gives_equal_entries(self):
        X, y, x_star = _linear_instance(1)
        m = CandidateModel((0,), 1)
        qf = LinearQFactory(X, y, [m, m]).q_form(x_star)
        assert qf.matrix.shape == (2, 2)
        assert np.ptp(qf.matrix) == pytest.approx(0.0, abs=1e-14)

    def test_matches_double_sum_oracle(self):
        X, y, x_star = _linear_instance(2, n=100, q=3)
        models = [
            CandidateModel((), 1),
            CandidateModel((0, 1), 1),
            CandidateModel((0, 1, 2), 1),
        ]
        qf = LinearQFactory(X, y, models).q_form(x_star)
        oracle = q_linear_double_sum(X, y, models, x_star)
        np.testing.assert_allclose(qf.matrix, oracle, atol=1e-10)

    def test_matrix_symmetric_psd(self):
        X, y, x_star = _linear_instance(3)
        models = [CandidateModel((j,), 1) for j in range(3)]
        qf = LinearQFactory(X, y, models).q_form(x_star)
        np.testing.assert_allclose(qf.matrix, qf.matrix.T, atol=1e-12)
        eigs = np.linalg.eigvalsh(qf.matrix)
        assert eigs[0] >= -1e-10 * np.trace(qf.matrix)

    def test_x_star_length_checked(self):
        X, y, _ = _linear_instance(4)
        with pytest.raises(DataError):
            LinearQFactory(X, y, [CandidateModel((), 1)]).q_form(np.ones(2))


class TestLinearQFactory:
    def test_fits_equal_one_candidate_reductions_on_all_prostate_candidates(self):
        # The stacked reduction must give each candidate exactly the numbers of
        # its own unstacked reduction of the same R factor of [X | y].  Against
        # ols_fit, which factors the candidate's own n rows, the worst of the 256
        # is 9.7e-15 relative in beta and 4.8e-16 in the log-likelihood.
        ds = synthetic_prostate()
        models = enumerate_all_subsets(1, 8)
        column_sets = [model.column_indices() for model in models]
        factory = LinearQFactory(ds.design, ds.response, models)
        betas, logliks = factory.model_betas(), factory.logliks()
        assert len(betas) == len(models) == 256
        for k, (model, beta, loglik) in enumerate(zip(models, betas, logliks)):
            reduced = reduced_ols_fit(ds.design, ds.response, column_sets, k)
            assert np.array_equal(beta, reduced.beta)
            assert loglik == reduced.loglik
            fit = ols_fit(subset_columns(ds.design, model), ds.response)
            assert np.max(np.abs(beta - fit.beta)) <= 4e-14 * np.max(np.abs(fit.beta))
            assert abs(loglik - fit.loglik) <= 2e-15 * abs(fit.loglik)

    def test_exactly_determined_candidate_takes_every_aic_weight(self):
        # n = d = 4: the full model fits exactly, so its loglik is +inf and
        # aic_weights' exact-fit branch gives it all the weight; roundoff
        # residuals would give a finite loglik (about 145 here)
        rng = np.random.default_rng(3)
        X = np.column_stack([np.ones(4), rng.standard_normal((4, 3))])
        factory = LinearQFactory(X, rng.standard_normal(4), enumerate_all_subsets(1, 3))
        logliks = factory.logliks()
        assert logliks[-1] == np.inf and np.isfinite(logliks[:-1]).all()
        assert factory.sigma2 == 0.0
        np.testing.assert_array_equal(aic_weights(logliks, factory.dims()), [0.0] * 7 + [1.0])

    @pytest.mark.parametrize(
        "case, expected",
        [("prostate", 1), ("study1", 1), ("column_left_out", 2), ("no_candidates", 1)],
    )
    def test_one_n_row_factorisation_per_design(self, case, expected, monkeypatch):
        # Only [X_U | y] (and the full design, when no candidate has one of its
        # columns) is factored on its n rows; every candidate is reduced from
        # that R factor in QRs of at most p + 1 rows.  With no candidates
        # there is no [X_U | y]: only the full design is factored.
        if case == "prostate":
            ds = synthetic_prostate()
            X, y, models = ds.design, ds.response, enumerate_all_subsets(1, 8)
        else:
            rng = np.random.default_rng(31)
            n, p = 300, STUDY1_P_FIXED + STUDY1_Q
            X = np.column_stack([np.ones(n), rng.standard_normal((n, p - 1))])
            y = X @ np.asarray(STUDY1_BETA) + rng.standard_normal(n)
            models = study1_model_sets()["A"].models
            if case == "column_left_out":
                models = [m for m in models if m.dim < p and 4 not in m.included]
            if case == "no_candidates":
                models = []
        rows = []
        qr = glm_fit.lapack_qr_r

        def counted(a):
            rows.append(np.shape(a)[-2])
            return qr(a)

        monkeypatch.setattr(glm_fit, "lapack_qr_r", counted)
        LinearQFactory(X, y, models)
        assert rows.count(X.shape[0]) == expected
        assert all(r == X.shape[0] or r <= X.shape[1] + 1 for r in rows)

    def test_a_study1_case_b_stack_factors_two_designs_per_replication(self, monkeypatch):
        # case B's ladder holds the full design, and its oracle is no candidate:
        # each replication factors [X_U | y] and the oracle's own [X_o | y] on
        # its n rows, and the stack reduces both from those factors
        rows = []
        qr = glm_fit.lapack_qr_r

        def counted(a):
            rows.extend([np.shape(a)[-2]] * int(np.prod(np.shape(a)[:-2])))
            return qr(a)

        monkeypatch.setattr(glm_fit, "lapack_qr_r", counted)
        run_study1(n_grid=(60,), cases=("B",), n_reps=9, seed=7)
        assert rows.count(60) == 2 * 9
        assert all(r == 60 or r <= STUDY1_P_FIXED + STUDY1_Q + 1 for r in rows)

    def test_padded_betas_place_each_fit_in_its_columns(self):
        ds = synthetic_prostate()
        models = enumerate_all_subsets(1, 8)
        factory = LinearQFactory(ds.design, ds.response, models)
        padded = factory.padded_betas()
        assert padded.shape == (256, 9)
        assert not padded.flags.writeable
        for model, row, beta in zip(models, padded, factory.model_betas()):
            cols = model.column_indices()
            assert np.array_equal(row[cols], beta)
            assert np.all(np.delete(row, cols) == 0.0)
        np.testing.assert_array_equal(factory.dims(), [m.dim for m in models])

    def test_guard_names_the_failing_candidate_inside_its_group(self):
        # column 3 duplicates column 1, so candidate (0, 2) has columns
        # [0, 1, 3] and is rank deficient; it is the second of the three
        # two-optional candidates and comes before the (also singular) full model
        X, y, _ = _linear_instance(7, n=50, q=2)
        X = np.column_stack([X, X[:, 1]])
        models = list(enumerate_all_subsets(1, 3))
        assert [m.included for m in models if m.dim == 3] == [(0, 1), (0, 2), (1, 2)]
        with pytest.raises(SingularDesignError) as excinfo:
            LinearQFactory(X, y, models)
        assert excinfo.value.model == CandidateModel((0, 2), 1)

    def test_guard_on_full_design_alone_names_no_model(self):
        X, y, _ = _linear_instance(8, n=50, q=2)
        X = np.column_stack([X, X[:, 1]])
        models = [CandidateModel((), 1), CandidateModel((0,), 1), CandidateModel((1, 2), 1)]
        with pytest.raises(SingularDesignError) as excinfo:
            LinearQFactory(X, y, models)
        assert excinfo.value.model is None

    @pytest.mark.parametrize("factory", [LinearQFactory, LinearAveragingPredictor])
    @pytest.mark.parametrize(
        "models, d, model",
        [
            # the full design is a candidate: the first 4-parameter candidate is too wide
            (list(enumerate_all_subsets(1, 8)), 4, CandidateModel((0, 1, 2), 1)),
            # column 8 is in no candidate, so the full design has a factor of its own
            ([m for m in enumerate_all_subsets(1, 8) if 7 not in m.included], 4, CandidateModel((0, 1, 2), 1)),
            # every candidate fits on 3 rows; only the full design, with its own factor, is too wide
            ([CandidateModel((), 1), CandidateModel((0,), 1)], 9, None),
        ],
    )
    def test_fewer_rows_than_columns_names_the_first_design_too_wide(self, factory, models, d, model):
        X, y, _ = _linear_instance(11, n=10, q=8)
        with pytest.raises(SingularDesignError) as excinfo:
            factory(X[:3], y[:3], models)
        assert str(excinfo.value) == f"need n >= d, got n=3, d={d}"
        assert excinfo.value.model == model

    def test_inverse_grams_wait_for_the_first_q_form(self, monkeypatch):
        # selection and the aic/equal schemes read only the candidate fits
        class Inverted(Exception):
            pass

        def no_inverse(*args, **kwargs):
            raise Inverted

        monkeypatch.setattr(mse_weights, "lapack_inv", no_inverse)
        ds = synthetic_prostate()
        train, test = split(ds, 67, seed=derive_seed(0, "prostate-split", 0))
        subsets = enumerate_all_subsets(1, 8)
        crossval._cv_choice(train, subsets, 0, 0)
        factory = LinearQFactory(train.design, train.response, subsets)
        np.argmin(mse_weights.aic_values(factory.logliks(), factory.dims()))  # the AIC rule
        predictor = LinearAveragingPredictor(train.design, train.response, enumerate_all_subsets(1, 8))
        for scheme in ("aic", "equal"):
            predictor.predict(test.design[0], scheme)
        with pytest.raises(Inverted):
            predictor.q_form(test.design[0])

    def test_all_subsets_gram_factor_is_p_by_k_and_matches_double_sum(self):
        X, y, x_star = _linear_instance(9, n=40, q=8)
        models = list(enumerate_all_subsets(1, 8))
        qf = LinearQFactory(X, y, models).q_form(x_star)
        assert qf.gram_factor.shape == (X.shape[1], len(models)) == (9, 256)
        np.testing.assert_allclose(qf.matrix, q_linear_double_sum(X, y, models, x_star), atol=1e-10)

    @pytest.mark.parametrize("x_star", [np.ones(5), np.ones((4, 1)), np.array([1.0, np.nan, 0.0, 0.0])])
    def test_bad_x_star_rejected_by_every_entry_point(self, x_star):
        X, y, _ = _linear_instance(10)
        models = [CandidateModel((), 1), CandidateModel((0, 1, 2), 1)]
        factory = LinearQFactory(X, y, models)
        with pytest.raises(DataError):
            factory.per_model_values(x_star)
        with pytest.raises(DataError):
            factory.q_form(x_star)
        with pytest.raises(DataError):
            LinearQFactory(X, y, models).q_form(x_star)
        with pytest.raises(DataError):
            build_q_logistic(X, (y > np.median(y)).astype(float), models, x_star)


class TestLogisticQFactory:
    @pytest.mark.parametrize("with_full", [True, False])
    def test_matches_double_sum_at_every_point(self, with_full):
        X, y, _ = TestBuildQLogistic._instance(21)
        models = list(enumerate_all_subsets(1, 3))
        if not with_full:
            models = models[:-1]  # the last subset is the full design
        assert (models[-1].dim == 4) is with_full
        factory = LogisticQFactory(X, y, models)
        rng = np.random.default_rng(22)
        for _ in range(5):
            x_star = np.concatenate([[1.0], rng.standard_normal(3)])
            qf = factory.q_form(x_star)
            assert qf.gram_factor.shape == (X.shape[1], len(models))
            oracle = q_logistic_double_sum(X, y, models, x_star)
            np.testing.assert_allclose(qf.matrix, oracle, rtol=0, atol=1e-10)

    def test_per_model_values_are_each_mle_at_the_point(self):
        X, y, x_star = TestBuildQLogistic._instance(23)
        models = list(enumerate_all_subsets(1, 3))
        got = LogisticQFactory(X, y, models).per_model_values(x_star)
        expected = [
            expit(subset_point(x_star, m) @ logistic_mle(subset_columns(X, m), y).beta)
            for m in models
        ]
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-15)

    def test_logliks_and_dims_match_each_mle(self):
        X, y, _ = TestBuildQLogistic._instance(23)
        models = list(enumerate_all_subsets(1, 3))
        factory = LogisticQFactory(X, y, models)
        fits = [logistic_mle(subset_columns(X, m), y, model=m) for m in models]
        np.testing.assert_array_equal(factory.logliks(), [fit.loglik for fit in fits])
        np.testing.assert_array_equal(factory.dims(), [fit.dim for fit in fits])

    def test_separating_candidate_is_named(self):
        # y is the sign of the third optional column: every candidate that
        # includes it separates, and (2,) is the first of them in list order
        rng = np.random.default_rng(24)
        X = np.column_stack([np.ones(60), rng.standard_normal((60, 3))])
        y = (X[:, 3] > 0).astype(float)
        models = list(enumerate_all_subsets(1, 3))
        with pytest.raises(NonConvergenceError) as excinfo:
            LogisticQFactory(X, y, models)
        assert excinfo.value.model == CandidateModel((2,), 1)

    @pytest.mark.parametrize(
        "x_star", [np.ones(5), np.array([1.0, np.nan, 0.0, 0.0]), np.array([1.0, 0.0, np.inf, 0.0])]
    )
    def test_bad_x_star_rejected(self, x_star):
        X, y, _ = TestBuildQLogistic._instance(25)
        factory = LogisticQFactory(X, y, list(enumerate_all_subsets(1, 3)))
        with pytest.raises(DataError):
            factory.per_model_values(x_star)
        with pytest.raises(DataError):
            factory.q_form(x_star)


@pytest.mark.filterwarnings("error")
def test_fit_path_calls_no_numpy_linalg_wrapper(monkeypatch):
    # Every fit, plug-in and weight solve reaches LAPACK through the glm_fit
    # helpers.  No candidate has the last column, so the full design is
    # fitted on its own in both families.
    def wrapper(*args, **kwargs):
        raise AssertionError("a numpy.linalg wrapper was called")

    for name in ("qr", "svd", "inv", "solve"):
        monkeypatch.setattr(np.linalg, name, wrapper)
    models = [m for m in enumerate_all_subsets(1, 3) if 2 not in m.included]
    X, y, x_star = _linear_instance(26)
    X_logit, y_logit, x_logit = TestBuildQLogistic._instance(26)
    for predictor, x in [
        (LinearAveragingPredictor(X, y, models), x_star),
        (LogisticAveragingPredictor(X_logit, y_logit, models), x_logit),
    ]:
        assert np.isfinite(predictor.q_form(x).matrix).all()
        assert np.isfinite(predictor.predict(x, "optimal").value)


@pytest.mark.parametrize("factory", [LinearQFactory, LogisticQFactory])
def test_a_failed_inverse_gram_is_a_singular_design_error(factory, monkeypatch):
    # LAPACK reports a failed inverse as NaN; the plug-in names the first candidate.
    monkeypatch.setattr(mse_weights, "lapack_inv", lambda A: np.full_like(A, np.nan))
    X, y, x_star = TestBuildQLogistic._instance(27)
    models = list(enumerate_all_subsets(1, 3))
    with pytest.raises(SingularDesignError) as excinfo:
        factory(X, y, models).q_form(x_star)
    assert excinfo.value.model == models[0]



def test_each_set_names_its_first_marked_design_and_keeps_an_earlier_error():
    # 3 training sets x (K + 1) designs: the K candidates, then the full design
    models = list(enumerate_all_subsets(1, 2))
    K = len(models)
    failed = np.zeros((3, K + 1), dtype=bool)
    failed[0, [2, 1, K]] = True
    failed[1, K] = True  # only the full design, which is no candidate
    failed[2, 0] = True
    earlier = SingularDesignError("an earlier failure")
    asked = []

    def message(i, k):
        asked.append((i, k))
        return f"design {k} of set {i}"

    errors = mse_weights._design_errors(failed, models, message, {(2,): earlier})
    assert asked == [((0,), 1), ((1,), K)]
    assert str(errors[(0,)]) == "design 1 of set (0,)" and errors[(0,)].model == models[1]
    assert str(errors[(1,)]) == f"design {K} of set (1,)" and errors[(1,)].model is None
    assert errors[(2,)] is earlier and len(errors) == 3


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "factory, predictor_class",
    [(LinearQFactory, LinearAveragingPredictor), (LogisticQFactory, LogisticAveragingPredictor)],
    ids=["linear", "logistic"],
)
def test_an_overflowing_plug_in_is_a_singular_design_error(factory, predictor_class):
    # At an overall scale of 1e-200 every candidate fits (a logistic score is below
    # SCORE_TOL at beta = 0), and each inverse Gram R_k^{-1} R_k^{-T} overflows: a lone
    # q_form and an optimal predict name the first candidate, with no warning, and aic
    # still answers
    X, y, _ = TestBuildQLogistic._instance(28)
    X = X * 1e-200
    models = list(enumerate_all_subsets(1, 3))
    predictor = predictor_class(X, y, models)
    for call in (lambda: factory(X, y, models).q_form(X[0]), lambda: predictor.predict(X[0], "optimal")):
        with pytest.raises(SingularDesignError) as excinfo:
            call()
        assert str(excinfo.value) == glm_fit.INVERSE_RANGE_MESSAGE
        assert excinfo.value.model == models[0]
    assert np.isfinite(predictor.predict(X[0], "aic").value)

class TestBuildQLogistic:
    @staticmethod
    def _instance(seed, n=100, q=3):
        rng = np.random.default_rng(seed)
        X = np.column_stack([np.ones(n), rng.standard_normal((n, q))])
        y = (rng.random(n) < expit(X @ rng.uniform(-0.8, 0.8, q + 1))).astype(float)
        x_star = np.concatenate([[1.0], rng.standard_normal(q)])
        return X, y, x_star

    def test_full_model_only_bias_vanishes(self):
        X, y, x_star = self._instance(0)
        qf = build_q_logistic(X, y, [CandidateModel((0, 1, 2), 1)], x_star)
        assert qf.bias[0] == pytest.approx(0.0, abs=1e-8)
        assert qf.matrix[0, 0] > 0.0

    def test_degenerate_response_propagates(self):
        X = np.column_stack([np.ones(40), np.linspace(-1, 1, 40)])
        with pytest.raises(NonConvergenceError):
            build_q_logistic(X, np.ones(40), [CandidateModel((), 1)], np.array([1.0, 0.0]))

    def test_matches_double_sum_oracle(self):
        X, y, x_star = self._instance(5)
        models = [
            CandidateModel((), 1),
            CandidateModel((0,), 1),
            CandidateModel((0, 1, 2), 1),
        ]
        qf = build_q_logistic(X, y, models, x_star)
        oracle = q_logistic_double_sum(X, y, models, x_star)
        np.testing.assert_allclose(qf.matrix, oracle, atol=1e-10)

    def test_strong_signal_still_assembles(self):
        # fitted probabilities pushed toward the boundary stress the
        # weighted factorisations but must stay well-posed
        rng = np.random.default_rng(30)
        n = 400
        X = np.column_stack([np.ones(n), rng.standard_normal((n, 2))])
        beta = np.array([0.5, 2.5, -2.0])
        y = (rng.random(n) < expit(X @ beta)).astype(float)
        models = [CandidateModel((), 1), CandidateModel((0,), 1), CandidateModel((0, 1), 1)]
        x_star = np.array([1.0, 1.5, -1.5])
        qf = build_q_logistic(X, y, models, x_star)
        assert np.all(np.isfinite(qf.matrix))
        eigs = np.linalg.eigvalsh(qf.matrix)
        assert eigs[0] >= -1e-10 * np.trace(qf.matrix)
        sol = solve_simplex_qp(qf)
        assert np.sum(sol.weights) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# weight solver
# ---------------------------------------------------------------------------

# (split, test row) pairs of the prostate pipeline, split r drawn with seed
# derive_seed(0, "prostate-split", r): 23 of its 3,000 solves.
HARD_PROSTATE_ROWS = {
    3: (15, 17), 12: (1,), 14: (14,), 16: (6,), 20: (13,), 26: (29,), 27: (23,),
    37: (26,), 46: (19,), 48: (14,), 49: (4,), 55: (27,), 58: (3,), 66: (22,),
    67: (3,), 78: (29,), 83: (20,), 87: (10, 28), 90: (0,), 96: (28,), 97: (7,),
}


# Real rows on which the solver's fast path raises and only its second run
# certifies: (seed, split, row), split r drawn with seed
# derive_seed(seed, "prostate-split", r).
UNCERTIFIED_PROSTATE_ROWS = [(315, 20, 6), (1030, 14, 12), (23106, 14, 24)]

# The solver's exact output on prostate seed 0, splits 0-9 x 30 rows, and
# which of the 750 collinear forms raise; written by
# tests/data/make_solver_golden.py.
SOLVER_GOLDEN = json.loads(
    (pathlib.Path(__file__).resolve().parent / "data" / "solver_golden.json").read_text()
)


# Q = diag(1, 2): b = 0 and A'A = diag(1, 1 + 1), exactly.
DIAGONAL_1_2 = QuadraticForm.from_parts(np.zeros(2), [[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])


class TestSolveSimplexQp:
    def test_single_model(self):
        sol = solve_simplex_qp(QuadraticForm.from_parts([1.0], [[1.0], [1.0]]))  # Q = [[3]]
        np.testing.assert_allclose(sol.weights, [1.0])
        assert sol.objective == pytest.approx(3.0)

    def test_diagonal_closed_form(self):
        sol = solve_simplex_qp(DIAGONAL_1_2)
        np.testing.assert_allclose(sol.weights, [2.0 / 3.0, 1.0 / 3.0], atol=1e-8)
        assert sol.objective == pytest.approx(2.0 / 3.0, abs=1e-9)

    def test_rank_one_constant_objective(self):
        sol = solve_simplex_qp(QuadraticForm.from_parts(np.ones(4), np.zeros((1, 4))))  # Q = 11'
        assert sol.objective == pytest.approx(1.0, abs=1e-12)
        assert np.all(sol.weights >= 0.0)
        assert np.sum(sol.weights) == pytest.approx(1.0, abs=1e-12)

    def test_matches_grid_oracle_small_k(self):
        rng = np.random.default_rng(7)
        for trial in range(20):
            K = int(rng.integers(2, 4))
            q = random_psd(rng, K)
            sol = solve_simplex_qp(q)
            assert sol.objective <= grid_min_objective(q.matrix) + 1e-6

    def test_dominates_vertices_and_equal_weights(self):
        rng = np.random.default_rng(8)
        for trial in range(10):
            K = int(rng.integers(2, 12))
            q = random_psd(rng, K)
            sol = solve_simplex_qp(q)
            Q = q.matrix
            vertex_objs = np.diag(Q)
            assert sol.objective <= np.min(vertex_objs) + 1e-9
            eq = equal_weights(K)
            assert sol.objective <= eq @ Q @ eq + 1e-9

    def test_dominates_random_simplex_points(self):
        rng = np.random.default_rng(9)
        q = random_psd(rng, 6)
        sol = solve_simplex_qp(q)
        W = rng.dirichlet(np.ones(6), size=100_000)
        objs = np.einsum("ij,jk,ik->i", W, q.matrix, W)
        assert sol.objective <= np.min(objs) + 1e-9

    def test_rejects_non_finite(self):
        with pytest.raises(NumericalError):
            solve_simplex_qp(QuadraticForm.from_parts([1.0, np.nan], np.eye(2)))

    def test_rejects_a_dense_matrix(self):
        # an indefinite matrix (w'Qw = -1 at the second vertex) has no
        # factor M = [b'; A] with Q = M'M, so the solver cannot search it
        with pytest.raises(DataError, match=r"QuadraticForm\.from_parts"):
            solve_simplex_qp(np.diag([1.0, -1.0]))

    def test_weights_exactly_on_simplex(self):
        rng = np.random.default_rng(11)
        sol = solve_simplex_qp(random_psd(rng, 5))
        assert np.all(sol.weights >= 0.0)
        assert abs(np.sum(sol.weights) - 1.0) <= 1e-12

    def test_kkt_residual_small_at_solution(self):
        rng = np.random.default_rng(12)
        sol = solve_simplex_qp(random_psd(rng, 4))
        assert sol.kkt_residual <= 1e-8

    def test_iteration_cap_raises(self, monkeypatch):
        # the start vertex of diag(1, 2) is not optimal: two major cycles
        monkeypatch.setattr(mse_weights, "SOLVER_MAX_ITER", 2)
        assert solve_simplex_qp(DIAGONAL_1_2).iterations == 2
        monkeypatch.setattr(mse_weights, "SOLVER_MAX_ITER", 1)
        with pytest.raises(NumericalError, match="did not converge"):
            solve_simplex_qp(DIAGONAL_1_2)

    @pytest.mark.parametrize("split_index, rows", sorted(HARD_PROSTATE_ROWS.items()))
    def test_hard_prostate_rows_certified(self, split_index, rows):
        # Rows on which an earlier active-set solver cycled and whose
        # projected-gradient fallback returned uncertified weights.
        train, test = split(synthetic_prostate(), 67, seed=derive_seed(0, "prostate-split", split_index))
        factory = LinearQFactory(train.design, train.response, enumerate_all_subsets(1, 8))
        for row in rows:
            q = factory.q_form(test.design[row])
            sol = solve_simplex_qp(q)
            grad = 2.0 * (q.matrix @ sol.weights)
            residual = float(np.max(sol.weights * (grad - np.min(grad))))
            assert residual <= 1e-12 * max(1.0, float(np.max(np.abs(grad))))
            assert sol.objective == pytest.approx(float(sol.weights @ q.matrix @ sol.weights), rel=1e-12)

    @pytest.mark.parametrize("seed, split_index, row", UNCERTIFIED_PROSTATE_ROWS)
    def test_real_rows_certify(self, seed, split_index, row):
        # The fast path raised on each of these rows ("not certified" on the
        # first two, "singular corral system" on the third); the second run
        # certifies them under the bench's relative test.
        train, test = split(synthetic_prostate(), 67, seed=derive_seed(seed, "prostate-split", split_index))
        q = LinearQFactory(train.design, train.response, enumerate_all_subsets(1, 8)).q_form(test.design[row])
        sol = solve_simplex_qp(q)
        grad = 2.0 * (q.matrix @ sol.weights)
        residual = float(np.max(sol.weights * (grad - np.min(grad))))
        assert residual <= 1e-12 * max(1.0, float(np.max(np.abs(grad))))

    def test_last_bits_of_q_hat_do_not_decide_a_real_row(self):
        # Seed 410, split 17, row 27 sits next to a degenerate corral: the
        # solver without its second run raised on 16 of these 300 draws, each
        # moving b and A by a few ulps.
        train, test = split(synthetic_prostate(), 67, seed=derive_seed(410, "prostate-split", 17))
        q = LinearQFactory(train.design, train.response, enumerate_all_subsets(1, 8)).q_form(test.design[27])
        rng = np.random.default_rng(410)
        for _ in range(300):
            bias = q.bias + rng.integers(-8, 9, q.bias.shape) * np.spacing(q.bias)
            gram_factor = q.gram_factor * (1.0 + rng.integers(-4, 5, q.gram_factor.shape) * 2.0**-52)
            solve_simplex_qp(QuadraticForm.from_parts(bias, gram_factor))

    @pytest.mark.filterwarnings("error")
    def test_exactly_singular_corral_certifies(self):
        # Three points within 1e-9 of a line: the third to enter makes the
        # Gram corral system exactly singular in floating point, so the fast
        # path raises; the QR second run solves it and certifies.
        points = np.array([
            [1.0727936432643008, 0.34665979847341305],
            [0.11000714679883557, -1.8567487022480091],
            [0.33211868726535404, -1.3484299228557228],
        ])
        q = QuadraticForm.from_parts(points[:, 0], points[:, 1:].T)
        sq_norms = np.einsum("ij,ij->i", points, points)
        with pytest.raises(NumericalError, match="singular corral system"):
            mse_weights._certified_solution(points, sq_norms, mse_weights._gram_corral_solve)
        sol = solve_simplex_qp(q)
        assert np.all(sol.weights >= 0.0) and abs(np.sum(sol.weights) - 1.0) <= 1e-12
        assert sol.kkt_residual <= 2e-12 * float(sq_norms.max())

    def test_second_run_certifies_when_the_fast_path_fails(self, monkeypatch):
        monkeypatch.setattr(mse_weights, "_gram_corral_solve", lambda S, c, ones: np.full(len(ones), np.nan))
        expected = [2.0 / 3.0, 1.0 / 3.0]
        np.testing.assert_allclose(solve_simplex_qp(DIAGONAL_1_2).weights, expected, atol=1e-12)

    def test_negative_corral_sum_falls_back_to_the_qr_run(self, monkeypatch):
        # a fast-path corral system whose solution sums below zero raises, and the QR run answers
        P = np.column_stack([DIAGONAL_1_2.bias, DIAGONAL_1_2.gram_factor.T])
        sq_norms = np.einsum("ij,ij->i", P, P)
        lone = mse_weights._certified_solution(P, sq_norms, mse_weights._qr_corral_solve)
        monkeypatch.setattr(mse_weights, "_gram_corral_solve", lambda S, c, ones: -ones)
        with pytest.raises(NumericalError, match="corral system gave 1'u = -2"):
            mse_weights._nearest_point(P, sq_norms, mse_weights._gram_corral_solve)
        sol = solve_simplex_qp(DIAGONAL_1_2)
        assert _hexed(sol.weights, sol.objective, sol.iterations, sol.kkt_residual) == _hexed(
            lone.weights, lone.objective, lone.iterations, lone.kkt_residual
        )

    @pytest.mark.filterwarnings("error")
    def test_both_runs_failing_raise(self, monkeypatch):
        # Every corral solve of both runs goes through lapack_solve.
        monkeypatch.setattr(mse_weights, "lapack_solve", lambda A, b: np.full(b.shape, np.nan))
        with pytest.raises(NumericalError, match="singular corral system"):
            solve_simplex_qp(DIAGONAL_1_2)

    @given(st.integers(0, 2**31 - 1), st.integers(2, 8))
    @settings(max_examples=60, deadline=None)
    def test_solution_dominates_sampled_points(self, seed, K):
        rng = np.random.default_rng(seed)
        q = random_psd(rng, K)
        sol = solve_simplex_qp(q)
        W = rng.dirichlet(np.ones(K), size=200)
        sampled = np.einsum("ij,jk,ik->i", W, q.matrix, W)
        assert sol.objective <= np.min(sampled) + 1e-9


# ---------------------------------------------------------------------------
# baseline weights
# ---------------------------------------------------------------------------


class TestAicWeights:
    def test_equal_aics_give_equal_weights(self):
        np.testing.assert_allclose(aic_weights([-10.0, -10.0, -10.0], [2, 2, 2]), np.full(3, 1 / 3))

    def test_shift_invariance(self):
        # adding a constant c to every loglik shifts every AIC by -2c
        np.testing.assert_array_equal(
            aic_weights([-10.0, -12.0], [2, 3]),
            aic_weights([-10.0 + 5.0, -12.0 + 5.0], [2, 3]),
        )

    def test_two_models_delta_two(self):
        # AIC difference of exactly 2: dims differ by 1 at equal loglik
        w = aic_weights([-10.0, -10.0], [2, 3])
        expected = 1.0 / (1.0 + np.exp(-1.0))
        np.testing.assert_allclose(w, [expected, 1.0 - expected], atol=1e-4)

    def test_infinite_loglik_shares_weight_among_best(self):
        np.testing.assert_allclose(aic_weights([np.inf, -5.0, np.inf], [2, 2, 3]), [0.5, 0.0, 0.5])

    def test_all_infinitely_bad_fits_rejected(self):
        with pytest.raises(DataError):
            aic_weights([-np.inf, -np.inf], [2, 3])

    def test_nan_rejected(self):
        with pytest.raises(DataError):
            aic_weights([np.nan], [2])

    @pytest.mark.parametrize("logliks, dims", [([-1.0, -2.0], [2]), ([], []), ([[-1.0]], [[2]])])
    def test_mismatched_or_empty_inputs_rejected(self, logliks, dims):
        with pytest.raises(DataError):
            aic_weights(logliks, dims)


class TestEqualWeights:
    def test_single(self):
        np.testing.assert_array_equal(equal_weights(1), [1.0])

    def test_quarter(self):
        np.testing.assert_allclose(equal_weights(4), np.full(4, 0.25))

    def test_sums_to_one(self):
        assert np.sum(equal_weights(7)) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_zero(self):
        with pytest.raises(DataError):
            equal_weights(0)


class TestNearestPointOracles:
    """The nearest-point solver against closed forms and a grid."""

    def test_diagonal_closed_form(self):
        sol = solve_simplex_qp(DIAGONAL_1_2)
        np.testing.assert_allclose(sol.weights, [2.0 / 3.0, 1.0 / 3.0], atol=1e-7)
        assert sol.iterations > 0  # really went through the iteration

    def test_matches_grid_oracle(self):
        rng = np.random.default_rng(20)
        for _ in range(10):
            K = int(rng.integers(2, 4))
            q = random_psd(rng, K)
            sol = solve_simplex_qp(q)
            assert sol.objective <= grid_min_objective(q.matrix) + 1e-6

    def test_rank_one_exits_immediately(self):
        sol = solve_simplex_qp(QuadraticForm.from_parts(np.ones(5), np.zeros((1, 5))))  # Q = 11'
        assert sol.objective == pytest.approx(1.0, abs=1e-10)

    def test_quadratic_form_input(self):
        X, y, x_star = _linear_instance(21)
        models = [CandidateModel((), 1), CandidateModel((0, 1), 1), CandidateModel((0, 1, 2), 1)]
        qf = LinearQFactory(X, y, models).q_form(x_star)
        sol = solve_simplex_qp(qf)
        assert np.all(sol.weights >= 0.0)
        assert np.sum(sol.weights) == pytest.approx(1.0, abs=1e-12)


def _collinear_forms(seed=20261018, count=750):
    """Forms whose K points (the columns of M = [b'; A]) lie within 1e-9 of a line."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        K = int(rng.integers(3, 13))
        dim = int(rng.integers(2, 7))
        origin, direction = rng.standard_normal(dim), rng.standard_normal(dim)
        points = origin + rng.uniform(-2.0, 2.0, K)[:, None] * direction
        points += 1e-9 * rng.standard_normal((K, dim))
        yield QuadraticForm.from_parts(points[:, 0], points[:, 1:].T)


class TestSolverFailurePaths:
    def test_collinear_points_certify_or_raise(self):
        # Nearly collinear corrals make the corral system numerically
        # singular.  Each solve must return a certified answer or raise
        # NumericalError; no LinAlgError and no non-finite weights.
        raised = 0
        for q in _collinear_forms():
            try:
                sol = solve_simplex_qp(q)
            except NumericalError:
                raised += 1
                continue
            M = np.vstack([q.bias, q.gram_factor])
            w = sol.weights
            assert np.all(np.isfinite(w)) and np.all(w >= 0.0)
            assert abs(np.sum(w) - 1.0) <= 1e-12
            grad = 2.0 * (M.T @ (M @ w))
            residual = float(np.max(w * (grad - np.min(grad))))
            assert residual <= 2e-12 * float(np.max(np.sum(M * M, axis=0)))
            assert sol.objective == pytest.approx(float(w @ q.matrix @ w), rel=1e-9, abs=1e-15)
        assert raised < 750  # the family is not all failures
        print(f"[INFO] collinear family: {raised} of 750 forms raised NumericalError")

    def test_an_oversized_qr_corral_raises_numerical_error(self, monkeypatch):
        # Random forms with column scales 10^U(-3, 3): in 16 of the first 3,000
        # the QR second run's corral outgrows the form's rows plus one, the
        # first at draw 139 (K = 38, d = 12), where its R factor is not square.
        qr_solve = mse_weights._qr_corral_solve
        oversized = []

        def recording(S, c, ones):
            if S.shape[0] > S.shape[1] + 1:
                oversized.append(draw)
            return qr_solve(S, c, ones)

        monkeypatch.setattr(mse_weights, "_qr_corral_solve", recording)
        rng = np.random.default_rng(7)
        shapes, outcomes = {}, {}
        for draw in range(3000):
            K, d = int(rng.integers(2, 40)), int(rng.integers(2, 13))
            scale = 10.0 ** rng.uniform(-3, 3, K)
            b = rng.standard_normal(K) * scale
            A = rng.standard_normal((d - 1, K)) * scale
            shapes[draw] = K, d
            before = len(oversized)
            try:
                sol = solve_simplex_qp(QuadraticForm.from_parts(b, A))
            except NumericalError:
                outcomes[draw] = "raised"
                continue
            if len(oversized) > before:
                M, w = np.vstack([b, A]), sol.weights
                assert np.all(np.isfinite(w)) and np.all(w >= 0.0) and abs(w.sum() - 1.0) <= 1e-12
                grad = 2.0 * (M.T @ (M @ w))
                assert float(np.max(w * (grad - grad.min()))) <= 2e-12 * float(np.max(np.sum(M * M, axis=0)))
                outcomes[draw] = "certified"
        forms = sorted(set(oversized))
        assert len(forms) == 16 and forms[0] == 139 and shapes[139] == (38, 12)
        assert all(outcomes.get(draw) in ("raised", "certified") for draw in forms)


class TestSolverGolden:
    """The solver's output replayed bit for bit against ``solver_golden.json``."""

    def test_prostate_rows_match_bitwise(self):
        golden = SOLVER_GOLDEN["prostate"]
        models = enumerate_all_subsets(1, 8)
        factories = {}
        for case in golden["rows"]:
            r = case["split"]
            if r not in factories:
                seed = derive_seed(golden["seed"], "prostate-split", r)
                train, test = split(synthetic_prostate(), golden["n_train"], seed=seed)
                factories[r] = (LinearQFactory(train.design, train.response, models), test)
            factory, test = factories[r]
            sol = solve_simplex_qp(factory.q_form(test.design[case["row"]]))
            support = np.flatnonzero(sol.weights)
            assert support.tolist() == case["support"], case
            assert [float(v).hex() for v in sol.weights[support]] == case["weights"], case
            assert sol.iterations == case["iterations"], case
            assert sol.objective.hex() == case["objective"], case
            assert sol.kkt_residual.hex() == case["kkt_residual"], case

    def test_collinear_raise_pattern(self):
        raised = []
        for q in _collinear_forms():
            try:
                solve_simplex_qp(q)
                raised.append("0")
            except NumericalError:
                raised.append("1")
        assert "".join(raised) == SOLVER_GOLDEN["collinear_raises"]


def _hexed(weights, objective, iterations, kkt_residual):
    return [float(v).hex() for v in weights], float(objective).hex(), int(iterations), float(kkt_residual).hex()


def _lone_answer(bias, gram_factor):
    """``solve_simplex_qp``'s answer for one form, in hex, or its error as (type, message)."""
    try:
        sol = solve_simplex_qp(QuadraticForm.from_parts(bias, gram_factor))
    except NumericalError as exc:
        return type(exc), str(exc)
    return _hexed(sol.weights, sol.objective, sol.iterations, sol.kkt_residual)


def _gram_run_fails(bias, gram_factor) -> bool:
    """Whether ``solve_simplex_qp``'s first run, on the Gram corral systems, raises or fails the certificate."""
    P = np.column_stack([bias, gram_factor.T])
    try:
        mse_weights._certified_solution(P, np.einsum("ij,ij->i", P, P), mse_weights._gram_corral_solve)
    except NumericalError:
        return True
    return False


# The separated 7-row logistic design whose optimal weights neither solver run
# certifies (K = 16 candidates, all subsets of 4 optional columns): Z, with
# X = [1 | Z], y = (Z[:, 0] > 0) and x* = X[0].
SEPARATED_Z = [
    [-0.19148561565958722, -0.4864673699172336, 0.3982669372592033, 0.606794502584708],
    [1.2435616626991888, 1.1307641213517998, -0.06772438421155849, -1.208394504206709],
    [2.151792810582535, 1.3987763451735902, 0.7338236723154302, 0.33257881855053556],
    [-0.12466518575961379, -1.6644962248419577, 0.05396353193926462, 0.13567000923821937],
    [-0.5902758904938162, 1.4700197624146076, 0.36017964809437814, -0.4908795680648221],
    [-0.40886238805999336, 1.8117965142750287, -0.9371026808008383, 0.9736021835348283],
    [1.4094971864660084, 1.44164465448382, -0.32203740863393576, -0.6995560220068083],
]


class _FormStack:
    """A stand-in for a family's stacked fit whose Qhat parts are given forms and whose values are all 1."""

    def __init__(self, bias, gram_factor):
        self.bias, self.gram_factor = bias, gram_factor
        self.B = np.zeros((*bias.shape, 1))
        self.models = [None] * bias.shape[1]

    def values(self, x_star):
        return np.ones(self.bias.shape)

    def q_parts(self, x_star, values):
        return self.bias, self.gram_factor

    def fit_error(self, i):
        return None

    plug_in_error = fit_error


class TestStackedSolve:
    """Every slice of a lockstep solve (``_solve_stack``) is its lone ``solve_simplex_qp``, bit for bit."""

    def test_prostate_splits_match_the_golden_file(self):
        golden = SOLVER_GOLDEN["prostate"]
        models = enumerate_all_subsets(1, 8)
        splits = {}
        for case in golden["rows"]:
            splits.setdefault(case["split"], []).append(case)
        assert len(splits) == 10 and {len(cases) for cases in splits.values()} == {30}
        for r, cases in splits.items():
            train, test = split(synthetic_prostate(), golden["n_train"], seed=derive_seed(golden["seed"], "prostate-split", r))
            factory = LinearQFactory(train.design, train.response, models)
            forms = [factory.q_form(test.design[case["row"]]) for case in cases]
            bias, gram_factor = np.stack([q.bias for q in forms]), np.stack([q.gram_factor for q in forms])
            weights, objective, iterations, residual, lone = _lockstep._solve_stack(bias, gram_factor)
            assert not lone.any(), r
            for i, case in enumerate(cases):
                support = np.flatnonzero(weights[i])
                assert support.tolist() == case["support"], case
                assert [float(v).hex() for v in weights[i, support]] == case["weights"], case
                assert iterations[i] == case["iterations"], case
                assert float(objective[i]).hex() == case["objective"], case
                assert float(residual[i]).hex() == case["kkt_residual"], case
                assert _hexed(weights[i], objective[i], iterations[i], residual[i]) == _lone_answer(bias[i], gram_factor[i])

    def test_collinear_forms_stacked_by_shape(self):
        # every slice the lockstep run certifies is the lone answer, and it sends to the lone
        # solve exactly the slices whose lone Gram run fails: 427 of the 750
        stacks = {}
        for q in _collinear_forms():
            stacks.setdefault(q.gram_factor.shape, []).append(q)
        sent = 0
        for forms in stacks.values():
            bias, gram_factor = np.stack([q.bias for q in forms]), np.stack([q.gram_factor for q in forms])
            weights, objective, iterations, residual, lone = _lockstep._solve_stack(bias, gram_factor)
            for i in range(len(forms)):
                assert lone[i] == _gram_run_fails(bias[i], gram_factor[i])
                if not lone[i]:
                    assert _hexed(weights[i], objective[i], iterations[i], residual[i]) == _lone_answer(
                        bias[i], gram_factor[i]
                    )
            sent += int(lone.sum())
        assert len(stacks) > 10 and sent == 427

    def test_one_model_forms(self):
        rng = np.random.default_rng(32)
        bias, gram_factor = rng.standard_normal((8, 1)), rng.standard_normal((8, 4, 1))
        gram_factor[5, 0, 0] = np.inf
        weights, objective, iterations, residual, lone = _lockstep._solve_stack(bias, gram_factor)
        assert np.flatnonzero(lone).tolist() == [5]
        for i in set(range(8)) - {5}:
            assert _hexed(weights[i], objective[i], iterations[i], residual[i]) == _lone_answer(bias[i], gram_factor[i])

    def test_out_of_major_cycles_every_slice_is_solved_alone(self, monkeypatch):
        # with the lockstep loop's cap at one major cycle, every slice that needs a
        # second is flagged, solved again alone, and keeps its lone answer
        rng = np.random.default_rng(33)
        m = averaging._LOCKSTEP_MIN
        bias, gram_factor = rng.standard_normal((m, 16)), rng.standard_normal((m, 5, 16))
        answers = [_lone_answer(bias[i], gram_factor[i]) for i in range(m)]
        assert min(answer[2] for answer in answers) >= 2
        monkeypatch.setattr(_lockstep, "SOLVER_MAX_ITER", 1)
        assert _lockstep._solve_stack(bias, gram_factor)[-1].all()
        _, results = averaging._average_stack(_FormStack(bias, gram_factor), None, [("optimal",)] * m)
        for answer, [(_, weights, _, solution)] in zip(answers, results):
            assert solution is not None  # a lone solve's
            assert _hexed(weights, solution.objective, solution.iterations, solution.kkt_residual) == answer

    def test_failing_slices_raise_their_lone_errors(self):
        X = np.column_stack([np.ones(7), SEPARATED_Z])
        separated = LogisticQFactory(X, (X[:, 1] > 0.0).astype(float), enumerate_all_subsets(1, 4)).q_form(X[0])
        rng = np.random.default_rng(31)
        bias = np.stack([rng.standard_normal(16) for _ in range(12)])
        gram_factor = np.stack([rng.standard_normal((5, 16)) for _ in range(12)])
        bias[4], gram_factor[4] = separated.bias, separated.gram_factor
        gram_factor[9, 2, 7] = np.nan
        weights, objective, iterations, residual, lone = _lockstep._solve_stack(bias, gram_factor)
        assert np.flatnonzero(lone).tolist() == [4, 9]
        for i in set(range(12)) - {4, 9}:
            assert _hexed(weights[i], objective[i], iterations[i], residual[i]) == _lone_answer(bias[i], gram_factor[i])
        # through the study's averaging pass, at and below the lockstep minimum
        for size in (12, averaging._LOCKSTEP_MIN - 1):
            _, results = averaging._average_stack(_FormStack(bias[:size], gram_factor[:size]), None, [("optimal",)] * size)
            for i, result in enumerate(results):
                expected = _lone_answer(bias[i], gram_factor[i])
                if i in (4, 9):
                    assert (type(result), str(result)) == expected
                    assert expected[1].startswith(
                        "weight solve not certified" if i == 4 else "non-finite entries in the quadratic form"
                    )
                else:
                    lone_weights = np.array([float.fromhex(v) for v in expected[0]])
                    [(estimate, weights, q_hat, solution)] = result
                    assert estimate == float(lone_weights @ np.ones(16))
                    assert weights.tobytes() == lone_weights.tobytes()
                    # only a lone solve hands back its form and solution
                    assert (solution is None) == (q_hat is None) == (size >= averaging._LOCKSTEP_MIN)


class TestQuadraticForm:
    def test_from_parts_shape_validation(self):
        with pytest.raises(DataError):
            QuadraticForm.from_parts(np.ones(3), np.ones((5, 2)))

    def test_from_parts_copies_the_callers_arrays(self):
        b, A = np.ones(3), np.ones((2, 3))
        qf = QuadraticForm.from_parts(b, A)
        assert b.flags.writeable and A.flags.writeable
        assert not qf.bias.flags.writeable and not qf.gram_factor.flags.writeable

    def test_matrix_reproduces_parts(self):
        rng = np.random.default_rng(13)
        b = rng.standard_normal(4)
        A = rng.standard_normal((7, 4))
        qf = QuadraticForm.from_parts(b, A)
        np.testing.assert_allclose(qf.matrix, np.outer(b, b) + A.T @ A, atol=1e-12)
