from types import SimpleNamespace

import numpy as np
import pytest
from scipy.special import expit

from oracles import aic_weights_reference, predict_reference, reduced_ols_fit, study_draw_reference

import glmavg._lockstep as _lockstep
import glmavg.averaging as averaging
import glmavg.glm_fit as glm_fit
import glmavg.mse_weights as mse_weights
from glmavg import (
    CandidateModel,
    DataError,
    Functional,
    LinearAveragingPredictor,
    LogisticAveragingPredictor,
    ModelSet,
    enumerate_all_subsets,
    fit_and_average_linear,
    fit_and_average_logistic,
    logistic_mle,
    nested_sequence,
    ols_fit,
    SingularDesignError,
    StudyConfig,
    prediction_band,
    solve_simplex_qp,
    split,
    study2_model_sets,
    subset_columns,
    substream,
    synthetic_prostate,
)
from glmavg.sim_harness import STUDY2_X_STAR


def _linear_data(seed=0, n=100, q=3, beta=None, sigma=1.0):
    rng = np.random.default_rng(seed)
    X = np.column_stack([np.ones(n), rng.standard_normal((n, q))])
    beta = np.asarray(beta) if beta is not None else rng.uniform(-1, 1, q + 1)
    y = X @ beta + sigma * rng.standard_normal(n)
    return X, y, beta


class TestFunctional:
    def test_unknown_kind(self):
        with pytest.raises(DataError):
            Functional(kind="weird")

    def test_point_length_checked(self):
        with pytest.raises(DataError):
            Functional.linear_point(np.ones(3)).resolve(4)

    def test_missing_x_star(self):
        with pytest.raises(DataError):
            Functional(kind="linear_point")

    @pytest.mark.parametrize("make", [Functional.linear_point, Functional.logistic_point])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_x_star_rejected(self, make, bad):
        with pytest.raises(DataError):
            make(np.array([1.0, bad, 0.0]))

    def test_x_star_must_be_a_vector(self):
        with pytest.raises(DataError):
            Functional.linear_point(np.ones((3, 1)))


class TestAveragedValue:
    @pytest.mark.parametrize(
        "predictor_class", [LinearAveragingPredictor, LogisticAveragingPredictor], ids=["linear", "logistic"]
    )
    def test_value_is_the_weighted_sum_of_the_per_model_values(self, predictor_class):
        # Every scheme's weights come from the certified solver, aic_weights or
        # equal_weights, so predict takes their dot product with no simplex re-check.
        X, y = TestLogisticAveragingPredictor._data(seed=21)
        if predictor_class is LinearAveragingPredictor:
            y = X @ np.array([0.2, 0.7, -0.4]) + np.random.default_rng(22).standard_normal(X.shape[0])
        predictor = predictor_class(X, y, enumerate_all_subsets(1, 2))
        x_star = np.array([1.0, 0.3, -0.2])
        for scheme in ("optimal", "aic", "equal"):
            est = predictor.predict(x_star, scheme)
            assert est.weights.min() >= 0.0 and abs(est.weights.sum() - 1.0) <= 1e-12
            assert np.isfinite(est.per_model).all()
            assert float(est.value).hex() == float(est.weights @ est.per_model).hex()

    def test_vertex_weight_selects_its_model(self):
        # one candidate: weight 1 on it, and the value is its own prediction
        X, y, _ = _linear_data(seed=23, q=2)
        models = ModelSet([CandidateModel((0,), 1)], 2)
        x_star = np.array([1.0, 0.4, 2.0])
        for scheme in ("optimal", "aic", "equal"):
            est = LinearAveragingPredictor(X, y, models).predict(x_star, scheme)
            assert est.weights.tolist() == [1.0]
            assert est.value == float(est.per_model[0])


class TestFitAndAverageLinear:
    def test_noiseless_recovery_under_every_scheme(self):
        X, y, beta = _linear_data(seed=1, sigma=0.0, beta=[0.5, 1.0, -2.0, 0.0])
        models = ModelSet(
            [CandidateModel((0, 1), 1), CandidateModel((0, 1, 2), 1)], 3
        )  # both contain the true support {0, 1}
        x_star = np.array([1.0, 0.3, -0.7, 2.0])
        functional = Functional.linear_point(x_star)
        truth = x_star @ beta
        for scheme in ("optimal", "aic", "equal"):
            est = fit_and_average_linear(X, y, models, functional, scheme)
            assert est.value == pytest.approx(truth, abs=1e-8), scheme

    def test_single_full_model_reduces_to_ols(self):
        X, y, _ = _linear_data(seed=2)
        models = ModelSet([CandidateModel((0, 1, 2), 1)], 3)
        x_star = np.array([1.0, 1.0, 1.0, 1.0])
        est = fit_and_average_linear(X, y, models, Functional.linear_point(x_star))
        direct = float(x_star @ ols_fit(X, y).beta)
        assert est.value == direct
        np.testing.assert_array_equal(est.weights, [1.0])

    def test_vertex_consistency_bitwise(self):
        # a single-model set reproduces that model's plain estimate exactly
        X, y, _ = _linear_data(seed=3)
        model = CandidateModel((1,), 1)
        models = ModelSet([model], 3)
        x_star = np.array([1.0, -0.5, 0.25, 2.0])
        est = fit_and_average_linear(X, y, models, Functional.linear_point(x_star), "equal")
        sub_fit = ols_fit(X[:, [0, 2]], y)
        assert est.value == float(np.array([1.0, 0.25]) @ sub_fit.beta)

    def test_vertex_consistency_general_point(self):
        # at a general x* a single-model set reproduces the plain estimate to rounding
        X, y, _ = _linear_data(seed=3)
        rng = np.random.default_rng(30)
        for model in enumerate_all_subsets(1, 3):
            x_star = rng.standard_normal(4)
            est = fit_and_average_linear(
                X, y, ModelSet([model], 3), Functional.linear_point(x_star), "equal"
            )
            cols = model.column_indices()
            direct = float(x_star[cols] @ ols_fit(X[:, cols], y).beta)
            assert abs(est.value - direct) <= 4 * np.spacing(abs(direct))

    def test_optimal_objective_dominates_baselines(self):
        X, y, _ = _linear_data(seed=4)
        models = nested_sequence(1, 3)
        x_star = np.array([1.0, 0.5, -1.0, 0.8])
        functional = Functional.linear_point(x_star)
        opt = fit_and_average_linear(X, y, models, functional, "optimal")
        aic = fit_and_average_linear(X, y, models, functional, "aic")
        eq = fit_and_average_linear(X, y, models, functional, "equal")
        Q = opt.q_hat.matrix
        obj = lambda w: float(w @ Q @ w)
        assert obj(opt.weights) <= obj(aic.weights) + 1e-9
        assert obj(opt.weights) <= obj(eq.weights) + 1e-9

    def test_affine_equivariance_full_model(self):
        X, y, _ = _linear_data(seed=6)
        models = ModelSet([CandidateModel((0, 1, 2), 1)], 3)
        x_star = np.array([1.0, 2.0, -1.0, 0.5])
        delta = np.array([0.3, -0.2, 0.1, 1.0])
        functional = Functional.linear_point(x_star)
        before = fit_and_average_linear(X, y, models, functional)
        after = fit_and_average_linear(X, y + X @ delta, models, functional)
        assert after.value - before.value == pytest.approx(x_star @ delta, abs=1e-10)

    def test_value_is_weighted_sum(self):
        X, y, _ = _linear_data(seed=7)
        models = nested_sequence(1, 3)
        est = fit_and_average_linear(
            X, y, models, Functional.linear_point(np.array([1.0, 0.0, 1.0, 0.0])), "optimal"
        )
        assert est.value == pytest.approx(est.weights @ est.per_model, abs=1e-12)

    def test_logistic_functional_rejected(self):
        X, y, _ = _linear_data(seed=8)
        with pytest.raises(DataError):
            fit_and_average_linear(
                X, y, nested_sequence(1, 3), Functional.logistic_point(np.ones(4))
            )

    def test_predictor_matches_one_shot(self):
        X, y, _ = _linear_data(seed=9)
        models = enumerate_all_subsets(1, 3)
        predictor = LinearAveragingPredictor(X, y, models)
        for seed in range(3):
            x_star = np.concatenate([[1.0], np.random.default_rng(seed).standard_normal(3)])
            one_shot = fit_and_average_linear(
                X, y, models, Functional.linear_point(x_star), "optimal"
            )
            assert predictor.predict(x_star, "optimal").value == one_shot.value

    @pytest.mark.parametrize("scheme", ["optimal", "aic", "equal"])
    @pytest.mark.parametrize(
        "x_star",
        [np.ones(5), np.ones(3), np.ones((4, 1)), np.array([1.0, np.nan, 0.0, 0.0])],
    )
    def test_predict_validates_x_star_for_every_scheme(self, scheme, x_star):
        X, y, _ = _linear_data(seed=16)
        predictor = LinearAveragingPredictor(X, y, enumerate_all_subsets(1, 3))
        with pytest.raises(DataError):
            predictor.predict(x_star, scheme)

    def test_solution_kept_for_optimal_only(self):
        X, y, _ = _linear_data(seed=17)
        predictor = LinearAveragingPredictor(X, y, enumerate_all_subsets(1, 3))
        x_star = np.array([1.0, 0.3, -0.2, 0.9])
        est = predictor.predict(x_star, "optimal")
        assert est.solution is not None
        np.testing.assert_array_equal(est.solution.weights, est.weights)
        Q = est.q_hat.matrix
        assert est.solution.objective == pytest.approx(float(est.weights @ Q @ est.weights), rel=1e-12)
        for scheme in ("aic", "equal"):
            assert predictor.predict(x_star, scheme).solution is None


class TestFitAndAverageLogistic:
    def test_single_full_model_reduces_to_mle(self):
        rng = np.random.default_rng(10)
        X = np.column_stack([np.ones(120), rng.standard_normal((120, 2))])
        y = (rng.random(120) < expit(X @ np.array([0.2, 0.8, -0.5]))).astype(float)
        models = ModelSet([CandidateModel((0, 1), 1)], 2)
        x_star = np.array([1.0, 0.5, 0.5])
        est = fit_and_average_logistic(
            X, y, models, Functional.logistic_point(x_star), "optimal"
        )
        direct = float(expit(x_star @ logistic_mle(X, y).beta))
        assert est.value == pytest.approx(direct, abs=1e-12)
        assert est.solution is not None and est.solution.iterations == 0

    def test_symmetric_truth_near_half(self):
        rng = np.random.default_rng(11)
        n = 4000
        X = np.ones((n, 1))
        y = (rng.random(n) < 0.5).astype(float)
        models = ModelSet([CandidateModel((), 1)], 0)
        est = fit_and_average_logistic(
            X, y, models, Functional.logistic_point(np.array([1.0])), "equal"
        )
        assert est.value == pytest.approx(0.5, abs=0.05)

    def test_linear_functional_rejected(self):
        rng = np.random.default_rng(12)
        X = np.column_stack([np.ones(30), rng.standard_normal(30)])
        y = (rng.random(30) < 0.5).astype(float)
        with pytest.raises(DataError):
            fit_and_average_logistic(
                X, y, ModelSet([CandidateModel((0,), 1)], 1),
                Functional.linear_point(np.ones(2)),
            )

    def test_weights_live_on_simplex(self):
        rng = np.random.default_rng(13)
        X = np.column_stack([np.ones(150), rng.standard_normal((150, 2))])
        y = (rng.random(150) < expit(X @ np.array([0.1, 0.6, -0.3]))).astype(float)
        models = enumerate_all_subsets(1, 2)
        est = fit_and_average_logistic(
            X, y, models, Functional.logistic_point(np.array([1.0, 0.0, 0.0])), "optimal"
        )
        assert np.all(est.weights >= 0.0)
        assert np.sum(est.weights) == pytest.approx(1.0, abs=1e-9)


class TestLogisticAveragingPredictor:
    """One fit per candidate, shared by every scheme and every x*."""

    @staticmethod
    def _data(seed=15, n=150):
        rng = np.random.default_rng(seed)
        X = np.column_stack([np.ones(n), rng.standard_normal((n, 2))])
        y = (rng.random(n) < expit(X @ np.array([0.2, 0.7, -0.4]))).astype(float)
        return X, y

    @staticmethod
    def _count_fits(monkeypatch):
        calls = {"mle": 0, "pseudo": 0}

        def counted(key, fit):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fit(*args, **kwargs)

            return wrapper

        # each MLE of a factory is one Newton loop, ``_mle_fits``
        monkeypatch.setattr(mse_weights, "_mle_fits", counted("mle", mse_weights._mle_fits))
        # A pseudo-fit counts whether it is reached through mse_weights or glm_fit.
        for module in (mse_weights, glm_fit):
            monkeypatch.setattr(
                module, "logistic_pseudo_fit", counted("pseudo", module.logistic_pseudo_fit)
            )
        return calls

    @pytest.mark.parametrize("with_full", [True, False])
    def test_each_candidate_is_fit_once(self, monkeypatch, with_full):
        """K MLEs when the predictor is built and no pseudo-fit, ever.

        Q-hat reads the candidates' own MLEs, so the first ``optimal`` call
        adds only the full-model MLE, and only when the full design is not
        a candidate.  The ``aic`` and ``equal`` schemes fit nothing more.
        """
        X, y = self._data()
        models = enumerate_all_subsets(1, 2)  # the last subset is the full design
        if not with_full:
            models = ModelSet(list(models)[:-1], 2)
        K = len(models)
        calls = self._count_fits(monkeypatch)
        predictor = LogisticAveragingPredictor(X, y, models)
        assert calls == {"mle": K, "pseudo": 0}
        points = [np.array([1.0, 0.3, -0.2]), np.array([1.0, -1.1, 0.5]), np.array([1.0, 0.0, 2.0])]
        for x_star in points:
            for scheme in ("aic", "equal"):
                predictor.predict(x_star, scheme)
        assert calls == {"mle": K, "pseudo": 0}
        predictor.predict(points[0], "optimal")
        after_first = {"mle": K if with_full else K + 1, "pseudo": 0}
        assert calls == after_first
        for x_star in points:
            for scheme in ("optimal", "aic", "equal"):
                predictor.predict(x_star, scheme)
        assert calls == after_first

    @pytest.mark.parametrize("scheme", ["optimal", "aic", "equal"])
    def test_matches_one_shot(self, scheme):
        X, y = self._data(seed=16)
        models = enumerate_all_subsets(1, 2)
        predictor = LogisticAveragingPredictor(X, y, models)
        for x_star in (np.array([1.0, 0.4, 0.1]), np.array([1.0, -0.8, 1.3])):
            shared = predictor.predict(x_star, scheme)
            one_shot = fit_and_average_logistic(
                X, y, models, Functional.logistic_point(x_star), scheme
            )
            assert shared.value == one_shot.value
            np.testing.assert_array_equal(shared.weights, one_shot.weights)


class TestAicWeightsFromFactories:
    """The predictors' AIC weights are the per-model fits' AIC weights, bit for bit."""

    def test_linear_prostate_candidates(self):
        # Bit for bit against each candidate's own unstacked reduction of the
        # R factor of [X | y]; against ols_fit, which factors the candidate's
        # own n rows, the worst weight is 5.8e-14 relative.
        ds = synthetic_prostate()
        models = enumerate_all_subsets(1, 8)
        column_sets = [m.column_indices() for m in models]
        predictor = LinearAveragingPredictor(ds.design, ds.response, models)
        got = predictor.predict(ds.design[0], "aic").weights
        reduced = [reduced_ols_fit(ds.design, ds.response, column_sets, k) for k in range(len(models))]
        np.testing.assert_array_equal(got, aic_weights_reference(reduced))
        fits = [ols_fit(subset_columns(ds.design, m), ds.response, model=m) for m in models]
        np.testing.assert_allclose(got, aic_weights_reference(fits), rtol=2e-13, atol=0.0)

    def test_logistic_candidates(self):
        X, y = TestLogisticAveragingPredictor._data(seed=18)
        models = enumerate_all_subsets(1, 2)
        fits = [logistic_mle(subset_columns(X, m), y, model=m) for m in models]
        got = LogisticAveragingPredictor(X, y, models).predict(X[0], "aic").weights
        np.testing.assert_array_equal(got, aic_weights_reference(fits))


class TestExactFitAicWeights:
    """An exact fit (AIC -inf) takes the smoothed-AIC weight by the stacked rule, alone or in a stack.

    ``aic_weights`` is patched to refuse every call, so each set's weights
    must come from the one stacked rule (``mse_weights._aic_weights``);
    they are checked against the lone rule, ``aic_weights`` itself.
    """

    @pytest.fixture
    def lone_rule(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a set with an exact fit fell back to aic_weights")

        monkeypatch.setattr(averaging, "aic_weights", refuse)
        return mse_weights.aic_weights

    def test_lone_predictor_on_p_rows(self, lone_rule):
        X, y, _ = _linear_data(seed=5, n=4, q=3)
        predictor = LinearAveragingPredictor(X, y, enumerate_all_subsets(1, 3))
        estimate = predictor.predict(X[0], "aic")
        expected = lone_rule(predictor.logliks(), predictor.dims())
        assert predictor.logliks()[-1] == np.inf and expected.tolist() == [0.0] * 7 + [1.0]
        assert estimate.weights.tobytes() == expected.tobytes()
        assert estimate.value == float(expected @ estimate.per_model)

    def test_a_refused_set_raises_the_lone_error(self):
        # the stacked rule gives NaN to a set aic_weights refuses, which then raises its error
        class Fits:
            models = [None, None]
            B = np.zeros((3, 2, 1))
            logliks = np.array([[-1.0, -2.0], [np.nan, -1.0], [-np.inf, -np.inf]])
            designs = SimpleNamespace(dims=np.array([1, 2]))

            def values(self, x_star):
                return np.ones((3, 2))

            def fit_error(self, i):
                return None

        _, [fine, nan, every_bad] = averaging._average_stack(Fits(), None, [("aic",)] * 3)
        [(_, weights, _, _)] = fine
        assert weights.tobytes() == mse_weights.aic_weights(Fits.logliks[0], [1, 2]).tobytes()
        assert (type(nan), str(nan)) == (DataError, "log-likelihoods must not be NaN")
        assert str(every_bad) == "every model has an infinitely bad fit; AIC weights are undefined"

    def test_band_with_n_sub_equal_to_p(self, lone_rule, monkeypatch):
        stacks = []
        average_stack = averaging._average_stack

        def recorded(fits, x_star, schemes):
            values, results = average_stack(fits, x_star, schemes)
            stacks.append((fits, values, results))
            return values, results

        monkeypatch.setattr(averaging, "_average_stack", recorded)
        X, y = TestPredictionBand()._pool()
        band = prediction_band(
            X, y, np.array([1.0, 0.3, -0.2]), nested_sequence(1, 2),
            n_sub=3, n_reps=8, sigma=0.0, level=0.5, scheme="aic",
        )
        [(fits, values, results)] = stacks
        full = fits.designs.full
        assert np.isposinf(fits.logliks[:, full]).all()  # every full-model fit is exact
        means = []
        for i, result in enumerate(results):
            [(mean, weights, _, _)] = result
            expected = lone_rule(fits.logliks[i], fits.designs.dims)
            assert weights.tobytes() == expected.tobytes() and np.flatnonzero(expected).tolist() == [full]
            assert mean == float(expected @ values[i])
            means.append(mean)
        assert band.point == float(np.mean(means))


class TestPredictionBand:
    def _pool(self, seed=14, n=120):
        rng = np.random.default_rng(seed)
        X = np.column_stack([np.ones(n), rng.standard_normal((n, 2))])
        y = X @ np.array([1.0, 0.5, -0.5]) + rng.standard_normal(n)
        return X, y

    def test_zero_sigma_constant_pool_degenerate_band(self):
        n = 40
        X = np.ones((n, 1))
        y = np.full(n, 3.0)
        models = ModelSet([CandidateModel((), 1)], 0)
        band = prediction_band(
            X, y, np.array([1.0]), models, n_sub=20, n_reps=10, sigma=0.0, level=0.9, seed=0
        )
        assert band.lower == band.upper == band.point == pytest.approx(3.0, abs=1e-12)

    def test_band_orders_and_level(self):
        X, y = self._pool()
        models = nested_sequence(1, 2)
        band = prediction_band(
            X, y, np.array([1.0, 0.5, 0.5]), models,
            n_sub=50, n_reps=50, sigma=1.0, level=0.9, seed=1,
        )
        assert band.lower <= band.point <= band.upper
        assert band.level == 0.9

    def test_deterministic_in_seed(self):
        X, y = self._pool()
        models = nested_sequence(1, 2)
        kwargs = dict(n_sub=30, n_reps=20, sigma=0.5, level=0.8, seed=7)
        a = prediction_band(X, y, np.array([1.0, 0.0, 0.0]), models, **kwargs)
        b = prediction_band(X, y, np.array([1.0, 0.0, 0.0]), models, **kwargs)
        assert (a.point, a.lower, a.upper) == (b.point, b.lower, b.upper)

    def test_worker_count_does_not_change_band(self):
        X, y = self._pool()
        models = nested_sequence(1, 2)
        kwargs = dict(n_sub=30, n_reps=16, sigma=0.5, level=0.8, seed=9)
        serial = prediction_band(X, y, np.array([1.0, 0.5, 0.0]), models, **kwargs, workers=1)
        threaded = prediction_band(X, y, np.array([1.0, 0.5, 0.0]), models, **kwargs, workers=4)
        assert (serial.point, serial.lower, serial.upper) == (
            threaded.point,
            threaded.lower,
            threaded.upper,
        )

    def test_insufficient_pool(self):
        X, y = self._pool(n=20)
        with pytest.raises(DataError):
            prediction_band(
                X, y, np.array([1.0, 0.0, 0.0]), nested_sequence(1, 2),
                n_sub=50, n_reps=5, sigma=1.0, level=0.9, seed=0,
            )

    @pytest.mark.parametrize("sigma", [-1.0, np.nan, np.inf, -np.inf])
    def test_bad_sigma(self, sigma):
        X, y = self._pool()
        with pytest.raises(DataError, match="sigma"):
            prediction_band(
                X, y, np.array([1.0, 0.0, 0.0]), nested_sequence(1, 2),
                n_sub=20, n_reps=5, sigma=sigma, level=0.9, seed=0,
            )

    @pytest.mark.parametrize("n_reps", [0, -2])
    def test_n_reps_below_one_is_rejected_before_any_draw(self, monkeypatch, n_reps):
        def no_draw(*args):
            raise AssertionError("a subsample was drawn before n_reps was checked")

        monkeypatch.setattr(averaging, "_stack_streams", no_draw)
        X, y = self._pool()
        with pytest.raises(DataError, match=f"^n_reps must be at least 1, got {n_reps}$"):
            prediction_band(
                X, y, np.array([1.0, 0.0, 0.0]), nested_sequence(1, 2),
                n_sub=20, n_reps=n_reps, sigma=1.0, level=0.9, seed=0,
            )

    @pytest.mark.parametrize("n_sub", [0, -3])
    def test_bad_n_sub(self, n_sub):
        X, y = self._pool()
        with pytest.raises(DataError, match="n_sub"):
            prediction_band(
                X, y, np.array([1.0, 0.0, 0.0]), nested_sequence(1, 2),
                n_sub=n_sub, n_reps=5, sigma=1.0, level=0.9, seed=0,
            )

    @pytest.mark.parametrize(
        "bad, message",
        [
            ({"n_sub": 2}, "n_sub"),
            ({"scheme": "bogus"}, "scheme"),
            ({"workers": 0}, "workers"),
            ({"test_point": np.array([1.0, 0.0])}, r"x_star must be a vector of length 3, got shape \(2,\)"),
            ({"models": nested_sequence(1, 1)}, "design has 3 columns, model space needs 2"),
            ({"y_pool": np.ones(119)}, "y must be a vector with one entry per design row"),
            ({"y_pool": np.ones((120, 1))}, "y must be a vector with one entry per design row"),
            ({"y_pool": np.r_[np.ones(119), np.nan]}, "design and response must be finite"),
        ],
        ids=[
            "n_sub-below-columns", "unknown-scheme", "zero-workers", "short-test-point", "narrow-models",
            "short-response", "column-response", "non-finite-pool",
        ],
    )
    @pytest.mark.parametrize("workers", [1, 2])
    def test_bad_arguments_rejected_before_any_draw(self, monkeypatch, bad, message, workers):
        def no_draw(*args):
            raise AssertionError("a subsample was drawn before the arguments were checked")

        monkeypatch.setattr(averaging, "_stack_streams", no_draw)
        X, y = self._pool()
        kwargs = dict(
            X_pool=X,
            y_pool=y,
            test_point=np.array([1.0, 0.0, 0.0]),
            models=nested_sequence(1, 2),
            n_sub=20,
            n_reps=5,
            sigma=1.0,
            level=0.9,
            seed=0,
            workers=workers,
        ) | bad
        with pytest.raises(DataError, match=message):
            prediction_band(**kwargs)

    @pytest.mark.parametrize("size", [1, 2, 3, 5, 16, 50, 201])
    @pytest.mark.parametrize("level", [0.5, 0.8, 0.9, 0.95, 0.99])
    def test_sorted_quantile_equals_np_quantile(self, size, level):
        rng = np.random.default_rng(size)
        for _ in range(20):
            draws = rng.standard_normal(size) * 10.0 ** rng.uniform(-3, 3)
            alpha = (1.0 - level) / 2.0
            expected = np.quantile(draws, [alpha, 1.0 - alpha])
            ordered = np.sort(draws)
            got = [averaging._sorted_quantile(ordered, alpha), averaging._sorted_quantile(ordered, 1.0 - alpha)]
            assert got == expected.tolist()

    def test_bad_level(self):
        X, y = self._pool()
        with pytest.raises(DataError):
            prediction_band(
                X, y, np.array([1.0, 0.0, 0.0]), nested_sequence(1, 2),
                n_sub=20, n_reps=5, sigma=1.0, level=1.5, seed=0,
            )


@pytest.mark.parametrize(
    "fit, functional",
    [(fit_and_average_linear, Functional.linear_point), (fit_and_average_logistic, Functional.logistic_point)],
    ids=["linear", "logistic"],
)
def test_unknown_scheme_is_rejected_before_any_fit(fit, functional):
    # column 2 duplicates column 1, so the full model's fit would raise first
    X, y, _ = _linear_data(seed=19, q=2)
    X[:, 2] = X[:, 1]
    y = (y > np.median(y)).astype(float)
    with pytest.raises(DataError, match="scheme"):
        fit(X, y, nested_sequence(1, 2), functional(np.array([1.0, 0.2, -0.3])), "bogus")


@pytest.mark.parametrize(
    "predictor_class", [LinearAveragingPredictor, LogisticAveragingPredictor], ids=["linear", "logistic"]
)
def test_empty_candidate_list_raises_data_error_before_any_plug_in_fit(monkeypatch, predictor_class):
    # cv_compare builds a predictor with no candidates only to read beta_full,
    # so the constructor accepts []; asking it for weights or Q-hat does not.
    X, y = TestLogisticAveragingPredictor._data(seed=20)
    x_star = np.array([1.0, 0.3, -0.2])
    fits = []
    fit = mse_weights._mle_fits
    monkeypatch.setattr(mse_weights, "_mle_fits", lambda *a, **k: fits.append(1) or fit(*a, **k))
    predictor = predictor_class(X, y, [])
    calls = [lambda: predictor.q_form(x_star)]
    for scheme in ("optimal", "aic", "equal"):
        calls.append(lambda scheme=scheme: predictor.predict(x_star, scheme))
    if predictor_class is LogisticAveragingPredictor:
        calls.append(lambda: mse_weights.build_q_logistic(X, y, [], x_star))
    for call in calls:
        with pytest.raises(DataError):
            call()
    assert predictor._fits._plug_in is None  # no plug-in was made
    assert fits == []


def _estimate_bits(estimate):
    """Every field of an ``AveragedEstimate``, to the last bit."""
    solution = estimate.solution
    return (
        float(estimate.value).hex(),
        estimate.weights.tobytes(),
        estimate.per_model.tobytes(),
        None if estimate.q_hat is None else estimate.q_hat.matrix.tobytes(),
        None
        if solution is None
        else (solution.weights.tobytes(), solution.objective.hex(), solution.iterations, solution.kkt_residual.hex()),
    )


def _prostate(seed):
    return split(synthetic_prostate(), 67, seed=seed)


class TestPredictIsTheReference:
    """``predict``, the one-set ``_average_stack`` call, gives the factory's own answer bit for bit."""

    @pytest.mark.parametrize("scheme", ["optimal", "aic", "equal"])
    def test_prostate_rows(self, scheme):
        models = enumerate_all_subsets(1, 8)
        for seed in range(5):
            train, test = _prostate(seed)
            predictor = LinearAveragingPredictor(train.design, train.response, models)
            for x_star in test.design:
                got = predictor.predict(x_star, scheme)
                assert _estimate_bits(got) == _estimate_bits(predict_reference(predictor, x_star, scheme))
                assert (got.q_hat is None) == (got.solution is None) == (scheme != "optimal")

    @pytest.mark.parametrize("scheme", ["optimal", "aic", "equal"])
    def test_study2_logistic_rows(self, scheme):
        config = StudyConfig(
            family="logistic",
            n=100,
            beta_true=np.array([0.3, 0.1, 0.3, 0.05]),
            candidate_set=study2_model_sets()["A"],
            x_star=np.asarray(STUDY2_X_STAR),
            n_reps=30,
            seed=5,
            tags=("study2", "logistic", "A", "0.05"),
        )
        for rep in range(config.n_reps):
            predictor = LogisticAveragingPredictor(*study_draw_reference(config, rep), config.candidate_set)
            got = predictor.predict(config.x_star, scheme)
            assert _estimate_bits(got) == _estimate_bits(predict_reference(predictor, config.x_star, scheme)), rep


class TestBandStacks:
    """A band row's replications are fitted and averaged as the studies' stacks, each with its lone bits."""

    MODELS = enumerate_all_subsets(1, 8)

    @staticmethod
    def _recorded_pairs(monkeypatch):
        """The (mean, mean + noise) pairs of every replication, as the runner joins them."""
        pairs = []
        run = averaging.run_replications

        def recorded(task, n, workers):
            got = run(task, n, workers)
            pairs.extend(got)
            return got

        monkeypatch.setattr(averaging, "run_replications", recorded)
        return pairs

    @staticmethod
    def _lone_outcome(X_pool, y_pool, x_star, models, n_sub, sigma, seed, rep, scheme="optimal"):
        """Replication ``rep``'s pair from one predictor fitted to its own subsample, or its lone error."""
        rng = substream(seed, "band", rep)
        idx = rng.choice(X_pool.shape[0], size=n_sub, replace=False)
        try:
            predictor = LinearAveragingPredictor(X_pool[idx], y_pool[idx], models)
            mean = predict_reference(predictor, x_star, scheme).value
        except SingularDesignError as exc:
            return exc
        return mean, mean + rng.normal(0.0, sigma)

    def test_a_row_of_50_builds_no_seed_sequence_per_replication(self, monkeypatch):
        train, test = _prostate(3)
        seed_sequences = []
        seed_sequence = np.random.SeedSequence
        monkeypatch.setattr(np.random, "SeedSequence", lambda *args: seed_sequences.append(args) or seed_sequence(*args))
        prediction_band(train.design, train.response, test.design[0], self.MODELS, n_sub=50, sigma=0.7, seed=11)
        assert seed_sequences == []

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("n_reps", [5, 50], ids=["lone-solves", "lockstep"])
    def test_each_mean_is_its_lone_predictors(self, monkeypatch, n_reps, workers):
        train, test = _prostate(3)
        pairs = self._recorded_pairs(monkeypatch)
        lockstep = []
        solve_stack = _lockstep._solve_stack
        monkeypatch.setattr(_lockstep, "_solve_stack", lambda *forms: lockstep.append(1) or solve_stack(*forms))
        band = prediction_band(
            train.design, train.response, test.design[0], self.MODELS,
            n_sub=50, n_reps=n_reps, sigma=0.7, seed=11, workers=workers,
        )
        expected = [
            self._lone_outcome(train.design, train.response, test.design[0], self.MODELS, 50, 0.7, 11, rep)
            for rep in range(n_reps)
        ]
        assert [(a.hex(), b.hex()) for a, b in pairs] == [(a.hex(), b.hex()) for a, b in expected]
        assert band.point == float(np.mean([mean for mean, _ in expected]))
        if workers == 1:  # a forked block's solves run in its own process
            assert len(lockstep) == (n_reps >= averaging._LOCKSTEP_MIN)

    def test_prostate_designs_count_their_inverse_grams(self):
        designs = LinearAveragingPredictor._Designs(list(self.MODELS), 9)
        assert designs.kept(50) >= 256 * 81
        # the doubles cap, not the count, binds a prostate stack: 75 sets of 27,829 doubles
        assert averaging._STACK_DOUBLES // designs.kept(50) == 75 < averaging._STACK_REPS

    def test_a_row_of_80_is_cut_into_two_stacks_of_40(self, monkeypatch):
        train, test = _prostate(4)
        sizes = []
        fit_average_stack = averaging._fit_average_stack

        def recorded(designs, parts, *args):
            sizes.append(len(parts[0]))  # the stacked sets of each part
            return fit_average_stack(designs, parts, *args)

        monkeypatch.setattr(averaging, "_fit_average_stack", recorded)
        pairs = self._recorded_pairs(monkeypatch)
        prediction_band(
            train.design, train.response, test.design[1], self.MODELS, n_sub=50, n_reps=80, sigma=0.7, seed=12
        )
        assert sizes == [40, 40]
        expected = [
            self._lone_outcome(train.design, train.response, test.design[1], self.MODELS, 50, 0.7, 12, rep)
            for rep in range(80)
        ]
        assert [(a.hex(), b.hex()) for a, b in pairs] == [(a.hex(), b.hex()) for a, b in expected]

    @staticmethod
    def _collinear_pool(n=40):
        """A pool whose subsamples can make two sets of candidates singular.

        Column 1 is constant on every row but 0 and 1, and column 3
        copies column 2 on every row but 2 and 3.  A subsample without
        rows 0 and 1 makes every candidate holding column 1 exactly
        singular, and one without rows 2 and 3 every candidate holding
        columns 2 and 3; the first such candidate in list order names
        the error, so the errors tell the subsamples apart.
        """
        rng = np.random.default_rng(21)
        X = np.column_stack([np.ones(n), rng.standard_normal((n, 3))])
        X[2:, 1] = 0.7
        X[[0, 1] + list(range(4, n)), 3] = X[[0, 1] + list(range(4, n)), 2]
        return X, X @ np.array([0.5, 1.0, -0.5, 0.3]) + rng.standard_normal(n)

    def _lone_failures(self, X, y, rows, models, seeds, n_reps):
        """The lone error of every (row, rep) whose own predictor raises, keyed by (row, rep)."""
        failing = {}
        for row, (x_star, seed) in enumerate(zip(rows, seeds)):
            for rep in range(n_reps):
                outcome = self._lone_outcome(X, y, x_star, models, 20, 0.5, seed, rep)
                if isinstance(outcome, Exception):
                    failing[row, rep] = outcome
        return failing

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_singular_subsample_raises_its_lone_error(self, workers):
        X, y = self._collinear_pool()
        models = enumerate_all_subsets(1, 3)
        rows, seeds, n_reps = X[:3], [3, 4, 5], 10
        failing = self._lone_failures(X, y, rows, models, seeds, n_reps)
        first = failing[min(failing)]
        assert type(first) is SingularDesignError and first.model is not None
        # later failures name other candidates, so none could pass for the first: in the first
        # failing row's stack, and in the second half of the run (the other block at 2 workers)
        assert {error.model for (row, _), error in failing.items() if row == min(failing)[0]} == {
            CandidateModel((0,), 1), CandidateModel((1, 2), 1)
        }
        assert failing[min(key for key in failing if key >= (1, 5))].model != first.model
        with pytest.raises(SingularDesignError) as info:
            averaging._prediction_bands(
                X, y, rows, models, n_sub=20, n_reps=n_reps, sigma=0.5, level=0.9, seeds=seeds,
                scheme="optimal", workers=workers,
            )
        assert (str(info.value), info.value.model) == (str(first), first.model)
