import json
import pathlib

import numpy as np
import pytest
from scipy.special import expit

from oracles import (
    full_linear_fit,
    newton_logistic_oracle,
    pseudo_true_linear,
    reduced_guard_rejects,
    reduced_ols_fit,
)

import glmavg.glm_fit as glm_fit
from glmavg import (
    CandidateModel,
    DataError,
    LinearQFactory,
    NonConvergenceError,
    ProbVector,
    SingularDesignError,
    StudyConfig,
    enumerate_all_subsets,
    logistic_mle,
    logistic_pseudo_fit,
    ols_fit,
    synthetic_prostate,
)
from glmavg.glm_fit import expit as glmavg_expit
from glmavg.glm_fit import (
    ill_conditioned,
    lapack_inv,
    lapack_qr_r,
    lapack_singular_values,
    lapack_solve,
)
from glmavg.sim_harness import (
    STUDY1_BETA,
    STUDY1_ORACLE_SUPPORT,
    STUDY1_P_FIXED,
    simulate_cell,
    study1_model_sets,
)


class TestOlsFit:
    def test_identity_design(self):
        fit = ols_fit(np.eye(2), np.array([1.0, 2.0]))
        np.testing.assert_allclose(fit.beta, [1.0, 2.0])

    def test_noiseless_recovery(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((30, 4))
        beta0 = np.array([1.0, -2.0, 0.5, 3.0])
        fit = ols_fit(X, X @ beta0)
        np.testing.assert_allclose(fit.beta, beta0, atol=1e-10)

    def test_against_normal_equations_oracle(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((50, 3))
        y = rng.standard_normal(50)
        oracle = np.linalg.solve(X.T @ X, X.T @ y)
        np.testing.assert_allclose(ols_fit(X, y).beta, oracle, atol=1e-10)

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((80, 5))
        y = rng.standard_normal(80)
        fit = ols_fit(X, y)
        resid = y - X @ fit.beta
        assert np.max(np.abs(X.T @ resid)) <= 1e-8 * np.linalg.norm(X.T @ y)

    def test_rank_deficiency_raises_with_model(self):
        X = np.ones((10, 2))  # duplicated column
        model = CandidateModel((0,), 1)
        with pytest.raises(SingularDesignError) as excinfo:
            ols_fit(X, np.zeros(10), model=model)
        assert excinfo.value.model is model

    def test_more_columns_than_rows(self):
        with pytest.raises(SingularDesignError):
            ols_fit(np.ones((2, 3)), np.zeros(2))

    def test_design_without_columns_is_a_data_error(self, monkeypatch):
        # Raised before any factorisation: a 0 x 0 factor has no condition number.
        monkeypatch.setattr(glm_fit, "lapack_qr_r", None)
        with pytest.raises(DataError, match="no columns"):
            ols_fit(np.empty((5, 0)), np.arange(5.0))

    def test_gaussian_profile_loglik(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((40, 2))
        y = rng.standard_normal(40)
        fit = ols_fit(X, y)
        rss = np.sum((y - X @ fit.beta) ** 2)
        expected = -0.5 * 40 * (np.log(2 * np.pi * rss / 40) + 1.0)
        assert fit.loglik == pytest.approx(expected, rel=1e-12)

    def test_exact_fit_gives_infinite_loglik(self):
        fit = ols_fit(np.eye(3), np.array([1.0, 2.0, 3.0]))
        assert fit.loglik == np.inf

    def test_exactly_determined_random_design_gives_infinite_loglik(self):
        # n = d: the residual is zero, not the roundoff of a residual pass
        # (which would give a finite loglik, about 144 here)
        rng = np.random.default_rng(3)
        X = np.column_stack([np.ones(4), rng.standard_normal((4, 3))])
        fit = ols_fit(X, rng.standard_normal(4))
        assert fit.loglik == np.inf


class TestFullDesignSigma2:
    """``LinearQFactory.sigma2`` (``band``'s default sigma) from the R factor of [X | y]."""

    def test_exact_fit_zero_sigma2(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((20, 3))
        y = X @ np.array([1.0, 2.0, 3.0])
        assert LinearQFactory(X, y, []).sigma2 == pytest.approx(0.0, abs=1e-20)
        assert full_linear_fit(X, y).sigma2 == pytest.approx(0.0, abs=1e-20)

    def test_exactly_determined_design_has_sigma2_zero(self):
        # n = d: the factor of [X | y] has no row below R, so the RSS is 0, where
        # the oracle's residual pass gives roundoff (4.1e-32 on this design)
        rng = np.random.default_rng(3)
        X = np.column_stack([np.ones(4), rng.standard_normal((4, 3))])
        y = rng.standard_normal(4)
        assert LinearQFactory(X, y, []).sigma2 == 0.0
        assert 0.0 < full_linear_fit(X, y).sigma2 < 1e-28

    def test_sigma2_is_projected_noise_with_divisor_n(self):
        rng = np.random.default_rng(6)
        n = 60
        X = rng.standard_normal((n, 4))
        e = rng.standard_normal(n)
        y = X @ np.array([1.0, -1.0, 0.5, 2.0]) + e
        # projection oracle via pinv, independent of the QR path
        P = X @ np.linalg.pinv(X)
        resid_oracle = e - P @ e
        expected = np.sum(resid_oracle**2) / n
        assert LinearQFactory(X, y, []).sigma2 == pytest.approx(expected, rel=1e-10)
        assert full_linear_fit(X, y).sigma2 == pytest.approx(expected, rel=1e-10)

    def test_beta_full_is_the_full_ols_fit(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((15, 2))
        y = rng.standard_normal(15)
        factory = LinearQFactory(X, y, [])
        assert factory.beta_full.tobytes() == ols_fit(X, y).beta.tobytes()
        assert factory.sigma2 == pytest.approx(full_linear_fit(X, y).sigma2, rel=1e-12)


class TestPseudoTrueLinear:
    def test_full_model_is_identity(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((30, 3))
        beta = np.array([1.0, 2.0, -3.0])
        np.testing.assert_allclose(pseudo_true_linear(X, X, beta), beta, atol=1e-12)

    def test_orthogonal_columns_give_subvector(self):
        X = np.kron(np.eye(3), np.ones((4, 1)))  # mutually orthogonal columns
        beta = np.array([1.0, 2.0, 3.0])
        X_k = X[:, [0, 2]]
        np.testing.assert_allclose(
            pseudo_true_linear(X_k, X, beta), [1.0, 3.0], atol=1e-12
        )

    def test_correlated_two_column_design_vs_explicit_inverse(self):
        # X has columns (x1, x2); the sub-model keeps only x1.
        rng = np.random.default_rng(9)
        x1 = rng.standard_normal(50)
        x2 = 0.8 * x1 + 0.6 * rng.standard_normal(50)
        X = np.column_stack([x1, x2])
        beta = np.array([1.5, -2.0])
        # scalar normal equation: (x1'x1)^{-1} x1'(X beta)
        oracle = (x1 @ (X @ beta)) / (x1 @ x1)
        np.testing.assert_allclose(
            pseudo_true_linear(x1[:, None], X, beta), [oracle], atol=1e-10
        )

    def test_plug_in_identity(self):
        # population projection at beta_full equals the data fit of the sub-model
        rng = np.random.default_rng(10)
        X = rng.standard_normal((60, 5))
        y = rng.standard_normal(60)
        full = full_linear_fit(X, y)
        X_k = X[:, :3]
        np.testing.assert_allclose(
            pseudo_true_linear(X_k, X, full.beta_full),
            ols_fit(X_k, y).beta,
            atol=1e-10,
        )


class TestExpit:
    """glmavg's numpy sigmoid against scipy.special.expit, kept as an independent oracle."""

    def test_matches_scipy_on_a_wide_grid(self):
        edges = np.array([708.0, 709.0, 745.0])
        x = np.concatenate([np.linspace(-800.0, 800.0, 1_600_001), edges, -edges])
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            got = glmavg_expit(x)
        want = expit(x)
        assert np.max(np.abs(got - want)) <= np.finfo(float).eps
        # Below the clamp at -708 the result is e^-708 ~ 3.3e-308, not a
        # subnormal or zero, so only the absolute bound holds there.
        unclamped = x >= -708.0
        ulps = np.abs(got[unclamped].view(np.int64) - want[unclamped].view(np.int64))
        assert ulps.max() <= 4

    @pytest.mark.parametrize("x", [0.0, -3.0, np.float64(2.5), np.array(-800.0), np.array(40.0)])
    def test_zero_d_input_gives_a_float(self, x):
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            got = glmavg_expit(x)
        assert isinstance(got, float)
        assert got == pytest.approx(float(expit(x)), rel=0, abs=np.finfo(float).eps)


class TestLogisticMle:
    def test_intercept_only_closed_form(self):
        y = np.array([1.0] * 30 + [0.0] * 70)
        fit = logistic_mle(np.ones((100, 1)), y)
        assert fit.beta[0] == pytest.approx(np.log(0.3 / 0.7), abs=1e-8)

    def test_balanced_symmetric_design_near_zero(self):
        X = np.column_stack([np.ones(4), [-1.0, -1.0, 1.0, 1.0]])
        y = np.array([0.0, 1.0, 0.0, 1.0])
        fit = logistic_mle(X, y)
        np.testing.assert_allclose(fit.beta, 0.0, atol=1e-7)

    def test_against_independent_newton_oracle(self):
        rng = np.random.default_rng(12)
        X = np.column_stack([np.ones(100), rng.standard_normal(100)])
        y = (rng.random(100) < expit(X @ np.array([0.5, -1.0]))).astype(float)
        oracle = newton_logistic_oracle(X, y)
        fit = logistic_mle(X, y)
        np.testing.assert_allclose(fit.beta, oracle, atol=1e-6)

    def test_score_residual_at_convergence(self):
        rng = np.random.default_rng(13)
        X = np.column_stack([np.ones(150), rng.standard_normal((150, 2))])
        y = (rng.random(150) < expit(X @ np.array([0.2, 0.7, -0.4]))).astype(float)
        fit = logistic_mle(X, y)
        p = expit(X @ fit.beta)
        assert np.max(np.abs(X.T @ (y - p))) <= 1e-8

    def test_separation_raises(self):
        x = np.linspace(-2, 2, 20)
        X = np.column_stack([np.ones(20), x])
        y = (x > 0).astype(float)  # perfectly separated
        with pytest.raises(NonConvergenceError):
            logistic_mle(X, y)

    def test_loglik_recorded(self):
        rng = np.random.default_rng(14)
        X = np.column_stack([np.ones(50), rng.standard_normal(50)])
        y = (rng.random(50) < 0.5).astype(float)
        fit = logistic_mle(X, y)
        eta = X @ fit.beta
        expected = float(y @ eta - np.sum(np.logaddexp(0.0, eta)))
        assert fit.loglik == pytest.approx(expected, rel=1e-12)

    def test_rejects_non_binary_response(self):
        with pytest.raises(DataError):
            logistic_mle(np.ones((3, 1)), np.array([0.0, 0.5, 1.0]))

    def test_degenerate_response_fails_before_any_newton_step(self, monkeypatch):
        # all outcomes equal: y alone shows that no MLE exists, so no Hessian is solved
        solves = []
        solve = glm_fit.lapack_solve
        monkeypatch.setattr(glm_fit, "lapack_solve", lambda *args: solves.append(args) or solve(*args))
        rng = np.random.default_rng(39)
        X = np.column_stack([np.ones(100), rng.standard_normal((100, 3))])
        model = CandidateModel((0, 1, 2), 1)
        with pytest.raises(NonConvergenceError) as caught:
            logistic_mle(X, np.ones(100), model=model)
        assert str(caught.value) == glm_fit._DEGENERATE_MESSAGE
        assert caught.value.model is model and caught.value.iterations == 0
        assert solves == []

    def test_a_degenerate_slice_leaves_the_others_their_lone_fits(self):
        rng = np.random.default_rng(40)
        X = np.concatenate([np.ones((5, 60, 1)), rng.standard_normal((5, 60, 2))], axis=-1)
        Y = (rng.random((5, 60)) < expit(X @ np.array([0.2, 0.8, -0.5]))).astype(float)
        Y[2] = 0.0
        beta, loglik, iterations, failures = glm_fit._mle_fits(X, Y)
        assert list(failures) == [(2,)] and iterations[2] == 0
        assert str(failures[(2,)]) == glm_fit._DEGENERATE_MESSAGE and failures[(2,)].iterations == 0
        for j in (0, 1, 3, 4):
            lone = logistic_mle(X[j], Y[j])
            assert beta[j].tobytes() == lone.beta.tobytes(), j
            assert float(loglik[j]).hex() == lone.loglik.hex() and iterations[j] == lone.iterations, j


class TestLogisticPseudoFit:
    def test_recovers_representable_target(self):
        rng = np.random.default_rng(15)
        X = np.column_stack([np.ones(80), rng.standard_normal((80, 2))])
        beta0 = np.array([0.3, -0.7, 1.1])
        fit = logistic_pseudo_fit(X, expit(X @ beta0))
        np.testing.assert_allclose(fit.beta, beta0, atol=1e-8)

    def test_intercept_only_matches_logit_of_mean(self):
        rng = np.random.default_rng(16)
        target = rng.uniform(0.2, 0.8, size=40)
        fit = logistic_pseudo_fit(np.ones((40, 1)), target)
        assert fit.beta[0] == pytest.approx(
            np.log(target.mean() / (1 - target.mean())), abs=1e-8
        )

    def test_score_residual_at_convergence(self):
        rng = np.random.default_rng(17)
        X = np.column_stack([np.ones(60), rng.standard_normal((60, 2))])
        target = rng.uniform(0.1, 0.9, size=60)
        fit = logistic_pseudo_fit(X, target)
        assert np.max(np.abs(X.T @ (target - expit(X @ fit.beta)))) <= 1e-8
        assert fit.iterations >= 1

    def test_accepts_prob_vector_type(self):
        target = ProbVector(np.full(10, 0.4))
        fit = logistic_pseudo_fit(np.ones((10, 1)), target)
        assert fit.beta[0] == pytest.approx(np.log(0.4 / 0.6), abs=1e-8)

    def test_rejects_out_of_range_target(self):
        with pytest.raises(DataError):
            logistic_pseudo_fit(np.ones((3, 1)), np.array([0.2, 1.0, 0.4]))


@pytest.mark.parametrize(
    "fit, target, label",
    [
        (logistic_mle, np.tile([0.0, 1.0, 1.0], 20), "logistic fit"),
        (logistic_pseudo_fit, np.tile([0.2, 0.6, 0.9], 20), "logistic pseudo-fit"),
    ],
    ids=["mle", "pseudo"],
)
def test_iteration_cap_raises_with_its_count(monkeypatch, fit, target, label):
    X = np.column_stack([np.ones(60), np.linspace(-1.0, 1.0, 60)])
    assert fit(X, target).iterations > 2
    model = CandidateModel((0,), 1)
    monkeypatch.setattr(glm_fit, "MAX_ITER", 2)
    with pytest.raises(NonConvergenceError) as info:
        fit(X, target, model=model)
    assert str(info.value) == f"{label} did not converge in 2 iterations"
    assert info.value.iterations == 2
    assert info.value.model == model


@pytest.mark.parametrize(
    "fit, target, message",
    [
        (
            logistic_mle,
            (np.linspace(-2, 2, 20) > 0).astype(float),
            "logistic fit diverged (possible separation): |beta|_inf > 30 after 8 iterations",
        ),
        (
            logistic_pseudo_fit,
            np.where(np.linspace(-2, 2, 20) > 0, 1.0 - 1e-15, 1e-15),
            "logistic pseudo-fit diverged: |beta|_inf > 30 after 8 iterations",
        ),
    ],
    ids=["mle", "pseudo"],
)
def test_divergence_guard_raises(fit, target, message):
    # perfectly separated targets: the coefficients grow past BETA_BOUND
    X = np.column_stack([np.ones(20), np.linspace(-2, 2, 20)])
    with pytest.raises(NonConvergenceError) as info:
        fit(X, target)
    assert str(info.value) == message
    assert info.value.iterations == int(message.rsplit(" ", 2)[1])


LOGISTIC_GOLDEN = json.loads(
    (pathlib.Path(__file__).resolve().parent / "data" / "logistic_golden.json").read_text()
)


def _golden_problem(seed, hard):
    """The design, 0/1 response and target probabilities of one ``logistic_golden`` entry.

    ``hard`` problems have Cauchy covariates and large coefficients, so
    that some fits halve the Newton step, hit the iteration cap or run
    past the divergence guard.
    """
    rng = np.random.default_rng([2018, seed])
    n = int(rng.integers(20, 201))
    d = int(rng.integers(1, 6))
    columns = rng.standard_t(1.0, (n, d - 1)) if hard else rng.standard_normal((n, d - 1))
    X = np.column_stack([np.ones(n), columns])
    scale = rng.uniform(3.0, 8.0) if hard else rng.uniform(0.5, 3.0)
    eta = X @ (scale * rng.standard_normal(d))
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-np.clip(eta, -30.0, 30.0)))).astype(float)
    eta_t = np.clip(eta + rng.standard_normal(n), -30.0, 30.0)
    floor = 1e-8 if hard else 1e-3
    target = np.clip(1.0 / (1.0 + np.exp(-eta_t)), floor, 1.0 - floor)
    return X, y, target


@pytest.mark.parametrize("kind", ["mle", "pseudo"])
def test_fits_replay_logistic_golden(kind):
    """Both logistic solves replayed bit for bit against ``logistic_golden.json``.

    The file was written by the two hand-written Newton loops that came
    before the shared ``_damped_newton``: 200 ordinary problems, plus
    hard ones whose line search halved the step (``halvings`` > 0) or
    that raised.  Each entry holds ``beta`` (``float.hex``), ``loglik``
    and ``iterations``, or the error's class, message and iterations.
    """
    fit = logistic_mle if kind == "mle" else logistic_pseudo_fit
    rows = LOGISTIC_GOLDEN[kind]
    assert sum(row.get("halvings", 0) > 0 for row in rows) >= 10
    for row in rows:
        X, y, target = _golden_problem(row["seed"], row["hard"])
        where = (kind, row["seed"], row["hard"])
        if "error" in row:
            with pytest.raises(NonConvergenceError) as info:
                fit(X, y if kind == "mle" else target)
            assert type(info.value).__name__ == row["error"], where
            assert str(info.value) == row["message"], where
            assert info.value.iterations == row["iterations"], where
            continue
        result = fit(X, y if kind == "mle" else target)
        assert [float(b).hex() for b in result.beta] == row["beta"], where
        assert float(result.loglik).hex() == row["loglik"], where
        assert result.iterations == row["iterations"], where


def _stack_around(problem, at, size, seed, kind):
    """A stack of ``size`` problems of ``problem``'s (n, d) with ``problem`` at position ``at``.

    The others are fresh ordinary draws: a 0/1 response for the MLE, a
    target in (0.05, 0.95) for the pseudo-fit.
    """
    X, v = problem
    n, d = X.shape
    rng = np.random.default_rng([29, seed])
    Xs = np.concatenate([np.ones((size, n, 1)), rng.standard_normal((size, n, d - 1))], axis=-1)
    p = glmavg_expit(np.matvec(Xs, rng.uniform(-1.5, 1.5, (size, d))))
    vs = (rng.random((size, n)) < p).astype(float) if kind == "mle" else np.clip(p, 0.05, 0.95)
    Xs[at], vs[at] = X, v
    return Xs, vs


@pytest.mark.parametrize("position", ["first", "middle"])
@pytest.mark.parametrize("kind", ["mle", "pseudo"])
def test_golden_fits_replay_as_one_slice_of_a_stack(kind, position):
    """Every ``logistic_golden.json`` problem as one slice of a stack of 5 of its (n, d).

    The slices run through one lockstep Newton loop; the golden slice
    keeps its bits, its iteration count, and its error's class, message
    and iterations, whatever its neighbours do, and every other slice
    gives what its own lone fit gives.
    """
    at = 0 if position == "first" else 2
    lone_fit = logistic_mle if kind == "mle" else logistic_pseudo_fit
    for row in LOGISTIC_GOLDEN[kind]:
        X, y, target = _golden_problem(row["seed"], row["hard"])
        Xs, vs = _stack_around((X, y if kind == "mle" else target), at, 5, row["seed"] + 1000 * row["hard"], kind)
        where = (kind, row["seed"], row["hard"], position)
        if kind == "mle":
            beta, loglik, iterations, failures = glm_fit._mle_fits(Xs, vs)
        else:
            beta, eta, _, iterations, failures = glm_fit._damped_newton(
                Xs, vs, lambda eta, size: size, model=None, label="logistic pseudo-fit"
            )
            loglik = glm_fit._bernoulli_loglik(eta, vs)
        if "error" in row:
            error = failures[(at,)]
            assert type(error).__name__ == row["error"], where
            assert str(error) == row["message"], where
            assert error.iterations == row["iterations"], where
            continue
        assert (at,) not in failures, where
        assert [float(b).hex() for b in beta[at]] == row["beta"], where
        assert float(loglik[at]).hex() == row["loglik"], where
        assert iterations[at] == row["iterations"], where
        for j in range(5):
            try:
                lone = lone_fit(Xs[j], vs[j])
            except NonConvergenceError as exc:
                assert str(failures[(j,)]) == str(exc), (where, j)
                continue
            assert beta[j].tobytes() == lone.beta.tobytes() and iterations[j] == lone.iterations, (where, j)


@pytest.mark.filterwarnings("error")
class TestBernoulliMerit:
    """The line search's cheap merit is -loglik to a tenth of the step's slack; the fit's loglik stays exact."""

    @staticmethod
    def _assert_close(value, exact, where):
        if np.isnan(exact):
            assert np.isnan(value), where
        elif np.isinf(exact):
            assert value == exact, where
        else:
            assert abs(value - exact) <= 1e-13 * (1.0 + abs(exact)), where

    def test_on_every_golden_iterate(self, monkeypatch):
        seen = []
        merit = glm_fit._bernoulli_merit

        def recorded(eta, y):
            value = merit(eta, y)
            seen.append((eta.copy(), y, value))
            return value

        monkeypatch.setattr(glm_fit, "_bernoulli_merit", recorded)
        for kind in ("mle", "pseudo"):
            for row in LOGISTIC_GOLDEN[kind]:
                X, y, _ = _golden_problem(row["seed"], row["hard"])
                try:
                    logistic_mle(X, y)
                except NonConvergenceError:
                    pass
        assert len(seen) > 8000
        for j, (eta, y, value) in enumerate(seen):
            self._assert_close(value, -glm_fit._bernoulli_loglik(eta, y), j)

    @pytest.mark.parametrize("y", [0.0, 1.0, 0.25])
    def test_on_extreme_and_non_finite_eta(self, y):
        etas = [np.inf, -np.inf, np.nan, 800.0, -800.0, 1e-300, -1e-300, 0.0]
        with np.errstate(invalid="ignore"):
            for eta in etas:
                one = np.array([eta])
                exact = -glm_fit._bernoulli_loglik(one, np.array([y]))
                self._assert_close(glm_fit._bernoulli_merit(one, np.array([y])), exact, eta)
            everything = np.array(etas)
            assert np.isnan(glm_fit._bernoulli_merit(everything, np.full(len(etas), y)))

    def test_the_returned_loglik_is_the_exact_form_on_the_final_eta(self):
        X, y, _ = _golden_problem(3, False)
        beta, loglik, _, failures = glm_fit._mle_fits(X, y)
        assert not failures
        assert loglik.tobytes() == glm_fit._bernoulli_loglik(np.matvec(X, beta), y).tobytes()


class TestLapackSolve:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_equals_numpy_solve_bitwise(self, n):
        # The helper calls numpy's private gufunc; this pins that it is still
        # the routine behind np.linalg.solve.
        rng = np.random.default_rng(700 + n)
        for _ in range(20):
            M = rng.standard_normal((n, n))
            A = M @ M.T + n * np.eye(n)
            b = rng.standard_normal(n)
            assert lapack_solve(A, b).tobytes() == np.linalg.solve(A, b).tobytes()

    def test_singular_system_gives_nan_without_a_warning(self):
        with np.errstate(invalid="ignore"):
            x = lapack_solve(np.ones((3, 3)), np.ones(3))
        assert np.isnan(x).all()


def _stacks(seed, shape, count=20):
    # Random stacks of ``shape``, each also as a transposed, non-contiguous view.
    rng = np.random.default_rng(seed)
    for _ in range(count):
        yield rng.standard_normal(shape)
        yield rng.standard_normal(shape[:-2] + shape[:-3:-1]).swapaxes(-1, -2)


# The fit path's shapes: the n-row [X_U | y], a stack of (p + 1) x (d + 1)
# reductions of its R factor, a stack of d x d factors, and 1 x 1.
HELPER_SHAPES = [(1000, 11), (67, 10), (4, 10, 5), (5, 4, 4), (3, 1, 1), (1, 1)]


@pytest.mark.filterwarnings("error")
class TestLapackHelpers:
    """Each helper against its np.linalg wrapper, bit for bit: the gufuncs are private numpy names."""

    @pytest.mark.parametrize("shape", HELPER_SHAPES, ids=str)
    def test_qr_r_equals_numpy_qr_bitwise(self, shape):
        for A in _stacks(710, shape):
            expected = np.linalg.qr(A, mode="r")
            assert lapack_qr_r(A).tobytes() == expected.tobytes()  # overwrites A

    @pytest.mark.parametrize("shape", HELPER_SHAPES, ids=str)
    def test_singular_values_equal_numpy_svd_bitwise(self, shape):
        for A in _stacks(720, shape):
            expected = np.linalg.svd(A, compute_uv=False)
            assert lapack_singular_values(A).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("shape", [s for s in HELPER_SHAPES if s[-1] == s[-2]], ids=str)
    def test_inv_and_solve_equal_numpy_bitwise(self, shape):
        rng = np.random.default_rng(730)
        for A in _stacks(731, shape):
            b = rng.standard_normal(shape[:-1] + (1,))
            assert lapack_inv(A).tobytes() == np.linalg.inv(A).tobytes()
            assert lapack_solve(A, b).tobytes() == np.linalg.solve(A, b).tobytes()

    def test_qr_r_overwrites_its_input_and_returns_a_view(self):
        A = np.random.default_rng(740).standard_normal((3, 6, 4))
        R = lapack_qr_r(A)
        assert R.shape == (3, 4, 4) and np.shares_memory(R, A)
        assert np.all(np.tril(R, -1) == 0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_ill_conditioned_rejects_a_non_finite_factor(self, bad):
        R = np.stack([np.eye(3), np.eye(3)])
        R[1, 1, 1] = bad
        with np.errstate(invalid="ignore"):
            assert ill_conditioned(R).tolist() == [False, True]
            assert ill_conditioned(np.full((2, 2), np.nan))

    def test_a_failed_back_substitution_is_a_singular_design_error(self, monkeypatch):
        # LAPACK reports a failed solve as NaN; the fit turns that into the design's error.
        monkeypatch.setattr(glm_fit, "lapack_solve", lambda A, b: np.full(b.shape, np.nan))
        X = np.column_stack([np.ones(20), np.arange(20.0)])
        with pytest.raises(SingularDesignError, match="rank deficient"):
            ols_fit(X, np.arange(20.0) ** 2)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "fit, target",
    [(logistic_mle, np.array([0.0, 1.0, 1.0, 1.0, 1.0, 0.0])), (logistic_pseudo_fit, np.full(6, 0.7))],
    ids=["mle", "pseudo"],
)
def test_duplicate_columns_give_singular_hessian(fit, target):
    # Two equal columns make X'WX exactly singular at the first Newton step.
    model = CandidateModel((0,), 1)
    with pytest.raises(SingularDesignError, match="singular Hessian") as info:
        fit(np.ones((6, 2)), target, model=model)
    assert info.value.model == model


class TestProbVector:
    def test_validates_open_interval(self):
        with pytest.raises(DataError):
            ProbVector(np.array([0.0, 0.5]))
        with pytest.raises(DataError):
            ProbVector(np.array([0.5, 1.0]))

    def test_frozen(self):
        pv = ProbVector(np.array([0.25, 0.75]))
        with pytest.raises(ValueError):
            pv.probs[0] = 0.5


def _inputs():
    rng = np.random.default_rng(40)
    X = np.column_stack([np.ones(30), rng.standard_normal((30, 2))])
    return {
        "X": X,
        "y": rng.standard_normal(30),
        "y01": np.tile([0.0, 1.0, 1.0], 10),
        "p": rng.uniform(0.2, 0.8, size=30),
    }


FIT_CALLS = [
    ("ols_fit", lambda a: ols_fit(a["X"], a["y"]), "X"),
    ("ols_fit", lambda a: ols_fit(a["X"], a["y"]), "y"),
    ("LinearQFactory", lambda a: LinearQFactory(a["X"], a["y"], []), "X"),
    ("LinearQFactory", lambda a: LinearQFactory(a["X"], a["y"], []), "y"),
    ("logistic_mle", lambda a: logistic_mle(a["X"], a["y01"]), "X"),
    ("logistic_pseudo_fit", lambda a: logistic_pseudo_fit(a["X"], a["p"]), "X"),
]


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize(
    "call, field", [(c, f) for _, c, f in FIT_CALLS], ids=[f"{n}-{f}" for n, _, f in FIT_CALLS]
)
def test_non_finite_input_is_a_data_error(call, field, bad):
    args = _inputs()
    call(args)  # the finite inputs fit
    args[field][1] = bad
    with pytest.raises(DataError, match="must be finite"):
        call(args)


def _count_svds(monkeypatch):
    calls = []
    svd = glm_fit.lapack_singular_values

    def counted(a):
        calls.append(np.shape(a))
        return svd(a)

    monkeypatch.setattr(glm_fit, "lapack_singular_values", counted)
    return calls


def _per_group_svds(column_sets, n):
    # What the guard alone costs: one stacked SVD per model size that has enough rows.
    return len({len(cols) for cols in column_sets if len(cols) <= n})


def _near_collinear(seed):
    # An intercept and q N(0, 1) columns, one of them moved to within about
    # 1 / scale of another: condition numbers from about 1e6 to 1e12.
    rng = np.random.default_rng([26, seed])
    n, q = int(rng.integers(12, 80)), int(rng.integers(2, 6))
    Z = rng.standard_normal((n, q))
    i, j = rng.choice(q, 2, replace=False)
    Z[:, j] = Z[:, i] + Z[:, j] / 10 ** rng.uniform(6, 12)
    return np.column_stack([np.ones(n), Z]), rng.standard_normal(n)


class TestUnionGuard:
    """One SVD of X_U's factor certifies every candidate; otherwise each model size is guarded."""

    @staticmethod
    def _check_against_each_candidate_alone(X, y, monkeypatch):
        # The fit's verdict on every candidate equals the guard asked of that
        # candidate alone, and a fitted candidate keeps the reduction's bits.
        column_sets = [m.column_indices() for m in enumerate_all_subsets(1, X.shape[1] - 1)]
        calls = _count_svds(monkeypatch)
        B, _, _, failures = glm_fit._least_squares(X, y, column_sets)
        monkeypatch.undo()
        expected = [k for k in range(len(column_sets))
                    if reduced_guard_rejects(X, y, column_sets, k, glm_fit.COND_LIMIT)]
        assert sorted(k for k, _ in failures) == expected
        if not failures:
            for k, cols in enumerate(column_sets):
                assert np.array_equal(B[k, cols], reduced_ols_fit(X, y, column_sets, k).beta)
        assert len(calls) <= _per_group_svds(column_sets, X.shape[0])
        R_U = np.linalg.qr(X, mode="r")
        certified = np.linalg.cond(R_U) <= glm_fit.UNION_COND_LIMIT
        if certified:
            assert len(calls) == 1
        return certified, bool(failures)

    def test_union_verdict_on_the_hard_golden_designs(self, monkeypatch):
        # Cauchy covariates, fitted as linear designs on their 0/1 responses.
        outcomes = set()
        for kind in ("mle", "pseudo"):
            for row in LOGISTIC_GOLDEN[kind]:
                if row["hard"]:
                    X, y, _ = _golden_problem(row["seed"], True)
                    outcomes.add(self._check_against_each_candidate_alone(X, y, monkeypatch))
        assert (True, False) in outcomes

    def test_union_verdict_on_near_collinear_designs(self, monkeypatch):
        outcomes = [self._check_against_each_candidate_alone(*_near_collinear(seed), monkeypatch)
                    for seed in range(60)]
        # certified, guarded by size and fitted, guarded by size and failed: all occur
        assert {(True, False), (False, False), (False, True)} <= set(outcomes)

    def test_union_failing_the_margin_still_fits(self, monkeypatch):
        # Columns 1 and 2 are nearly collinear (cond about 1e8, past the
        # union's margin) but no candidate holds both, so every one fits.
        rng = np.random.default_rng(2601)
        n = 40
        z = rng.standard_normal((n, 3))
        X = np.column_stack([np.ones(n), z[:, 0], z[:, 0] + 1e-8 * z[:, 1], z[:, 2]])
        y = rng.standard_normal(n)
        models = [CandidateModel(inc, 1) for inc in [(0,), (1,), (0, 2), (1, 2), ()]]
        assert glm_fit.UNION_COND_LIMIT < np.linalg.cond(X) <= glm_fit.COND_LIMIT
        calls = _count_svds(monkeypatch)
        factory = LinearQFactory(X, y, models)
        column_sets = [m.column_indices() for m in models] + [list(range(4))]
        assert len(calls) == _per_group_svds(column_sets, n) == 4
        for k, beta in enumerate(factory.model_betas()):
            assert np.array_equal(beta, reduced_ols_fit(X, y, column_sets, k).beta)

    def test_first_failing_candidate_is_named_in_list_order(self):
        # Column 2 is twice column 1.  Candidate 2 (size 3) fails before
        # candidate 1 (size 4) is checked, but candidate 1 is named.
        rng = np.random.default_rng(2602)
        z = rng.standard_normal((30, 2))
        X = np.column_stack([np.ones(30), z[:, 0], 2.0 * z[:, 0], z[:, 1]])
        models = [CandidateModel((0, 2), 1), CandidateModel((0, 1, 2), 1), CandidateModel((0, 1), 1)]
        with pytest.raises(SingularDesignError, match="rank deficient") as info:
            LinearQFactory(X, rng.standard_normal(30), models)
        assert info.value.model is models[1]

    @pytest.mark.parametrize("n", [3, 4])
    def test_without_a_spare_row_each_size_is_guarded(self, monkeypatch, n):
        # n < |U| + 1: R_aug has no row below R_U, so the union is not
        # checked; sets of more than n columns need more rows.
        rng = np.random.default_rng(2603)
        X = np.column_stack([np.ones(n), rng.standard_normal((n, 3))])
        y = rng.standard_normal(n)
        column_sets = [m.column_indices() for m in enumerate_all_subsets(1, 3)]
        calls = _count_svds(monkeypatch)
        B, rss, _, failures = glm_fit._least_squares(X, y, column_sets)
        assert len(calls) == _per_group_svds(column_sets, n) == n
        assert failures == [(7, f"need n >= d, got n={n}, d=4")] * (n == 3)
        if n == 4:
            for k, cols in enumerate(column_sets):
                assert np.array_equal(B[k, cols], reduced_ols_fit(X, y, column_sets, k).beta)
            assert rss[-1] == 0.0

    def test_one_svd_per_prostate_fit_and_study1_replication(self, monkeypatch):
        calls = _count_svds(monkeypatch)
        ds = synthetic_prostate()
        models = enumerate_all_subsets(1, 8)
        LinearQFactory(ds.design, ds.response, models)
        assert len(calls) == 1  # the guard alone: 9, one per model size
        assert _per_group_svds([m.column_indices() for m in models], 67) == 9
        calls.clear()
        config = StudyConfig(
            family="linear",
            n=1000,
            beta_true=np.asarray(STUDY1_BETA),
            candidate_set=study1_model_sets()["A"],
            x_star=np.linspace(-1.0, 1.0, 10),
            n_reps=5,
            seed=0,
            oracle=CandidateModel(STUDY1_ORACLE_SUPPORT, STUDY1_P_FIXED),
        )
        simulate_cell(config)
        # one SVD of the 10 x 10 union factor per replication, all 5 in one stacked call
        assert calls == [(5, 10, 10)]  # the guard alone: 6 per replication
        assert _per_group_svds([m.column_indices() for m in config.candidate_set], 1000) == 6
