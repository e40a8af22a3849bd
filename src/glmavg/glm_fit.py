"""Per-model estimation for the linear and logistic families.

Linear solves go through a rank-revealing QR factorisation (never an
explicit inverse); a condition number above ``COND_LIMIT`` raises
``SingularDesignError``.  The triangular system R beta = Q'y goes to
``np.linalg.solve``: its partial-pivoting LU leaves an upper-triangular
R unpivoted and unchanged, so the solve is back substitution on R.
Logistic fits use damped Newton iterations: full steps with step
halving whenever the candidate step fails to improve the merit quantity
(log-likelihood for the MLE, score-residual norm for the pseudo-fit),
stopping when the score's infinity norm drops below ``SCORE_TOL``.

Two distinct logistic solves exist on purpose:

* ``logistic_mle`` fits 0/1 data by maximum likelihood,
* ``logistic_pseudo_fit`` solves the score equation against a vector of
  *target probabilities* (the full-model fitted probabilities, when
  estimating the averaged estimator's mean squared error), i.e. the
  population projection of one model onto another.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import DataError, NonConvergenceError, SingularDesignError
from .model_space import CandidateModel

COND_LIMIT = 1e10
SCORE_TOL = 1e-8
MAX_ITER = 100
BETA_BOUND = 30.0  # separation guard: |beta|_inf above this means a diverging fit
_MAX_HALVINGS = 40
RANK_DEFICIENT_MESSAGE = f"design is numerically rank deficient (condition number > {COND_LIMIT:g})"


@dataclass(frozen=True)
class FitResult:
    """One model's fit on its own columns: coefficients, log-likelihood, dimension.

    ``beta`` has one entry per column of the model's design.  The
    zero-padded, full-length coefficients of a whole candidate set live in
    ``LinearQFactory`` and ``LogisticQFactory``.
    """

    beta: np.ndarray
    loglik: float
    dim: int
    converged: bool = True
    iterations: int = 0

    def __post_init__(self):
        arr = np.array(self.beta, dtype=float)
        arr.flags.writeable = False
        object.__setattr__(self, "beta", arr)


@dataclass(frozen=True)
class LinearFullFit:
    """Full-design OLS fit with the divisor-n residual variance."""

    beta_full: np.ndarray
    sigma2: float
    fitted: np.ndarray


@dataclass(frozen=True)
class ProbVector:
    """Probability vector constrained to the open interval (0, 1)."""

    probs: np.ndarray

    def __post_init__(self):
        arr = np.array(self.probs, dtype=float)
        if arr.ndim != 1:
            raise DataError("probs must be a 1-d vector")
        if not (np.all(arr > 0.0) and np.all(arr < 1.0)):
            raise DataError("probabilities must lie strictly inside (0, 1)")
        arr.flags.writeable = False
        object.__setattr__(self, "probs", arr)


# ---------------------------------------------------------------------------
# numerical helpers
# ---------------------------------------------------------------------------


def expit(x):
    """Logistic sigmoid 1 / (1 + e^-x), elementwise, without overflow.

    Clamping x at -708 keeps e^-x finite, so no overflow, invalid or
    divide warning is raised; below the clamp the result is
    e^-708 ~ 3.3e-308 instead of a smaller subnormal or zero.  Above it
    the result is within 4 ulp of ``scipy.special.expit`` (the tests
    check this on a grid over [-800, 800]).  A 0-d input gives a float.
    """
    return 1.0 / (1.0 + np.exp(-np.maximum(x, -708.0)))


def require_finite(name: str, *arrays: np.ndarray) -> None:
    """Raise ``DataError`` unless every entry of every array is finite."""
    if not all(np.isfinite(arr).all() for arr in arrays):
        raise DataError(f"{name} must be finite")


def lapack_solve(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with A x = b for a square float matrix A and a vector b, by LAPACK ``gesv``.

    This is the gufunc ``np.linalg.solve`` itself calls for a 1-d b
    (``numpy.linalg._umath_linalg.solve1``, signature ``dd->d``), without
    the wrapper's argument checks and its ``errstate`` block, so x is
    ``np.linalg.solve``'s to the last bit at about a fifth of the cost on
    a small system (1.6 against 8.2 us on 8 x 8).  An exactly singular A
    gives all-NaN x and sets the floating-point invalid flag instead of
    raising ``LinAlgError``: call it under
    ``np.errstate(invalid="ignore")`` and map a non-finite x to the
    caller's own error.  The gufunc is a private numpy name;
    ``tests/test_glm_fit.py`` pins it bitwise against ``np.linalg.solve``.
    """
    return _umath_linalg.solve1(A, b, signature="dd->d")


def qr_factor(X: np.ndarray, model: CandidateModel | None = None):
    """Reduced QR of a design matrix with a condition-number guard."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise DataError("design matrix must be 2-d")
    require_finite("design matrix", X)
    n, d = X.shape
    if n < d:
        raise SingularDesignError(f"need n >= d, got n={n}, d={d}", model=model)
    Q, R = np.linalg.qr(X)
    if ill_conditioned(R):
        raise SingularDesignError(RANK_DEFICIENT_MESSAGE, model=model)
    return Q, R


def ill_conditioned(R: np.ndarray) -> np.ndarray:
    """Condition guard on R factors stacked along the leading axes (True = reject)."""
    s = np.linalg.svd(R, compute_uv=False)
    return (s[..., -1] <= 0) | (s[..., 0] > COND_LIMIT * s[..., -1])


def _gaussian_profile_loglik(rss, n: int):
    # Profile log-likelihood at sigma2 = RSS/n, elementwise; +inf for an exact fit (RSS = 0).
    with np.errstate(divide="ignore"):
        return -0.5 * n * (np.log(2.0 * np.pi * np.asarray(rss, dtype=float) / n) + 1.0)


# ---------------------------------------------------------------------------
# linear family
# ---------------------------------------------------------------------------


def ols_fit(
    X_k: np.ndarray,
    y: np.ndarray,
    *,
    model: CandidateModel | None = None,
) -> FitResult:
    """Least-squares fit of one candidate model's design.

    ``X_k`` holds the model's own columns (``subset_columns``), and the
    result's ``beta`` is in that order.  ``model`` only names the
    candidate in a ``SingularDesignError``.  The log-likelihood is the
    Gaussian profile one at sigma^2 = RSS/n (+inf for an exact fit).
    """
    X_k = np.asarray(X_k, dtype=float)
    y = np.asarray(y, dtype=float)
    if y.ndim != 1 or y.shape[0] != X_k.shape[0]:
        raise DataError("y must be a vector with one entry per design row")
    require_finite("response", y)
    Q, R = qr_factor(X_k, model=model)
    beta = np.linalg.solve(R, Q.T @ y)
    rss = float(np.sum((y - X_k @ beta) ** 2))
    return FitResult(
        beta=beta,
        loglik=_gaussian_profile_loglik(rss, X_k.shape[0]),
        dim=X_k.shape[1],
    )


def full_linear_fit(X: np.ndarray, y: np.ndarray) -> LinearFullFit:
    """OLS on the full design; residual variance uses divisor n, not n-d."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    beta = ols_fit(X, y).beta
    fitted = X @ beta
    sigma2 = float(np.mean((y - fitted) ** 2))
    return LinearFullFit(beta_full=beta, sigma2=sigma2, fitted=fitted)


def pseudo_true_linear(X_k: np.ndarray, X: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Population least-squares projection of the full-model mean onto model k.

    Returns (X_k'X_k)^{-1} X_k' X beta — the coefficient vector at which
    model k's expected score vanishes when the full-design mean is X beta.
    """
    X = np.asarray(X, dtype=float)
    beta = np.asarray(beta, dtype=float)
    if beta.shape[0] != X.shape[1]:
        raise DataError("beta length must match the full design's column count")
    require_finite("full design and coefficients", X, beta)
    Q, R = qr_factor(np.asarray(X_k, dtype=float))
    return np.linalg.solve(R, Q.T @ (X @ beta))


# ---------------------------------------------------------------------------
# logistic family
# ---------------------------------------------------------------------------


def _bernoulli_loglik(eta: np.ndarray, y: np.ndarray) -> float:
    # sum_i [ y_i eta_i - log(1 + e^eta_i) ], with soft y allowed.
    return float(y @ eta - np.sum(np.logaddexp(0.0, eta)))


def _newton_direction(X, weights, score, model):
    H = (X * weights[:, None]).T @ X
    with np.errstate(invalid="ignore"):
        direction = lapack_solve(H, score)
    if not np.isfinite(direction).all():
        raise SingularDesignError("singular Hessian in logistic fit (rank-deficient design)", model=model)
    return direction


def logistic_mle(
    X_k: np.ndarray,
    y: np.ndarray,
    *,
    model: CandidateModel | None = None,
    max_iter: int = MAX_ITER,
    tol: float = SCORE_TOL,
) -> FitResult:
    """Logistic maximum likelihood via damped Newton iterations.

    Raises ``NonConvergenceError`` when the iteration cap is hit or a
    coefficient runs past the separation guard.
    """
    X_k = np.asarray(X_k, dtype=float)
    y = np.asarray(y, dtype=float)
    if y.ndim != 1 or y.shape[0] != X_k.shape[0]:
        raise DataError("y must be a vector with one entry per design row")
    require_finite("design matrix", X_k)
    if not np.all((y == 0.0) | (y == 1.0)):
        raise DataError("logistic responses must be coded 0/1")
    if np.all(y == y[0]):
        # constant response: the likelihood increases without bound
        raise NonConvergenceError(
            "degenerate response (all outcomes identical): the MLE does not exist",
            model=model,
        )

    beta = np.zeros(X_k.shape[1])
    eta = X_k @ beta
    ll = _bernoulli_loglik(eta, y)
    iterations = 0
    while True:
        p = expit(eta)
        score = X_k.T @ (y - p)
        if np.max(np.abs(score)) <= tol:
            break
        if iterations >= max_iter:
            raise NonConvergenceError(
                f"logistic fit did not converge in {max_iter} iterations",
                model=model,
                iterations=iterations,
            )
        direction = _newton_direction(X_k, p * (1.0 - p), score, model)
        step = 1.0
        slack = 1e-12 * (1.0 + abs(ll))  # roundoff-level non-improvement still accepts
        for _ in range(_MAX_HALVINGS):
            candidate = beta + step * direction
            eta_cand = X_k @ candidate
            ll_cand = _bernoulli_loglik(eta_cand, y)
            if ll_cand >= ll - slack:
                break
            step *= 0.5
        beta, eta, ll = candidate, eta_cand, ll_cand
        iterations += 1
        if np.max(np.abs(beta)) > BETA_BOUND:
            raise NonConvergenceError(
                "logistic fit diverged (possible separation): "
                f"|beta|_inf > {BETA_BOUND:g} after {iterations} iterations",
                model=model,
                iterations=iterations,
            )

    return FitResult(
        beta=beta,
        loglik=ll,
        dim=X_k.shape[1],
        converged=True,
        iterations=iterations,
    )


def logistic_pseudo_fit(
    X_k: np.ndarray,
    p_target: ProbVector | np.ndarray,
    *,
    model: CandidateModel | None = None,
    max_iter: int = MAX_ITER,
    tol: float = SCORE_TOL,
) -> FitResult:
    """Solve X_k'(p_target - p(X_k beta)) = 0 by iterative re-weighted least squares.

    This is the logistic pseudo-true parameter of model k against a
    probability vector: Newton steps
    ``beta += (X_k' diag(p(1-p)) X_k)^{-1} X_k'(p_target - p)``,
    halving the step whenever the score-residual norm fails to improve.
    """
    X_k = np.asarray(X_k, dtype=float)
    require_finite("design matrix", X_k)
    if not isinstance(p_target, ProbVector):
        p_target = ProbVector(np.asarray(p_target, dtype=float))
    target = p_target.probs
    if target.shape[0] != X_k.shape[0]:
        raise DataError("p_target must have one entry per design row")

    beta = np.zeros(X_k.shape[1])
    eta = X_k @ beta
    score = X_k.T @ (target - expit(eta))
    score_norm = np.max(np.abs(score))
    iterations = 0
    while score_norm > tol:
        if iterations >= max_iter:
            raise NonConvergenceError(
                f"logistic pseudo-fit did not converge in {max_iter} iterations",
                model=model,
                iterations=iterations,
            )
        p = expit(eta)
        direction = _newton_direction(X_k, p * (1.0 - p), score, model)
        step = 1.0
        slack = 1e-12 * (1.0 + score_norm)
        for _ in range(_MAX_HALVINGS):
            candidate = beta + step * direction
            eta_cand = X_k @ candidate
            score_cand = X_k.T @ (target - expit(eta_cand))
            norm_cand = np.max(np.abs(score_cand))
            if norm_cand <= score_norm + slack:
                break
            step *= 0.5
        beta, eta, score, score_norm = candidate, eta_cand, score_cand, norm_cand
        iterations += 1
        if np.max(np.abs(beta)) > BETA_BOUND:
            raise NonConvergenceError(
                "logistic pseudo-fit diverged: "
                f"|beta|_inf > {BETA_BOUND:g} after {iterations} iterations",
                model=model,
                iterations=iterations,
            )

    return FitResult(
        beta=beta,
        loglik=_bernoulli_loglik(eta, target),
        dim=X_k.shape[1],
        converged=True,
        iterations=iterations,
    )
