"""Per-model estimation for the linear and logistic families.

Linear fits read the R factor of [X_k | y] (never an explicit inverse
and never Q): its leading block is R_k, its last column above the
diagonal is Q_k'y, and its last diagonal entry squared is the RSS.
``_least_squares`` factors [X_U | y] once on its n rows, with U the
union of the candidates' columns, and reduces each candidate from that
(|U| + 1)-row factor in one small QR; ``ols_fit`` is the same routine
for one design.  A condition number of R_k above ``COND_LIMIT`` raises
``SingularDesignError``.  The triangular system R_k beta = Q_k'y goes
to LAPACK ``gesv``: its partial-pivoting LU leaves an upper-triangular
R_k unpivoted and unchanged, so the solve is back substitution on R_k.
Every LAPACK call on the fit path (the QRs, the guard's SVD, the
solves, and the plug-in's inverses in ``mse_weights``) goes through the
``lapack_*`` helpers here, which call the gufuncs behind
``np.linalg.qr``, ``svd``, ``solve`` and ``inv`` without their
wrappers: the same bits at a fraction of the cost on small matrices.
Both logistic fits solve the score equation X_k'(t - p(X_k beta)) = 0
with one damped Newton loop (``_damped_newton``): full steps from
beta = 0, halving the step whenever the candidate fails to lower the
fit's merit, and stopping when the score's infinity norm drops below
``SCORE_TOL``.  The two public solves differ only in the target t and
the merit:

* ``logistic_mle`` fits 0/1 data by maximum likelihood (t = y, merit
  -loglik),
* ``logistic_pseudo_fit`` solves the score equation against a vector of
  *target probabilities*, i.e. the population projection of one model
  onto another (merit: the score's infinity norm).  Against the full
  model's fitted probabilities it gives a candidate's own MLE, since
  the logit link is canonical, so ``LogisticQFactory`` reads the MLEs
  and no longer calls it; the tests use it as the oracle for that
  identity.
"""

from __future__ import annotations

import functools
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


@functools.lru_cache(maxsize=64)
def _below_diagonal(rows: int, cols: int) -> np.ndarray:
    # Read-only mask of a rows x cols matrix's entries below its diagonal, cached by shape.
    mask = np.tri(rows, cols, k=-1, dtype=bool)
    mask.flags.writeable = False
    return mask


def lapack_qr_r(A: np.ndarray) -> np.ndarray:
    """R factor of the QR of each matrix of a float64 stack, by LAPACK ``geqrf``, in place.

    This is what ``np.linalg.qr(A, mode="r")`` does after copying A:
    the gufunc ``numpy.linalg._umath_linalg.qr_r_raw`` writes the
    Householder form into A, and R is its leading min(m, n) rows with the
    entries below the diagonal set to zero, as ``np.triu`` sets them.  R
    is a view of A, and A is overwritten: pass a float64 array of your
    own, of any strides (the gufunc copies it into a Fortran buffer
    first, so the layout does not move a bit).
    """
    _umath_linalg.qr_r_raw(A, signature="d->d")
    R = A[..., : min(A.shape[-2:]), :]
    np.copyto(R, 0.0, where=_below_diagonal(*R.shape[-2:]))
    return R


def lapack_singular_values(A: np.ndarray) -> np.ndarray:
    """Singular values, largest first, of each matrix of a stack (``np.linalg.svd(A, compute_uv=False)``)."""
    return _umath_linalg.svd(A, signature="d->d")


def lapack_inv(A: np.ndarray) -> np.ndarray:
    """Inverse of each square matrix of a stack, by LAPACK ``gesv`` (``np.linalg.inv``)."""
    return _umath_linalg.inv(A, signature="d->d")


def lapack_solve(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with A x = b for square float matrices A, by LAPACK ``gesv`` (``np.linalg.solve``).

    As in ``np.linalg.solve``, a 1-d b is one right-hand side (the gufunc
    ``solve1``, signature ``dd->d``) and otherwise b stacks matrices of
    right-hand sides (``solve``).

    These four helpers call the gufuncs behind their ``np.linalg``
    wrappers, without the wrappers' argument checks, copies and
    ``errstate`` blocks, so each result is the wrapper's to the last bit
    at a fraction of the cost on small matrices (a solve: 1.6 against
    8.2 us on 8 x 8).  A LAPACK failure, an exactly singular A here,
    gives NaN and sets the floating-point invalid flag instead of raising
    ``LinAlgError``: run them under ``np.errstate(invalid="ignore")``,
    one per routine, and map a non-finite result to the caller's own
    error (``ill_conditioned`` rejects a NaN singular value).  The
    gufuncs are private numpy names; ``tests/test_glm_fit.py`` pins each
    helper bitwise against its wrapper.
    """
    if b.ndim == 1:
        return _umath_linalg.solve1(A, b, signature="dd->d")
    return _umath_linalg.solve(A, b, signature="dd->d")


def r_factor(X: np.ndarray, model: CandidateModel | None = None) -> np.ndarray:
    """R factor of a design matrix's QR, with a condition-number guard; Q is never formed."""
    X = np.array(X, dtype=float)  # a copy: the factorisation overwrites it
    if X.ndim != 2:
        raise DataError("design matrix must be 2-d")
    require_finite("design matrix", X)
    n, d = X.shape
    if n < d:
        raise SingularDesignError(f"need n >= d, got n={n}, d={d}", model=model)
    with np.errstate(invalid="ignore"):
        R = lapack_qr_r(X)
        if ill_conditioned(R):
            raise SingularDesignError(RANK_DEFICIENT_MESSAGE, model=model)
    return R


def ill_conditioned(R: np.ndarray) -> np.ndarray:
    """Condition guard on R factors stacked along the leading axes (True = reject).

    A factor is kept only when its smallest singular value is positive
    and its condition number is at most ``COND_LIMIT``.  Both tests are
    written so that NaN fails them: a failed SVD, or a factor with a
    non-finite entry, gives NaN singular values and is rejected.  Call
    it under ``np.errstate(invalid="ignore")``.
    """
    s = lapack_singular_values(R)
    return ~((s[..., -1] > 0) & (s[..., 0] <= COND_LIMIT * s[..., -1]))


def _gaussian_profile_loglik(rss, n: int):
    # Profile log-likelihood at sigma2 = RSS/n, elementwise; +inf for an exact fit (RSS = 0).
    with np.errstate(divide="ignore"):
        return -0.5 * n * (np.log(2.0 * np.pi * np.asarray(rss, dtype=float) / n) + 1.0)


# ---------------------------------------------------------------------------
# linear family
# ---------------------------------------------------------------------------


def _least_squares(X: np.ndarray, y: np.ndarray, column_sets: list[list[int]]):
    """Least-squares fits of y on several column sets of X, from one R factor of [X_U | y].

    U is the union of the sets.  The only n-row work is one QR
    (``lapack_qr_r``) of [X_U | y], built once and factored in place,
    which gives R_aug with at most |U| + 1 rows; no column set means
    nothing to factor.  Since [X_k | y] = Q_aug [R_aug[:, k] | R_aug[:, y]],
    the R factor T of that small matrix is the R factor of [X_k | y]:
    R_k is T's leading d x d block, Q_k'y its last column above the
    diagonal and RSS_k = t_dd^2 (0 when n = d, as T then has only d
    rows).  The sets of one dimension d share one stacked QR, one SVD
    for the condition guard and one ``lapack_solve`` (back substitution
    on R_k).  A set that is all of U's columns in order reduces a factor
    that is already triangular: every Householder reflector is the
    identity, so its fit is the one-design fit's to the last bit.  Every
    LAPACK call runs under one ``errstate``; a failed one gives NaN,
    which the guard or the check on the coefficients turns into a
    rank-deficiency failure.

    Returns the coefficients B (one row per set, zero outside its
    columns), the RSS, the kept factors ``(indices, columns, R stack)``
    of each dimension, and ``(index, message)`` for every set that needs
    more rows or is numerically rank deficient.  A dimension after the
    first failure is still checked but not solved, so the caller can
    name the first failing set.
    """
    n, p = X.shape
    B = np.zeros((len(column_sets), p))
    rss = np.zeros(len(column_sets))
    factors, failures = [], []
    if not column_sets:
        return B, rss, factors, failures
    union = sorted(set().union(*column_sets))
    where = np.zeros(p, dtype=int)
    where[union] = np.arange(len(union))
    # [X_U | y] is stored transposed, so that the gather of X_U's columns
    # (mode="clip": no bounds pass, which would copy ``out`` first) is its only copy.
    Xy_t = np.empty((len(union) + 1, n))
    np.take(X.T, union, axis=0, out=Xy_t[:-1], mode="clip")
    Xy_t[-1] = y
    groups: dict[int, list[int]] = {}
    for k, cols in enumerate(column_sets):
        groups.setdefault(len(cols), []).append(k)
    with np.errstate(invalid="ignore"):
        R_aug = lapack_qr_r(Xy_t.T)
        for d, members in groups.items():
            if n < d:
                failures += [(k, f"need n >= d, got n={n}, d={d}") for k in members]
                continue
            idx = np.array(members)
            cols = np.array([column_sets[k] for k in members])
            picks = np.column_stack((where[cols], np.full(len(members), len(union))))
            T = lapack_qr_r(R_aug[:, picks].transpose(1, 0, 2))
            R = T[:, :d, :d]
            rejected = ill_conditioned(R)
            if not (failures or rejected.any()):
                beta = lapack_solve(R, T[:, :d, d:])[:, :, 0]
                rejected = ~np.isfinite(beta).all(axis=1)
            failures += [(members[j], RANK_DEFICIENT_MESSAGE) for j in np.flatnonzero(rejected)]
            if failures:
                continue  # the fit is lost; keep checking so the error names the first failure
            B[idx[:, None], cols] = beta
            if T.shape[1] > d:
                rss[idx] = T[:, d, d] ** 2
            factors.append((idx, cols, R))
    return B, rss, factors, failures


def ols_fit(
    X_k: np.ndarray,
    y: np.ndarray,
    *,
    model: CandidateModel | None = None,
) -> FitResult:
    """Least-squares fit of one candidate model's design.

    ``X_k`` holds the model's own columns (``subset_columns``), and the
    result's ``beta`` is in that order.  ``model`` only names the
    candidate in a ``SingularDesignError``.  The fit is ``_least_squares``
    on the one column set of ``X_k``: R_k, Q_k'y and the RSS come from
    the R factor of [X_k | y], so an exactly determined design (n = d)
    has RSS 0.  The log-likelihood is the Gaussian profile one at
    sigma^2 = RSS/n (+inf for an exact fit).
    """
    X_k = np.asarray(X_k, dtype=float)
    y = np.asarray(y, dtype=float)
    if y.ndim != 1 or y.shape[0] != X_k.shape[0]:
        raise DataError("y must be a vector with one entry per design row")
    require_finite("response", y)
    if X_k.ndim != 2:
        raise DataError("design matrix must be 2-d")
    require_finite("design matrix", X_k)
    n, d = X_k.shape
    B, rss, _, failures = _least_squares(X_k, y, [list(range(d))])
    if failures:
        raise SingularDesignError(failures[0][1], model=model)
    return FitResult(beta=B[0], loglik=_gaussian_profile_loglik(rss[0], n), dim=d)


def full_linear_fit(X: np.ndarray, y: np.ndarray) -> LinearFullFit:
    """OLS on the full design; residual variance uses divisor n, not n-d."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    beta = ols_fit(X, y).beta
    fitted = X @ beta
    sigma2 = float(np.mean((y - fitted) ** 2))
    return LinearFullFit(beta_full=beta, sigma2=sigma2, fitted=fitted)


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


def _damped_newton(X, target, merit, *, model, label, separation=""):
    """Solve the score equation X'(target - p(X beta)) = 0 from beta = 0.

    ``merit(eta, size)``, with ``size`` the score's infinity norm, is
    the value each step must not raise beyond roundoff
    (``1e-12 * (1 + |value|)``); the step is halved until it does, at
    most ``_MAX_HALVINGS`` times.  Returns beta, X beta, the merit there
    and the iteration count.  ``label`` and ``separation`` word the
    ``NonConvergenceError`` raised after ``MAX_ITER`` iterations or past
    ``BETA_BOUND``.
    """
    beta = np.zeros(X.shape[1])
    eta = X @ beta
    p = expit(eta)
    score = X.T @ (target - p)
    size = np.max(np.abs(score))
    value = merit(eta, size)
    iterations = 0
    while not size <= SCORE_TOL:  # a NaN score runs on into an error
        if iterations >= MAX_ITER:
            raise NonConvergenceError(
                f"{label} did not converge in {MAX_ITER} iterations",
                model=model,
                iterations=iterations,
            )
        direction = _newton_direction(X, p * (1.0 - p), score, model)
        step = 1.0
        slack = 1e-12 * (1.0 + abs(value))  # roundoff-level non-improvement still accepts
        for _ in range(_MAX_HALVINGS):
            candidate = beta + step * direction
            eta_cand = X @ candidate
            p_cand = expit(eta_cand)
            score_cand = X.T @ (target - p_cand)
            size_cand = np.max(np.abs(score_cand))
            value_cand = merit(eta_cand, size_cand)
            if value_cand <= value + slack:
                break
            step *= 0.5
        beta, eta, p, score = candidate, eta_cand, p_cand, score_cand
        size, value = size_cand, value_cand
        iterations += 1
        if np.max(np.abs(beta)) > BETA_BOUND:
            raise NonConvergenceError(
                f"{label} diverged{separation}: "
                f"|beta|_inf > {BETA_BOUND:g} after {iterations} iterations",
                model=model,
                iterations=iterations,
            )
    return beta, eta, value, iterations


def logistic_mle(
    X_k: np.ndarray,
    y: np.ndarray,
    *,
    model: CandidateModel | None = None,
) -> FitResult:
    """Logistic maximum likelihood via damped Newton iterations on -loglik.

    Raises ``NonConvergenceError`` when ``MAX_ITER`` iterations do not
    converge or a coefficient runs past the separation guard.
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
    beta, _, neg_ll, iterations = _damped_newton(
        X_k,
        y,
        lambda eta, size: -_bernoulli_loglik(eta, y),
        model=model,
        label="logistic fit",
        separation=" (possible separation)",
    )
    return FitResult(beta=beta, loglik=-neg_ll, dim=X_k.shape[1], iterations=iterations)


def logistic_pseudo_fit(
    X_k: np.ndarray,
    p_target: ProbVector | np.ndarray,
    *,
    model: CandidateModel | None = None,
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
    beta, eta, _, iterations = _damped_newton(
        X_k,
        target,
        lambda eta, size: size,
        model=model,
        label="logistic pseudo-fit",
    )
    return FitResult(
        beta=beta,
        loglik=_bernoulli_loglik(eta, target),
        dim=X_k.shape[1],
        iterations=iterations,
    )
