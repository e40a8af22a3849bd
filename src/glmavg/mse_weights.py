"""Estimated asymptotic MSE of the averaging estimator and optimal weights.

For a candidate set of K models and a target functional at x*, the
estimated mean squared error of the weighted-average estimator is the
quadratic form

    Qhat(w) = (b'w)^2 + |A w|^2 = w' (b b' + A'A) w

where ``b[k]`` is model k's estimated bias of the functional relative
to the full-model plug-in, and column k of the Gram factor ``A`` is
chosen so that ``A'A`` reproduces the estimated covariance of the
per-model functional estimates:

* linear family:  b_k = x_k*' beta_k - x*' beta_full, and entry (j, k)
  of A'A is the estimated covariance of the two models' point
  predictions, sigma_full^2 x*' G_j X'X G_k x*, with G_k the inverse
  Gram (X_k'X_k)^{-1} zero-padded to p x p.  Since X = Q R_full and
  Q'Q = I, the factor is taken as a_k = sigma_full R_full G_k x*, so A
  has p rows (one per column of the full design), not n.
* logistic family: b_k = p_k* - p_full at x*, with p_k* the pseudo-fit
  of model k against the full-model fitted probabilities, and
  a_k = W_full^{1/2} X_k M_k^{-1} x_k* p_k*(1-p_k*) with
  M_k = X_k' diag(p_k(1-p_k)) X_k and W_full = diag(p_full(1-p_full)).

The factored construction keeps Qhat symmetric positive semidefinite by
construction; tests cross-check it entrywise against the literal
double-sum expressions.  The logistic factor has n rows, one per
observation.

Optimal weights minimise w'Qhat w over the probability simplex.  The
program is convex, so an accelerated projected-gradient method (step
1/L, L from power iteration, gradient-based adaptive restart) converges
to the global minimum; an active-set refinement solves the equality-
constrained KKT system on the identified support and is accepted only
after explicit KKT verification.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.linalg import get_lapack_funcs
from scipy.special import expit

from .errors import DataError, NumericalError, SingularDesignError
from .glm_fit import (
    RANK_DEFICIENT_MESSAGE,
    FitResult,
    _gaussian_profile_loglik,
    gram_solve,
    ill_conditioned,
    logistic_mle,
    logistic_pseudo_fit,
    qr_factor,
)
from .model_space import CandidateModel, subset_columns, subset_point

SOLVER_MAX_ITER = 10_000
SOLVER_GRAD_TOL = 1e-10
_SUPPORT_TOL = 1e-10


@dataclass(frozen=True)
class QuadraticForm:
    """Estimated-MSE quadratic form: bias vector b, Gram factor A, matrix b b' + A'A.

    A is (rows, K): p rows (the full design's column count) for linear
    targets, n rows (one per observation) for logistic targets.
    """

    bias: np.ndarray
    gram_factor: np.ndarray
    matrix: np.ndarray

    @classmethod
    def from_parts(cls, bias: np.ndarray, gram_factor: np.ndarray) -> "QuadraticForm":
        bias = np.asarray(bias, dtype=float)
        gram_factor = np.asarray(gram_factor, dtype=float)
        if bias.ndim != 1 or gram_factor.ndim != 2 or gram_factor.shape[1] != bias.shape[0]:
            raise DataError("bias must be (K,) and gram_factor (rows, K)")
        if bias.shape[0] == 0:
            raise DataError("a quadratic form needs at least one model")
        matrix = np.outer(bias, bias) + gram_factor.T @ gram_factor
        matrix = 0.5 * (matrix + matrix.T)
        for arr in (bias, gram_factor, matrix):
            arr.flags.writeable = False
        return cls(bias=bias, gram_factor=gram_factor, matrix=matrix)

    @property
    def n_models(self) -> int:
        return self.bias.shape[0]


@dataclass(frozen=True)
class WeightSolution:
    """Simplex point returned by the weight solver, with diagnostics."""

    weights: np.ndarray
    objective: float
    iterations: int
    kkt_residual: float

    def __post_init__(self):
        arr = np.array(self.weights, dtype=float)
        arr.flags.writeable = False
        object.__setattr__(self, "weights", arr)


# ---------------------------------------------------------------------------
# Qhat construction
# ---------------------------------------------------------------------------


def _checked_point(x_star: np.ndarray, p: int) -> np.ndarray:
    """x* as a float vector of length p with finite entries, else DataError."""
    x_star = np.asarray(x_star, dtype=float)
    if x_star.shape != (p,):
        raise DataError(f"x_star must be a vector of length {p}, got shape {x_star.shape}")
    if not np.all(np.isfinite(x_star)):
        raise DataError("x_star must be finite")
    return x_star


class LinearQFactory:
    """Every candidate's fit on one (X, y), reusable across many x*.

    The fit does all the factoring.  Candidate designs of equal dimension
    are stacked, with the full design in its own dimension's group unless
    it is a candidate already, and each stack gets one ``np.linalg.qr``,
    one SVD for the condition guard and one ``np.linalg.inv`` of its R
    factors.  The factory keeps the padded coefficients B (K x p), the
    padded inverse Grams G (K x p x p) and R_full, so each x* costs a few
    matmuls: the per-model values are B x*, and since X = Q_full R_full,
    the Gram factor is the p x K matrix sigma R_full (G x*)'.

    A rank-deficient design raises ``SingularDesignError`` naming the
    first failing candidate in list order, or no model when the only
    failing design is the full one and it is not a candidate.
    """

    def __init__(self, X: np.ndarray, y: np.ndarray, models: Sequence[CandidateModel]):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        if X.ndim != 2:
            raise DataError("design matrix must be 2-d")
        n, p = X.shape
        if y.ndim != 1 or y.shape[0] != n:
            raise DataError("y must be a vector with one entry per design row")
        if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
            raise DataError("design and response must be finite")
        self.models = list(models)
        self.n = n
        K = len(self.models)
        column_sets = [model.column_indices() for model in self.models]
        for cols in column_sets:
            if cols[-1] >= p:
                raise DataError(f"design has {p} columns, model needs column {cols[-1]}")
        full_cols = list(range(p))
        if full_cols in column_sets:
            full = column_sets.index(full_cols)
        else:
            full = len(column_sets)
            column_sets.append(full_cols)

        groups: dict[int, list[int]] = {}
        for k, cols in enumerate(column_sets):
            groups.setdefault(len(cols), []).append(k)
        rss = np.empty(len(column_sets))
        B = np.zeros((len(column_sets), p))
        G = np.zeros((len(column_sets), p, p))
        failures = []
        trtrs = get_lapack_funcs("trtrs", (X,))
        for d, members in groups.items():
            if n < d:
                failures += [(k, f"need n >= d, got n={n}, d={d}") for k in members]
                continue
            idx = np.array(members)
            cols = np.array([column_sets[k] for k in members])
            # Each design in the stack has subset_columns' memory layout, and
            # LAPACK factors and solves each matrix of a stack on its own, so
            # beta and RSS are ols_fit's to the last bit.
            X_stack = X[:, cols].transpose(1, 0, 2)
            Q, R = np.linalg.qr(X_stack)
            failures += [(members[j], RANK_DEFICIENT_MESSAGE) for j in np.flatnonzero(ill_conditioned(R))]
            if failures:
                continue  # the fit is lost; keep checking so the error names the first failure
            Qty = Q.transpose(0, 2, 1) @ y
            beta = np.empty_like(Qty)
            # The LAPACK call solve_triangular(R[j], Qty[j]) makes for a
            # C-ordered R (for d = 1 either of its calls is one division),
            # without its per-call input checks: X and y were checked
            # finite above, and the guard rules out a singular R.
            for j in range(len(members)):
                beta[j], _ = trtrs(R[j].T, Qty[j], lower=1, trans=1)
            rss[idx] = np.sum((y - (X_stack @ beta[:, :, None])[:, :, 0]) ** 2, axis=1)
            B[idx[:, None], cols] = beta
            R_inv = np.linalg.inv(R)
            G[idx[:, None, None], cols[:, :, None], cols[:, None, :]] = R_inv @ R_inv.transpose(0, 2, 1)
            if full in members:
                R_full = R[members.index(full)]
        if failures:
            k, message = min(failures)
            raise SingularDesignError(message, model=self.models[k] if k < K else None)

        self.beta_full = B[full]
        self.sigma2 = float(rss[full] / n)
        self._rss = rss[:K]
        self._B = B[:K]
        self._G = G[:K].reshape(K * p, p)
        self._sigma_R_full = np.sqrt(self.sigma2) * R_full

    def model_betas(self) -> list[np.ndarray]:
        return [beta[model.column_indices()] for beta, model in zip(self._B, self.models)]

    def logliks(self) -> np.ndarray:
        return np.array([_gaussian_profile_loglik(rss, self.n) for rss in self._rss])

    def dims(self) -> np.ndarray:
        return np.array([model.dim for model in self.models])

    def per_model_values(self, x_star: np.ndarray) -> np.ndarray:
        """x_k*' beta_k for every candidate (the per-model functional estimates)."""
        return self._B @ _checked_point(x_star, self._B.shape[1])

    def q_form(self, x_star: np.ndarray) -> QuadraticForm:
        x_star = _checked_point(x_star, self._B.shape[1])
        bias = self._B @ x_star - x_star @ self.beta_full
        G_x = (self._G @ x_star).reshape(bias.shape[0], -1)
        return QuadraticForm.from_parts(bias, self._sigma_R_full @ G_x.T)


def build_q_linear(
    X: np.ndarray,
    y: np.ndarray,
    models: Sequence[CandidateModel],
    x_star: np.ndarray,
) -> QuadraticForm:
    """Estimated-MSE form for a linear functional x*'beta under OLS fits."""
    X = np.asarray(X, dtype=float)
    x_star = _checked_point(x_star, X.shape[1])
    return LinearQFactory(X, y, models).q_form(x_star)


def build_q_logistic(
    X: np.ndarray,
    y: np.ndarray,
    models: Sequence[CandidateModel],
    x_star: np.ndarray,
) -> QuadraticForm:
    """Estimated-MSE form for the probability functional p(x*'beta) under logistic fits.

    The full-model MLE supplies both the truth plug-in (fitted
    probabilities and their Bernoulli variances) and the target each
    candidate is pseudo-fit against.  Fit failures propagate with the
    offending model attached.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    x_star = _checked_point(x_star, X.shape[1])

    full_fit = logistic_mle(X, y)
    p_full = expit(X @ full_fit.beta)
    p_full_star = float(expit(x_star @ full_fit.beta))
    sqrt_w_true = np.sqrt(p_full * (1.0 - p_full))

    K = len(models)
    bias = np.empty(K)
    A = np.empty((X.shape[0], K))
    for k, model in enumerate(models):
        X_k = subset_columns(X, model)
        x_k = subset_point(x_star, model)
        pseudo = logistic_pseudo_fit(X_k, p_full, model=model)
        p_k = expit(X_k @ pseudo.beta)
        p_k_star = float(expit(x_k @ pseudo.beta))
        bias[k] = p_k_star - p_full_star
        # M_k^{-1} x_k via the QR of the weighted design sqrt(p(1-p)) X_k.
        _, R = qr_factor(np.sqrt(p_k * (1.0 - p_k))[:, None] * X_k, model=model)
        v = gram_solve(R, x_k)
        A[:, k] = sqrt_w_true * (X_k @ v) * (p_k_star * (1.0 - p_k_star))
    return QuadraticForm.from_parts(bias, A)


# ---------------------------------------------------------------------------
# simplex machinery
# ---------------------------------------------------------------------------


def project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto {w : w >= 0, sum w = 1} by sort and threshold."""
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.shape[0] < 1:
        raise DataError("need a 1-d vector with at least one entry")
    s = np.sort(v)[::-1]
    cumulative = np.cumsum(s) - 1.0
    rho = np.flatnonzero(s * np.arange(1, v.shape[0] + 1) > cumulative)[-1]
    tau = cumulative[rho] / (rho + 1.0)
    return np.maximum(v - tau, 0.0)


def equal_weights(K: int) -> np.ndarray:
    """Uniform baseline weights 1/K."""
    if K < 1:
        raise DataError("K must be at least 1")
    return np.full(K, 1.0 / K)


def aic_weights(fits: Sequence[FitResult]) -> np.ndarray:
    """Smoothed-AIC weights: w_k proportional to exp(-AIC_k / 2).

    AIC_k = -2 loglik + 2 dim, rescaled against the minimum so the
    weights are invariant under a common shift.  Infinitely good fits
    (exact linear interpolation gives loglik = +inf) share the weight
    equally among themselves.
    """
    aic = np.array([-2.0 * f.loglik + 2.0 * f.dim for f in fits])
    if np.any(np.isnan(aic)):
        raise DataError("log-likelihoods must not be NaN")
    best = np.min(aic)
    if best == -np.inf:
        mask = np.isneginf(aic)
        return mask.astype(float) / mask.sum()
    if best == np.inf:
        raise DataError("every model has an infinitely bad fit; AIC weights are undefined")
    w = np.exp(-0.5 * (aic - best))
    return w / w.sum()


# ---------------------------------------------------------------------------
# simplex-constrained quadratic program
# ---------------------------------------------------------------------------


def _power_lambda_max(matvec, K: int, iters: int = 60) -> float:
    v = np.arange(1.0, K + 1.0)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(iters):
        u = matvec(v)
        norm = np.linalg.norm(u)
        if norm == 0.0:
            return 0.0
        lam = float(v @ u)
        v = u / norm
    return max(lam, float(v @ matvec(v)))


def _kkt_residual(w: np.ndarray, grad: np.ndarray) -> float:
    # 0 iff support sits on the minimal gradient face (complementarity).
    return float(np.max(w * (grad - np.min(grad))))


def _solve_face_kkt(support: np.ndarray, submatrix):
    """Equality-constrained minimiser on one face: gradient constant on the support."""
    m = support.size
    system = np.empty((m + 1, m + 1))
    system[:m, :m] = 2.0 * submatrix(support)
    system[:m, m] = -1.0
    system[m, :m] = 1.0
    system[m, m] = 0.0
    rhs = np.zeros(m + 1)
    rhs[m] = 1.0
    try:
        sol = np.linalg.solve(system, rhs)
    except np.linalg.LinAlgError:
        return None
    return sol[:m]


def _verify_kkt(candidate, support, matvec):
    """Accept a face solution only if the full simplex KKT conditions hold."""
    grad = 2.0 * matvec(candidate)
    level = float(candidate @ grad)
    scale = max(1.0, float(np.max(np.abs(grad))))
    if np.max(np.abs(grad[support] - level)) > 1e-8 * scale:
        return False
    return bool(np.min(grad) >= level - 1e-10 * scale)


def _polish_active_set(w, matvec, submatrix, K):
    """Solve the KKT system on w's support; return the point only if KKT-verified."""
    support = np.flatnonzero(w > _SUPPORT_TOL)
    if support.size == 0:
        return None
    w_support = _solve_face_kkt(support, submatrix)
    if w_support is None or np.min(w_support) < -1e-9:
        return None
    candidate = np.zeros(K)
    candidate[support] = np.maximum(w_support, 0.0)
    candidate /= candidate.sum()
    if _verify_kkt(candidate, support, matvec):
        return candidate
    return None


def _active_set_solve(matvec, submatrix, diag_vec, K):
    """Pivoting fast path: grow/shrink a support until the exact KKT point appears.

    Every candidate it returns has been verified against the full KKT
    conditions, so a wrong pivot sequence can only cost time, never
    correctness; cycling or a singular face system bails out to the
    accelerated projected-gradient path.
    """
    support = [int(np.argmin(diag_vec))]
    max_pivots = min(4 * K + 16, 512)
    for pivot in range(max_pivots):
        idx = np.array(sorted(support))
        w_support = _solve_face_kkt(idx, submatrix)
        if w_support is None:
            return None, pivot
        if np.min(w_support) < -1e-12:
            if len(support) == 1:
                return None, pivot
            support.remove(int(idx[int(np.argmin(w_support))]))
            continue
        candidate = np.zeros(K)
        candidate[idx] = np.maximum(w_support, 0.0)
        candidate /= candidate.sum()
        grad = 2.0 * matvec(candidate)
        level = float(candidate @ grad)
        scale = max(1.0, float(np.max(np.abs(grad))))
        if np.max(np.abs(grad[idx] - level)) > 1e-8 * scale:
            return None, pivot
        slack = grad - (level - 1e-10 * scale)
        slack[idx] = np.inf
        worst = int(np.argmin(slack))
        if slack[worst] >= 0.0:
            return candidate, pivot + 1
        support.append(worst)
    return None, max_pivots


def solve_simplex_qp(
    q: QuadraticForm | np.ndarray,
    *,
    max_iter: int = SOLVER_MAX_ITER,
    grad_tol: float = SOLVER_GRAD_TOL,
) -> WeightSolution:
    """Minimise w'Qw over the probability simplex.

    Accepts either a ``QuadraticForm`` (whose factored structure makes
    gradients O(K(n+1)) instead of O(K^2) and is PSD by construction)
    or a raw symmetric matrix, which is symmetrised and, if roundoff
    pushed an eigenvalue below zero, lifted by ``max(0, -lambda_min) I``
    (a uniform diagonal shift changes every simplex objective by the
    same constant, so the minimiser is preserved).
    """
    if isinstance(q, QuadraticForm):
        b, A = q.bias, q.gram_factor
        if not (np.all(np.isfinite(b)) and np.all(np.isfinite(A))):
            raise NumericalError("non-finite entries in the quadratic form")
        K = q.n_models
        diag_vec = b * b + np.sum(A * A, axis=0)

        def matvec(w):
            return b * (b @ w) + A.T @ (A @ w)

        def submatrix(idx):
            cols = A[:, idx]
            return np.outer(b[idx], b[idx]) + cols.T @ cols

    else:
        Q = np.asarray(q, dtype=float)
        if Q.ndim != 2 or Q.shape[0] != Q.shape[1] or Q.shape[0] == 0:
            raise DataError("Q must be a non-empty square matrix")
        if not np.all(np.isfinite(Q)):
            raise NumericalError("non-finite entries in the quadratic form")
        Q = 0.5 * (Q + Q.T)
        lam_min = float(np.linalg.eigvalsh(Q)[0])
        if lam_min < 0.0:
            Q = Q + (-lam_min) * np.eye(Q.shape[0])
        K = Q.shape[0]
        diag_vec = np.diag(Q).copy()

        def matvec(w):
            return Q @ w

        def submatrix(idx):
            return Q[np.ix_(idx, idx)]

    if K == 1:
        w = np.ones(1)
        return WeightSolution(w, float(matvec(w)[0]), 0, 0.0)

    fast, pivots = _active_set_solve(matvec, submatrix, diag_vec, K)
    if fast is not None:
        grad = 2.0 * matvec(fast)
        return WeightSolution(
            weights=fast,
            objective=float(fast @ matvec(fast)),
            iterations=pivots,
            kkt_residual=_kkt_residual(fast, grad),
        )

    lam_max = _power_lambda_max(matvec, K)
    L = 2.0 * lam_max * 1.01 + 1e-30

    w = np.full(K, 1.0 / K)
    z = w.copy()
    t = 1.0
    iterations = 0
    for iterations in range(1, max_iter + 1):
        grad_z = 2.0 * matvec(z)
        w_new = project_simplex(z - grad_z / L)
        if (z - w_new) @ (w_new - w) > 0.0:
            # adaptive restart: momentum is pointing uphill
            t = 1.0
            z = w_new
        else:
            t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
            z = w_new + ((t - 1.0) / t_new) * (w_new - w)
            t = t_new
        w = w_new

        if iterations % 10 == 0 or iterations == max_iter:
            grad_w = 2.0 * matvec(w)
            mapping = (w - project_simplex(w - grad_w / L)) * L
            if np.linalg.norm(mapping) <= grad_tol:
                break
            if iterations % 50 == 0:
                polished = _polish_active_set(w, matvec, submatrix, K)
                if polished is not None:
                    w = polished
                    break

    polished = _polish_active_set(w, matvec, submatrix, K)
    if polished is not None and float(polished @ matvec(polished)) <= float(w @ matvec(w)):
        w = polished

    w = np.maximum(w, 0.0)
    w /= w.sum()
    grad = 2.0 * matvec(w)
    return WeightSolution(
        weights=w,
        objective=float(w @ matvec(w)),
        iterations=iterations,
        kkt_residual=_kkt_residual(w, grad),
    )
