"""Per-model estimation for the linear and logistic families.

Linear fits read the R factor of [X_k | y] (never an explicit inverse
and never Q): its leading block is R_k, its last column above the
diagonal is Q_k'y, and its last diagonal entry squared is the RSS.  A
fit is split at R_aug, the (|U| + 1)-row R factor of [X_U | y], with U
the union of the candidates' columns.  ``_augmented_r`` makes it, one
QR of a training set's n rows and the fit's only n-row work, and
``_least_squares_from_r`` reduces each candidate from it in one small
QR.  The reduction takes R_aug alone or stacked along leading axes, one
training set per slice, so a study fits a block's replications with one
LAPACK call per model size, not one per replication; the gufuncs work
slice by slice, so every slice keeps the bits of a lone fit.
``_least_squares`` is the two steps on one training set, and
``ols_fit`` that routine for one design.  A condition number of R_k
above ``COND_LIMIT`` raises ``SingularDesignError``.  By the
interlacing inequalities for singular values of submatrices (Thompson
1972), no column subset of X_U is worse conditioned than X_U, so one
SVD of X_U's factor R_U, within ``UNION_COND_LIMIT``, passes every
candidate; only a design past that margin is guarded one model size at
a time.  The triangular system
R_k beta = Q_k'y goes to LAPACK ``gesv``: its partial-pivoting LU
leaves an upper-triangular R_k unpivoted and unchanged, so the solve is
back substitution on R_k.
Every LAPACK call on the fit path (the QRs, the guard's SVD, the
solves, and the plug-in's inverses in ``mse_weights``) goes through the
``lapack_*`` helpers here, which call the gufuncs behind
``np.linalg.qr``, ``svd``, ``solve`` and ``inv`` without their
wrappers: the same bits at a fraction of the cost on small matrices.
Both logistic fits solve the score equation X_k'(t - p(X_k beta)) = 0
with one damped Newton loop (``_damped_newton``): full steps from
beta = 0, halving the step whenever the candidate fails to lower the
fit's merit, and stopping when the score's infinity norm drops below
``SCORE_TOL``.  The loop takes one problem, or many of one (n, d)
stacked along leading axes, which it runs in lockstep, each slice with
its own step, halvings, iteration count and divergence guard, and each
with the bits of its own lone fit: a study fits one candidate for a
block's replications with one Newton loop, not one per replication.
The two public solves differ only in the target t and the merit:

* ``logistic_mle`` fits 0/1 data by maximum likelihood (t = y, merit
  -loglik), through ``_mle_fits``, which the candidate factories call
  on one training set or a stack of them,
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
# A union factor R_U within this bound certifies every column subset of X_U
# (see ``_least_squares``).  Roundoff in a computed R_k moves its condition
# number by a relative O(n u cond), 1e-6 at n = 1000: far inside the factor 1e3.
UNION_COND_LIMIT = 1e-3 * COND_LIMIT
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

    A b with one axis fewer than A holds one right-hand side per matrix
    (the gufunc ``solve1``, signature ``dd->d``), as a 1-d b does in
    ``np.linalg.solve``; otherwise b stacks matrices of right-hand sides
    (``solve``).

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
    if b.ndim == A.ndim - 1:
        return _umath_linalg.solve1(A, b, signature="dd->d")
    return _umath_linalg.solve(A, b, signature="dd->d")


def ill_conditioned(R: np.ndarray) -> np.ndarray:
    """Condition guard on R factors stacked along the leading axes (True = reject).

    A factor is kept only when its smallest singular value is positive
    and its condition number is at most ``COND_LIMIT``.  Both tests are
    written so that NaN fails them: a failed SVD, or a factor with a
    non-finite entry, gives NaN singular values and is rejected.  Call
    it under ``np.errstate(invalid="ignore")``.  The logistic plug-in
    runs it on every weighted factor; ``_least_squares`` runs it only on
    the model sizes of a design that its one union check does not
    certify.
    """
    return _rejects(lapack_singular_values(R), COND_LIMIT)


def _rejects(s: np.ndarray, limit: float) -> np.ndarray:
    # The guard on singular values s (largest first): sigma_min > 0 and cond <= limit pass; NaN fails.
    return ~((s[..., -1] > 0) & (s[..., 0] <= limit * s[..., -1]))


def _gaussian_profile_loglik(rss, n: int):
    # Profile log-likelihood at sigma2 = RSS/n, elementwise; +inf for an exact fit (RSS = 0).
    with np.errstate(divide="ignore"):
        return -0.5 * n * (np.log(2.0 * np.pi * np.asarray(rss, dtype=float) / n) + 1.0)


# ---------------------------------------------------------------------------
# linear family
# ---------------------------------------------------------------------------


def _augmented_r(X: np.ndarray, y: np.ndarray, union) -> np.ndarray:
    """R_aug, the R factor of [X_U | y] for the sorted columns ``union``: a fit's only n-row work.

    It has min(n, |U| + 1) rows.  [X_U | y] is stored transposed, so that
    the gather of X_U's columns (mode="clip": no bounds pass, which would
    copy ``out`` first) is its only n-row copy, and ``lapack_qr_r``
    factors it in place.  R_aug is returned as a copy of its own, so
    that keeping it does not keep that n-row buffer.  A failed QR gives
    NaN, which ``_least_squares_from_r`` rejects.
    """
    n = X.shape[0]
    Xy_t = np.empty((len(union) + 1, n))
    np.take(X.T, union, axis=0, out=Xy_t[:-1], mode="clip")
    Xy_t[-1] = y
    with np.errstate(invalid="ignore"):
        return lapack_qr_r(Xy_t.T).copy()


def _union(column_sets) -> list[int]:
    """The sorted union U of the column sets, the columns ``_augmented_r`` factors."""
    return sorted(set().union(*column_sets))


def _fit_failure(n: int, d: int) -> str:
    """Why a failed column set of d columns failed on n rows."""
    return f"need n >= d, got n={n}, d={d}" if n < d else RANK_DEFICIENT_MESSAGE


def _least_squares_from_r(R_aug: np.ndarray, n: int, p: int, column_sets: list, union: list):
    """Least-squares fits of y on several column sets of X, from R_aug on every leading axis.

    ``R_aug`` is ``_augmented_r(X, y, union)``, with ``union`` the sets'
    ``_union``, for one training set of n rows and p columns, or such
    factors of many training sets stacked along leading axes; every
    array returned has the same leading axes.  Each column set is a
    sequence of strictly increasing column indices, so a set of |U|
    columns is U itself.
    Since [X_k | y] = Q_aug [R_aug[:, k] | R_aug[:, y]], the R factor T of
    that small matrix is the R factor of [X_k | y]: R_k is T's leading
    d x d block, Q_k'y its last column above the diagonal and
    RSS_k = t_dd^2 (0 when n = d, as T then has only d rows).  The sets
    of one dimension d share one stacked QR and one ``lapack_solve``
    (back substitution on R_k), for every training set of the stack at
    once; LAPACK's gufuncs work slice by slice, so each training set
    gets the bits it gets alone.  A set that is all of U's columns in
    order reduces a factor that is already triangular: every
    Householder reflector is the identity, so its fit is the one-design
    fit's to the last bit, and its R_k is R_aug's leading block R_U.

    The condition guard takes one SVD of R_U when U's own set is among
    the sets and n > |U|.  Every X_k is a column subset of X_U, so by
    interlacing sigma_max(X_k) <= sigma_max(X_U) and sigma_min(X_k) >=
    sigma_min(X_U), hence cond(R_k) <= cond(R_U).  When cond(R_U) is at
    most ``UNION_COND_LIMIT``, three orders of magnitude inside
    ``COND_LIMIT``, the roundoff in the computed R_k cannot carry any of
    them past the guard, and every set passes on that one SVD.
    Otherwise U's own set takes that SVD's verdict against
    ``COND_LIMIT`` and every other dimension gets one stacked SVD
    (``ill_conditioned``) of the training sets the union left unsure,
    as it would with no union check; without U's own set or a row below
    R_U every dimension does.  So no training set makes more SVD calls
    than the guard alone would, and the check decides only verdicts: the
    QRs, solves and kept factors are the same either way.  Every LAPACK
    call runs under one ``errstate``; a failed one gives NaN, which the
    guard or the check on the coefficients turns into a rank-deficiency
    failure.

    Returns the coefficients B (one row per set, zero outside its
    columns), the RSS, the factors ``(indices, columns, R stack)`` of
    each dimension, and ``failed``, True for every set that needs more
    rows or is numerically rank deficient (``_fit_failure`` words it).
    Every dimension is solved, but ``failed`` marks the sets that a fit
    taking the dimensions in order would: a dimension the guard rejects
    in part, or any dimension after a training set's first failure, is
    judged on the guard alone, so the caller names the same first
    failing set.  A failed training set's B, RSS and factors are not a
    fit.
    """
    lead = R_aug.shape[:-2]
    B = np.zeros((*lead, len(column_sets), p))
    rss = np.zeros((*lead, len(column_sets)))
    failed = np.zeros((*lead, len(column_sets)), dtype=bool)
    factors = []
    if not column_sets:
        return B, rss, factors, failed
    u = len(union)
    where = np.zeros(p, dtype=int)
    where[union] = np.arange(u)
    groups: dict[int, list[int]] = {}
    for k, cols in enumerate(column_sets):
        groups.setdefault(len(cols), []).append(k)
    checks = []  # (indices, the guard's verdicts, non-finite coefficients) of each dimension
    with np.errstate(invalid="ignore"):
        certified = union_rejected = None
        if n > u and u in groups:
            s = lapack_singular_values(R_aug[..., :u, :u])
            certified, union_rejected = ~_rejects(s, UNION_COND_LIMIT), _rejects(s, COND_LIMIT)
        for d, members in groups.items():
            idx = np.array(members)
            if n < d:
                every = np.ones((*lead, len(members)), dtype=bool)
                checks.append((idx, every, every))
                continue
            cols = np.array([column_sets[k] for k in members])
            picks = np.column_stack((where[cols], np.full(len(members), u)))
            T = lapack_qr_r(R_aug[..., picks].swapaxes(-3, -2))
            R = T[..., :d, :d]
            if union_rejected is None:
                guard = ill_conditioned(R)
            else:
                guard = np.repeat(union_rejected[..., None], len(members), axis=-1)
                if d != u and not certified.all():
                    guard[~certified] = ill_conditioned(R[~certified])
            beta = lapack_solve(R, T[..., :d, d:])[..., 0]
            checks.append((idx, guard, ~np.isfinite(beta).all(axis=-1)))
            B[..., idx[:, None], cols] = beta
            if T.shape[-2] > d:
                rss[..., idx] = T[..., d, d] ** 2
            factors.append((idx, cols, R))
    if any(guard.any() or nonfinite.any() for _, guard, nonfinite in checks):
        # what a fit taking the dimensions in order fails: one the guard rejects in part,
        # or any after a failure, goes unsolved and fails on the guard's verdicts
        blocked = np.zeros(lead, dtype=bool)
        for idx, guard, nonfinite in checks:
            rejected = np.where((blocked | guard.any(axis=-1))[..., None], guard, nonfinite)
            failed[..., idx] = rejected
            blocked |= rejected.any(axis=-1)
    return B, rss, factors, failed


def _least_squares(X: np.ndarray, y: np.ndarray, column_sets: list):
    """``_least_squares_from_r`` on one training set (X, y), its failures as ``(index, message)`` in index order."""
    n, p = X.shape
    union = _union(column_sets)
    R_aug = _augmented_r(X, y, union) if column_sets else np.zeros((0, 1))
    B, rss, factors, failed = _least_squares_from_r(R_aug, n, p, column_sets, union)
    failures = [(int(k), _fit_failure(n, len(column_sets[k]))) for k in np.flatnonzero(failed)]
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
    if d == 0:
        raise DataError("design matrix has no columns")
    B, rss, _, failures = _least_squares(X_k, y, [range(d)])
    if failures:
        raise SingularDesignError(failures[0][1], model=model)
    return FitResult(beta=B[0], loglik=_gaussian_profile_loglik(rss[0], n), dim=d)


# ---------------------------------------------------------------------------
# logistic family
# ---------------------------------------------------------------------------


def _bernoulli_loglik(eta: np.ndarray, y: np.ndarray):
    # sum_i [ y_i eta_i - log(1 + e^eta_i) ] on the last axis, with soft y allowed.
    return np.vecdot(y, eta) - np.logaddexp(0.0, eta).sum(axis=-1)


def _slices(marked) -> list[tuple]:
    """The index tuples of the slices ``marked`` flags (``()`` for an unstacked one)."""
    if not marked.any():  # argwhere costs about 10 us even on nothing
        return []
    return [tuple(i.tolist()) for i in np.argwhere(marked)]


def _freeze(failures: dict, failed, active, error):
    """Record ``error(i)`` for every slice i that ``failed`` marks, and return ``active`` without them."""
    for i in _slices(failed):
        failures[i] = error(i)
    return active & ~failed


def _damped_newton(X, target, merit, *, model, label, separation=""):
    """Solve the score equation X'(target - p(X beta)) = 0 from beta = 0, on every leading axis.

    ``X`` is one n x d design and ``target`` its n-vector, or such
    problems of one (n, d) stacked along leading axes, one per slice.
    ``merit(eta, size)``, with ``size`` the score's infinity norm, is
    the value each step must not raise beyond roundoff
    (``1e-12 * (1 + |value|)``); the step is halved until it does, at
    most ``_MAX_HALVINGS`` times.  The slices run in lockstep through
    this one loop, each with its own step, halvings, iteration count and
    ``BETA_BOUND`` guard.  A slice whose score has converged, or whose
    fit has failed, is frozen while the rest carry on: its direction is
    zero, so its step gives back its beta (beta starts at +0 and is
    never -0) and everything computed from it to the bit, and no mask or
    gather touches the others.  Every product, solve and reduction works
    slice by slice, so each slice gets the bits of its own lone fit.

    Returns beta, X beta, the merit there and the iteration counts, each
    with the leading axes, and ``failures``, a dict from the index of
    every failed slice (``()`` for a lone fit) to its error: the
    ``NonConvergenceError`` after ``MAX_ITER`` iterations or past
    ``BETA_BOUND``, worded by ``label`` and ``separation``, or the
    ``SingularDesignError`` of a singular Hessian.  A failed slice's
    other results are not a fit.
    """
    lead = X.shape[:-2]
    anything = np.ndarray.any if lead else bool  # a lone fit's flags are numpy scalars
    X_t = X.swapaxes(-1, -2)
    beta = np.zeros((*lead, X.shape[-1]))
    eta = np.matvec(X, beta)
    p = expit(eta)
    score = np.matvec(X_t, target - p)
    size = np.abs(score).max(axis=-1)
    value = merit(eta, size)
    iterations = np.zeros(lead, dtype=int)
    failures = {}
    full_step = np.ones((*lead, 1))
    active = ~(size <= SCORE_TOL)  # a NaN score runs on into an error
    passes = 0  # an active slice has made every pass: its iteration count
    while anything(active):
        if passes >= MAX_ITER:
            _freeze(failures, active, active, lambda i: NonConvergenceError(
                f"{label} did not converge in {MAX_ITER} iterations", model=model, iterations=MAX_ITER
            ))
            break
        H = (X * (p * (1.0 - p))[..., None]).swapaxes(-1, -2) @ X
        with np.errstate(invalid="ignore"):
            direction = lapack_solve(H, score)
        singular = ~np.isfinite(direction).all(axis=-1)
        if anything(singular):  # a frozen slice's may be singular still
            active = _freeze(failures, singular & active, active, lambda i: SingularDesignError(
                "singular Hessian in logistic fit (rank-deficient design)", model=model
            ))
            if not anything(active):
                break
        if lead:
            direction = np.where(active[..., None], direction, 0.0)  # a frozen slice stays put
        step = full_step
        slack = 1e-12 * (1.0 + np.abs(value))  # roundoff-level non-improvement still accepts
        for _ in range(_MAX_HALVINGS):
            candidate = beta + step * direction
            eta_cand = np.matvec(X, candidate)
            p_cand = expit(eta_cand)
            score_cand = np.matvec(X_t, target - p_cand)
            size_cand = np.abs(score_cand).max(axis=-1)
            value_cand = merit(eta_cand, size_cand)
            rejected = ~(value_cand <= value + slack)  # a frozen slice gives back its value
            if not anything(rejected):
                break
            step = np.where(rejected[..., None], 0.5 * step, step)
        beta, eta, p, score = candidate, eta_cand, p_cand, score_cand
        size, value = size_cand, value_cand
        iterations = iterations + active
        passes += 1
        diverged = np.abs(beta).max(axis=-1) > BETA_BOUND
        if anything(diverged):  # a frozen slice may be past the bound already
            active = _freeze(failures, diverged & active, active, lambda i: NonConvergenceError(
                f"{label} diverged{separation}: |beta|_inf > {BETA_BOUND:g} after {int(iterations[i])} iterations",
                model=model,
                iterations=int(iterations[i]),
            ))
        active = active & ~(size <= SCORE_TOL)
    return beta, eta, value, iterations, failures


_DEGENERATE_MESSAGE = "degenerate response (all outcomes identical): the MLE does not exist"


def _mle_fits(X, y, *, model=None):
    """Logistic MLEs of 0/1 responses y on X, on every leading axis: beta, loglik, iterations, failures.

    One ``_damped_newton`` loop on -loglik for the whole stack.  A slice
    whose responses are all equal has no MLE and fails as degenerate, as
    ``logistic_mle`` fails before its loop; in a stack it runs with the
    others, but its results are not a fit.  ``failures`` maps each failed
    slice's index (``()`` for a lone fit) to its error, which names
    ``model``.
    """
    beta, _, neg_ll, iterations, failures = _damped_newton(
        X,
        y,
        lambda eta, size: -_bernoulli_loglik(eta, y),
        model=model,
        label="logistic fit",
        separation=" (possible separation)",
    )
    for i in _slices((y == y[..., :1]).all(axis=-1)):
        failures[i] = NonConvergenceError(_DEGENERATE_MESSAGE, model=model)
    return beta, -neg_ll, iterations, failures


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
    if not ((y == 0.0) | (y == 1.0)).all():
        raise DataError("logistic responses must be coded 0/1")
    if (y == y[0]).all():
        # constant response: the likelihood increases without bound
        raise NonConvergenceError(_DEGENERATE_MESSAGE, model=model)
    beta, loglik, iterations, failures = _mle_fits(X_k, y, model=model)
    if failures:
        raise failures[()]
    return FitResult(beta=beta, loglik=float(loglik), dim=X_k.shape[1], iterations=int(iterations))


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
    beta, eta, _, iterations, failures = _damped_newton(
        X_k,
        target,
        lambda eta, size: size,
        model=model,
        label="logistic pseudo-fit",
    )
    if failures:
        raise failures[()]
    return FitResult(
        beta=beta,
        loglik=float(_bernoulli_loglik(eta, target)),
        dim=X_k.shape[1],
        iterations=int(iterations),
    )
