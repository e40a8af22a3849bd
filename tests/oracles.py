"""Independent reference implementations used by the test suite.

Everything here recomputes a quantity along a different code path than
the library (explicit inverses, literal double sums, brute-force
enumeration, exhaustive grids, plain full-step Newton), so agreement is
evidence of correctness rather than self-confirmation.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from glmavg import (
    AveragedEstimate,
    FitResult,
    LinearAveragingPredictor,
    LogisticAveragingPredictor,
    QuadraticForm,
    aic_weights,
    enumerate_all_subsets,
    equal_weights,
    logistic_mle,
    logistic_pseudo_fit,
    ols_fit,
    solve_simplex_qp,
    subset_columns,
    subset_point,
    substream,
)
from glmavg import glm_fit


@dataclass(frozen=True)
class LinearFullFit:
    """Full-design OLS fit with the divisor-n residual variance."""

    beta_full: np.ndarray
    sigma2: float
    fitted: np.ndarray


def full_linear_fit(X, y) -> LinearFullFit:
    """OLS on the full design, its residual variance from an n-row residual pass with divisor n, not n - d.

    The library takes sigma2 from the R factor of [X | y] instead
    (``LinearQFactory.sigma2``); this pass is the independent check.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    beta = ols_fit(X, y).beta
    fitted = X @ beta
    sigma2 = float(np.mean((y - fitted) ** 2))
    return LinearFullFit(beta_full=beta, sigma2=sigma2, fitted=fitted)


def q_linear_double_sum(X, y, models, x_star):
    """Literal double-sum of the estimated-MSE form (explicit inverses)."""
    full = full_linear_fit(X, y)
    mu_full = x_star @ full.beta_full
    K = len(models)
    bias = np.zeros(K)
    Q = np.zeros((K, K))
    for k, m in enumerate(models):
        Xk = subset_columns(X, m)
        xk = subset_point(x_star, m)
        beta_k = np.linalg.solve(Xk.T @ Xk, Xk.T @ y)
        bias[k] = xk @ beta_k - mu_full
    for k, mk in enumerate(models):
        Xk = subset_columns(X, mk)
        xk = subset_point(x_star, mk)
        for kp, mkp in enumerate(models):
            Xkp = subset_columns(X, mkp)
            xkp = subset_point(x_star, mkp)
            variance = full.sigma2 * (
                xk
                @ np.linalg.inv(Xk.T @ Xk)
                @ (Xk.T @ Xkp)
                @ np.linalg.inv(Xkp.T @ Xkp)
                @ xkp
            )
            Q[k, kp] = bias[k] * bias[kp] + variance
    return Q


def q_logistic_double_sum(X, y, models, x_star):
    """Literal double-sum for the logistic probability functional."""
    full = logistic_mle(X, y)
    p_full = expit(X @ full.beta)
    p_full_star = expit(x_star @ full.beta)
    W_true = np.diag(p_full * (1.0 - p_full))
    parts = []
    for m in models:
        Xk = subset_columns(X, m)
        xk = subset_point(x_star, m)
        pf = logistic_pseudo_fit(Xk, p_full)
        pk_vec = expit(Xk @ pf.beta)
        pk_star = expit(xk @ pf.beta)
        Mk = Xk.T @ np.diag(pk_vec * (1.0 - pk_vec)) @ Xk
        parts.append((Xk, xk, pk_star, Mk))
    K = len(models)
    Q = np.zeros((K, K))
    for k, (Xk, xk, pks, Mk) in enumerate(parts):
        for kp, (Xkp, xkp, pkps, Mkp) in enumerate(parts):
            bias_term = (pks - p_full_star) * (pkps - p_full_star)
            variance = (
                pks
                * (1 - pks)
                * (xk @ np.linalg.inv(Mk) @ (Xk.T @ W_true @ Xkp) @ np.linalg.inv(Mkp) @ xkp)
                * pkps
                * (1 - pkps)
            )
            Q[k, kp] = bias_term + variance
    return Q


def _reduced_factor(X, y, column_sets, k):
    # Candidate k's R factor of [X_k | y], reduced from [X_U | y]'s, and its dimension.
    union = sorted(set().union(*column_sets))
    R_aug = np.linalg.qr(np.column_stack([X[:, union], y]), mode="r")
    local = [union.index(c) for c in column_sets[k]]
    return np.linalg.qr(R_aug[:, local + [len(union)]], mode="r"), len(local)


def reduced_guard_rejects(X, y, column_sets, k, cond_limit):
    """The condition guard's verdict on candidate k's own reduced R_k (True = reject).

    The guard asked of each candidate alone, with no union check: one
    ``np.linalg.svd`` of the R_k that ``reduced_ols_fit`` solves with,
    kept when its smallest singular value is positive and its condition
    number is at most ``cond_limit``.
    """
    T, d = _reduced_factor(X, y, column_sets, k)
    s = np.linalg.svd(T[:d, :d], compute_uv=False)
    return not (s[-1] > 0 and s[0] <= cond_limit * s[-1])


def reduced_ols_fit(X, y, column_sets, k):
    """Candidate k's OLS fit reduced on its own from the R factor of [X_U | y].

    U is the union of ``column_sets``.  One ``mode="r"`` QR of the
    candidate's columns of that factor and its y column, unstacked, gives
    R_k, Q_k'y and the RSS; ``np.linalg.solve`` gives beta.  This is the
    reduction ``LinearQFactory`` runs in stacks, one matrix at a time.
    """
    T, d = _reduced_factor(X, y, column_sets, k)
    n = X.shape[0]
    beta = np.linalg.solve(T[:d, :d], T[:d, d])
    rss = T[d, d] ** 2 if T.shape[0] > d else 0.0
    with np.errstate(divide="ignore"):
        loglik = -0.5 * n * (np.log(2.0 * np.pi * np.asarray(rss) / n) + 1.0)
    return FitResult(beta=beta, loglik=loglik, dim=d)


def pseudo_true_linear(X_k, X, beta):
    """Population least-squares projection of the full-model mean X beta onto model k.

    (X_k'X_k)^{-1} X_k' X beta by the normal equations: the coefficients
    at which model k's expected score vanishes.
    """
    return np.linalg.solve(X_k.T @ X_k, X_k.T @ (X @ beta))


def grid_min_objective(Q, step=1e-3):
    """Exhaustive simplex-grid minimum of w'Qw for K in {1, 2, 3}."""
    K = Q.shape[0]
    if K == 1:
        return float(Q[0, 0])
    grid = np.arange(0.0, 1.0 + step / 2, step)
    if K == 2:
        W = np.column_stack([grid, 1.0 - grid])
    else:
        w1, w2 = np.meshgrid(grid, grid, indexing="ij")
        keep = w1 + w2 <= 1.0 + 1e-12
        W = np.column_stack([w1[keep], w2[keep], 1.0 - w1[keep] - w2[keep]])
    return float(np.min(np.einsum("ij,jk,ik->i", W, Q, W)))


def newton_logistic_oracle(X, y, tol=1e-12, iters=500):
    """Independent plain Newton logistic solver (full steps, explicit solve)."""
    beta = np.zeros(X.shape[1])
    for _ in range(iters):
        p = 1.0 / (1.0 + np.exp(-(X @ beta)))
        score = X.T @ (y - p)
        if np.max(np.abs(score)) < tol:
            break
        H = X.T @ (X * (p * (1.0 - p))[:, None])
        beta = beta + np.linalg.solve(H, score)
    return beta


def random_psd(rng, K):
    """Random quadratic form b b' + A'A from a normal bias b and (K + 3) x K Gram factor A."""
    b = rng.standard_normal(K)
    A = rng.standard_normal((K + 3, K))
    return QuadraticForm.from_parts(b, A)


def aic_weights_reference(fits):
    """Smoothed-AIC weights from a list of per-model fits (loglik, dim), one at a time."""
    aic = np.array([-2.0 * f.loglik + 2.0 * f.dim for f in fits])
    best = np.min(aic)
    if best == -np.inf:
        mask = np.isneginf(aic)
        return mask.astype(float) / mask.sum()
    w = np.exp(-0.5 * (aic - best))
    return w / w.sum()


def select_best_subset_reference(train, select_by="cv", n_folds=5, seed=0, repeat=0):
    """All-subsets selection by one ``ols_fit`` per candidate (and per inner fold).

    The folds are ``crossval._select``'s: the permutation of the
    (seed, "folds", repeat) stream, split into ``n_folds`` near-equal parts.
    Ties break toward the earlier model.
    """
    candidates = enumerate_all_subsets(1, train.d - 1)
    if select_by == "aic":
        aics = []
        for model in candidates:
            fit = ols_fit(subset_columns(train.design, model), train.response, model=model)
            aics.append(-2.0 * fit.loglik + 2.0 * fit.dim)
        return candidates[int(np.argmin(aics))]
    perm = substream(seed, "folds", repeat).permutation(train.n)
    scores = np.zeros(len(candidates))
    for fold in np.array_split(perm, n_folds):
        mask = np.ones(train.n, dtype=bool)
        mask[fold] = False
        inner, held = train.take(np.flatnonzero(mask)), train.take(fold)
        for j, model in enumerate(candidates):
            fit = ols_fit(subset_columns(inner.design, model), inner.response, model=model)
            pred = subset_columns(held.design, model) @ fit.beta
            scores[j] += float(np.mean((held.response - pred) ** 2)) * fold.size
    return candidates[int(np.argmin(scores))]


def predict_reference(factory, x_star, scheme):
    """``predict``'s averaged estimate from the factory's public calls, one scheme at a time.

    The per-model values from ``per_model_values``; the weights from
    ``q_form`` and one ``solve_simplex_qp`` (``optimal``), from
    ``aic_weights`` of the factory's log-likelihoods and dimensions
    (``aic``), or ``equal_weights`` (``equal``).  Errors come in the
    order a lone prediction meets them: x*, then the plug-in, then the
    solver.
    """
    per_model = factory.per_model_values(x_star)
    q_hat = solution = None
    if scheme == "optimal":
        q_hat = factory.q_form(x_star)
        solution = solve_simplex_qp(q_hat)
        weights = solution.weights
    elif scheme == "aic":
        weights = aic_weights(factory.logliks(), factory.dims())
    elif scheme == "equal":
        weights = equal_weights(len(factory.models))
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    return AveragedEstimate(
        value=float(weights @ per_model), weights=weights, per_model=per_model, q_hat=q_hat, solution=solution
    )


def study_draw_reference(config, rep, change=None):
    """A study replication's (X, y), drawn alone from ``substream(seed, *tags, rep)`` with the tags re-keyed.

    ``change(config, rep, X, y)``, when given, then alters them in place,
    as the ``change_draws`` fixture alters a study's draws.
    """
    rng = substream(config.seed, *config.tags, rep)
    n = config.n
    X = np.column_stack([np.ones(n), rng.standard_normal((n, config.beta_true.shape[0] - 1))])
    eta = X @ config.beta_true
    if config.family == "linear":
        y = eta + rng.standard_normal(n)
    else:
        # the library's expit, so that no rounding of scipy's can flip a draw
        y = (rng.random(n) < glm_fit.expit(eta)).astype(float)
    if change is not None:
        change(config, rep, X, y)
    return X, y


def linear_estimates_reference(config, X, y):
    """A linear study replication's estimates from one predictor fitted to its own training set.

    One ``LinearAveragingPredictor`` per replication, asked for each
    scheme in turn through ``predict_reference``, then the oracle: the
    predictor's own value when the oracle is a candidate, its
    ``beta_full`` for the full design, else one ``ols_fit`` of the
    oracle's columns.
    """
    predictor = LinearAveragingPredictor(X, y, config.candidate_set)
    values = [predict_reference(predictor, config.x_star, scheme).value for scheme in config.schemes]
    oracle, models = config.oracle, config.candidate_set.models
    if oracle in models:
        values.append(float(predictor.per_model_values(config.x_star)[models.index(oracle)]))
    elif oracle is not None:
        cols = oracle.column_indices()
        beta = predictor.beta_full if len(cols) == X.shape[1] else ols_fit(X[:, cols], y, model=oracle).beta
        values.append(float(config.x_star[cols] @ beta))
    return values


def logistic_estimates_reference(config, X, y):
    """A logistic study replication's estimates from one predictor fitted to its own training set.

    One ``LogisticAveragingPredictor`` per replication, asked for each
    scheme in turn through ``predict_reference``, then the oracle: the
    predictor's own value when the oracle is a candidate, else one
    ``logistic_mle``: of the whole X when the oracle is the full design,
    as the predictor's plug-in fits it, and of the oracle's columns
    otherwise.
    """
    predictor = LogisticAveragingPredictor(X, y, config.candidate_set)
    values = [predict_reference(predictor, config.x_star, scheme).value for scheme in config.schemes]
    oracle, models = config.oracle, config.candidate_set.models
    if oracle in models:
        values.append(float(predictor.per_model_values(config.x_star)[models.index(oracle)]))
    elif oracle is not None:
        cols = oracle.column_indices()
        beta = logistic_mle(X if len(cols) == X.shape[1] else X[:, cols], y, model=oracle).beta
        values.append(float(glm_fit.expit(float(config.x_star[cols] @ beta))))
    return values
