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
* logistic family: b_k = p_k* - p_full at x*, with p_k* model k's
  pseudo-true probability, the fit of model k against the full-model
  fitted probabilities p_full, and entry (j, k) of A'A is
  p_j*(1-p_j*) x_j*' M_j^{-1} X_j' W_full X_k M_k^{-1} x_k* p_k*(1-p_k*),
  with M_k = X_k' diag(p_k(1-p_k)) X_k and W_full = diag(p_full(1-p_full)).
  Since W_full^{1/2} X = Q_w R_w and Q_w'Q_w = I, the factor is taken as
  a_k = R_w S_k M_k^{-1} x_k* p_k*(1-p_k*), with S_k the p x d_k column
  selector of model k, so A has p rows here too.  That fit against
  p_full is model k's own MLE: the logit link is canonical, so the full
  MLE solves X'(y - p_full) = 0, and as X_k = X S_k,
  X_k'(p_full - p(X_k beta)) = X_k'(y - p(X_k beta)) for every beta; the
  two score equations are one (McCullagh & Nelder 1989).  The plug-in
  therefore reads the MLEs the factory already has, the logistic twin
  of the linear B_pl = B, and the full design's MLE, a candidate's or
  the one fit of the full design in the designs' list.

Both are one assembly (``_Fits.q_parts``) with link h and slope h':
the identity and 1 for linear targets, expit and p(1-p) for logistic
ones.  Each family's designs (``_LinearDesigns``, ``_LogisticDesigns``)
are its one record: its link, its response law and its cost per
replication, which the study harness reads, and the designs its fit
factors, a study's oracle among them.  Both records read the same
fields off their candidates and list the same designs beyond them, the
full design and a study oracle's own columns, each fitted once per
training set (``_Designs.own``), which the plug-in and the oracle both
read (``_Fits.fitted``).  Both plug-ins write their
padded inverse Grams through one routine (``_padded_inverses``), and
the linear fit and both plug-ins name a training set's first failing
design by one rule (``_design_errors``).  Both factories check their
(X, y) with ``glm_fit._checked_data`` before any fit, and defer the
plug-in fit, and with it every matrix inverse, to the first
``q_form``.  Each family's fit and plug-in
(``_LinearFits``, ``_LogisticFits``, made by its designs' ``fit``) take
one training set or many stacked along leading axes, one per slice, and
so do the per-model values and the Qhat assembly: a factory runs them
on one training set, with no leading axis, and the study harness on a
stack of replications at once (``averaging._average_stack``), the
linear family on their R factors with one LAPACK call per model size,
the logistic family on their designs with one damped Newton loop per
candidate and one QR, guard SVD and inverse per candidate for the
plug-in.  Every stacked call works slice by slice, so each replication
keeps the bits of its own factory.

The factored construction keeps Qhat symmetric positive semidefinite by
construction; tests cross-check it entrywise against the literal
double-sum expressions.  For both families A has p rows, one per column
of the full design, whatever the number of observations.

Optimal weights minimise w'Qhat w over the probability simplex.  Since
Qhat = M'M with M = [b'; A], that is the search for the point of
conv{columns of M} nearest the origin, which Wolfe's algorithm ("Finding
the nearest point in a polytope", Math. Programming 11, 1976) solves
exactly in finitely many steps from b and A alone, so the solver takes
only a ``QuadraticForm`` and never a dense K x K matrix; ``matrix`` is
built only for display and checks.  Its corral systems,
at most p + 2 square and about ten per prostate prediction, go to LAPACK
``gesv`` through numpy's own gufunc (``glm_fit.lapack_solve``): the same
bits as ``np.linalg.solve`` without its per-call wrapper, which cost
about 6 of 8 us per call and a third of the solve.  Every weight vector
returned is certified: its KKT residual, recomputed from M, is at most
2e-12 max_k Q_kk.  When that fast run raises or its answer fails the
certificate, which a corral system singular to roundoff can cause, the
algorithm runs once more with each corral system solved through the QR
factor of the corral's points instead of their Gram matrix, and only
when that answer fails too is ``NumericalError`` raised.  A study stack
makes its fast runs in one lockstep loop (``_lockstep``), with each
form's bits.  The
weights need not be unique, since faces of the hull can be affinely
dependent; M w is, and with it the objective and, for linear targets,
the averaged estimate x*'beta_full + (M w)_0.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import DataError, NumericalError, SingularDesignError, _returned
from .glm_fit import (
    INVERSE_RANGE_MESSAGE,
    _augmented_r,
    _checked_data,
    _fit_failure,
    _float_array,
    _frozen,
    _gaussian_profile_loglik,
    _integer,
    _least_squares_from_r,
    _mle_fits,
    _require_binary,
    _slices,
    _union,
    expit,
    ill_conditioned,
    lapack_inv,
    lapack_qr_r,
    lapack_solve,
    # no longer called here; perfbench/tracer.py looks them up here
    logistic_mle,
    logistic_pseudo_fit,
    require_finite,
)
from .model_space import CandidateModel

SOLVER_MAX_ITER = 10_000  # major cycles of the weight solver
_GAP_TOL = 1e-12  # stop at a Frank-Wolfe gap <= _GAP_TOL * max_k Q_kk
_KKT_TOL = 2e-12  # certify a KKT residual <= _KKT_TOL * max_k Q_kk
_DROP_TOL = 1e-10  # a corral weight at or below this leaves the corral
_ZERO = np.zeros(1)  # the weight of a point entering the corral


@dataclass(frozen=True)
class QuadraticForm:
    """Estimated-MSE quadratic form: bias vector b, Gram factor A, matrix b b' + A'A.

    A is (rows, K).  Both factories give it p rows, the full design's
    column count; any factor with the same A'A gives the same form.  The
    solver reads only b and A; the dense K x K ``matrix`` is built from
    them on first access and kept.
    """

    bias: np.ndarray
    gram_factor: np.ndarray

    @classmethod
    def from_parts(cls, bias: np.ndarray, gram_factor: np.ndarray) -> "QuadraticForm":
        bias, gram_factor = _frozen(bias), _frozen(gram_factor)
        if bias.ndim != 1 or gram_factor.ndim != 2 or gram_factor.shape[1] != bias.shape[0]:
            raise DataError("bias must be (K,) and gram_factor (rows, K)")
        if bias.shape[0] == 0:
            raise DataError("a quadratic form needs at least one model")
        return cls(bias=bias, gram_factor=gram_factor)

    @cached_property
    def matrix(self) -> np.ndarray:
        matrix = np.outer(self.bias, self.bias) + self.gram_factor.T @ self.gram_factor
        matrix = 0.5 * (matrix + matrix.T)
        matrix.flags.writeable = False
        return matrix


@dataclass(frozen=True)
class WeightSolution:
    """Simplex point returned by the weight solver, with diagnostics."""

    weights: np.ndarray
    objective: float
    iterations: int
    kkt_residual: float

    def __post_init__(self):
        object.__setattr__(self, "weights", _frozen(self.weights))


# ---------------------------------------------------------------------------
# Qhat construction
# ---------------------------------------------------------------------------


def _checked_point(x_star: np.ndarray, p: int) -> np.ndarray:
    """x* as a float vector of length p with finite entries, else DataError."""
    x_star = _float_array(x_star)
    if x_star.shape != (p,):
        raise DataError(f"x_star must be a vector of length {p}, got shape {x_star.shape}")
    require_finite("x_star", x_star)
    return x_star


class _CandidateFactory:
    """Every candidate's fit on one (X, y), reusable across many x*.

    A subclass names its family's designs (``_Designs``: what a training
    set keeps for the fit, ``reduce``, and the fit of one such training
    set or of a stack of them, ``fit``).  A factory is that fit on one
    training set, with no leading axis: it raises the fit's first error,
    and its per-model values and ``q_form`` are the fits' own
    (``_Fits.values`` and ``_Fits.q_parts``) on that one set, the
    routines the study harness runs on a whole stack
    (``averaging._average_stack``).  Selection and the ``aic`` and
    ``equal`` schemes never call ``q_form``, so they never pay for the
    plug-in.  A factory may hold no candidates (``cv_compare`` builds
    one only for ``beta_full``); its ``q_form`` raises ``DataError``
    before any plug-in fit.  Before any fit, (X, y) go through
    ``glm_fit._checked_data``, each model's columns are checked against
    X's, and the logistic designs' ``reduce`` checks the 0/1 coding, so
    a malformed input is a ``DataError``.  The averaging predictors
    subclass these factories (``averaging.LinearAveragingPredictor``,
    ``LogisticAveragingPredictor``) and add only ``predict``.
    """

    def __init__(self, X: np.ndarray, y: np.ndarray, models: Sequence[CandidateModel]):
        X, y = _checked_data(X, y)
        n, p = X.shape
        models = list(models)
        for model in models:
            if model.columns[-1] >= p:
                raise DataError(f"design has {p} columns, model needs column {model.columns[-1]}")
        designs = self._Designs(models, p)
        fits = designs.fit(*designs.reduce(X, y), n)
        _returned(fits.fit_error())
        self.models, self._fits = models, fits
        self._B, self._logliks = fits.B, fits.logliks
        self._B.flags.writeable = False
        self._logliks.flags.writeable = False

    def padded_betas(self) -> np.ndarray:
        """Read-only K x p coefficients, zero where a candidate leaves a column out."""
        return self._B

    def logliks(self) -> np.ndarray:
        """Read-only maximised log-likelihoods, one per candidate."""
        return self._logliks

    def dims(self) -> np.ndarray:
        return self._fits.designs.dims

    def per_model_values(self, x_star: np.ndarray) -> np.ndarray:
        """h(x_k*' beta_k) for every candidate (the per-model functional estimates)."""
        return self._fits.values(_checked_point(x_star, self._B.shape[1]))

    def q_form(self, x_star: np.ndarray) -> QuadraticForm:
        x_star = _checked_point(x_star, self._B.shape[1])
        if not self.models:
            raise DataError("a quadratic form needs at least one model")
        fits = self._fits
        _returned(fits.plug_in_error())
        return QuadraticForm.from_parts(*fits.q_parts(x_star, fits.values(x_star)))


class _Fits:
    """What both families' fits share: per-model values, Qhat's parts and oracle values at x*, on every leading axis.

    A subclass keeps its ``designs``, the family's record, whose link h
    and ``by_slope`` (which scales row k of G x* by the slope h'(v_k);
    the identity's slope is 1, so the linear rows stay as they are) it
    reads, and gives ``B``, the padded coefficients (K x p per training
    set), ``plug_in``: the full model's coefficients beta_full, the
    padded inverse Grams G (K p x p) and a p x p factor R, and
    ``fitted``: the fit of one design of the designs' list (fit 0, the
    candidates', or one listed beyond them, ``_Designs.own``), which the
    plug-in and ``oracle_values`` both read.  Under both canonical links
    each candidate's plug-in coefficients are B itself, so with
    v = h(B x*) the bias is v - h(x*'beta_full) and
    the Gram factor R (G x*)' diag(h'(v)).  The same routines serve one
    training set (a factory) and a stack of them (the study harness):
    every product works slice by slice, so a stacked training set keeps
    the bits of its own factory.  A subclass keeps each failed training
    set's first error, in the order a lone fit meets them, in
    ``_errors`` and, once the plug-in is made, in ``_plug_in_errors``,
    so a set with none is a dictionary miss.
    """

    def fit_error(self, i=()):
        """Training set ``i``'s first fit failure, or None."""
        return self._errors.get(i)

    def plug_in_error(self, i=()):
        """Training set ``i``'s first plug-in failure, or None; makes the plug-in first."""
        self.plug_in()
        return self._plug_in_errors.get(i)

    def values(self, x_star: np.ndarray) -> np.ndarray:
        """h(B x*): every candidate's value at x*, for every training set."""
        return self.designs.link(self.B @ x_star)

    def oracle_values(self, x_star: np.ndarray, values: np.ndarray):
        """The designs' oracle's value at x* for every training set, and the failures of its fit by set.

        ``values`` is ``self.values(x_star)``.  An oracle that is a
        candidate reads its values.  Any other reads its one fit in the
        designs' list (``fitted``): the full design's (``full_at``),
        which the plug-in reads too, or its own columns', the last one.
        Each set's value is h of its own dot product on a fresh copy of
        its coefficients, with the bits of a lone ``ols_fit`` or
        ``logistic_mle``, and its failures are copies that name the
        oracle.
        """
        designs, oracle = self.designs, self.designs.oracle
        if designs.oracle_k is not None:
            return values[..., designs.oracle_k], {}
        beta, failures = self.fitted(*(designs.full_at if oracle.dim == designs.p else (len(designs.own), 0)))
        x_o = x_star[oracle.column_indices()]
        with np.errstate(all="ignore"):  # a set that failed its fit may hold anything
            dots = [x_o @ beta[i].copy() for i in np.ndindex(beta.shape[:-1])]
        failures = {i: copy.copy(error) for i, error in failures.items()}
        for error in failures.values():
            error.model = oracle
        return designs.link(np.reshape(dots, beta.shape[:-1])), failures

    def q_parts(self, x_star: np.ndarray, values: np.ndarray):
        """Qhat's bias and Gram factor at x* for every training set, with ``values`` = ``self.values(x_star)``.

        Only a training set with a fit and no ``plug_in_error`` has a form
        here.  The full model's value is its own dot product (``vecdot``,
        one per training set), not a row of a matmul, which BLAS may round
        differently.
        """
        beta_full, G, R = self.plug_in()
        G_x = (G @ x_star).reshape(*values.shape, -1)
        bias = values - self.designs.link(np.vecdot(x_star, beta_full))[..., None]
        return bias, R @ self.designs.by_slope(G_x, values).mT


def _design_errors(failed, models, message, errors=None) -> dict:
    """The ``SingularDesignError`` of each training set's first design that ``failed`` marks, by set.

    ``failed`` marks, on its last axis, the K candidates in order, then
    possibly the full design when it is not one of them, which names no
    model.  ``message(i, k)`` words design k's failure in set i.  A set
    already in ``errors`` keeps its error; the others are added to it
    (a new dict when None), which is returned.
    """
    errors = {} if errors is None else errors
    for i in _slices(failed.any(axis=-1)):
        if i not in errors:
            k = int(failed[i].argmax())
            errors[i] = SingularDesignError(message(i, k), model=models[k] if k < len(models) else None)
    return errors


def _padded_inverses(G, stacks):
    """Write each zero-padded (R'R)^{-1} into G, and return where G's p x p blocks are not finite.

    ``stacks`` holds (indices, columns, R) triples: R stacks the
    designs' R factors (``len(indices)`` of them, on every leading axis
    of G), ``columns`` their columns (one row per design) and ``indices``
    their blocks of G.  Each inverse is R^{-1} R^{-T}, with R^{-1} from
    one ``glm_fit.lapack_inv`` per triple; a failed inverse is NaN, and
    an overflowing one is not finite either.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        for idx, cols, R in stacks:
            R_inv = lapack_inv(R)
            G[..., idx[:, None, None], cols[:, :, None], cols[:, None, :]] = R_inv @ np.swapaxes(R_inv, -1, -2)
    return ~np.isfinite(G).all(axis=(-2, -1))


class _Designs:
    """What both families' records read off their candidates, and the one list of designs a training set fits.

    ``models`` are the K candidates over p columns, ``cols`` their
    columns, ``dims`` their read-only coefficient counts and ``full`` the
    index of the candidate with all p columns, or None.  ``oracle`` is a
    study's oracle model or None, and ``oracle_k`` its index among the
    candidates, or None.  ``own`` lists, in order, the designs a training
    set fits beyond its candidates, each once: the full design when no
    candidate is it, then a study oracle's columns when the oracle is
    neither a candidate nor the full design.  Fit 0 is the candidates'
    and fit j > 0 is ``own[j - 1]``'s; ``full_at`` is the (fit, row) that
    holds the full design's fit.
    """

    def __init__(self, models, p: int, oracle: CandidateModel | None = None):
        self.models, self.p, self.oracle = models, p, oracle
        self.cols = [model.columns for model in models]
        self.dims = np.array([model.dim for model in models])
        self.dims.flags.writeable = False
        # columns are strictly increasing and below p, so only the full design has p of them
        self.full = next((k for k, cols in enumerate(self.cols) if len(cols) == p), None)
        self.oracle_k = models.index(oracle) if oracle in models else None
        self.own, self.full_at = ([], (0, self.full)) if self.full is not None else ([range(p)], (1, 0))
        if oracle is not None and self.oracle_k is None and oracle.dim < p:
            self.own.append(oracle.column_indices())


class _LinearDesigns(_Designs):
    """The linear family's record: its link and response law, and the designs its candidate fit factors.

    The link h is the identity (slope 1), and a study's response is
    eta plus one standard normal draw per row (``respond``); ``rep_ms``
    is a stacked study replication's cost (``sim_harness._rep_ms``).
    Beside what every record reads off its candidates (``_Designs``),
    ``sets`` are the column sets reduced from R_aug, the factor of the
    candidates' union U: the candidates' and, with no full candidate,
    the full design's when U is every column, as set K, which then
    leaves ``own``.  Fit 0 reduces ``sets`` and fit j > 0 reduces
    ``own[j - 1]`` from an n-row factor of its own.
    """

    link = staticmethod(lambda eta: eta)
    by_slope = staticmethod(lambda G_x, mu: G_x)  # h' = 1
    respond = staticmethod(lambda eta, rng: eta + rng.standard_normal(len(eta)))
    rep_ms = (0.0074, 1.5e-5)

    def __init__(self, models, p: int, oracle: CandidateModel | None = None):
        super().__init__(models, p, oracle)
        self.K, self.sets, self.union = len(self.cols), self.cols, _union(self.cols)
        if self.full is None and len(self.union) == p:
            del self.own[0]
            self.sets, self.full_at = [*self.cols, range(p)], (0, self.K)

    def reduce(self, X, y):
        """What one training set (X, y) keeps: R_aug of [X_U | y], then the R factor of [X_o | y] per X_o in ``own``."""
        R_aug = _augmented_r(X, y, self.union) if self.sets else np.zeros((0, 1))
        return R_aug, *(_augmented_r(X, y, cols) for cols in self.own)

    def kept(self, n: int) -> int:
        """About how many doubles a fit holds per training set of n rows.

        The n-row factors ``reduce`` keeps, each fitted design's R_k and
        the padded inverse Grams of the plug-in, (K + 1) p^2 of them.
        """
        factors = sum((len(cols) + 1) ** 2 for cols in [self.union, *self.own])
        return factors + sum(len(cols) ** 2 for cols in [*self.sets, *self.own]) + (self.K + 1) * self.p**2

    def fit(self, *parts):
        """``_LinearFits`` on what ``reduce`` kept of one training set of n rows, or of a stack of them, then n."""
        return _LinearFits(self, parts[:-1], parts[-1])


class _LinearFits(_Fits):
    """Every linear candidate's OLS fit, from the R factors of one training set or of a stack of them.

    ``factors`` are what ``designs.reduce`` returns for one training set
    of n rows, or those factors of many such training sets stacked along
    leading axes; every array here keeps those axes.  Each factor is
    reduced by one ``glm_fit._least_squares_from_r`` call, R_aug into
    ``designs.sets`` and each other into its design of ``designs.own``,
    and ``beta_full``, ``sigma2``, the plug-in's R_full and an oracle
    that is no candidate (``fitted``) read those fits.  A training set
    that failed (in one of the K candidates, or in the full design when
    it is none of them) has no fit, and ``fit_error`` names its first
    failing design.
    """

    def __init__(self, designs: _LinearDesigns, factors, n: int):
        K, p, (j, f) = designs.K, designs.p, designs.full_at
        R_aug, *R_own = factors
        fits = [_least_squares_from_r(R_aug, n, p, designs.sets, designs.union)]
        fits += [_least_squares_from_r(R, n, p, [cols], cols) for R, cols in zip(R_own, designs.own)]
        B, rss, self.factors, _ = fits[0]
        self.designs, self.models, self.n, self._fits = designs, designs.models, n, fits
        failed = np.concatenate([fit[3] for fit in fits[: j + 1]], axis=-1)  # and an own full design's
        self._errors = _design_errors(
            failed, self.models, lambda i, k: _fit_failure(n, len(designs.sets[k]) if k < K else p)
        )
        self._plug_in = None
        self.B = B[..., :K, :]
        self.logliks = _gaussian_profile_loglik(rss[..., :K], n)
        B_full, rss_full, _, _ = fits[j]
        self.beta_full = B_full[..., f, :]
        self.sigma2 = rss_full[..., f] / n

    def plug_in(self):
        """beta_full, the padded inverse Grams (K p x p) and sigma_full R_full.

        Made on the first call for every training set of the stack and
        kept; a training set that failed its fit has no plug-in, so only
        a set with a fit may read its slice.  The inverse Grams
        G_k = R_k^{-1} R_k^{-T} are one ``_padded_inverses`` call on the
        factors reduced from R_aug, one ``lapack_inv`` per model size; a
        failed or overflowing inverse is not finite, which
        ``plug_in_error`` reports as an inverse that left floating-point
        range (the fit's guard has passed every kept factor).
        """
        if self._plug_in is not None:
            return self._plug_in
        lead = self.B.shape[:-2]
        K, p = self.B.shape[-2:]
        G = np.zeros((*lead, K + 1, p, p))  # row K: the full design when it is set K
        out_of_range = _padded_inverses(G, self.factors)
        self._plug_in_errors = _design_errors(out_of_range, self.models, lambda i, k: INVERSE_RANGE_MESSAGE)
        j, f = self.designs.full_at
        R_full = next(R[..., idx == f, :, :][..., 0, :, :] for idx, _, R in self._fits[j][2] if f in idx)
        R = np.sqrt(self.sigma2)[..., None, None] * R_full
        self._plug_in = self.beta_full, G[..., :K, :, :].reshape(*lead, K * p, p), R
        return self._plug_in

    def fitted(self, j, o):
        """Row o of fit j: its coefficients on its own columns, and its failures by training set, naming no model.

        Each listed design was reduced once for the stack, an own one as
        ``ols_fit`` of its columns reduces its one factor.
        """
        B, _, _, failed = self._fits[j]
        cols = (self.designs.sets if j == 0 else self.designs.own[j - 1 : j])[o]
        return B[..., o, cols], _design_errors(failed[..., o : o + 1], [], lambda i, k: _fit_failure(self.n, len(cols)))


class LinearQFactory(_CandidateFactory):
    """Every candidate's OLS fit on one (X, y), reusable across many x*.

    The fit is ``_LinearFits`` on this one training set: one n-row QR of
    [X_U | y] (``_LinearDesigns.reduce``), with U the union of the
    candidates' columns, then ``glm_fit._least_squares_from_r``: per
    dimension one stacked QR of the at most (p + 1)-row columns of that R
    factor, which gives every R_k, Q_k'y and RSS_k, and one LAPACK solve
    for the coefficients.  The condition guard is one SVD of X_U's factor when
    U's own set is fitted (a candidate or the full design) and that
    factor is well inside ``COND_LIMIT``; otherwise it adds one SVD per
    dimension.  With no candidates there is
    no [X_U | y] to factor.  The full design joins that factor when U is
    every column, as it is when the full design is a candidate;
    otherwise it is the one design with an n-row factor of its own
    (``_LinearDesigns.own``), reduced by the same routine.  A
    one-model set reduces a factor that is already triangular, so its
    beta and RSS are ``ols_fit``'s to the last bit; inside a larger set a
    candidate's fit agrees with ``ols_fit`` to rounding (at most 1e-14
    relative in beta over the 256 prostate candidates).  ``beta_full``
    and ``sigma2``, the divisor-n residual variance, come from the full
    design's fit, wherever it lives (``_LinearDesigns.full_at``).  The
    R factors are kept; the first ``q_form``
    inverts them, one ``glm_fit.lapack_inv`` per stack, into the padded
    inverse Grams G_k = (X_k'X_k)^{-1}.  The link is the identity, the
    plug-in is the full OLS fit, and since X = Q_full R_full,
    R = sigma_full R_full.

    A rank-deficient design raises ``SingularDesignError`` naming the
    first failing candidate in list order, or no model when the only
    failing design is the full one and it is not a candidate; so does a
    failed inverse in the first ``q_form``, which LAPACK reports as NaN.
    """

    _Designs = _LinearDesigns

    @property
    def beta_full(self) -> np.ndarray:
        return self._fits.beta_full

    @property
    def sigma2(self) -> float:
        return float(self._fits.sigma2)

    def model_betas(self) -> list[np.ndarray]:
        return [beta[model.column_indices()] for beta, model in zip(self._B, self.models)]


class _LogisticDesigns(_Designs):
    """The logistic family's record: its link and response law, and the designs of its candidate fit.

    The link h is ``expit`` (slope p(1 - p)), and a study's response at
    row i is 1 when a uniform draw falls below expit(eta_i), else 0
    (``respond``); ``rep_ms`` is a stacked study replication's cost
    (``sim_harness._rep_ms``).  A training set keeps its whole (X, y).
    The candidates and the designs listed beyond them are what every
    record reads (``_Designs``): each listed design, the full design or
    an oracle's own columns, is one more MLE, made once for the stack
    when the plug-in or the oracle first reads it.
    """

    link = staticmethod(expit)
    by_slope = staticmethod(lambda G_x, p: G_x * (p * (1.0 - p))[..., None])
    respond = staticmethod(lambda eta, rng: (rng.random(len(eta)) < expit(eta)).astype(float))
    rep_ms = (0.0061, 1.1e-4)

    def reduce(self, X, y):
        """What one training set keeps for the fit: its X and y, once the responses are checked."""
        if self.models:
            _require_binary(y)
        return X, y

    def kept(self, n: int) -> int:
        """About how many doubles a fit holds per training set of n rows.

        X, y and each candidate's columns, then the plug-in's R_k and
        padded inverse Grams.
        """
        factors = sum(len(cols) ** 2 for cols in self.cols) + len(self.cols) * self.p**2
        return n * (self.p + 1 + sum(len(cols) for cols in self.cols)) + factors

    def fit(self, X, y, n: int):
        """``_LogisticFits`` on one training set, or on a stack of them."""
        return _LogisticFits(self, X, y)


class _LogisticFits(_Fits):
    """Every logistic candidate's MLE, from one training set or from a stack of them.

    ``X`` (n x p) and ``y`` (n) are one training set, or many stacked
    along leading axes; every array here keeps those axes.  Each
    candidate is one ``glm_fit._mle_fits`` call on its columns for the
    whole stack: one damped Newton loop whose slices run in lockstep,
    each with the bits of its own lone fit.  A training set's
    ``fit_error`` is the first failure in candidate order, as a factory
    fitting its candidates in list order raises it.
    """

    def __init__(self, designs: _LogisticDesigns, X, y):
        self.models = designs.models
        self.designs, self.X, self.y, self._own = designs, X, y, {}
        lead, p = X.shape[:-2], X.shape[-1]
        K = len(designs.cols)
        self.B = np.zeros((*lead, K, p))
        self.logliks = np.zeros((*lead, K))
        self._X_k = [X[..., cols] for cols in designs.cols]
        self._betas = []
        self._errors = {}  # training set -> its first error, in the order a lone fit meets them
        for k, (model, cols, X_k) in enumerate(zip(self.models, designs.cols, self._X_k)):
            beta, loglik, _, failures = _mle_fits(X_k, y, model=model)
            self._betas.append(beta)
            self.B[..., k, cols] = beta
            self.logliks[..., k] = loglik
            for i, error in failures.items():
                self._errors.setdefault(i, error)
        self._plug_in = None

    def plug_in(self):
        """The full MLE, the padded inverse Grams at each candidate's MLE, and R_w.

        Made on the first call for every training set of the stack and
        kept: the full design's MLE (``fitted`` at ``designs.full_at``; a
        full candidate's own, or the listed full design's, whose failures
        name no model, with its R factor's condition guard), then for each
        candidate the R factor R_k of sqrt(p_k(1-p_k)) X_k at its MLE with
        its condition guard.  The inverses
        M_k^{-1} = R_k^{-1} R_k^{-T} are one ``_padded_inverses`` call,
        with indices [k] for each candidate's R_k.  R_w is the full
        design's R factor.  ``plug_in_error`` gives a training set's
        first failure in that order, and at one candidate a guard's
        rejection (``_fit_failure`` words why) before a non-finite
        M_k^{-1} that the guard passed, which left floating-point range.
        """
        if self._plug_in is not None:
            return self._plug_in
        X, cols, (j, f) = self.X, self.designs.cols, self.designs.full_at
        lead, (n, p), K = X.shape[:-2], X.shape[-2:], len(cols)
        beta_full, failures = self.fitted(j, f)
        self._plug_in_errors = errors = dict(failures)
        rejected = np.zeros((*lead, K), dtype=bool)
        stacks = []
        for k, (X_k, beta) in enumerate(zip(self._X_k, self._betas)):
            R_k, rejected[..., k] = _weighted_r(X_k, beta)
            stacks.append((np.array([k]), np.array([cols[k]]), R_k[..., None, :, :]))
        if j:  # an own full design's R_w, whose guard comes before the candidates'
            R_w, rejected_w = _weighted_r(X, beta_full)
            _design_errors(rejected_w[..., None], [], lambda i, k: _fit_failure(n, p), errors)
        else:
            R_w = stacks[f][2][..., 0, :, :]  # the full candidate's R_k
        G = np.zeros((*lead, K, p, p))
        out_of_range = _padded_inverses(G, stacks)

        def message(i, k):  # at one candidate, a guard's rejection comes before its inverse
            return _fit_failure(n, len(cols[k])) if rejected[i][k] else INVERSE_RANGE_MESSAGE

        _design_errors(rejected | out_of_range, self.models, message, errors)
        self._plug_in = beta_full, G.reshape(*lead, K * p, p), R_w
        return self._plug_in

    def fitted(self, j, o):
        """Row o of fit j: its coefficients on its own columns, and its failures by training set.

        Fit 0 is the candidates' MLEs, read here only for the full
        candidate, whose failures are fit errors already.  Fit j > 0 is
        the MLE of ``designs.own[j - 1]`` for the whole stack, made on the
        first call and kept, with failures that name no model: on X
        itself for the full design, as a lone ``logistic_mle(X, y)`` fits
        it, and on the gathered ``X[..., cols]``, the layout of the
        candidates' fits, for an oracle's own columns.
        """
        if j == 0:
            return self.B[..., o, :], self._errors
        if j not in self._own:
            cols = self.designs.own[j - 1]
            beta, _, _, failures = _mle_fits(self.X if len(cols) == self.X.shape[-1] else self.X[..., cols], self.y)
            self._own[j] = beta, failures
        return self._own[j]


def _weighted_r(X, beta):
    """R factor of sqrt(p (1 - p)) X at p = expit(X beta), on every leading axis, and its rejections.

    A factor is rejected (True) when X has fewer rows than columns or
    the condition guard ``glm_fit.ill_conditioned`` rejects it;
    ``_fit_failure`` words why.
    """
    n, d = X.shape[-2:]
    p = expit(np.matvec(X, beta))
    with np.errstate(invalid="ignore"):
        R = lapack_qr_r(np.sqrt(p * (1.0 - p))[..., None] * X)
        rejected = ill_conditioned(R) if n >= d else np.ones(X.shape[:-2], dtype=bool)
    return R, rejected


class LogisticQFactory(_CandidateFactory):
    """Every candidate's logistic fit on one (X, y), reusable across many x*.

    The fit is ``_LogisticFits`` on this one training set: each
    candidate's MLE, in list order, so a failure names the first failing
    candidate.  The link is ``expit``.  The first ``q_form`` builds the
    truth plug-in once: the full-model MLE (the candidate's own fit when
    the full design is a candidate, else the one fit of the full design
    that the designs list, which names no model when it fails), the R
    factor R_k of each candidate's weighted
    design sqrt(p_k(1-p_k)) X_k, and R = R_w, the R factor of
    W_full^{1/2} X.  Each candidate's pseudo-true coefficients, its fit
    against the full model's fitted probabilities, are its MLE (the
    identity in the module docstring), so B_pl = B and p_k, R_k are
    taken at the MLE; they agree with an explicit pseudo-fit to the
    Newton tolerance, about 1e-9 relative.  Column k of the Gram factor
    is then R_w S_k M_k^{-1} x_k* p_k*(1-p_k*) = R_w (G x*)_k p_k*(1-p_k*),
    with M_k = R_k'R_k and M_k^{-1} from ``glm_fit.lapack_inv`` on R_k;
    a failed inverse, which LAPACK reports as NaN, raises
    ``SingularDesignError`` naming the candidate.
    """

    _Designs = _LogisticDesigns


def build_q_logistic(
    X: np.ndarray,
    y: np.ndarray,
    models: Sequence[CandidateModel],
    x_star: np.ndarray,
) -> QuadraticForm:
    """Estimated-MSE form for the probability functional p(x*'beta) under logistic fits.

    The full-model MLE supplies the truth plug-in (fitted probabilities
    and their Bernoulli variances); each candidate's MLE is its
    pseudo-true fit against it.  Fit failures propagate with the
    offending model attached.
    """
    X, y = _checked_data(X, y)
    x_star = _checked_point(x_star, X.shape[1])
    return LogisticQFactory(X, y, models).q_form(x_star)


# ---------------------------------------------------------------------------
# baseline weighting schemes
# ---------------------------------------------------------------------------


def equal_weights(K: int) -> np.ndarray:
    """Uniform baseline weights 1/K; a K that is no integer, or below 1, raises ``DataError``."""
    K = _integer(K, "K", 1)
    return np.full(K, 1.0 / K)


def aic_values(logliks, dims) -> np.ndarray:
    """AIC_k = -2 loglik_k + 2 dim_k for every candidate, on every leading axis of ``logliks``."""
    logliks, dims = _float_array(logliks), _float_array(dims)
    if dims.ndim != 1 or logliks.shape[-1:] != dims.shape or dims.size == 0:
        raise DataError("logliks and dims must be non-empty vectors of the same length")
    return -2.0 * logliks + 2.0 * dims


def aic_weights(logliks, dims) -> np.ndarray:
    """Smoothed-AIC weights: w_k proportional to exp(-AIC_k / 2).

    ``logliks`` and ``dims`` are the candidates' maximised
    log-likelihoods and coefficient counts, as a factory's ``logliks()``
    and ``dims()`` give them.  The AICs are rescaled against the minimum
    so the weights are invariant under a common shift.  Infinitely good
    fits (exact linear interpolation gives loglik = +inf) share the
    weight equally among themselves (``_aic_weights``).  A NaN
    log-likelihood, or every fit infinitely bad, raises ``DataError``.
    """
    aic = aic_values(logliks, dims)
    if aic.ndim != 1:
        raise DataError("logliks and dims must be non-empty vectors of the same length")
    if np.any(np.isnan(aic)):
        raise DataError("log-likelihoods must not be NaN")
    if np.min(aic) == np.inf:
        raise DataError("every model has an infinitely bad fit; AIC weights are undefined")
    return _aic_weights(aic)


def _aic_weights(aic: np.ndarray) -> np.ndarray:
    """exp(-(AIC_k - min AIC) / 2), normalised, on the last axis of ``aic`` and every leading one.

    In a candidate set with an infinitely good fit (AIC -inf, as an
    exact linear fit has), those fits share the weight equally: each of
    them gets exp(0) and every other exp(-inf) = 0.  A set with a NaN
    AIC, or whose every fit is infinitely bad, which ``aic_weights``
    refuses, gives all NaN.
    """
    with np.errstate(invalid="ignore"):
        shift = aic - aic.min(axis=-1, keepdims=True)
        w = np.exp(-0.5 * np.where(np.isneginf(aic), 0.0, shift))
        return w / w.sum(axis=-1, keepdims=True)


# ---------------------------------------------------------------------------
# simplex-constrained quadratic program
# ---------------------------------------------------------------------------


def _gram_corral_solve(S: np.ndarray, c: float, ones: np.ndarray) -> np.ndarray:
    """u = (S S' + c 11')^{-1} 1 by LAPACK ``gesv`` on the Gram matrix: the fast path."""
    A = S @ S.T
    A += c
    return lapack_solve(A, ones)


def _qr_corral_solve(S: np.ndarray, c: float, ones: np.ndarray) -> np.ndarray:
    """The same u from the R factor of F = [sqrt(c) 1'; S'], never forming S S' + c 11'.

    F'F = c 11' + S S' = R'R, so u is two triangular solves, R'z = 1 and
    R u = z.  The Gram matrix's condition number is the square of F's,
    so a corral that is singular to roundoff there may still be solved
    here.  R is square while the corral is affinely independent, so has
    at most one point more than S has columns, as F has rows; a corral
    that roundoff let grow past that is singular, and raises
    ``NumericalError``.
    """
    if S.shape[0] > S.shape[1] + 1:
        raise NumericalError(f"weight solve failed: a corral of {S.shape[0]} points in {S.shape[1]} dimensions")
    F = np.empty((S.shape[1] + 1, S.shape[0]))
    F[0] = math.sqrt(c)
    F[1:] = S.T
    R = lapack_qr_r(F)
    return lapack_solve(R, lapack_solve(R.T, ones))


def _nearest_point(P: np.ndarray, sq_norms: np.ndarray, corral_solve=_gram_corral_solve):
    """Wolfe's algorithm: simplex weights of the point of conv{rows of P} nearest 0.

    The corral is an affinely independent set of points and x the point
    of their hull that the weights give.  Each major cycle stops if the
    Frank-Wolfe gap x'x - min_j x'p_j is at most ``_GAP_TOL`` times the
    largest Q_kk, and otherwise adds the minimising point to the corral.
    Each minor cycle moves to the affine minimiser of the corral; when
    that lies outside the simplex, it moves toward it only as far as the
    simplex allows (the ratio test) and drops the points whose weight
    falls to ``_DROP_TOL`` or below.  In exact arithmetic every major
    cycle lowers x'x; when roundoff in a nearly singular corral system
    stops that, the loop stops too and leaves the verdict to the caller's
    KKT certificate instead of cycling.  Returns the weights and the
    number of major cycles.

    The corral's points S are kept as a C-contiguous array: a point that
    enters is appended and the points that leave are masked out, so S S'
    takes the same BLAS path on every cycle.  ``corral_solve(S, c, 1)``
    gives the corral system's solution u.  On the fast path
    (``_gram_corral_solve``) the system, at most p + 2 square, goes
    straight to LAPACK ``gesv`` through ``lapack_solve``, the gufunc
    behind ``np.linalg.solve``: the bits are the same, and the wrapper's
    checks and ``errstate`` block, about 6 of its 8 us on 8 x 8 and a
    third of a prostate row's solve at about 10 corral solves per row,
    are skipped.  One ``errstate`` covers the whole loop, and a singular
    system, which comes back as NaNs, raises ``NumericalError``.

    It serves every lone solve, each form of a study stack too small for
    ``_lockstep._nearest_points`` (this loop on a stack, with the same
    bits), and each form that loop cannot certify.
    """
    stop = _GAP_TOL * float(sq_norms.max())
    ones = np.ones(P.shape[0])
    corral = [int(sq_norms.argmin())]
    c = float(sq_norms[corral[0]])
    w = np.ones(1)
    S = P[corral]
    last = math.inf
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        for cycle in range(1, SOLVER_MAX_ITER + 1):
            x = w @ S
            g = P @ x
            j = int(g.argmin())
            xx = float(x @ x)
            if xx - float(g[j]) <= stop or xx >= last:
                weights = np.zeros(P.shape[0])
                weights[corral] = w
                return weights, cycle
            last = xx
            corral.append(j)
            S = np.concatenate((S, P[j : j + 1]))
            c = max(c, float(sq_norms[j]))
            w = np.concatenate((w, _ZERO))
            while True:
                # On sum(u) = 1, u'(S S' + c 11')u = u'S S'u + c for any c > 0, so
                # the affine minimiser is proportional to (S S' + c 11')^{-1} 1;
                # c = the corral's largest Q_kk keeps the system on its points' scale.
                # The system is positive definite, so 1'u > 0 unless the solve broke down.
                u = corral_solve(S, c, ones[: len(corral)])
                total = float(u.sum())
                if not 0.0 < total < math.inf:
                    if total != total:  # a singular system gives all-NaN u
                        raise NumericalError("weight solve failed: singular corral system")
                    raise NumericalError(f"weight solve failed: corral system gave 1'u = {total:.3g}")
                u /= total
                if u.min() > 0.0:
                    w = u
                    break
                # Ratio test on Python floats: an affinely independent corral has
                # at most one point more than P has columns.
                theta = min(
                    (wk / (wk - uk) for wk, uk in zip(w.tolist(), u.tolist()) if uk <= 0.0 and wk > uk),
                    default=1.0,
                )
                w += theta * (u - w)
                keep = w > _DROP_TOL
                corral = [k for k, kept in zip(corral, keep.tolist()) if kept]
                S = S[keep]
                w = w[keep]
                w /= w.sum()
                c = float(sq_norms[corral].max())
    raise NumericalError(f"weight solve did not converge in {SOLVER_MAX_ITER} major cycles")


def _certified_solution(P: np.ndarray, sq_norms: np.ndarray, corral_solve) -> WeightSolution:
    """One run of ``_nearest_point`` whose answer passes the KKT certificate, else ``NumericalError``."""
    w, cycles = _nearest_point(P, sq_norms, corral_solve)
    x = w @ P
    grad = 2.0 * (P @ x)
    residual = float((w * (grad - grad.min())).max())
    bound = _KKT_TOL * float(sq_norms.max())
    if residual > bound:
        raise NumericalError(f"weight solve not certified: KKT residual {residual:.3g} > {bound:.3g}")
    return WeightSolution(weights=w, objective=float(x @ x), iterations=cycles, kkt_residual=residual)


def solve_simplex_qp(q: QuadraticForm) -> WeightSolution:
    """Minimise w'Qw over the probability simplex, with a certified answer.

    Q = M'M with M = [b'; A], so the minimiser gives the point of
    conv{columns of M} nearest the origin, which Wolfe's algorithm finds
    exactly in finitely many steps from the form's b and A; its dense
    matrix is never built.  Anything but a ``QuadraticForm`` raises
    ``DataError``: build one with ``QuadraticForm.from_parts``.  The KKT
    residual max_k w_k (g_k - min g), g = 2 Q w, is recomputed from M at
    the end.  The minimiser need not be unique; the objective and Q w are.

    The fast path solves each corral system on its Gram matrix.  When
    that run raises ``NumericalError`` (a corral system singular to
    roundoff, or no convergence) or its answer fails the certificate,
    Wolfe's algorithm runs once more from the start with each corral
    system solved through the QR factor of the corral's points
    (``_qr_corral_solve``), and that answer is certified under the same
    bound.  Every row the fast path certifies keeps its bits.  A study
    stack solves its forms with these bits in one lockstep loop
    (``_lockstep._solve_stack``), and calls this only for a form that
    loop cannot certify or a stack too small for it.

    Raises ``NumericalError`` for non-finite input, or when the second
    run also meets a singular corral system, ``SOLVER_MAX_ITER`` major
    cycles without convergence, or a KKT residual above ``_KKT_TOL``
    times the largest Q_kk.
    """
    if not isinstance(q, QuadraticForm):
        raise DataError(
            f"solve_simplex_qp takes a QuadraticForm, not {type(q).__name__}; "
            "build one from b and A with QuadraticForm.from_parts"
        )
    P = np.column_stack([q.bias, q.gram_factor.T])  # row k is column k of M
    if not np.isfinite(P).all():
        raise NumericalError("non-finite entries in the quadratic form")
    sq_norms = np.einsum("ij,ij->i", P, P)
    if P.shape[0] == 1:
        return WeightSolution(np.ones(1), float(sq_norms[0]), 0, 0.0)
    try:
        return _certified_solution(P, sq_norms, _gram_corral_solve)
    except NumericalError:
        return _certified_solution(P, sq_norms, _qr_corral_solve)
