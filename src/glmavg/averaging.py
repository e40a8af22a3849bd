"""The model-averaging estimator itself, and subsample prediction bands.

An averaged estimate is a convex combination of per-model functional
estimates: each candidate is fit to the data once, by the averaging
predictor, which is ``LinearQFactory`` or ``LogisticQFactory`` with a
``predict`` method; the functional is evaluated on its zero-padded
coefficient vector, and the weights come from one of three schemes:

* ``optimal`` — minimise the estimated asymptotic MSE over the simplex,
* ``aic``     — smoothed-AIC weights from the per-model likelihoods,
* ``equal``   — the uniform baseline.

Per-model values and the ``optimal`` scheme's quadratic form use the
same data fits (OLS / logistic MLE): under the canonical links each
candidate's fit against the full model's fitted values is its own data
fit, so Q-hat needs no fit of its own.  The study harness averages a
whole stack of replications in one pass (``_average_stack``), on the
same routines as a predictor's, with each replication's bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._forked import run_replications
from .errors import DataError, GlmavgError

# build_q_logistic and logistic_mle are no longer called here; they stay
# importable from this module, where perfbench/tracer.py looks them up.
from .mse_weights import (
    LinearQFactory,
    LogisticQFactory,
    QuadraticForm,
    WeightSolution,
    _aic_weights,
    aic_values,
    aic_weights,
    build_q_logistic,
    equal_weights,
    solve_simplex_qp,
)
from .glm_fit import logistic_mle
from .model_space import ModelSet
from .rng import _checked_keys, substream

SCHEMES = ("optimal", "aic", "equal")
_BAND_REPS = 50  # replications per prediction band
# The fewest ``optimal`` sets of a stack that are solved in lockstep
# (``_lockstep._solve_stack``); fewer are solved one at a time.  Per solve, on forms
# from Study I (K = 7) and Study II logistic (K = 4) runs (2-core Xeon, numpy 2.4,
# BLAS on one thread), the lockstep loop took 136 / 106 us at a stack of 1, 46 / 32 us
# at 5, 41 / 28 us at 6 and 9.0 / 5.0 us at 64, against 45 / 37 us alone: it breaks
# even at 5 and wins from 6.
_LOCKSTEP_MIN = 6


@dataclass(frozen=True)
class Functional:
    """Target of estimation at x*: the linear x*'beta or the probability expit(x*'beta).

    One coefficient of beta is the linear point at a unit x*.
    """

    kind: str
    x_star: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("linear_point", "logistic_point"):
            raise DataError(f"unknown functional kind {self.kind!r}")
        if self.x_star is None:
            raise DataError(f"{self.kind} functional needs an x_star vector")
        arr = np.array(self.x_star, dtype=float)
        if arr.ndim != 1:
            raise DataError(f"x_star must be a 1-d vector, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise DataError("x_star must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "x_star", arr)

    @classmethod
    def linear_point(cls, x_star) -> "Functional":
        return cls(kind="linear_point", x_star=np.asarray(x_star, dtype=float))

    @classmethod
    def logistic_point(cls, x_star) -> "Functional":
        return cls(kind="logistic_point", x_star=np.asarray(x_star, dtype=float))

    def resolve(self, total_dim: int) -> np.ndarray:
        """The x* vector of length ``total_dim`` this functional evaluates against."""
        if self.x_star.shape[0] != total_dim:
            raise DataError(
                f"x_star has length {self.x_star.shape[0]}, model space needs {total_dim}"
            )
        return np.asarray(self.x_star, dtype=float)


@dataclass(frozen=True)
class AveragedEstimate:
    """Weighted combination of per-model estimates, with its ingredients.

    ``q_hat`` and ``solution`` (the solver's diagnostics) are set by the
    ``optimal`` scheme only.  ``solution.objective`` is the minimised
    in-sample criterion Q-hat(w), not an unbiased estimate of this
    answer's MSE: the weights are chosen on the same data, and in the
    Study II designs its mean was 0.50-1.05 of the realised MSE.
    """

    value: float
    weights: np.ndarray
    per_model: np.ndarray
    q_hat: QuadraticForm | None = None
    solution: WeightSolution | None = None

    def __post_init__(self):
        for name in ("weights", "per_model"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class PredictionBand:
    """Quantile band for one predicted response."""

    point: float
    lower: float
    upper: float
    level: float


def _check_scheme(scheme: str):
    if scheme not in SCHEMES:
        raise DataError(f"unknown weighting scheme {scheme!r}; expected one of {SCHEMES}")


def _checked_width(X: np.ndarray, models: ModelSet) -> int:
    """p_fixed + q of ``models``; ``DataError`` unless the design ``X`` has that many columns."""
    total = models.p_fixed + models.q
    if X.shape[1] != total:
        raise DataError(f"design has {X.shape[1]} columns, model space needs {total}")
    return total


class _AveragingPredictor:
    """``predict`` for the candidate factories: the averaged estimate at x* under a scheme.

    Each averaging predictor is its family's factory with this method
    added, so the fits, the per-model values and ``q_form`` sit on the
    one object that ``predict`` asks.  Every candidate is fit once, when
    the object is built; each ``predict`` costs only the per-model values
    and the weights for its x*.  The AIC weights read the factory's
    log-likelihoods and dimensions on the first ``aic`` call and are kept.
    ``predict`` stays in this module: it calls ``solve_simplex_qp``
    through this module's globals, the name ``perfbench/tracer.py`` wraps.
    """

    _aic = None

    def predict(self, x_star: np.ndarray, scheme: str = "optimal") -> AveragedEstimate:
        _check_scheme(scheme)
        # raises DataError on a wrong shape or a non-finite x*, whatever the scheme
        per_model = self.per_model_values(x_star)
        q_hat = solution = None
        if scheme == "optimal":
            q_hat = self.q_form(x_star)
            solution = solve_simplex_qp(q_hat)
            weights = solution.weights
        elif scheme == "aic":
            if self._aic is None:
                self._aic = aic_weights(self.logliks(), self.dims())
            weights = self._aic
        else:
            weights = equal_weights(len(self.models))
        return AveragedEstimate(
            value=float(weights @ per_model),
            weights=weights,
            per_model=per_model,
            q_hat=q_hat,
            solution=solution,
        )


class LinearAveragingPredictor(_AveragingPredictor, LinearQFactory):
    """``LinearQFactory`` plus ``predict``: OLS fits of every candidate on one training set.

    ``fit_and_average_linear`` is the one-shot convenience wrapper.
    """

    _kind = "linear_point"


class LogisticAveragingPredictor(_AveragingPredictor, LogisticQFactory):
    """``LogisticQFactory`` plus ``predict``: logistic MLEs of every candidate on one training set.

    Every scheme and every x* share the candidate fits.  The ``optimal``
    scheme's Q-hat reads the same MLEs; its first call adds only the
    weighted R factors, and the full-model MLE when the full design is
    not a candidate.
    ``fit_and_average_logistic`` is the one-shot convenience wrapper.
    """

    _kind = "logistic_point"


# the predictor of each family, for the one-shot wrappers and the study harness
_PREDICTORS = {"linear": LinearAveragingPredictor, "logistic": LogisticAveragingPredictor}


def _average_stack(fits, x_star: np.ndarray, schemes: list) -> tuple[np.ndarray, list]:
    """Each training set's averaged estimates under its schemes, from one fit of a stack of them.

    ``fits`` is a family's fit (``_Designs.fit``) of training sets
    stacked on one leading axis, or of one training set with none, and
    ``schemes[j]`` names set j's schemes in order, or is None for a set
    to skip.  What ``predict`` computes per call is computed here once
    for the whole stack, on its leading axis: the per-model values
    h(B x*), Q-hat's bias and Gram factor when a set asks for
    ``optimal``, and the AIC weights when one asks for ``aic``.  The
    simplex solves of the sets that ask for ``optimal`` and have a fit
    and a plug-in are one lockstep loop (``_lockstep._solve_stack``)
    when there are at least ``_LOCKSTEP_MIN`` of them; a set that loop
    cannot certify, and every set of a smaller stack, is solved alone
    through this module's ``solve_simplex_qp`` (the name
    ``perfbench/tracer.py`` wraps), which gives it its Gram run, then
    its QR run, or its error.  Only those lone solves and the weighted
    sums run per set.  The stacked routines are the ones a predictor
    runs on its one training set, slice by slice, so each estimate has
    the bits of its own predictor's ``predict``.

    Returns the per-model values and, per set, the list of its
    estimates or the first ``GlmavgError`` its own predictor raises:
    its fit's, then each scheme's in order (for ``optimal`` the
    plug-in's, then the solver's).
    """
    slices = [(j,) for j in range(len(schemes))] if fits.B.ndim > 2 else [()]
    asked = {scheme for names in schemes if names for scheme in names}
    with np.errstate(all="ignore"):  # a set that failed its fit may hold anything
        values = fits.values(x_star)
        if "optimal" in asked:
            bias, gram_factor = fits.q_parts(x_star, values)
        if "aic" in asked:
            dims = fits.dims()
            aic = _aic_weights(aic_values(fits.logliks, dims))
    solved = {}  # set -> its weights from the lockstep loop
    if "optimal" in asked:
        ready = [
            j
            for j, (i, names) in enumerate(zip(slices, schemes))
            if names and "optimal" in names and fits.fit_error(i) is None and fits.plug_in_error(i) is None
        ]
        if len(ready) >= _LOCKSTEP_MIN:
            from ._lockstep import _solve_stack  # imported here: see its module docstring

            # every set ready, as is usual, needs no gathered copy
            forms = (bias, gram_factor) if len(ready) == len(slices) else (bias[ready], gram_factor[ready])
            weights, *_, lone = _solve_stack(*forms)
            solved = {j: w for j, w, alone in zip(ready, weights, lone.tolist()) if not alone}
    results = []
    for j, (i, names) in enumerate(zip(slices, schemes)):
        if names is None:
            results.append(None)
            continue
        try:
            error = fits.fit_error(i)
            if error is not None:
                raise error
            estimates = []
            for scheme in names:
                if scheme == "optimal":
                    weights = solved.get(j)
                    if weights is None:
                        error = fits.plug_in_error(i)
                        if error is not None:
                            raise error
                        weights = solve_simplex_qp(QuadraticForm.from_parts(bias[i], gram_factor[i])).weights
                elif scheme == "aic":
                    weights = aic[i]
                    if np.isnan(weights[0]):  # a set aic_weights treats apart, or refuses
                        weights = aic_weights(fits.logliks[i], dims)
                else:
                    weights = equal_weights(len(fits.models))
                estimates.append(float(weights @ values[i]))
            results.append(estimates)
        except GlmavgError as exc:
            results.append(exc)
    return values, results


def _fit_and_average(family, X, y, models, functional, scheme) -> AveragedEstimate:
    """Check the functional and the scheme before any fit, then fit and predict once."""
    predictor_class = _PREDICTORS[family]
    if functional.kind != predictor_class._kind:
        raise DataError(f"{family} averaging needs a {predictor_class._kind} functional")
    _check_scheme(scheme)
    X = np.asarray(X, dtype=float)
    return predictor_class(X, y, models).predict(functional.resolve(_checked_width(X, models)), scheme)


def fit_and_average_linear(
    X: np.ndarray,
    y: np.ndarray,
    models: ModelSet,
    functional: Functional,
    scheme: str = "optimal",
) -> AveragedEstimate:
    """Fit all candidates by OLS and combine x*'beta estimates under ``scheme``."""
    return _fit_and_average("linear", X, y, models, functional, scheme)


def fit_and_average_logistic(
    X: np.ndarray,
    y: np.ndarray,
    models: ModelSet,
    functional: Functional,
    scheme: str = "optimal",
) -> AveragedEstimate:
    """Fit all candidates by logistic MLE and combine probability estimates at x*."""
    return _fit_and_average("logistic", X, y, models, functional, scheme)


def prediction_band(
    X_pool: np.ndarray,
    y_pool: np.ndarray,
    test_point: np.ndarray,
    models: ModelSet,
    *,
    n_sub: int = 50,
    n_reps: int = _BAND_REPS,
    sigma: float,
    level: float = 0.9,
    seed: int = 0,
    scheme: str = "optimal",
    workers: int = 1,
) -> PredictionBand:
    """Subsample-and-perturb prediction band for one test covariate row.

    Each replication draws ``n_sub`` pool rows without replacement,
    averages the linear predictions at ``test_point`` under ``scheme``,
    and adds one Gaussian draw with standard deviation ``sigma``; the
    band is the empirical (1 +/- level)/2 quantile pair of those draws
    (numpy's default ``linear`` quantile) and the point estimate is the
    mean of the replication means.  Replication r uses the stream
    derived from (seed, r), so the band is bit for bit the same for
    every ``workers``: up to ``workers`` processes run contiguous blocks
    of replications (serially when ``workers`` is 1, on one usable CPU,
    off Linux, or while another Python thread is alive).  Every argument,
    ``workers`` below 1 included, is checked before the first draw.
    """
    return _prediction_bands(
        X_pool, y_pool, [test_point], models, n_sub=n_sub, n_reps=n_reps, sigma=sigma,
        level=level, seeds=[seed], scheme=scheme, workers=workers,
    )[0]


def _prediction_bands(
    X_pool, y_pool, test_points, models, *, n_sub, n_reps=_BAND_REPS, sigma, level, seeds, scheme, workers
):
    """``prediction_band`` of each test row with its own seed, all in one ``run_replications`` call.

    Row i's replication r is run index ``i * n_reps + r`` and draws from
    ``substream(seeds[i], "band", r)``, so every band is the one its own
    call gives, the earliest failing row's failure is raised, as a call
    per row would raise it, and ``workers`` > 1 forks once for all rows.
    Every argument of every row is checked before the first draw.
    """
    X_pool = np.asarray(X_pool, dtype=float)
    y_pool = np.asarray(y_pool, dtype=float)
    if not 0.0 < level < 1.0:
        raise DataError("level must be strictly between 0 and 1")
    if n_sub > X_pool.shape[0]:
        raise DataError(f"n_sub={n_sub} exceeds the pool size {X_pool.shape[0]}")
    if n_reps < 1:
        raise DataError("n_reps must be at least 1")
    if n_sub < 1:
        raise DataError(f"n_sub must be at least 1, got {n_sub}")
    if n_sub < X_pool.shape[1]:  # every draw fits the full model
        raise DataError(f"n_sub={n_sub} is below the design's {X_pool.shape[1]} columns")
    _check_scheme(scheme)
    if not (math.isfinite(sigma) and sigma >= 0.0):
        raise DataError(f"sigma must be finite and non-negative, got {sigma!r}")
    for seed in seeds:
        _checked_keys(seed)
    width = _checked_width(X_pool, models)
    x_stars = [Functional.linear_point(point).resolve(width) for point in test_points]

    def replicate(i):
        row, rep = divmod(i, n_reps)
        rng = substream(seeds[row], "band", rep)
        idx = rng.choice(X_pool.shape[0], size=n_sub, replace=False)
        mean = LinearAveragingPredictor(X_pool[idx], y_pool[idx], models).predict(x_stars[row], scheme).value
        return mean, mean + rng.normal(0.0, sigma)

    pairs = run_replications(lambda block: [replicate(i) for i in block], len(x_stars) * n_reps, workers)
    alpha = (1.0 - level) / 2.0
    bands = []
    for row in range(len(x_stars)):
        means, draws = np.array(pairs[row * n_reps : (row + 1) * n_reps]).T.copy()
        draws.sort()
        bands.append(
            PredictionBand(
                point=float(np.mean(means)),
                lower=_sorted_quantile(draws, alpha),
                upper=_sorted_quantile(draws, 1.0 - alpha),
                level=level,
            )
        )
    return bands


def _sorted_quantile(ordered: np.ndarray, q: float) -> float:
    """``np.quantile(ordered, q)`` of an ascending finite array, by numpy's ``linear`` rule.

    The same arithmetic as numpy's, step for step, so the result is
    equal to the last bit; ``np.quantile`` itself imports ``numpy.ma``
    (through ``np.unique``), which costs a cold CLI call over 10 ms.
    """
    position = (ordered.size - 1) * q
    if position >= ordered.size - 1:
        return float(ordered[-1])
    below = math.floor(position)
    a, b = ordered[below], ordered[below + 1]
    t = position - below
    # numpy's _lerp: interpolate from the nearer end
    return float(b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t)
