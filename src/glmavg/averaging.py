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
fit, so Q-hat needs no fit of its own.  One routine averages:
``_average_stack`` takes the fit of one training set, with no leading
axis, or of a stack of them, and gives each set's weights under each
of its schemes.  ``predict`` is its one-set call.  The study harness
and ``band`` fit and average their replications as stacks
(``_fit_average_stack``), cut by one policy (``_stacks``), with
each replication's bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby

import numpy as np

from ._forked import run_replications
from .errors import DataError, GlmavgError, _returned

# build_q_logistic and logistic_mle are no longer called here; they stay
# importable from this module, where perfbench/tracer.py looks them up.
from .mse_weights import (
    LinearQFactory,
    LogisticQFactory,
    QuadraticForm,
    WeightSolution,
    _aic_weights,
    _checked_point,
    aic_values,
    aic_weights,
    build_q_logistic,
    equal_weights,
    solve_simplex_qp,
)
from .glm_fit import _checked_data, _frozen, _integer, logistic_mle, require_finite
from .model_space import ModelSet
from .rng import _checked_keys, _stack_streams

SCHEMES = ("optimal", "aic", "equal")
_BAND_REPS = 50  # replications per prediction band
# The fewest ``optimal`` sets of a stack that are solved in lockstep
# (``_lockstep._solve_stack``); fewer are solved one at a time.  Per solve, on forms
# from Study I (K = 7) and Study II logistic (K = 4) runs (2-core Xeon, numpy 2.4,
# BLAS on one thread), the lockstep loop took 136 / 106 us at a stack of 1, 46 / 32 us
# at 5, 41 / 28 us at 6 and 9.0 / 5.0 us at 64, against 45 / 37 us alone: it breaks
# even at 5 and wins from 6.
_LOCKSTEP_MIN = 6
# The most training sets fitted and averaged as one stack, and the most
# doubles a stack's fit may hold (``_Designs.kept``; 16 MB).  A linear
# stack holds its R factors, each candidate's R_k and the padded inverse
# Grams, about K p^2 doubles per set, never the n-row designs, so the
# count binds it below 8,192 doubles a set and the doubles above (the
# K = 256 prostate candidates, p = 9, hold 27,929: stacks of 75; the
# 4,096 subsets of 12 predictors hold 905,777: stacks of 2); a logistic
# one holds its designs, so in Study II (p = 4) the count binds at
# n = 100 (1,594 doubles a set), and the doubles from n of about 540.
# A cap of 64 made a thin study pay a second stack's fixed cost: two
# Study II case A cells (serial, medians of 31) at 35 / 70 a cell took,
# at caps 64, 128 and 256, linear 4.18 / 7.40, 3.50 / 6.84 and 3.50 /
# 6.04 ms, logistic 7.80 / 13.49, 6.83 / 12.26 and 6.76 / 11.38 ms; at
# 200 a cell, cap 64 against 256, linear 19.6 / 16.2 and logistic 35.8 /
# 30.7 ms.  A process running the stock logistic grid at 300 a cell
# peaked at 44.7 MB against 40.5 MB.
# Measured before (one cell of 256 replications, BLAS on one thread,
# 2-core x86-64 VM), ms per replication:
# - Study I case A (K = 7, p = 10) at n = 100 / 1000, stacks of 1:
#   0.404 / 0.555 (a stack of one is fitted with no leading axis), 64:
#   0.127 / 0.270; averaged one replication at a time, 0.146 / 0.285;
#   before the stacks, 0.417 / 0.568;
# - Study II logistic case A / B (K = 4 / 3, n = 100, beta3 = 0.05,
#   schemes optimal and aic), stacks of 1: 0.586 / 0.677, 4: 0.306 /
#   0.350, 12: 0.192 / 0.215, 25: 0.158 / 0.179, 64: 0.145 / 0.153,
#   256: 0.137 / 0.143; averaged one replication at a time (with case
#   B's oracle fitted alone), 64: 0.190 / 0.289; before the stacks,
#   0.585 / 0.661.
_STACK_REPS = 256
_STACK_DOUBLES = 1 << 21


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
        arr = _frozen(self.x_star)
        if arr.ndim != 1:
            raise DataError(f"x_star must be a 1-d vector, got shape {arr.shape}")
        require_finite("x_star", arr)
        object.__setattr__(self, "x_star", arr)

    @classmethod
    def linear_point(cls, x_star) -> "Functional":
        return cls(kind="linear_point", x_star=x_star)

    @classmethod
    def logistic_point(cls, x_star) -> "Functional":
        return cls(kind="logistic_point", x_star=x_star)

    def resolve(self, total_dim: int) -> np.ndarray:
        """The read-only x* vector, of length ``total_dim``, this functional evaluates against."""
        if self.x_star.shape[0] != total_dim:
            raise DataError(
                f"x_star has length {self.x_star.shape[0]}, model space needs {total_dim}"
            )
        return self.x_star


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
        object.__setattr__(self, "weights", _frozen(self.weights))
        object.__setattr__(self, "per_model", _frozen(self.per_model))


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
    the object is built; each ``predict`` is one ``_average_stack`` call
    on that fit with no leading axis, which costs only the per-model
    values and the weights for its x*: the ``optimal`` scheme's Q-hat
    and its lone solve through this module's ``solve_simplex_qp`` (the
    name ``perfbench/tracer.py`` wraps), or the AIC or equal weights.
    """

    def predict(self, x_star: np.ndarray, scheme: str = "optimal") -> AveragedEstimate:
        _check_scheme(scheme)
        # raises DataError on a wrong shape or a non-finite x*, whatever the scheme
        x_star = _checked_point(x_star, self._B.shape[1])
        per_model, [result] = _average_stack(self._fits, x_star, [(scheme,)])
        [(value, weights, q_hat, solution)] = _returned(result)
        return AveragedEstimate(
            value=value,
            weights=weights,
            per_model=per_model,
            q_hat=q_hat,
            solution=solution,
        )


class LinearAveragingPredictor(_AveragingPredictor, LinearQFactory):
    """``LinearQFactory`` plus ``predict``: OLS fits of every candidate on one training set.

    ``fit_and_average_linear`` is the one-shot convenience wrapper.
    """


class LogisticAveragingPredictor(_AveragingPredictor, LogisticQFactory):
    """``LogisticQFactory`` plus ``predict``: logistic MLEs of every candidate on one training set.

    Every scheme and every x* share the candidate fits.  The ``optimal``
    scheme's Q-hat reads the same MLEs; its first call adds only the
    weighted R factors, and the full-model MLE when the full design is
    not a candidate.
    ``fit_and_average_logistic`` is the one-shot convenience wrapper.
    """


# the predictor of each family, for the one-shot wrappers, the CLI and the study harness; its
# keys are the one list of family names, and each predictor's _Designs its family's record
_PREDICTORS = {"linear": LinearAveragingPredictor, "logistic": LogisticAveragingPredictor}


def _average_stack(fits, x_star: np.ndarray, schemes: list) -> tuple[np.ndarray, list]:
    """Each training set's estimates and weights under its schemes, from one fit of a stack of them.

    ``fits`` is a family's fit (``_Designs.fit``) of training sets
    stacked on one leading axis, or of one training set with none (a
    predictor's, whose ``predict`` is this call), and ``schemes[j]``
    names set j's schemes in order.  The per-model values h(B x*),
    Q-hat's bias and Gram factor when a set asks for ``optimal``, and
    the AIC weights when one asks for ``aic`` are made once for the
    whole stack, on its leading axis.  The simplex
    solves of the sets that ask for ``optimal`` and have a fit and a
    plug-in are one lockstep loop (``_lockstep._solve_stack``) when
    there are at least ``_LOCKSTEP_MIN`` of them; a set that loop cannot
    certify, and every set of a smaller stack, is solved alone through
    this module's ``solve_simplex_qp`` (the name ``perfbench/tracer.py``
    wraps), which gives it its Gram run, then its QR run, or its error.
    The stacked routines work slice by slice, so each set has the bits
    it has alone.  An ``optimal`` call on no candidates raises
    ``DataError`` before any plug-in fit.

    Returns the per-model values and, per set, one (estimate, weights,
    Q-hat, solution) tuple per scheme, the estimate being
    ``float(weights @ values[i])`` and Q-hat and the ``WeightSolution``
    set only by a lone ``optimal`` solve; or the first ``GlmavgError``
    its own predictor raises: its fit's, then each scheme's in order
    (for ``optimal`` the plug-in's, then the solver's).
    """
    slices = [(j,) for j in range(len(schemes))] if fits.B.ndim > 2 else [()]
    asked = {scheme for names in schemes for scheme in names}
    if "optimal" in asked and not fits.models:
        raise DataError("a quadratic form needs at least one model")
    with np.errstate(all="ignore"):  # a set that failed its fit may hold anything
        values = fits.values(x_star)
        if "optimal" in asked:
            bias, gram_factor = fits.q_parts(x_star, values)
        if "aic" in asked:
            dims = fits.designs.dims
            aic = _aic_weights(aic_values(fits.logliks, dims))
            refused = np.isnan(aic[..., 0]).reshape(-1).tolist()  # the sets aic_weights refuses
    solved = {}  # set -> its weights from the lockstep loop
    if "optimal" in asked and len(slices) >= _LOCKSTEP_MIN:  # fewer sets never fill a lockstep run
        ready = [
            j
            for j, (i, names) in enumerate(zip(slices, schemes))
            if "optimal" in names and fits.fit_error(i) is None and fits.plug_in_error(i) is None
        ]
        if len(ready) >= _LOCKSTEP_MIN:
            from ._lockstep import _solve_stack  # imported here: see its module docstring

            # every set ready, as is usual, needs no gathered copy
            forms = (bias, gram_factor) if len(ready) == len(slices) else (bias[ready], gram_factor[ready])
            weights, *_, lone = _solve_stack(*forms)
            solved = {j: w for j, w, alone in zip(ready, weights, lone.tolist()) if not alone}
    results = []
    for j, (i, names) in enumerate(zip(slices, schemes)):
        try:
            _returned(fits.fit_error(i))
            entries, values_i = [], values[i]
            for scheme in names:
                q_hat = solution = None
                if scheme == "optimal":
                    weights = solved.get(j)
                    if weights is None:
                        _returned(fits.plug_in_error(i))
                        q_hat = QuadraticForm.from_parts(bias[i], gram_factor[i])
                        solution = solve_simplex_qp(q_hat)
                        weights = solution.weights
                elif scheme == "aic":
                    weights = aic[i]
                    if refused[j]:
                        aic_weights(fits.logliks[i], dims)  # raises its error
                else:
                    weights = equal_weights(len(fits.models))
                entries.append((float(weights @ values_i), weights, q_hat, solution))
            results.append(entries)
        except GlmavgError as exc:
            results.append(exc)
    return values, results


def _stacks(designs, n: int, members: list) -> list[list]:
    """``members``, training sets of n rows and one design, cut into the stacks they are fitted in.

    The stack-cut policy of every stacked loop (a study's design group,
    a ``band`` block's replications of one row): the fewest stacks of at
    most ``_STACK_REPS`` sets whose fits hold at most ``_STACK_DOUBLES``
    doubles (``designs.kept``), their sizes differing by one at most, so
    that no stack is a small remainder (300 sets are 150 + 150, not
    256 + 44).
    """
    step = max(1, min(_STACK_REPS, _STACK_DOUBLES // designs.kept(n)))
    count = -(-len(members) // step)
    return [members[len(members) * b // count : len(members) * (b + 1) // count] for b in range(count)]


def _fit_average_stack(designs, parts: list, n: int, x_star: np.ndarray, schemes: list):
    """Fit training sets of one design as one stack, average them once, and weigh each set's values.

    ``parts`` is what ``designs.reduce`` kept of the training sets, of n
    rows each, stacked on one leading axis: set j is slice j of each
    array, and ``schemes[j]`` names its schemes.  A lone set is fitted
    with no leading axis; one ``designs.fit`` and one ``_average_stack``
    then serve every set.
    Returns the fit, each set's index on it, and ``_average_stack``'s
    per-model values and per-set results.
    """
    if len(schemes) == 1:
        parts, slices = [part[0] for part in parts], [()]
    else:
        slices = [(j,) for j in range(len(schemes))]
    fits = designs.fit(*parts, n)
    return fits, slices, *_average_stack(fits, x_star, schemes)


def _fit_and_average(family, X, y, models, functional, scheme) -> AveragedEstimate:
    """Check the functional, the scheme, (X, y), X's width and x* before any fit, then fit and predict once."""
    if functional.kind != f"{family}_point":
        raise DataError(f"{family} averaging needs a {family}_point functional")
    _check_scheme(scheme)
    X, y = _checked_data(X, y)
    x_star = functional.resolve(_checked_width(X, models))
    return _PREDICTORS[family](X, y, models).predict(x_star, scheme)


def fit_and_average_linear(
    X: np.ndarray,
    y: np.ndarray,
    models: ModelSet,
    functional: Functional,
    scheme: str = "optimal",
) -> AveragedEstimate:
    """Fit all candidates by OLS and combine x*'beta estimates under ``scheme``.

    A malformed (X, y) raises ``DataError`` before any fit
    (``glm_fit._checked_data``), as every entry point's does.
    """
    return _fit_and_average("linear", X, y, models, functional, scheme)


def fit_and_average_logistic(
    X: np.ndarray,
    y: np.ndarray,
    models: ModelSet,
    functional: Functional,
    scheme: str = "optimal",
) -> AveragedEstimate:
    """Fit all candidates by logistic MLE and combine probability estimates at x*.

    A malformed (X, y), or a response not coded 0/1, raises ``DataError``
    before any fit.
    """
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
    each count (``n_sub``, ``n_reps``, ``workers``) as an integer of at
    least 1 (``glm_fit._integer``), is checked before the first draw, the
    pool as every entry point checks a design and its response
    (``glm_fit._checked_data``).
    """
    return _prediction_bands(
        X_pool, y_pool, [test_point], models, n_sub=n_sub, n_reps=n_reps, sigma=sigma,
        level=level, seeds=[seed], scheme=scheme, workers=workers,
    )[0]


def _prediction_bands(
    X_pool, y_pool, test_points, models, *, n_sub, n_reps=_BAND_REPS, sigma, level, seeds, scheme, workers
):
    """``prediction_band`` of each test row with its own seed, all in one ``run_replications`` call.

    Row i's replication r is run index ``i * n_reps + r`` and draws its
    subsample, then its noise, from ``substream(seeds[i], "band", r)``,
    as one generator re-keyed per replication of a stack
    (``rng._stack_streams``).
    A block's replications of one row share n_sub, the candidates and
    x*, so they are fitted and averaged as stacks (``_fit_average_stack``,
    cut by ``_stacks``), as a study's are, and each mean has the
    bits of one predictor fitted to its subsample.  So every band is the
    one its own call gives, the earliest failing (row, replication)
    raises the error its lone predictor raises, as a call per row would
    raise it, and ``workers`` > 1 forks once for all rows.  Every
    argument of every row is checked before the first draw, the pool
    (``glm_fit._checked_data``) first.
    """
    X_pool, y_pool = _checked_data(X_pool, y_pool)
    if not 0.0 < level < 1.0:
        raise DataError("level must be strictly between 0 and 1")
    n_reps, n_sub = _integer(n_reps, "n_reps", 1), _integer(n_sub, "n_sub", 1)
    if n_sub > X_pool.shape[0]:
        raise DataError(f"n_sub={n_sub} exceeds the pool size {X_pool.shape[0]}")
    if n_sub < X_pool.shape[1]:  # every draw fits the full model
        raise DataError(f"n_sub={n_sub} is below the design's {X_pool.shape[1]} columns")
    _check_scheme(scheme)
    if not (math.isfinite(sigma) and sigma >= 0.0):
        raise DataError(f"sigma must be finite and non-negative, got {sigma!r}")
    keys = [_checked_keys(seed, "band") for seed in seeds]
    workers = _integer(workers, "workers", 1)
    width = _checked_width(X_pool, models)
    x_stars = [Functional.linear_point(point).resolve(width) for point in test_points]
    designs = LinearAveragingPredictor._Designs(list(models), width)

    def block_pairs(block):
        pairs = []
        for row, indices in groupby(block, lambda i: i // n_reps):
            for reps in _stacks(designs, n_sub, [i % n_reps for i in indices]):
                parts, noises = [], []
                for rng in _stack_streams(keys[row], reps):
                    idx = rng.choice(X_pool.shape[0], size=n_sub, replace=False)
                    noises.append(rng.normal(0.0, sigma))
                    parts.append(designs.reduce(X_pool[idx], y_pool[idx]))
                parts = [np.stack(column) for column in zip(*parts)]
                results = _fit_average_stack(designs, parts, n_sub, x_stars[row], [(scheme,)] * len(noises))[3]
                # the earliest failing replication raises its error
                pairs += [(mean, mean + noise) for [(mean, *_)], noise in zip(map(_returned, results), noises)]
        return pairs

    pairs = run_replications(block_pairs, len(x_stars) * n_reps, workers)
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
