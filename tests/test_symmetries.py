"""Exact symmetries of the averaging estimator, on lone predictors and on lockstep stacks.

Each follows from the estimator's definition, so a regression in the
fits, Q-hat or the solver that keeps every fixture's value can still
break one.

- Scaling the target, x* -> 2^k x* (linear, lone): each per-model
  estimate is x*'beta_k, and Q-hat = b b' + A'A is quadratic in x*.  A
  power of two scales a double exactly, so the weights keep their bits,
  the estimate scales by 2^k and the ``optimal`` objective by 4^k, bit
  for bit.  Measured on the 400 designs ``_design(0..399)``, all three
  schemes and k in {-1, 1, 2}: no bit moved.
- Permuting the candidates (linear, lone): the estimate and the
  ``optimal`` objective stay, up to the order of floating-point sums;
  the ``aic`` and ``equal`` weights follow the candidates.  (The
  ``optimal`` weights need not be unique, so they are not compared.)
  Worst cases over the same 400 designs: the estimate moved by 3.6e-16
  of the largest |per-model estimate| (5.7e-15 of the estimate itself,
  whose value can sit near zero), the objective by 4.2e-16 relative,
  and an ``aic`` weight by 4.4e-16.  The prostate baseline (K = 256)
  read 2.9e-16.  The tests allow ten times the measured worst case.

The relations below run on both paths an estimate takes: a lone
predictor's ``predict``, and a stack of ``STACK`` training sets of one
design through ``averaging._fit_average_stack``, whose ``optimal``
weights are one lockstep solve (``_lockstep._solve_stack``; a stack
needs ``averaging._LOCKSTEP_MIN`` sets).  An estimate's deviation is
taken relative to the largest |per-model estimate| of the moved
problem, and an ``aic`` or ``equal`` weight's absolutely; the
``optimal`` weights need not be unique and are not compared (they
moved by up to 4.4e-13 where Q-hat is nearly singular).

- Permuting the rows of (X, y), both families: every fit, Q-hat and
  weight is a function of the rows as a set.
- Linear y -> a + s y, s != 0, every candidate with an intercept and
  x*[0] = 1: each per-model estimate maps to a + s estimate, b to s b
  and A to |s| A, so Q-hat scales by s^2 and keeps its minimiser, and
  every log-likelihood moves by the same -n log|s|, so the AIC weights
  stay.  The estimate maps to a + s estimate.
- Logistic y -> 1 - y: each fitted probability p maps to 1 - p, so b
  maps to -b, A (built from p(1 - p)) and the log-likelihoods stay, and
  the estimate maps to 1 - estimate with the weights kept.
- Permuting the candidates, linear and logistic, as the linear ones
  above (linear on stacks only: the lone case is the test above).
- Scaling the target, x* -> 2^k x*, k in {-1, 1, 2} (linear, stacks):
  as on a lone predictor, every weight keeps its bits and every
  estimate and per-model estimate scales by 2^k, bit for bit, the
  lockstep solve included.  Measured on ``_case("linear", 0..99,
  STACK)``, all three schemes: no bit moved.

Worst cases, with the draws of these tests, over ``_case(family, 0..399,
1)`` (lone) and ``_case(family, 0..99, STACK)`` (stacks), all three
schemes (estimate relative, ``aic`` weight absolute; ``equal`` weights
never moved):

| relation | estimate | ``aic`` weight |
| --- | --- | --- |
| linear rows | 8.2e-15 | 3.7e-15 |
| logistic rows | 3.6e-15 | 3.1e-14 |
| linear y -> a + s y | 7.3e-15 | 6.0e-14 |
| logistic y -> 1 - y | 5.5e-15 | 2.5e-14 |
| logistic candidates | 5.4e-16 | 2.3e-16 |
| linear candidates (stacks) | 4.2e-16 | 2.3e-16 |

The tests run ``_case(family, 0..39, 1)`` and ``_case(family, 0..9,
STACK)`` and allow ten times the measured worst case.
"""

import numpy as np
import pytest

import glmavg.averaging as averaging
from glmavg import LinearAveragingPredictor, LogisticAveragingPredictor, ModelSet, enumerate_all_subsets
from glmavg.errors import _returned

SCHEMES = ("optimal", "aic", "equal")
SEEDS = range(40)
# ten times the worst case measured over _design(0..399)
ESTIMATE_TOL = 10 * 3.6e-16  # of max_k |per-model estimate|
OBJECTIVE_TOL = 10 * 4.2e-16  # relative
WEIGHT_TOL = 10 * 4.4e-16  # absolute


def _design(seed):
    """A small all-subsets linear problem: (X, y, x*, models) with q = 1..4 optional columns."""
    rng = np.random.default_rng(seed)
    q = int(rng.integers(1, 5))
    n = int(rng.integers(q + 4, q + 30))
    X = np.column_stack([np.ones(n), rng.standard_normal((n, q))])
    y = X @ rng.standard_normal(q + 1) * rng.uniform(0, 1) + rng.standard_normal(n)
    x_star = np.concatenate([[1.0], rng.standard_normal(q)])
    return X, y, x_star, enumerate_all_subsets(1, q), rng


@pytest.mark.parametrize("seed", SEEDS)
def test_scaling_the_target_by_a_power_of_two_is_bitwise(seed):
    X, y, x_star, models, _ = _design(seed)
    predictor = LinearAveragingPredictor(X, y, models)
    for scheme in SCHEMES:
        base = predictor.predict(x_star, scheme)
        for k in (-1, 1, 2):
            scaled = predictor.predict(2.0**k * x_star, scheme)
            assert np.array_equal(scaled.weights, base.weights), (scheme, k)
            assert scaled.value == 2.0**k * base.value, (scheme, k)
            if scheme == "optimal":
                assert scaled.solution.objective == 4.0**k * base.solution.objective, k


@pytest.mark.parametrize("seed", SEEDS)
def test_permuting_the_candidates_keeps_the_estimate(seed):
    X, y, x_star, models, rng = _design(seed)
    order = rng.permutation(len(models))
    base = LinearAveragingPredictor(X, y, models)
    permuted = LinearAveragingPredictor(X, y, ModelSet([models[k] for k in order], models.q))
    for scheme in SCHEMES:
        e, f = base.predict(x_star, scheme), permuted.predict(x_star, scheme)
        assert np.array_equal(f.per_model, e.per_model[order]), scheme
        assert abs(f.value - e.value) <= ESTIMATE_TOL * np.max(np.abs(e.per_model)), scheme
        if scheme == "optimal":
            assert abs(f.solution.objective - e.solution.objective) <= OBJECTIVE_TOL * e.solution.objective
        else:
            np.testing.assert_allclose(f.weights, e.weights[order], rtol=0, atol=WEIGHT_TOL)


FAMILIES = {"linear": LinearAveragingPredictor, "logistic": LogisticAveragingPredictor}
STACK = 8  # training sets of a stack; at least averaging._LOCKSTEP_MIN
CASES = [pytest.param(1, seed, id=f"lone-{seed}") for seed in range(40)] + [
    pytest.param(STACK, seed, id=f"stack-{seed}") for seed in range(10)
]
# the worst (estimate, aic weight) deviations measured (module docstring); the tests allow ten times them
ROWS_WORST = {"linear": (8.2e-15, 3.7e-15), "logistic": (3.6e-15, 3.1e-14)}
AFFINE_WORST = (7.3e-15, 6.0e-14)
FLIP_WORST = (5.5e-15, 2.5e-14)
CANDIDATES_WORST = (5.4e-16, 2.3e-16)
LINEAR_CANDIDATES_WORST = (4.2e-16, 2.3e-16)  # over _case("linear", 0..99, STACK)
STACKS = [pytest.param(STACK, seed, id=f"stack-{seed}") for seed in range(10)]


def _case(family, seed, count):
    """``count`` training sets of one design, with its candidates (all subsets, each with the intercept) and x*.

    q = 1..4 optional columns (1..3 logistic); a linear set has n = q + 4
    to q + 29 rows, a logistic one 60 to 99, few enough for a
    separation-free draw.  Returns (sets, models, x*, rng), rng to draw
    the relation's own parameters.
    """
    rng = np.random.default_rng([seed, count, family == "logistic"])
    if family == "linear":
        q = int(rng.integers(1, 5))
        n = int(rng.integers(q + 4, q + 30))
        beta = rng.standard_normal(q + 1) * rng.uniform(0, 1)
    else:
        q, n = int(rng.integers(1, 4)), int(rng.integers(60, 100))
        beta = 0.5 * rng.standard_normal(q + 1)
    sets = []
    for _ in range(count):
        X = np.column_stack([np.ones(n), rng.standard_normal((n, q))])
        eta = X @ beta
        if family == "linear":
            y = eta + rng.standard_normal(n)
        else:
            y = (rng.random(n) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
        sets.append((X, y))
    return sets, enumerate_all_subsets(1, q), np.concatenate([[1.0], rng.standard_normal(q)]), rng


def _answers(family, sets, models, x_star):
    """Per training set, per scheme of ``SCHEMES``: (estimate, weights, per-model estimates).

    One set is its predictor's ``predict``; more are one stack through
    ``averaging._fit_average_stack``, whose ``optimal`` weights must come
    from the lockstep solve (only a lone solve hands back Q-hat).
    """
    if len(sets) == 1:
        predictor = FAMILIES[family](*sets[0], models)
        return [[(e.value, e.weights, e.per_model) for e in (predictor.predict(x_star, s) for s in SCHEMES)]]
    designs = FAMILIES[family]._Designs(list(models), x_star.shape[0])
    parts = [np.stack(column) for column in zip(*(designs.reduce(X, y) for X, y in sets))]
    n = sets[0][0].shape[0]
    _, _, values, results = averaging._fit_average_stack(designs, parts, n, x_star, [SCHEMES] * len(sets))
    answers = []
    for per_model, result in zip(values, results):
        entries = _returned(result)
        assert entries[0][2] is None, "an optimal set of the stack was solved alone"
        answers.append([(estimate, weights, per_model) for estimate, weights, *_ in entries])
    return answers


def _deviations(base, moved, estimate_map, order=slice(None)):
    """The worst |moved estimate - estimate_map(estimate)| over max |moved per-model estimate|, and the worst
    |moved weight - weight[order]| of the ``aic`` and ``equal`` schemes, over every set and scheme."""
    estimate = weight = 0.0
    for sets in zip(base, moved):
        for scheme, ((e, w, _), (f, v, per_model)) in zip(SCHEMES, zip(*sets)):
            estimate = max(estimate, abs(f - estimate_map(e)) / np.max(np.abs(per_model)))
            if scheme != "optimal":
                weight = max(weight, float(np.max(np.abs(v - w[order]))))
    return estimate, weight


def _rows(family, count, seed):
    sets, models, x_star, rng = _case(family, seed, count)
    permuted = [(X[order], y[order]) for X, y in sets for order in [rng.permutation(y.shape[0])]]
    base, moved = (_answers(family, s, models, x_star) for s in (sets, permuted))
    return _deviations(base, moved, lambda e: e)


def _affine(count, seed):
    sets, models, x_star, rng = _case("linear", seed, count)
    a, s = rng.uniform(-5.0, 5.0), rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-2.0, 2.0)
    moved = [(X, a + s * y) for X, y in sets]
    return _deviations(*(_answers("linear", t, models, x_star) for t in (sets, moved)), lambda e: a + s * e)


def _flip(count, seed):
    sets, models, x_star, _ = _case("logistic", seed, count)
    moved = [(X, 1.0 - y) for X, y in sets]
    return _deviations(*(_answers("logistic", t, models, x_star) for t in (sets, moved)), lambda e: 1.0 - e)


def _candidates(family, count, seed):
    sets, models, x_star, rng = _case(family, seed, count)
    order = rng.permutation(len(models))
    base = _answers(family, sets, models, x_star)
    moved = _answers(family, sets, ModelSet([models[k] for k in order], models.q), x_star)
    return _deviations(base, moved, lambda e: e, order)


def _scaled_target_moves_a_bit(count, seed):
    """Whether x* -> 2^k x*, k in {-1, 1, 2}, moves any weight, or any estimate off 2^k times its own, by a bit."""
    sets, models, x_star, _ = _case("linear", seed, count)
    base = _answers("linear", sets, models, x_star)
    for k in (-1, 1, 2):
        moved = _answers("linear", sets, models, 2.0**k * x_star)
        for entries, scaled in zip(base, moved):
            for (e, w, per_model), (f, v, scaled_per_model) in zip(entries, scaled):
                if (
                    f != 2.0**k * e
                    or v.tobytes() != w.tobytes()
                    or scaled_per_model.tobytes() != (2.0**k * per_model).tobytes()
                ):
                    return True
    return False


def _within(deviations, worst):
    return all(d <= 10 * w for d, w in zip(deviations, worst))


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("count, seed", CASES)
def test_permuting_the_rows_keeps_the_estimate(family, count, seed):
    assert _within(_rows(family, count, seed), ROWS_WORST[family])


@pytest.mark.parametrize("count, seed", CASES)
def test_an_affine_map_of_a_linear_response_maps_the_estimate(count, seed):
    assert _within(_affine(count, seed), AFFINE_WORST)


@pytest.mark.parametrize("count, seed", CASES)
def test_flipping_a_logistic_response_flips_the_estimate(count, seed):
    assert _within(_flip(count, seed), FLIP_WORST)


@pytest.mark.parametrize("count, seed", CASES)
def test_permuting_the_logistic_candidates_keeps_the_estimate(count, seed):
    assert _within(_candidates("logistic", count, seed), CANDIDATES_WORST)


@pytest.mark.parametrize("count, seed", STACKS)
def test_permuting_the_linear_candidates_of_a_stack_keeps_the_estimate(count, seed):
    assert _within(_candidates("linear", count, seed), LINEAR_CANDIDATES_WORST)


@pytest.mark.parametrize("count, seed", STACKS)
def test_scaling_the_target_of_a_stack_by_a_power_of_two_is_bitwise(count, seed):
    assert not _scaled_target_moves_a_bit(count, seed)
