"""Exact symmetries of the averaging estimator on a lone linear predictor.

Both follow from the estimator's definition, so a regression in the
fits, Q-hat or the solver that keeps every fixture's value can still
break one.

- Scaling the target, x* -> 2^k x*: each per-model estimate is x*'beta_k,
  and Q-hat = b b' + A'A is quadratic in x*.  A power of two scales a
  double exactly, so the weights keep their bits, the estimate scales
  by 2^k and the ``optimal`` objective by 4^k, bit for bit.  Measured
  on the 400 designs ``_design(0..399)``, all three schemes and
  k in {-1, 1, 2}: no bit moved.
- Permuting the candidates: the estimate and the ``optimal`` objective
  stay, up to the order of floating-point sums; the ``aic`` and
  ``equal`` weights follow the candidates.  (The ``optimal`` weights
  need not be unique, so they are not compared.)  Worst cases over the
  same 400 designs: the estimate moved by 3.6e-16 of the largest
  |per-model estimate| (5.7e-15 of the estimate itself, whose value can
  sit near zero), the objective by 4.2e-16 relative, and an ``aic``
  weight by 4.4e-16.  The prostate baseline (K = 256) read 2.9e-16.
  The tests allow ten times the measured worst case.
"""

import numpy as np
import pytest

from glmavg import LinearAveragingPredictor, ModelSet, enumerate_all_subsets

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
