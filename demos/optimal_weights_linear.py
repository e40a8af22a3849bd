"""Anatomy of the optimal weights for a linear prediction target.

Simulates a regression whose last coefficient is weak, builds the
estimated-MSE quadratic form for predicting at one covariate point,
and compares the resulting weights and estimates across schemes.
"""

import numpy as np

from glmavg import LinearAveragingPredictor, enumerate_all_subsets, solve_simplex_qp

rng = np.random.default_rng(42)
n = 100
beta_true = np.array([0.3, 0.1, 0.3, 0.05])  # the last coefficient is weak
X = np.column_stack([np.ones(n), rng.standard_normal((n, 3))])
y = X @ beta_true + rng.standard_normal(n)

x_star = np.array([1.0, -1.855445, -1.018565, -1.045111])
truth = float(x_star @ beta_true)
models = enumerate_all_subsets(p_fixed=1, q=3)

# The estimated MSE of the averaged estimator is the quadratic form
#   Qhat(w) = (bias' w)^2 + |A w|^2
# whose diagonal already tells the per-model bias/variance story.
predictor = LinearAveragingPredictor(X, y, models)  # every candidate's OLS fit, once
q_hat = predictor.q_form(x_star)
variance_part = np.sum(q_hat.gram_factor**2, axis=0)
print(f"truth x*'beta = {truth:+.4f}\n")
print("model   included      est.bias   est.var    Qhat diag")
for k, model in enumerate(models):
    print(
        f"{k:>5}   {str(model.included):<12} {q_hat.bias[k]:+.4f}    "
        f"{variance_part[k]:.4f}    {q_hat.matrix[k, k]:.4f}"
    )

solution = solve_simplex_qp(q_hat)
print(f"\noptimal weights: {np.round(solution.weights, 3)}")
print(f"objective (estimated MSE): {solution.objective:.5f}")
print(f"KKT residual: {solution.kkt_residual:.2e}")

print("\nscheme comparison at x*:")
for scheme in ("optimal", "aic", "equal"):
    est = predictor.predict(x_star, scheme)
    print(f"  {scheme:<8} estimate {est.value:+.4f}   error {abs(est.value - truth):.4f}")
print(f"  {'full':<8} estimate {est.per_model[-1]:+.4f}   "
      f"error {abs(est.per_model[-1] - truth):.4f}")
