"""Averaging a success probability under logistic candidate models.

The per-model estimates are plain logistic MLEs.  The optimal weights
come from the logistic MSE form, whose bias entries compare each
model's pseudo-fit (the IRLS solution matching the full model's fitted
probabilities) against the full-model probability at the target point.
The logit link is canonical, so that pseudo-fit is the model's own MLE,
as the two printed coefficient rows show, and the form reads the MLEs.
"""

import numpy as np

from glmavg import (
    LogisticAveragingPredictor,
    logistic_mle,
    logistic_pseudo_fit,
    study2_model_sets,
)
from glmavg.glm_fit import expit
from glmavg.model_space import subset_columns

rng = np.random.default_rng(7)
n = 100
beta_true = np.array([0.3, 0.1, 0.3, 0.1])
X = np.column_stack([np.ones(n), rng.standard_normal((n, 3))])
y = (rng.random(n) < expit(X @ beta_true)).astype(float)

x_star = np.array([1.0, -1.855445, -1.018565, -1.045111])
truth = float(expit(x_star @ beta_true))
models = study2_model_sets()["A"]  # intercept-up ladder

# Pseudo-fit: project the full model onto a sub-model by solving the
# sub-model score equation against the full fitted probabilities (not
# against the raw 0/1 data).  It lands on the sub-model's data MLE.
full = logistic_mle(X, y)
p_full = expit(X @ full.beta)
sub = models[1]  # intercept + first covariate
pseudo = logistic_pseudo_fit(subset_columns(X, sub), p_full)
data_fit = logistic_mle(subset_columns(X, sub), y)
print("sub-model", sub.included)
print("  pseudo-fit coefficients:", np.round(pseudo.beta, 4), f"({pseudo.iterations} IRLS steps)")
print("  data MLE coefficients:  ", np.round(data_fit.beta, 4))

predictor = LogisticAveragingPredictor(X, y, models)  # every candidate's MLE, once
q_hat = predictor.q_form(x_star)
print("\nestimated bias entries (MLE minus full, at x*):", np.round(q_hat.bias, 4))

print(f"\ntrue success probability at x*: {truth:.4f}")
for scheme in ("optimal", "aic", "equal"):
    est = predictor.predict(x_star, scheme)
    print(
        f"  {scheme:<8} estimate {est.value:.4f}   weights {np.round(est.weights, 3)}"
    )
