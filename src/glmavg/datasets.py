"""Bundled example data.

``synthetic_prostate`` generates a stand-in for the classic prostate
cancer study of Stamey et al. (1989): 97 patients, eight clinical
predictors (log cancer volume, log prostate weight, age, log benign
hyperplasia amount, seminal vesicle invasion, log capsular penetration,
Gleason score, percent Gleason 4/5) and log PSA as the response.  The
generator reproduces the published marginal scales, predictor
correlations, standardized regression coefficients, and residual noise
level of the original data, so pipelines exercised on it behave like
they do on the real file — but the rows are simulated, not the actual
patients.  Use the real CSV instead whenever it is available; the
column layout is identical.
"""

from __future__ import annotations

import numpy as np

from .dataio import Dataset, INTERCEPT_NAME
from .rng import substream

PROSTATE_PREDICTORS = [
    "lcavol",
    "lweight",
    "age",
    "lbph",
    "svi",
    "lcp",
    "gleason",
    "pgg45",
]

# published training-set correlations among the eight predictors
_CORR = np.array(
    [
        # lcavol lweight  age    lbph    svi    lcp   gleason pgg45
        [1.000, 0.300, 0.286, 0.063, 0.593, 0.692, 0.426, 0.483],
        [0.300, 1.000, 0.317, 0.437, 0.181, 0.157, 0.024, 0.074],
        [0.286, 0.317, 1.000, 0.287, 0.129, 0.173, 0.366, 0.276],
        [0.063, 0.437, 0.287, 1.000, -0.139, -0.089, 0.033, -0.030],
        [0.593, 0.181, 0.129, -0.139, 1.000, 0.671, 0.307, 0.481],
        [0.692, 0.157, 0.173, -0.089, 0.671, 1.000, 0.476, 0.663],
        [0.426, 0.024, 0.366, 0.033, 0.307, 0.476, 1.000, 0.757],
        [0.483, 0.074, 0.276, -0.030, 0.481, 0.663, 0.757, 1.000],
    ]
)

# marginal location/scale for the latent (pre-discretisation) predictors
_LOCATION = np.array([1.35, 3.63, 63.9, 0.10, 0.0, -0.18, 6.75, 24.4])
_SCALE = np.array([1.18, 0.43, 7.4, 1.45, 1.0, 1.40, 0.72, 28.0])

# published full-model coefficients on standardized predictors, and the
# residual noise level of that fit
_STD_COEF = np.array([0.680, 0.263, -0.141, 0.210, 0.305, -0.288, -0.021, 0.267])
_INTERCEPT = 2.465
_NOISE_SD = 0.70


def synthetic_prostate() -> Dataset:
    """The 97 simulated rows with the prostate study's schema and moment structure.

    They are drawn from one fixed stream, so every call returns the
    same rows.
    """
    n = 97
    rng = substream(20260808, "prostate")
    # correlated latents; tiny eigenvalue clip guards the Cholesky
    eigvals, eigvecs = np.linalg.eigh(_CORR)
    root = eigvecs @ np.diag(np.sqrt(np.maximum(eigvals, 1e-10))) @ eigvecs.T
    z = rng.standard_normal((n, 8)) @ root.T

    raw = _LOCATION + _SCALE * z
    columns = {name: raw[:, j] for j, name in enumerate(PROSTATE_PREDICTORS)}
    columns["age"] = np.round(columns["age"])
    # svi is binary with roughly a 22% positive rate in the original study
    columns["svi"] = (z[:, 4] > 0.77).astype(float)
    columns["gleason"] = np.clip(np.round(columns["gleason"]), 6, 9)
    columns["pgg45"] = np.clip(np.round(columns["pgg45"]), 0, 100)

    X = np.column_stack([columns[name] for name in PROSTATE_PREDICTORS])
    standardized = (X - X.mean(axis=0)) / X.std(axis=0)
    lpsa = _INTERCEPT + standardized @ _STD_COEF + _NOISE_SD * rng.standard_normal(n)

    return Dataset(
        response=lpsa,
        design=np.column_stack([np.ones(n), X]),
        column_names=[INTERCEPT_NAME] + PROSTATE_PREDICTORS,
        family="linear",
        response_name="lpsa",
    )
