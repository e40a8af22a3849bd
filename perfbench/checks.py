"""Output checks.  Each returns a list of problems; an empty list means the output is valid.

The reference computations here take a different route from the
library (SVD pseudo-inverses instead of QR and triangular solves), so
agreement is evidence rather than self-confirmation.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

SIMPLEX_TOL = 1e-9
VALUE_TOL = 1e-12  # relative; value is weights . per_model, recomputed the same way
Q_TOL = 1e-10  # absolute entrywise deviation of Q from the double sum (tier-1 criterion 2)
REFERENCE_RTOL = 1e-9  # study report cells against reference.json
# Plausibility bound on every study batch: |mean estimate - truth| may
# exceed the estimators' bias (below 0.06 at these cells) by at most six
# standard errors of the batch mean.
STUDY_BIAS_TOL = 0.1

REFERENCE_PATH = Path(__file__).with_name("reference.json")
NUMERIC_COLUMNS = ("truth", "mean_estimate", "error", "bias2", "variance", "mse")


def check_estimate(est) -> list[str]:
    """Weights on the simplex and value == weights . per_model."""
    w, per_model = np.asarray(est.weights), np.asarray(est.per_model)
    problems = []
    if not (np.all(np.isfinite(w)) and np.all(np.isfinite(per_model)) and math.isfinite(est.value)):
        return ["non-finite weights, per-model values or estimate"]
    if np.min(w) < -SIMPLEX_TOL or abs(float(np.sum(w)) - 1.0) > SIMPLEX_TOL:
        problems.append(f"weights off the simplex (min {np.min(w):.3g}, sum - 1 = {np.sum(w) - 1:.3g})")
    expected = float(w @ per_model)
    if abs(est.value - expected) > VALUE_TOL * max(1.0, abs(expected)):
        problems.append(f"value {est.value!r} != weights . per_model {expected!r}")
    return problems


def q_linear_double_sum(X, y, models, x_star) -> np.ndarray:
    """Q = b b' + A'A from its definition, with Q[j, k] summed over rows explicitly.

    b_k = x_k' beta_k - x' beta_full and column k of A is
    sigma X_k (X_k'X_k)^{-1} x_k = sigma U_k S_k^{-1} V_k' x_k from the SVD
    X_k = U_k S_k V_k'; sigma^2 is the full-model mean squared residual.
    """
    X, y, x_star = (np.asarray(a, dtype=float) for a in (X, y, x_star))
    beta_full = np.linalg.lstsq(X, y, rcond=None)[0]
    sigma = math.sqrt(float(np.mean((y - X @ beta_full) ** 2)))
    mu_full = float(x_star @ beta_full)
    bias, columns = [], []
    for model in models:
        cols = model.column_indices()
        U, S, Vt = np.linalg.svd(X[:, cols], full_matrices=False)
        x_k = x_star[cols]
        bias.append(float(x_k @ (Vt.T @ ((U.T @ y) / S))) - mu_full)
        columns.append(sigma * (U @ ((Vt @ x_k) / S)))
    A = np.column_stack(columns)
    b = np.asarray(bias)
    return np.outer(b, b) + np.einsum("ij,ik->jk", A, A)


def check_q_hat(est, X, y, models, x_star) -> list[str]:
    deviation = float(np.max(np.abs(est.q_hat.matrix - q_linear_double_sum(X, y, models, x_star))))
    if not deviation <= Q_TOL:
        return [f"Q-hat deviates from the double sum by {deviation:.3g} (> {Q_TOL:g})"]
    return []


def check_band_json(path, test) -> list[str]:
    """One finite row per test row, in order, with lower <= upper and the CSV's response."""
    try:
        rows = json.loads(Path(path).read_text())["rows"]
    except (OSError, ValueError, KeyError) as exc:
        return [f"unreadable band output: {exc}"]
    if len(rows) != test.n:
        return [f"band output has {len(rows)} rows for {test.n} test rows"]
    problems = []
    for i, row in enumerate(rows):
        values = [row.get(k) for k in ("actual", "predicted", "lower", "upper")]
        if row.get("index") != i or not all(isinstance(v, float) and math.isfinite(v) for v in values):
            problems.append(f"band row {i} malformed or non-finite: {row}")
        elif not row["lower"] <= row["upper"]:
            problems.append(f"band row {i} has lower > upper")
        elif row["actual"] != float(test.response[i]):
            problems.append(f"band row {i} actual {row['actual']!r} != {float(test.response[i])!r}")
    return problems


def check_study_rows(rows, expected_rows: int, n_reps: int) -> list[str]:
    """Finite cells, the summary identities, and a plausible distance of the mean from the truth."""
    if len(rows) != expected_rows:
        return [f"study report has {len(rows)} rows, expected {expected_rows}"]
    problems = []
    for row in rows:
        cells = [row[c] for c in NUMERIC_COLUMNS]
        label = f"{row['scheme']} beta3={row['beta3']}"
        if not all(math.isfinite(c) for c in cells):
            problems.append(f"{label}: non-finite cells {cells}")
            continue
        if abs(row["mse"] - row["bias2"] - row["variance"]) > 1e-9 * max(1.0, row["mse"]):
            problems.append(f"{label}: mse != bias2 + variance")
        if abs(row["error"] - math.sqrt(row["mse"])) > 1e-9 * max(1.0, row["error"]):
            problems.append(f"{label}: error != sqrt(mse)")
        if abs(row["mean_estimate"] - row["truth"]) > STUDY_BIAS_TOL + 6.0 * math.sqrt(row["variance"] / n_reps):
            problems.append(f"{label}: mean {row['mean_estimate']:.4f} vs truth {row['truth']:.4f}")
    return problems


def check_reference(name: str, rows) -> list[str]:
    """Rows of the workload's reference call against the values stored in reference.json."""
    stored = json.loads(REFERENCE_PATH.read_text())[name]["rows"]
    if len(rows) != len(stored):
        return [f"reference call gave {len(rows)} rows, {len(stored)} stored"]
    problems = []
    for got, want in zip(rows, stored):
        for col in NUMERIC_COLUMNS:
            if not math.isclose(got[col], want[col], rel_tol=REFERENCE_RTOL, abs_tol=1e-15):
                problems.append(
                    f"reference {got['scheme']} beta3={got['beta3']} {col}: {got[col]!r} != {want[col]!r}"
                )
    return problems
