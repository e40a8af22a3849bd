"""Bias/variance movement of the averaging estimator against the oracle.

A compact rendition of the first stock study: 5 fixed + 5 optional
coefficients, the nested candidate ladder (case A adds the oracle model
itself as a seventh candidate), sample size swept over a grid.  Writes
the plot-ready table next to this script.

Scale n_reps up (1000+) for smooth curves; the default keeps the demo
under a minute.
"""

import pathlib

from glmavg import run_study1, study1_model_sets
from glmavg.dataio import csv_text
from glmavg.sim_harness import REPORT_COLUMNS

print("candidate sets:")
for case, models in study1_model_sets().items():
    print(f"  case {case}: {[m.included for m in models]}")

report = run_study1(
    n_grid=(100, 250, 500, 1000),
    cases=("A", "B"),
    n_reps=200,
    seed=1,
    workers=2,
)

print(f"\n{'case':<5} {'n':>5} {'scheme':<8} {'bias^2':>9} {'variance':>9} {'mse':>9}")
for row in report.rows:
    print(
        f"{row['case']:<5} {row['n']:>5} {row['scheme']:<8} "
        f"{row['bias2']:>9.5f} {row['variance']:>9.5f} {row['mse']:>9.5f}"
    )

out = pathlib.Path(__file__).with_name("bias_variance_study.csv")
out.write_text(csv_text(REPORT_COLUMNS, report.rows))
print(f"\nwrote {out}")
print("note: with these nested candidates every unbiased model contains the")
print("oracle's support, so the averaged variance tracks the oracle from above;")
print("the biases of both estimators vanish together as n grows.")
