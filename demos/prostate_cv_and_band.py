"""Real-data-style pipeline: repeated holdout comparison and prediction bands.

Runs on the bundled synthetic stand-in for the classic prostate cancer
dataset (swap in the real CSV via load_csv to reproduce the original
study).  Compares four prediction methods on shared 67/30 splits, then
builds 90% subsample prediction bands for the test rows of one split.
"""

import pathlib

import numpy as np

from glmavg import (
    LinearQFactory,
    cv_compare,
    enumerate_all_subsets,
    prediction_band,
    split,
    synthetic_prostate,
)

dataset = synthetic_prostate()
print(f"dataset: n={dataset.n}, predictors={dataset.column_names[1:]}")

# Four methods on identical splits.  The averaging methods use all
# 2^8 = 256 candidate models over the eight optional predictors.
report = cv_compare(dataset, n_repeats=5, seed=11)
print(f"\nmean squared prediction error over {report.n_repeats} splits "
      f"({report.n_train} train / {report.n_test} test):")
for method, err in sorted(report.mean_errors.items(), key=lambda kv: kv[1]):
    print(f"  {method:<12} {err:.4f}")

# Prediction bands for one split, subsampling 50 of the 67 training
# rows per replication and adding full-model-sigma noise to each mean.
train, test = split(dataset, 67, seed=5)
# a factory with no candidates fits only the full design
sigma = float(np.sqrt(LinearQFactory(train.design, train.response, []).sigma2))
print(f"\nfull-model residual sd on the training split: {sigma:.3f}")

models = enumerate_all_subsets(1, 8)
lines = ["index,actual,predicted,lower,upper"]
covered = 0
for i in range(test.n):
    band = prediction_band(
        train.design, train.response, test.design[i], models,
        n_sub=50, n_reps=50, sigma=sigma, level=0.9, seed=100 + i,
    )
    actual = float(test.response[i])
    covered += band.lower <= actual <= band.upper
    lines.append(f"{i},{actual!r},{band.point!r},{band.lower!r},{band.upper!r}")

out = pathlib.Path(__file__).with_name("prostate_band.csv")
out.write_text("\n".join(lines) + "\n")
print(f"90% bands cover {covered}/{test.n} held-out responses; wrote {out}")
