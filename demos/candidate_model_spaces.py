"""Tour of candidate model spaces: enumeration, nesting, padding, serialization.

A candidate model keeps all fixed coefficients plus a subset of the
optional ones.  This script shows the two stock constructions, the
column bookkeeping, and the JSON-lines wire format.
"""

import numpy as np

from glmavg import (
    CandidateModel,
    ModelSet,
    enumerate_all_subsets,
    nested_sequence,
    subset_columns,
    subset_point,
)

# All 2^q subsets over q = 3 optional coefficients (intercept fixed).
all_subsets = enumerate_all_subsets(p_fixed=1, q=3)
print(f"all-subsets space: {len(all_subsets)} models")
for k, model in enumerate(all_subsets):
    print(f"  model {k}: optional indices {model.included or '()'}")

# The nested ladder drops optional coefficients from the front:
# the first model keeps everything, the last keeps none.
ladder = nested_sequence(p_fixed=1, q=4)
print("\nnested ladder sizes:", [m.dim for m in ladder])

# Column bookkeeping: optional index j lives at design column p_fixed + j.
X = np.arange(20.0).reshape(4, 5)  # 1 fixed column + 4 optional
model = CandidateModel((0, 2), p_fixed=1)
print("\nfull design:\n", X)
print("columns used by", model.included, ":\n", subset_columns(X, model))

# Sub-model coefficients are padded back to full length with zeros so
# every model lives in one coordinate system; subsetting recovers them.
# LinearQFactory and LogisticQFactory keep every candidate's fit this way.
beta_k = np.array([2.0, 3.0, -1.0])
padded = np.zeros(X.shape[1])
padded[model.column_indices()] = beta_k
print("\nfitted sub-model coefficients:", beta_k)
print("zero-padded to full length:   ", padded)
print("round trip:                   ", subset_point(padded, model))

# Model sets serialize one JSON object per line.
wire = ladder.to_jsonl()
print("\nJSON-lines form of the ladder:")
print(wire, end="")
assert ModelSet.from_jsonl(wire) == ladder
