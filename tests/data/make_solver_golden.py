"""Write ``tests/data/solver_golden.json``: the weight solver's exact output.

Run from the repository root:

    PYTHONPATH=src python tests/data/make_solver_golden.py

``prostate`` holds the ``optimal`` solve of every test row of the first
10 prostate splits: split r is ``split(synthetic_prostate(), 67,
seed=derive_seed(0, "prostate-split", r))``, its Q-hat comes from one
``LinearQFactory`` over the 256 all-subsets candidates, and each of its
30 rows stores the support, the support's weights, the objective and the
KKT residual as ``float.hex`` and the major-cycle count.
``collinear_raises`` has one character per form of the 750 nearly
collinear forms of ``tests/test_mse_weights.py``: ``1`` when the solve
raises ``NumericalError``, else ``0``.

``tests/test_mse_weights.py::TestSolverGolden`` replays both.
Regenerate the file only on purpose, when the solver's output or the
linear fits it reads are meant to change.
"""

from __future__ import annotations

import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]
SEED = 0
N_TRAIN = 67
SPLITS = 10


def prostate_rows() -> list[dict]:
    from glmavg import (
        LinearQFactory, derive_seed, enumerate_all_subsets, solve_simplex_qp, split,
        synthetic_prostate,
    )

    models = enumerate_all_subsets(1, 8)
    rows = []
    for r in range(SPLITS):
        train, test = split(synthetic_prostate(), N_TRAIN, seed=derive_seed(SEED, "prostate-split", r))
        factory = LinearQFactory(train.design, train.response, models)
        for i in range(test.n):
            sol = solve_simplex_qp(factory.q_form(test.design[i]))
            support = [k for k, w in enumerate(sol.weights.tolist()) if w != 0.0]
            rows.append({
                "split": r,
                "row": i,
                "support": support,
                "weights": [float(sol.weights[k]).hex() for k in support],
                "iterations": sol.iterations,
                "objective": sol.objective.hex(),
                "kkt_residual": sol.kkt_residual.hex(),
            })
    return rows


def collinear_raises() -> str:
    from glmavg import NumericalError, solve_simplex_qp

    sys.path.insert(0, str(ROOT / "tests"))
    from test_mse_weights import _collinear_forms

    pattern = []
    for q in _collinear_forms():
        try:
            solve_simplex_qp(q)
            pattern.append("0")
        except NumericalError:
            pattern.append("1")
    return "".join(pattern)


def main() -> None:
    solved = prostate_rows()
    rows = ",\n".join("  " + json.dumps(row) for row in solved)
    head = json.dumps({"seed": SEED, "n_train": N_TRAIN})[:-1]
    text = (
        "{\n"
        f' "prostate": {head}, "rows": [\n{rows}\n ]}},\n'
        f' "collinear_raises": {json.dumps(collinear_raises())}\n'
        "}\n"
    )
    path = ROOT / "tests" / "data" / "solver_golden.json"
    path.write_text(text)
    print(f"wrote {len(solved)} prostate rows to {path.relative_to(ROOT)}", file=sys.stderr)


if __name__ == "__main__":
    main()
