"""Write ``tests/data/logistic_golden.json``: both logistic fits' exact output on seeded problems.

Run from the repository root:

    PYTHONPATH=src python tests/data/make_logistic_golden.py

Each problem is ``logistic_golden_problem(seed, hard)`` of
``tests/oracles.py``.  ``mle`` fits ``logistic_mle`` to its 0/1 response
and ``pseudo`` fits ``logistic_pseudo_fit`` to its target probabilities,
through the public fits.  Each kind lists the ordinary problems, seeds 0
to 199, then its hard ones (``HARD``).  An entry holds ``beta`` and
``loglik`` as ``float.hex``, ``iterations`` and ``halvings``, or, for a
fit that raises ``NonConvergenceError``, the error's class, message and
iterations.  A response of one value, which the MLE refuses before its
first Newton step, has no entry (ordinary seeds 24 and 153).

``halvings`` counts the line-search halvings of the fit, which no fit
reports: the Newton loops that wrote the file first counted them.  No
ordinary fit halved its step, and ``HARD`` carries each hard fit's
count over from them.  The hard seeds are those loops' picks: the
problems whose step they halved or whose fit raised.

``tests/test_glm_fit.py`` replays every entry, and runs this script to
check that it writes the committed file byte for byte.  Regenerate the
file only on purpose, when a logistic fit is meant to change.
"""

from __future__ import annotations

import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]
PATH = ROOT / "tests" / "data" / "logistic_golden.json"
ORDINARY = range(200)
# each kind's hard seeds and the halvings of each one's fit, None where the fit raises
HARD = {
    "mle": {
        0: None, 2: None, 3: None, 4: None, 7: None, 114: 3, 864: 54, 1112: None, 1438: None, 1490: 1,
        1606: 2, 1786: 2, 1797: 1, 2101: 2, 2200: 4, 2974: 1, 3027: 1, 3811: 16, 3993: 1,
    },
    "pseudo": {
        30: 2, 64: 4, 87: 2, 115: 2, 141: 2, 184: 2, 262: 5, 337: 7, 360: None, 362: 1, 390: 2, 401: 2,
        520: 1, 530: 1, 574: 6, 616: 7, 633: 4, 659: 3, 666: 1, 712: 1, 778: 3, 841: 1, 953: 1, 1039: 8,
        1047: 1, 1081: 1, 1600: None, 1636: None, 2240: None, 3325: None,
    },
}


def entries(kind: str) -> list[dict]:
    from glmavg import NonConvergenceError, logistic_mle, logistic_pseudo_fit

    sys.path.insert(0, str(ROOT / "tests"))
    from oracles import logistic_golden_problem

    rows = []
    for hard, seeds in ((False, {seed: 0 for seed in ORDINARY}), (True, HARD[kind])):
        for seed, halvings in seeds.items():
            X, y, target = logistic_golden_problem(seed, hard)
            row = {"seed": seed, "hard": hard}
            try:
                fit = logistic_mle(X, y) if kind == "mle" else logistic_pseudo_fit(X, target)
            except NonConvergenceError as exc:
                if exc.iterations == 0:  # a response of one value: no Newton step ran
                    continue
                rows.append(row | {"error": type(exc).__name__, "message": str(exc), "iterations": exc.iterations})
                continue
            if halvings is None:
                raise AssertionError(f"hard {kind} seed {seed} was carried over as raising, and fits")
            rows.append(
                row
                | {
                    "beta": [float(b).hex() for b in fit.beta],
                    "loglik": float(fit.loglik).hex(),
                    "iterations": fit.iterations,
                    "halvings": halvings,
                }
            )
    return rows


def main(path: pathlib.Path = PATH) -> None:
    kinds = [f' "{kind}": [\n' + ",\n".join("  " + json.dumps(row) for row in entries(kind)) + "\n ]" for kind in HARD]
    path.write_text("{\n" + ",\n".join(kinds) + "\n}\n")
    print(f"wrote {path}", file=sys.stderr)


if __name__ == "__main__":
    main()
