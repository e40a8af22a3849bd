"""Write ``tests/data/cv_golden.json``: ``glmavg cv`` argument lists mapped to their exact stdout.

Run from the repository root:

    PYTHONPATH=src python tests/data/make_cv_golden.py

The cases run ``cv`` on the ``lpsa`` pipeline of ``data/prostate_synth.csv``
at its default repeats: seeds 0 and 1 under both selection rules, as
CSV and JSON; ``best_subset`` alone; and the averaging methods over the
candidates of ``tests/data/cv_golden_models.jsonl`` under ``aic``.
Keys and values are as in ``cli_golden.json`` (``make_cli_golden.py``
runs each case).

``tests/test_cli.py`` replays every case.  Regenerate the file only on
purpose, when an output is meant to change.
"""

from __future__ import annotations

import json
import os
import sys

from make_cli_golden import ROOT, run

POINT = "cv --data data/prostate_synth.csv --response lpsa"
MODELS = "tests/data/cv_golden_models.jsonl"


def cases() -> list[str]:
    out = [
        f"{POINT} --seed {seed} --select-by {rule} --format {fmt}"
        for seed in (0, 1)
        for rule in ("cv", "aic")
        for fmt in ("csv", "json")
    ]
    out.append(f"{POINT} --seed 0 --methods best_subset --format json")
    out.append(f"{POINT} --seed 0 --select-by aic --format json --models {MODELS}")
    return out


def main() -> None:
    os.chdir(ROOT)
    golden = {args: run(args) for args in cases()}
    path = ROOT / "tests" / "data" / "cv_golden.json"
    path.write_text(json.dumps(golden, indent=1) + "\n")
    print(f"wrote {len(golden)} cases to {path.relative_to(ROOT)}", file=sys.stderr)


if __name__ == "__main__":
    main()
