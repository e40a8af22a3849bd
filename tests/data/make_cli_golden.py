"""Write ``tests/data/cli_golden.json``: ``glmavg`` argument lists mapped to their exact stdout.

Run from the repository root:

    PYTHONPATH=src python tests/data/make_cli_golden.py

Each key is an argument string (split on whitespace; paths are relative
to the repository root) and each value is what ``glmavg.cli.main``
writes to stdout for it.  The cases cover every output shape of the CLI:

* ``weights``/``predict`` for the linear ``lpsa`` and the logistic
  ``svi`` pipelines on ``data/prostate_synth.csv``, at the covariates of
  its first row, under every scheme, as CSV and JSON, plus ``--dump-q``
  over the nested candidates of ``tests/data/cli_golden_models.jsonl``;
* ``study1`` and ``study2`` (both families) at 5 replications, CSV and JSON;
* ``band`` at 5 replications on the 3-row ``tests/data/cli_golden_test.csv``,
  at one and two workers, CSV and JSON.

``tests/test_cli.py`` replays every case.  Regenerate the file only on
purpose, when an output is meant to change.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]
DATA = "data/prostate_synth.csv"
TEST_DATA = "tests/data/cli_golden_test.csv"
MODELS = "tests/data/cli_golden_models.jsonl"  # the 9 nested models, so the dumped Q-hat stays small


def _x_star(response: str) -> str:
    """Intercept 1 then the first data row's covariates, without ``response``."""
    with open(ROOT / DATA, newline="") as handle:
        rows = csv.reader(handle)
        header = next(rows)
        first = next(rows)
    values = ["1"] + [cell for name, cell in zip(header, first) if name != response]
    return ",".join(values)


def cases() -> list[str]:
    out = []
    for family, response in (("linear", "lpsa"), ("logistic", "svi")):
        point = f"--data {DATA} --response {response} --family {family} --x-star {_x_star(response)}"
        for command in ("weights", "predict"):
            for scheme in ("optimal", "aic", "equal"):
                for fmt in ("csv", "json"):
                    out.append(f"{command} {point} --scheme {scheme} --format {fmt}")
            out.append(f"{command} {point} --models {MODELS} --format json --dump-q")
    for fmt in ("csv", "json"):
        out.append(f"study1 --reps 5 --n-grid 100,200 --format {fmt}")
        for family in ("linear", "logistic"):
            out.append(f"study2 --family {family} --reps 5 --beta3 0.1,0.5 --format {fmt}")
        for workers in (1, 2):
            out.append(
                f"band --data {DATA} --response lpsa --test-data {TEST_DATA} --reps 5 "
                f"--workers {workers} --format {fmt}"
            )
    return out


def run(args: str) -> str:
    from glmavg.cli import main

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(args.split())
    if code != 0:
        raise SystemExit(f"{args!r} exited {code}")
    return buffer.getvalue()


def main() -> None:
    os.chdir(ROOT)
    golden = {args: run(args) for args in cases()}
    path = ROOT / "tests" / "data" / "cli_golden.json"
    path.write_text(json.dumps(golden, indent=1) + "\n")
    print(f"wrote {len(golden)} cases to {path.relative_to(ROOT)}", file=sys.stderr)


if __name__ == "__main__":
    main()
