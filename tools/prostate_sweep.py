"""Predict prostate rows over a range of seeds and print every row that raises.

    PYTHONPATH=src python3 tools/prostate_sweep.py 300-439 1030

Each argument is a seed, an inclusive range ``a-b``, or a comma-separated
list of either.  For seed s, split r (r = 0 .. 21) is
``split(synthetic_prostate(), 67, seed=derive_seed(s, "prostate-split", r))``,
the splits the ``prostate_cv`` benchmark workload draws for seed s in a
12 s run.  Each of the split's 30 test rows is predicted under the
``optimal`` scheme over the 256 all-subsets candidates.  A row whose fit
or ``predict`` raises a ``GlmavgError`` is printed as
``seed/split/row: message``; the last line counts the rows and the
failures.

Run it on two checkouts, each with its own ``PYTHONPATH``, to see which
rows a change to Q-hat's arithmetic or to the solver lets fail or
mends.  Seeds 300-439 and 1030 (93,060 rows) take about a minute.
"""

from __future__ import annotations

import argparse
import sys

import glmavg

SPLITS = 22
N_TRAIN = 67


def parse_seeds(specs: list[str]) -> list[int]:
    """The seeds that ``specs`` name, in order: ``"3"``, ``"3-5"`` or ``"3-5,9"``."""
    seeds = []
    for spec in specs:
        for part in spec.split(","):
            first, _, last = part.partition("-")
            seeds.extend(range(int(first), int(last or first) + 1))
    return seeds


def sweep(seeds: list[int]):
    """Yield ``(seed, split, row, message)`` for every row whose fit or prediction raises."""
    dataset = glmavg.synthetic_prostate()
    models = glmavg.enumerate_all_subsets(1, 8)
    for seed in seeds:
        for r in range(SPLITS):
            train, test = glmavg.split(dataset, N_TRAIN, seed=glmavg.derive_seed(seed, "prostate-split", r))
            try:
                predictor = glmavg.LinearAveragingPredictor(train.design, train.response, models)
            except glmavg.GlmavgError as exc:
                for i in range(test.n):
                    yield seed, r, i, f"fit raised {exc}"
                continue
            for i in range(test.n):
                try:
                    predictor.predict(test.design[i], "optimal")
                except glmavg.GlmavgError as exc:
                    yield seed, r, i, str(exc)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("seeds", nargs="+", help="seeds: 300, 300-439 or 300-439,1030")
    args = parser.parse_args(argv)
    try:
        seeds = parse_seeds(args.seeds)
    except ValueError:
        parser.error(f"seeds must be integers or ranges a-b, got {args.seeds}")
    failed = 0
    for seed, r, i, message in sweep(seeds):
        failed += 1
        print(f"{seed}/{r}/{i}: {message}", flush=True)
    rows = len(seeds) * SPLITS * (glmavg.synthetic_prostate().n - N_TRAIN)
    print(f"{rows} rows over {len(seeds)} seeds, {failed} raised")
    return 0


if __name__ == "__main__":
    sys.exit(main())
