"""Compare two checkouts on one benchmark workload in alternating pairs.

    python3 tools/bench_pairs.py PARENT CHANGE --workload W --seed S --pairs N

Pair i runs ``perfbench/run.py --workload W --seed S+i`` once in each
checkout, the parent first in even pairs and the change first in odd
ones, so drift on a shared host falls on both sides alike.  Each run is
a fresh ``python3 perfbench/run.py`` in its own checkout, as long as the
``run_seconds`` of the parent's ``BENCHMARK.json``.  The last line of its
output is the JSON result; a run that exits 1 (an output check failed)
still counts, with ``correct: false``.

For every end-to-end metric that the same ``BENCHMARK.json`` lists, the
report gives each side's median and quartiles, the change's relative move
in the median, the pairs in which the change did better (by the metric's
``better``), and the median gap over the parent's interquartile range.
Then the failed operations and the ``correct: true`` runs of each
side.  Progress lines go to standard error, the report to standard output.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    parser.add_argument("--pairs", type=int, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    for side in SIDES:
        if not (getattr(args, side) / "perfbench" / "run.py").is_file():
            parser.error(f"{getattr(args, side)} has no perfbench/run.py")
    return args


def run_one(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run in ``checkout``: its JSON result line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds)]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        why = done.stderr.strip()[-500:]
        raise RuntimeError(f"{checkout}: {' '.join(cmd[1:])} exited {done.returncode}: {why}")
    return json.loads(lines[-1])


def run_pairs(args, seconds: float, run=run_one) -> dict[str, list[dict]]:
    results: dict[str, list[dict]] = {side: [] for side in SIDES}
    for i in range(args.pairs):
        seed = args.seed + i
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            results[side].append(run(getattr(args, side), args.workload, seed, seconds))
        print(f"pair {i + 1}/{args.pairs} (seed {seed}) done", file=sys.stderr)
    return results


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), linear between order statistics."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def summarise(results: dict[str, list[dict]], metrics: list[dict]) -> list[str]:
    """The report's lines: one per end-to-end metric, then the failure and correctness totals."""
    pairs = len(results["parent"])
    lines = []
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        values = {side: [r["metrics"][name]["value"] for r in results[side]] for side in SIDES}
        (p1, p2, p3), (c1, c2, c3) = (quartiles(values[side]) for side in SIDES)
        wins = sum((c < p) if lower else (c > p) for p, c in zip(values["parent"], values["change"]))
        move = f"{(c2 - p2) / p2:+.1%}" if p2 else "n/a"
        spread = f"{abs(c2 - p2) / (p3 - p1):.2f}" if p3 > p1 else "n/a"
        lines.append(
            f"{name:<16} parent {p2:.4g} [{p1:.4g}, {p3:.4g}]  change {c2:.4g} [{c1:.4g}, {c3:.4g}]  "
            f"{move}  change better in {wins} of {pairs}  |gap| / parent IQR {spread}"
        )
    for side in SIDES:
        runs = results[side]
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        correct = sum(bool(r["correct"]) for r in runs)
        lines.append(
            f"{side:<16} failed {failed} of {attempted} ops; correct: true in {correct} of {len(runs)} runs"
        )
    return lines


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    benchmark = json.loads((args.parent / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    results = run_pairs(args, seconds)
    print(f"{args.workload}: {args.pairs} alternating pairs, seeds {args.seed}-{args.seed + args.pairs - 1}, "
          f"{seconds:g} s each; median [quartiles]")
    for line in summarise(results, benchmark["end_to_end"]):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
