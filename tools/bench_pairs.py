"""Compare two checkouts on one benchmark workload in alternating pairs.

    python3 tools/bench_pairs.py PARENT CHANGE --workload W --seed S --pairs N [--json PATH]

Pair i runs ``perfbench/run.py --workload W --seed S+i`` once in each
checkout, the parent first in even pairs and the change first in odd
ones, so drift on a shared host falls on both sides alike.  Each run is
a fresh ``python3 perfbench/run.py`` in its own checkout, as long as the
``run_seconds`` of the parent's ``BENCHMARK.json``.  The last line of its
output is the JSON result; a run that exits 1 (an output check failed)
still counts, with ``correct: false``.

Both sides compile their sources on every run.  A checkout with valid
bytecode caches starts faster than one without (a ``cli_band``
invocation ran in 96 ms against 110 ms, and ``setup_s`` read 0.170
against 0.183 s), so every child runs with ``PYTHONDONTWRITEBYTECODE=1``
and the tool refuses a checkout that holds a ``__pycache__`` directory
under ``src/`` or ``perfbench/``, naming it.  A fresh ``git archive``
or ``git clone`` of each commit has none.  ``PYTHONPYCACHEPREFIX`` is no
substitute: an empty prefix recompiles numpy and the standard library
too (a cold import took 365 ms against 82 ms).

For every end-to-end metric that the same ``BENCHMARK.json`` lists, the
report gives each side's median and quartiles, the change's relative move
in the median, the pairs in which the change did better (by the metric's
``better``), and the median gap over the parent's interquartile range.
Then the failed operations and the ``correct: true`` runs of each
side.  Last come the paired figures of each end-to-end metric: the
median and quartiles, over the pairs, of change/parent - 1.  Pair i has
seed S+i on both sides, so its ratio cancels that seed's own work (the
Newton iterations of its draws) as well as drift slower than a pair.
Progress lines go to standard error, the report to standard output.
``--json PATH`` also writes the pairs to PATH (a ``BENCH_<n>.json``
file): each side's runs with their seeds, op counts and metrics, and per
end-to-end metric the figures the report prints, the paired ones under
``paired``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
CACHED = ("src", "perfbench")  # the directories of a checkout that must hold no __pycache__


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--json", type=Path, help="also write the runs and the summary to this file")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    for side in SIDES:
        if not (getattr(args, side) / "perfbench" / "run.py").is_file():
            parser.error(f"{getattr(args, side)} has no perfbench/run.py")
    for side in SIDES:
        cache = bytecode_cache(getattr(args, side))
        if cache is not None:
            parser.error(f"{cache} holds bytecode caches; remove it, or compare fresh checkouts")
    return args


def bytecode_cache(checkout: Path) -> Path | None:
    """The first ``__pycache__`` directory under the checkout's ``src/`` or ``perfbench/``, or None."""
    for top in CACHED:
        for cache in sorted((checkout / top).rglob("__pycache__")):
            return cache
    return None


def run_one(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run in ``checkout``: its JSON result line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds)]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")  # each run compiles, as a fresh checkout does
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, env=env)
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


def compare(results: dict[str, list[dict]], metrics: list[dict]) -> dict[str, dict]:
    """Per end-to-end metric: each side's quartiles, the relative move, the wins and the gap.

    ``move`` is the change's median over the parent's, minus one, and
    ``gap_over_iqr`` the medians' distance over the parent's interquartile
    range; each is None where its divisor is zero.  ``paired`` holds the
    median and quartiles of change/parent - 1 over the pairs, or None
    when a parent value is zero.
    """
    pairs = len(results["parent"])
    summary = {}
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        values = {side: [r["metrics"][name]["value"] for r in results[side]] for side in SIDES}
        (p1, p2, p3), (c1, c2, c3) = (quartiles(values[side]) for side in SIDES)
        paired = None
        if all(values["parent"]):
            r1, r2, r3 = quartiles([c / p - 1 for p, c in zip(values["parent"], values["change"])])
            paired = {"median": r2, "quartiles": [r1, r3]}
        summary[name] = {
            "better": metric["better"],
            "parent": {"median": p2, "quartiles": [p1, p3]},
            "change": {"median": c2, "quartiles": [c1, c3]},
            "move": (c2 - p2) / p2 if p2 else None,
            "change_better": sum((c < p) if lower else (c > p) for p, c in zip(values["parent"], values["change"])),
            "pairs": pairs,
            "gap_over_iqr": abs(c2 - p2) / (p3 - p1) if p3 > p1 else None,
            "paired": paired,
        }
    return summary


def totals(runs: list[dict]) -> dict[str, int]:
    """One side's failed and attempted ops, and its ``correct: true`` runs."""
    return {
        "failed": sum(r["failed"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "correct_runs": sum(bool(r["correct"]) for r in runs),
        "runs": len(runs),
    }


def summarise(results: dict[str, list[dict]], metrics: list[dict]) -> list[str]:
    """The report's lines: one per end-to-end metric, the failure and correctness totals, then the paired figures."""
    lines = []
    summary = compare(results, metrics)
    for name, m in summary.items():
        (p1, p3), (c1, c3) = m["parent"]["quartiles"], m["change"]["quartiles"]
        move = "n/a" if m["move"] is None else f"{m['move']:+.1%}"
        spread = "n/a" if m["gap_over_iqr"] is None else f"{m['gap_over_iqr']:.2f}"
        lines.append(
            f"{name:<16} parent {m['parent']['median']:.4g} [{p1:.4g}, {p3:.4g}]  "
            f"change {m['change']['median']:.4g} [{c1:.4g}, {c3:.4g}]  "
            f"{move}  change better in {m['change_better']} of {m['pairs']}  |gap| / parent IQR {spread}"
        )
    for side in SIDES:
        t = totals(results[side])
        lines.append(
            f"{side:<16} failed {t['failed']} of {t['attempted']} ops; "
            f"correct: true in {t['correct_runs']} of {t['runs']} runs"
        )
    for name, m in summary.items():
        paired = m["paired"]
        figures = "n/a" if paired is None else "{:+.1%} [{:+.1%}, {:+.1%}]".format(paired["median"], *paired["quartiles"])
        lines.append(f"{name:<16} paired change/parent - 1 over {m['pairs']} pairs: {figures}")
    return lines


def bench_record(args, seconds: float, results: dict[str, list[dict]], metrics: list[dict]) -> dict:
    """What ``--json`` writes: the settings, every run of each side, and the comparison."""
    seeds = [args.seed + i for i in range(args.pairs)]
    return {
        "workload": args.workload,
        "pairs": args.pairs,
        "seeds": seeds,
        "run_seconds": seconds,
        "order": "the parent runs first in even pairs (counting from 0), the change in odd ones",
        "runs": {
            side: [
                {
                    "seed": seed,
                    "correct": bool(r["correct"]),
                    "attempted": r["attempted"],
                    "failed": r["failed"],
                    "metrics": {name: m["value"] for name, m in r["metrics"].items()},
                }
                for seed, r in zip(seeds, results[side])
            ]
            for side in SIDES
        },
        "end_to_end": compare(results, metrics),
        "totals": {side: totals(results[side]) for side in SIDES},
    }


def main(argv=None, run=run_one) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    benchmark = json.loads((args.parent / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    results = run_pairs(args, seconds, run=run)
    print(f"{args.workload}: {args.pairs} alternating pairs, seeds {args.seed}-{args.seed + args.pairs - 1}, "
          f"{seconds:g} s each; median [quartiles]")
    for line in summarise(results, benchmark["end_to_end"]):
        print(line)
    if args.json is not None:
        record = bench_record(args, seconds, results, benchmark["end_to_end"])
        args.json.write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
