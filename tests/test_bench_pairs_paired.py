"""``tools/bench_pairs.py``'s paired figures: change/parent - 1 per pair, summarised over the pairs."""

import importlib
import json
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"
ROOT = TOOLS.parent


@pytest.fixture
def bench_pairs(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    return importlib.import_module("bench_pairs")


def _results(record):
    """A BENCH file's runs in the shape ``compare`` and ``summarise`` read."""
    return {
        side: [{**run, "metrics": {k: {"value": v} for k, v in run["metrics"].items()}} for run in runs]
        for side, runs in record["runs"].items()
    }


def test_bench_45_reads_minus_9_9_percent_paired(bench_pairs):
    # PR 45's committed study2_logistic set: -7.2% in the medians, -9.9% paired
    record = json.loads((ROOT / "BENCH_45.json").read_text())
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    summary = bench_pairs.compare(_results(record), metrics)
    op = summary["op_p50_kernels"]
    assert round(op["move"], 3) == -0.072
    assert round(op["paired"]["median"], 3) == -0.099
    low, high = op["paired"]["quartiles"]
    assert low < op["paired"]["median"] < high < 0
    # the figures the tool gave before keep their keys
    assert set(op) == {"better", "parent", "change", "move", "change_better", "pairs", "gap_over_iqr", "paired"}


def test_paired_lines_follow_the_totals(bench_pairs):
    values = {"parent": (0.60, 0.62, 0.58, 0.64), "change": (0.48, 0.62, 0.29, 0.64)}
    results = {
        side: [{"correct": True, "attempted": 10, "failed": 0, "metrics": {"op_p50_kernels": {"value": v}}}
               for v in vs]
        for side, vs in values.items()
    }
    lines = bench_pairs.summarise(results, [{"name": "op_p50_kernels", "better": "lower"}])
    assert len(lines) == 4
    # ratios - 1: -20%, 0%, -50%, 0%
    assert lines[3] == "op_p50_kernels   paired change/parent - 1 over 4 pairs: -10.0% [-27.5%, +0.0%]"


def test_a_zero_parent_value_has_no_paired_figures(bench_pairs):
    results = {
        side: [{"correct": True, "attempted": 1, "failed": 0, "metrics": {"m": {"value": v}}} for v in vs]
        for side, vs in {"parent": (0.0, 1.0), "change": (1.0, 1.0)}.items()
    }
    metric = [{"name": "m", "better": "lower"}]
    assert bench_pairs.compare(results, metric)["m"]["paired"] is None
    assert bench_pairs.summarise(results, metric)[-1].endswith("over 2 pairs: n/a")
