"""``tools/bench_pairs.py`` alternates the two checkouts and reports what the pairs show."""

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


def _result(op, failed=0, correct=True):
    return {
        "correct": correct,
        "attempted": 10,
        "failed": failed,
        "metrics": {"op_p50_kernels": {"value": op, "unit": "kernel"}},
    }


def _checkouts(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for checkout in (parent, change):
        (checkout / "perfbench").mkdir(parents=True)
        (checkout / "perfbench" / "run.py").write_text("")
    return parent, change


def test_pairs_alternate_their_order_and_step_the_seed(bench_pairs, tmp_path):
    calls = []

    def fake_run(checkout, workload, seed, seconds):
        calls.append((checkout.name, seed, seconds))
        return _result(1.0)

    parent, change = _checkouts(tmp_path)
    args = bench_pairs.parse_args([str(parent), str(change), "--workload", "w", "--seed", "7", "--pairs", "3"])
    results = bench_pairs.run_pairs(args, 12, run=fake_run)
    assert [call[:2] for call in calls] == [
        ("parent", 7), ("change", 7), ("change", 8), ("parent", 8), ("parent", 9), ("change", 9)
    ]
    assert {call[2] for call in calls} == {12}
    assert [len(results[side]) for side in ("parent", "change")] == [3, 3]


def test_summary_counts_wins_by_the_metrics_direction(bench_pairs):
    results = {
        "parent": [_result(v) for v in (0.60, 0.62, 0.58, 0.64)],
        "change": [_result(v, failed=f, correct=c) for v, f, c in ((0.47, 0, True), (0.63, 1, True),
                                                                    (0.45, 0, False), (0.50, 0, True))],
    }
    lines = bench_pairs.summarise(results, [{"name": "op_p50_kernels", "better": "lower"}])
    assert lines[0].startswith("op_p50_kernels   parent 0.61 [0.595, 0.625]  change 0.485 [0.465, 0.5325]")
    assert lines[0].endswith("-20.5%  change better in 3 of 4  |gap| / parent IQR 4.17")
    assert lines[1] == "parent           failed 0 of 40 ops; correct: true in 4 of 4 runs"
    assert lines[2] == "change           failed 1 of 40 ops; correct: true in 3 of 4 runs"
    higher = bench_pairs.summarise(results, [{"name": "op_p50_kernels", "better": "higher"}])
    assert "change better in 1 of 4" in higher[0]


def test_a_checkout_without_the_benchmark_is_refused(bench_pairs, tmp_path):
    with pytest.raises(SystemExit):
        bench_pairs.parse_args([str(ROOT), str(tmp_path), "--workload", "w", "--seed", "0", "--pairs", "1"])


def test_json_file_holds_every_run_and_the_comparison(bench_pairs, tmp_path, capsys):
    parent, change = _checkouts(tmp_path)
    (parent / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 12,
        "end_to_end": [{"name": "op_p50_kernels", "better": "lower"}],
    }))
    values = {"parent": iter([0.60, 0.62, 0.58, 0.64]), "change": iter([0.47, 0.63, 0.45, 0.50])}

    def fake_run(checkout, workload, seed, seconds):
        return _result(next(values[checkout.name]), failed=int(seed == 12 and checkout == change))

    out = tmp_path / "BENCH_1.json"
    argv = [str(parent), str(change), "--workload", "w", "--seed", "11", "--pairs", "4", "--json", str(out)]
    assert bench_pairs.main(argv, run=fake_run) == 0
    record = json.loads(out.read_text())
    assert (record["workload"], record["pairs"], record["seeds"], record["run_seconds"]) == ("w", 4, [11, 12, 13, 14], 12)
    # pair 1 ran the change first, so the change read its second value there
    assert [r["metrics"]["op_p50_kernels"] for r in record["runs"]["parent"]] == [0.60, 0.62, 0.58, 0.64]
    assert [r["metrics"]["op_p50_kernels"] for r in record["runs"]["change"]] == [0.47, 0.63, 0.45, 0.50]
    assert [r["seed"] for r in record["runs"]["change"]] == [11, 12, 13, 14]
    assert [r["failed"] for r in record["runs"]["change"]] == [0, 1, 0, 0]
    metric = record["end_to_end"]["op_p50_kernels"]
    for side, median, quartiles in (("parent", 0.61, [0.595, 0.625]), ("change", 0.485, [0.465, 0.5325])):
        assert metric[side]["median"] == pytest.approx(median)
        assert metric[side]["quartiles"] == pytest.approx(quartiles)
    assert metric["move"] == (0.485 - 0.61) / 0.61
    assert (metric["change_better"], metric["pairs"], metric["better"]) == (3, 4, "lower")
    assert metric["gap_over_iqr"] == abs(0.485 - 0.61) / (0.625 - 0.595)
    assert record["totals"]["change"] == {"failed": 1, "attempted": 40, "correct_runs": 4, "runs": 4}
    # the printed report reads the same comparison
    assert "-20.5%  change better in 3 of 4  |gap| / parent IQR 4.17" in capsys.readouterr().out

