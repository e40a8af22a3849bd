"""``tools/report_digest.py`` hashes study reports to the last bit."""

import importlib
from pathlib import Path

import pytest

from glmavg import NonConvergenceError

TOOLS = Path(__file__).resolve().parent.parent / "tools"

# the calls here run a few replications, below a study's floor of work per
# process, so every test lets the studies fork them at 2 or more workers
pytestmark = pytest.mark.usefixtures("fork_any_work")


@pytest.fixture
def report_digest(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    return importlib.import_module("report_digest")


@pytest.mark.parametrize(
    "name", ["study1_B", "study2_linear_B", "study2_logistic_A", "study2_logistic_B", "thin_study2"]
)
def test_a_tiny_calls_digest_is_the_same_at_one_and_two_workers(report_digest, name):
    call = report_digest.CALLS[name]
    serial = report_digest.call_digest(call, 6, 1)
    assert len(serial) == 64
    assert report_digest.call_digest(call, 6, 2) == serial


def test_one_bit_moves_the_digest(report_digest):
    rows = [{"scheme": "optimal", "beta3": 0.1, "mse": 0.25}]
    nudged = [dict(rows[0], mse=0.25 + 2.0**-54)]  # the next float up from 0.25
    assert report_digest.digest(rows) != report_digest.digest(nudged)
    assert report_digest.digest(rows) == report_digest.digest([dict(rows[0])])


def test_a_failing_call_hashes_its_error(report_digest):
    def failing(n_reps, workers):
        raise NonConvergenceError("diverged in replication (rep 3)")

    assert report_digest.call_digest(failing, 6, 1).startswith("error ")


def test_main_prints_one_line_per_call_and_worker_count(report_digest, monkeypatch, capsys):
    monkeypatch.setattr(report_digest, "CALLS", {"tiny": report_digest.CALLS["study2_logistic_A"]})
    report_digest.main(["--n-reps", "4", "--workers", "1", "2"])
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:2] for line in lines] == [["tiny", "workers=1"], ["tiny", "workers=2"]]
    assert lines[0].split()[2] == lines[1].split()[2]


def test_thin_study2_runs_both_families_at_two_replications(report_digest, monkeypatch):
    calls = []
    run_study2 = report_digest.run_study2

    def recorded(family, **kwargs):
        calls.append((family, kwargs["n_reps"]))
        return run_study2(family, **kwargs)

    monkeypatch.setattr(report_digest, "run_study2", recorded)
    report = report_digest.CALLS["thin_study2"](50, 1)  # --n-reps does not apply
    assert calls == [("linear", 2), ("logistic", 2)]
    # 2 cases x 6 beta3 cells x (optimal, aic, oracle) per family
    assert [row["family"] for row in report.rows] == ["linear"] * 36 + ["logistic"] * 36
    assert report_digest.digest(report.rows) == report_digest.call_digest(report_digest.CALLS["thin_study2"], 6, 3)
