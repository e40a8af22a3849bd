"""The study workloads' reference calls still reproduce ``perfbench/reference.json``.

The benchmark replays each study workload's reference call after its
timed runs and fails when a report cell drifts beyond
``checks.REFERENCE_RTOL``.  Running the same replay here makes such a
drift fail the test suite too.  The file is only read, never rewritten.
"""

import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.parametrize("name", ["study1_n1000", "study2_logistic"])
def test_study_reference_replay(monkeypatch, name):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    checks = importlib.import_module("checks")
    workloads = importlib.import_module("workloads")
    rows = workloads.WORKLOADS[name].reference_rows()
    assert checks.check_reference(name, rows) == []
