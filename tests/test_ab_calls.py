"""``tools/ab_calls.py`` loads two copies of the package side by side and times one workload call of each."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "ab_calls.py"


def _copies(tmp_path):
    """Two fresh copies of the tree's package, with no bytecode caches."""
    copies = []
    for side in ("parent", "change"):
        shutil.copytree(ROOT / "src" / "glmavg", tmp_path / side / "src" / "glmavg",
                        ignore=shutil.ignore_patterns("__pycache__"))
        copies.append(tmp_path / side)
    return copies


def _run(*args):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, str(TOOL), *map(str, args)], capture_output=True, text=True, env=env)


def test_two_copies_of_the_tree_time_alike(tmp_path):
    parent, change = _copies(tmp_path)
    out = tmp_path / "ab.json"
    done = _run(parent, change, "--workload", "prostate_cv", "--pairs", "3", "--json", out)
    assert done.returncode == 0, done.stderr
    record = json.loads(out.read_text())
    assert json.loads(done.stdout) == record
    assert (record["workload"], record["pairs"]) == ("prostate_cv", 3)
    for side, checkout in (("parent", parent), ("change", change)):
        assert record[side]["checkout"] == str(checkout)
        assert len(record[side]["ms"]) == 3 and record[side]["median_ms"] > 0.0
    low, high = record["paired_ratio"]["quartiles"]
    assert 0.0 < low <= record["paired_ratio"]["median"] <= high
    assert 0 <= record["change_faster"] <= 3
    assert not list(tmp_path.rglob("__pycache__"))  # the tool wrote no bytecode into either copy


def test_a_checkout_with_bytecode_caches_is_refused(tmp_path):
    parent, change = _copies(tmp_path)
    (change / "src" / "glmavg" / "__pycache__").mkdir()
    done = _run(parent, change, "--workload", "prostate_cv")
    assert done.returncode == 2
    assert "holds bytecode caches" in done.stderr and "__pycache__" in done.stderr
