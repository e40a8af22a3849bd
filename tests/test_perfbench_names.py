"""Every glmavg name the benchmark's scripts use still resolves.

``perfbench/`` reaches the package by name in three ways: dotted
``glmavg.…`` paths in code and strings (``glmavg.split``,
``glmavg.Functional.logistic_point``, ``-m glmavg.cli``), names in a
``from glmavg… import`` line, and attributes of a glmavg module imported
under another name (``sim_harness.run_study1``).  A name cut from the
package would otherwise fail only a benchmark run.  The scripts are read
and parsed, never imported or changed.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SCRIPTS = sorted(PERFBENCH.glob("*.py"))


def _used_names(path: Path) -> set[str]:
    """Every dotted glmavg name one script mentions, imports or reads through an alias."""
    text = path.read_text()
    names = set(re.findall(r"\bglmavg(?:\.\w+)+", text))
    tree = ast.parse(text)
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases.update(
                (alias.asname, alias.name)
                for alias in node.names
                if alias.asname and alias.name.split(".")[0] == "glmavg"
            )
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "glmavg":
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases:
            names.add(f"{aliases[node.value.id]}.{node.attr}")
    return names


def _resolves(dotted: str) -> bool:
    """Import the longest module prefix of ``dotted``, then look up the rest as attributes."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attr in parts[cut:]:
            if not hasattr(owner, attr):
                return False
            owner = getattr(owner, attr)
        return True
    return False


def test_scan_finds_the_names_the_workloads_call():
    names = set().union(*(_used_names(path) for path in SCRIPTS))
    assert {
        "glmavg.LinearAveragingPredictor",
        "glmavg.Functional.logistic_point",
        "glmavg.save_csv",
        "glmavg.split",
        "glmavg.cli",
        "glmavg.sim_harness.run_study2",
        "glmavg.mse_weights.QuadraticForm",
        "glmavg.GlmavgError",
    } <= names


@pytest.mark.parametrize("path", SCRIPTS, ids=[path.name for path in SCRIPTS])
def test_every_glmavg_name_in_perfbench_resolves(path):
    missing = sorted(name for name in _used_names(path) if not _resolves(name))
    assert not missing, f"{path.name} uses glmavg names that no longer exist: {missing}"
