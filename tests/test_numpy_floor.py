"""``pyproject.toml``'s numpy floor is no lower than the newest numpy name that ``src/glmavg`` calls.

Each ``np.<name>`` (or ``np.<module>.<name>``) that the package's
source names is looked up in the installed numpy, and the
``.. versionadded::`` notes of its docstring, before the "Parameters"
section, give the numpy that added it.  A new numpy name in the code
then cannot raise the real floor unnoticed.
"""

import ast
import re
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def _numpy_names() -> set[str]:
    """Every dotted name under ``np`` that a module of ``src/glmavg`` reads."""
    names = set()
    for path in (ROOT / "src" / "glmavg").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            chain = []
            while isinstance(node, ast.Attribute):
                chain.append(node.attr)
                node = node.value
            if chain and isinstance(node, ast.Name) and node.id == "np":
                names.add(".".join(reversed(chain)))
    return names


def _version(text: str) -> tuple[int, int, int]:
    """``"2.2"`` as (2, 2, 0)."""
    return (*(int(part) for part in text.split(".")), 0, 0)[:3]


def _added_in() -> dict[str, tuple[int, int, int]]:
    """The numpy that added each used name, for the names whose docstring says so."""
    added = {}
    for name in _numpy_names():
        obj = np
        for part in name.split("."):
            obj = getattr(obj, part)
        notes = re.findall(r"\.\. versionadded:: *([0-9.]+)", (obj.__doc__ or "").split("Parameters\n")[0])
        if notes:
            added[name] = max(map(_version, notes))
    return added


def _floor(pyproject: str) -> tuple[int, int, int]:
    return _version(re.search(r'"numpy>=([0-9.]+)"', pyproject).group(1))


def test_the_declared_floor_covers_every_numpy_name_the_code_uses():
    added = _added_in()
    assert added, "no versionadded note was read: the check would pass vacuously"
    newest = max(added.values())
    assert _floor((ROOT / "pyproject.toml").read_text()) >= newest, sorted(added.items())


def test_the_old_floor_fails_the_check():
    # the floor the package declared before: np.matvec is numpy 2.2's
    added = _added_in()
    assert added["matvec"] == (2, 2, 0)
    assert _floor('dependencies = [\n    "numpy>=1.24",\n]') < max(added.values())
