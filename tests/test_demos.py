"""Every demo script runs to completion (exit 0) in a fresh interpreter.

Each demo runs from a copy in a temporary directory, so the files a demo
writes next to itself stay out of the source tree.
"""

import os
import pathlib
import shutil
import subprocess
import sys

import pytest

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"
SRC = DEMOS.parent / "src"


@pytest.mark.slow
@pytest.mark.parametrize("demo", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_runs(demo, tmp_path):
    script = tmp_path / demo
    shutil.copy(DEMOS / demo, script)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(script)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
