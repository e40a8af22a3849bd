"""Every demo script runs to completion (exit 0) in a fresh interpreter.

``prostate_cv_and_band.py`` is left out: it is the slowest demo (about
20 s on a 2-core host), and the prostate pipeline it runs is covered by
acceptance criterion 8.  Each demo runs from a copy in a temporary
directory, so the files a demo writes next to itself stay out of the
source tree.
"""

import os
import pathlib
import shutil
import subprocess
import sys

import pytest

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"
SRC = DEMOS.parent / "src"
SKIPPED = {"prostate_cv_and_band.py"}


@pytest.mark.slow
@pytest.mark.parametrize(
    "demo", sorted(p.name for p in DEMOS.glob("*.py") if p.name not in SKIPPED)
)
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
