"""Write ``tests/data/report_digest.txt``: ``tools/report_digest.py``'s lines at a few replications.

Run from the repository root:

    PYTHONPATH=src python tests/data/make_report_digest.py

The file holds exactly what

    PYTHONPATH=src python tools/report_digest.py --n-reps 6 --workers 1 2

prints: one ``name workers=W digest`` line per call and worker count.
``tests/test_report_digest.py`` reruns every call at both worker counts
and compares each line with the file, so a change that moves a study,
band or ``cv`` output by one bit fails tier-1.  Regenerate the file only
on purpose, when an output is meant to change, and name each moved line
and its cause in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import io
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]
PATH = ROOT / "tests" / "data" / "report_digest.txt"
N_REPS = 6  # replications of every study call that takes ``--n-reps``
WORKERS = (1, 2)


def main() -> None:
    sys.path.insert(0, str(ROOT / "tools"))
    import report_digest

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        report_digest.main(["--n-reps", str(N_REPS), "--workers", *map(str, WORKERS)])
    PATH.write_text(buffer.getvalue())
    print(f"wrote {len(buffer.getvalue().splitlines())} lines to {PATH.relative_to(ROOT)}", file=sys.stderr)


if __name__ == "__main__":
    main()
