"""Regenerate reference.json: the report rows of each study workload's fixed reference call.

    PYTHONPATH=src python3 perfbench/make_reference.py

Every benchmark run replays these calls and compares them with the
stored rows (checks.REFERENCE_RTOL).  Regenerate only for a change that
is meant to alter study results, and say so where the change is
described.
"""

import json

from checks import REFERENCE_PATH
from workloads import WORKLOADS, StudyWorkload


def main() -> None:
    stored = {
        w.name: {"call": w.reference_call, "rows": w.reference_rows()}
        for w in WORKLOADS.values()
        if isinstance(w, StudyWorkload)
    }
    REFERENCE_PATH.write_text(json.dumps(stored, indent=1) + "\n")


if __name__ == "__main__":
    main()
