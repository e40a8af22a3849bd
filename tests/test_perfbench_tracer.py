"""The benchmark's tracer can wrap every glmavg entry point it names.

``perfbench/tracer.py`` looks each entry point up by name where its
callers find it (for example ``glmavg.cli.prediction_band``).  A name
tidied away from one of those modules would make every traced benchmark
run fail, so this test installs the tracer and checks each name.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _owner(where: str):
    module_name, _, class_name = where.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


def test_every_tracer_entry_point_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    missing = [
        f"{where}.{attr}"
        for where, attr, _layer in tracer.ENTRY_POINTS
        if not callable(getattr(_owner(where), attr, None))
    ]
    assert not missing, f"tracer entry points not found: {missing}"

    originals = [getattr(_owner(where), attr) for where, attr, _ in tracer.ENTRY_POINTS]
    with tracer.Tracer():
        pass
    restored = [getattr(_owner(where), attr) for where, attr, _ in tracer.ENTRY_POINTS]
    assert all(a is b for a, b in zip(originals, restored))
