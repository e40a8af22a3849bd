"""``tools/prostate_sweep.py`` names every prostate row whose prediction raises."""

import importlib
from pathlib import Path

import pytest

import glmavg
from glmavg import NumericalError, SingularDesignError

TOOLS = Path(__file__).resolve().parent.parent / "tools"


@pytest.fixture
def prostate_sweep(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    return importlib.import_module("prostate_sweep")


def test_seed_ranges_and_lists(prostate_sweep):
    assert prostate_sweep.parse_seeds(["300-302,1030", "7"]) == [300, 301, 302, 1030, 7]


def test_bad_seed_is_a_usage_error(prostate_sweep):
    with pytest.raises(SystemExit) as excinfo:
        prostate_sweep.main(["3-x"])
    assert excinfo.value.code == 2


def test_every_raising_row_is_named(prostate_sweep, monkeypatch):
    def raising(self, x_star, scheme):
        raise NumericalError("weight solve failed: singular corral system")

    monkeypatch.setattr(glmavg.LinearAveragingPredictor, "predict", raising)
    monkeypatch.setattr(prostate_sweep, "SPLITS", 2)
    failures = list(prostate_sweep.sweep([5, 6]))
    assert [f[:3] for f in failures] == [(s, r, i) for s in (5, 6) for r in range(2) for i in range(30)]
    assert {f[3] for f in failures} == {"weight solve failed: singular corral system"}


def test_a_failed_fit_names_all_its_rows(prostate_sweep, monkeypatch):
    def raising(self, *args):
        raise SingularDesignError("design is singular")

    monkeypatch.setattr(glmavg.LinearAveragingPredictor, "__init__", raising)
    monkeypatch.setattr(prostate_sweep, "SPLITS", 1)
    failures = list(prostate_sweep.sweep([9]))
    assert [f[:3] for f in failures] == [(9, 0, i) for i in range(30)]
    assert failures[0][3] == "fit raised design is singular"


def test_seed_0_solves_every_row(prostate_sweep, capsys):
    assert prostate_sweep.main(["0"]) == 0
    assert capsys.readouterr().out == "660 rows over 1 seeds, 0 raised\n"
