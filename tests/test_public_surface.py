"""The package's exported names, and README's entry-point table, stay in step.

Names and keywords that were removed stay removed.
"""

import importlib
import inspect
import re
from pathlib import Path

import pytest

import glmavg

README = Path(__file__).resolve().parents[1] / "README.md"
REMOVED = (
    "AugmentedVector",
    "augment",
    "logistic_prob",
    "project_simplex",
    "build_q_linear",
    "best_subset_cv",
    "pseudo_true_linear",
    "error_metric",
    "oracle_estimate",
    "average_estimate",
    "full_linear_fit",
    "LinearFullFit",
    "select_best_subset",
)
# (callable, keyword) pairs: each knob had one value in use and became a constant
REMOVED_KEYWORDS = (
    (glmavg.solve_simplex_qp, "max_iter"),
    (glmavg.logistic_mle, "max_iter"),
    (glmavg.logistic_pseudo_fit, "max_iter"),
    (glmavg.logistic_mle, "tol"),
    (glmavg.logistic_pseudo_fit, "tol"),
    (glmavg.run_study2, "n"),
    (glmavg.run_study2, "include_oracle"),
    (glmavg.synthetic_prostate, "n"),
    (glmavg.synthetic_prostate, "seed"),
    (glmavg.run_study1, "fixed_design"),
    (glmavg.run_study2, "fixed_design"),
    (glmavg.simulate_cell, "fixed_design"),
    (glmavg.simulate_cell, "oracle_support"),
    (glmavg.simulate_cell, "tags"),
)
# (class, attribute) pairs: each report writer gave way to the CLI's one writer, the
# study oracle's functional to one fit inside the replication, and a fit's converged
# flag, always True since every fit that does not converge raises, to nothing
REMOVED_ATTRIBUTES = (
    (glmavg.StudyReport, "to_csv_text"),
    (glmavg.CvReport, "to_dict"),
    (glmavg.StudyConfig, "functional"),
    (glmavg.FitResult, "converged"),
)


def _entry_point_names():
    text = README.read_text()
    start = text.index("Key entry points:")
    rows = []
    for line in text[start:].splitlines()[1:]:
        if line.startswith("|"):
            rows.append(line)
        elif rows:
            break  # the first non-table line after the table ends it
    first_cells = [row.split("|")[1] for row in rows[2:]]  # skip the header and rule rows
    return [name for cell in first_cells for name in re.findall(r"`([^`]+)`", cell)]


def test_every_exported_name_resolves():
    assert len(glmavg.__all__) == len(set(glmavg.__all__))
    for name in glmavg.__all__:
        assert getattr(glmavg, name) is not None, name


def test_every_exported_name_is_its_home_modules_object():
    # the package resolves its names lazily; each must be the very object its module defines
    for name in glmavg.__all__:
        value = getattr(glmavg, name)
        assert value.__module__.startswith("glmavg."), name
        assert getattr(importlib.import_module(value.__module__), name) is value, name
        assert getattr(glmavg, name) is value, name


def test_star_import_and_dir_list_every_exported_name():
    namespace = {}
    exec("from glmavg import *", namespace)
    assert {name: namespace[name] for name in glmavg.__all__} == {
        name: getattr(glmavg, name) for name in glmavg.__all__
    }
    assert set(glmavg.__all__) <= set(dir(glmavg))


def test_a_home_module_resolves_to_itself():
    # called directly: once a submodule is imported, the package attribute bypasses __getattr__
    for module in glmavg._HOMES:
        assert glmavg.__getattr__(module) is importlib.import_module(f"glmavg.{module}"), module


def test_an_unknown_name_is_an_attribute_error_that_names_it():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        glmavg.no_such_name  # noqa: B018


def test_readme_entry_points_are_exported():
    names = _entry_point_names()
    assert len(names) > 20
    missing = [name for name in names if name not in glmavg.__all__]
    assert missing == []


@pytest.mark.parametrize("name", REMOVED)
def test_removed_names_stay_removed(name):
    assert name not in glmavg.__all__
    assert not hasattr(glmavg, name)
    assert f"`{name}`" not in README.read_text()


@pytest.mark.parametrize(
    "func, keyword", REMOVED_KEYWORDS, ids=[f"{func.__name__}-{kw}" for func, kw in REMOVED_KEYWORDS]
)
def test_removed_keywords_stay_removed(func, keyword):
    assert keyword not in inspect.signature(func).parameters


@pytest.mark.parametrize(
    "cls, attribute", REMOVED_ATTRIBUTES, ids=[f"{cls.__name__}-{a}" for cls, a in REMOVED_ATTRIBUTES]
)
def test_removed_attributes_stay_removed(cls, attribute):
    assert not hasattr(cls, attribute)
