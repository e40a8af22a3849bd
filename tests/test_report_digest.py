"""``tools/report_digest.py`` hashes study reports to the last bit."""

import importlib
from pathlib import Path

import pytest

from glmavg import NonConvergenceError

TOOLS = Path(__file__).resolve().parent.parent / "tools"

# the calls here run a few replications, below a study's floor of work per
# process, so every test lets the studies fork them at 2 or more workers
pytestmark = pytest.mark.usefixtures("fork_any_work")


@pytest.fixture
def report_digest(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    return importlib.import_module("report_digest")


@pytest.mark.parametrize(
    "name",
    [
        "study1_B", "study2_linear_B", "study2_logistic_A", "study2_logistic_B", "thin_study2", "band_5",
        "study2_wide_seed", "band_wide_seed", "cv_aic", "oracle_paths",
    ],
)
def test_a_tiny_calls_digest_is_the_same_at_one_and_two_workers(report_digest, name):
    call = report_digest.CALLS[name]
    serial = report_digest.call_digest(call, 6, 1)
    assert len(serial) == 64
    assert report_digest.call_digest(call, 6, 2) == serial


def test_one_bit_moves_the_digest(report_digest):
    rows = [{"scheme": "optimal", "beta3": 0.1, "mse": 0.25}]
    nudged = [dict(rows[0], mse=0.25 + 2.0**-54)]  # the next float up from 0.25
    assert report_digest.digest(rows) != report_digest.digest(nudged)
    assert report_digest.digest(rows) == report_digest.digest([dict(rows[0])])


def test_a_failing_call_hashes_its_error(report_digest):
    def failing(n_reps, workers):
        raise NonConvergenceError("diverged in replication (rep 3)")

    assert report_digest.call_digest(failing, 6, 1).startswith("error ")


def test_main_prints_one_line_per_call_and_worker_count(report_digest, monkeypatch, capsys):
    monkeypatch.setattr(report_digest, "CALLS", {"tiny": report_digest.CALLS["study2_logistic_A"]})
    report_digest.main(["--n-reps", "4", "--workers", "1", "2"])
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:2] for line in lines] == [["tiny", "workers=1"], ["tiny", "workers=2"]]
    assert lines[0].split()[2] == lines[1].split()[2]


def test_thin_study2_runs_both_families_at_two_replications(report_digest, monkeypatch):
    calls = []
    run_study2 = report_digest.run_study2

    def recorded(family, **kwargs):
        calls.append((family, kwargs["n_reps"]))
        return run_study2(family, **kwargs)

    monkeypatch.setattr(report_digest, "run_study2", recorded)
    report = report_digest.CALLS["thin_study2"](50, 1)  # --n-reps does not apply
    assert calls == [("linear", 2), ("logistic", 2)]
    # 2 cases x 6 beta3 cells x (optimal, aic, oracle) per family
    assert [row["family"] for row in report.rows] == ["linear"] * 36 + ["logistic"] * 36
    assert report_digest.digest(report.rows) == report_digest.call_digest(report_digest.CALLS["thin_study2"], 6, 3)


def test_band_and_cv_calls_hash_their_rows(report_digest):
    # --n-reps does not apply to them: a band row is one band, a cv report its log and means
    for name, reps in (("band_5", 5), ("band_50", 50), ("band_wide_seed", 20)):
        rows = report_digest.CALLS[name](1, 1).rows
        assert [sorted(row) for row in rows] == [["level", "lower", "point", "upper"]] * 3
        assert report_digest.digest(rows) == report_digest.call_digest(report_digest.CALLS[name], 7, 1), reps
    assert report_digest.call_digest(report_digest.CALLS["band_5"], 1, 1) != report_digest.call_digest(
        report_digest.CALLS["band_50"], 1, 1
    )
    for name in ("cv_cv", "cv_aic"):
        rows = report_digest.CALLS[name](1, 1).rows
        methods = ["avg_optimal", "avg_aic", "best_subset", "full_model"]
        assert [(row["repeat"], row["method"]) for row in rows[:-1]] == [(r, m) for r in (0, 1) for m in methods]
        assert list(rows[-1]) == methods
    cv_rows = [report_digest.CALLS[name](1, 1).rows for name in ("cv_cv", "cv_aic")]
    # the rules choose on their own: the best subset's errors differ, the averages' do not
    assert cv_rows[0][-1]["avg_optimal"] == cv_rows[1][-1]["avg_optimal"]
    assert cv_rows[0][-1]["best_subset"] != cv_rows[1][-1]["best_subset"]


def test_the_wide_seed_calls_key_their_streams_past_one_word(report_digest, monkeypatch):
    import glmavg.rng as rng

    prefixes = []
    stack_streams = rng._stack_streams

    def recorded(prefix, reps):
        prefixes.append(prefix)
        return stack_streams(prefix, reps)

    for module in ("averaging", "sim_harness"):
        monkeypatch.setattr(f"glmavg.{module}._stack_streams", recorded)
    for name in ("study2_wide_seed", "band_wide_seed"):
        prefixes.clear()
        report_digest.CALLS[name](3, 1)
        assert prefixes and all(prefix[0] >= 2**32 for prefix in prefixes), name
    assert {prefix[0] for prefix in prefixes} == {2**32 + 5, 2**63 + 6, 2**64 + 7}


def test_oracle_paths_covers_every_oracle_source(report_digest):
    sources = []
    for config in report_digest.oracle_configs(2):
        designs = config._family(config.candidate_set.models, 4, config.oracle)
        if designs.oracle_k is not None:
            sources.append("candidate")
        elif config.family == "logistic":
            assert config.oracle.dim < 4
            sources.append("logistic")
        elif designs.own is None:
            sources.append("full, union factor" if designs.full is not None else "full, own factor")
        else:
            sources.append("own, inside union" if set(designs.own) <= set(designs.union) else "own, outside union")
    assert sources == [
        "candidate", "full, union factor", "full, own factor", "own, inside union", "own, outside union", "logistic",
    ]
    rows = report_digest.CALLS["oracle_paths"](3, 1).rows
    assert [(row["cell"], row["column"], row["rep"]) for row in rows] == [
        (cell, column, rep) for cell in range(6) for column in ("optimal", "aic", "oracle") for rep in range(3)
    ]
