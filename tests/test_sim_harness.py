import hashlib
import json
import os

import numpy as np
import pytest
from scipy.special import expit

import glmavg.averaging as averaging
import glmavg.rng as rng_module
import glmavg.sim_harness as sim_harness
from glmavg import (
    CandidateModel,
    DataError,
    LinearAveragingPredictor,
    LinearQFactory,
    ModelSet,
    NonConvergenceError,
    NumericalError,
    SingularDesignError,
    StudyConfig,
    nested_sequence,
    run_study1,
    run_study2,
    simulate_cell,
    substream,
)
from glmavg.dataio import csv_text
from glmavg.glm_fit import RANK_DEFICIENT_MESSAGE
from glmavg.sim_harness import (
    REPORT_COLUMNS,
    _logistic_replication,
    STUDY1_BETA,
    STUDY1_ORACLE_SUPPORT,
    STUDY1_P_FIXED,
    STUDY2_BETA3_GRID,
    STUDY2_X_STAR,
    study1_model_sets,
    study2_model_sets,
)
from oracles import linear_estimates_reference, study_draw_reference

# run_study2("linear", beta3_grid=(0.1, 0.5), cases=("B",), n_reps=30, seed=3)
# with the oracle refit by ols_fit: (mean_estimate, mse) of each row, as float.hex.
CASE_B_REPORT = [
    ("-0x1.4182ed29a6f7ap-3", "0x1.04207f1cda5d7p-4"),
    ("-0x1.1341903571c02p-3", "0x1.54328b0ab264cp-4"),
    ("-0x1.3627add9be213p-2", "0x1.54fa8e9a76b03p-5"),
    ("-0x1.66ef7ba4432b0p-3", "0x1.7e3848dcf3ff3p-2"),
    ("-0x1.7f438330fc2b7p-4", "0x1.f0b4998af2d2cp-2"),
    ("-0x1.65cd2d3abe8a4p-1", "0x1.a7c73bb9ada3ep-4"),
]

TABLE1_TRUTH = {
    0.001: -0.192,
    0.005: -0.196,
    0.01: -0.202,
    0.05: -0.243,
    0.1: -0.296,
    0.5: -0.714,
}
TABLE2_TRUTH = {
    0.001: 0.452,
    0.005: 0.451,
    0.01: 0.450,
    0.05: 0.439,
    0.1: 0.427,
    0.5: 0.329,
}


class TestOracleEstimate:
    @pytest.mark.parametrize("beta3, mu", [(0.001, -0.192), (0.5, -0.714)])
    def test_stock_truth_values(self, beta3, mu):
        x = np.asarray(STUDY2_X_STAR)
        beta = np.array([0.3, 0.1, 0.3, beta3])
        assert x @ beta == pytest.approx(mu, abs=5e-4)


class TestStudyConfig:
    def test_validates_lengths(self):
        with pytest.raises(DataError):
            StudyConfig(
                family="linear",
                n=50,
                beta_true=np.ones(3),
                candidate_set=nested_sequence(1, 3),
                x_star=np.ones(4),
                n_reps=5,
                seed=0,
            )

    def test_validates_sample_size(self):
        with pytest.raises(DataError):
            StudyConfig(
                family="linear",
                n=4,
                beta_true=np.ones(4),
                candidate_set=nested_sequence(1, 3),
                x_star=np.ones(4),
                n_reps=5,
                seed=0,
            )

    def test_equality_and_hash_are_identity(self):
        def build():
            return StudyConfig(
                family="linear",
                n=50,
                beta_true=np.ones(4),
                candidate_set=nested_sequence(1, 3),
                x_star=np.ones(4),
                n_reps=5,
                seed=0,
            )

        a, b = build(), build()
        assert a == a and a != b and not (a == b)
        assert hash(a) == hash(a)
        assert {a: "a", b: "b"}[a] == "a"
        assert len({a, b, a}) == 2

    def test_rejects_unknown_scheme(self):
        with pytest.raises(DataError, match=r"unknown weighting schemes \['bogus'\]"):
            StudyConfig(
                family="logistic",
                n=50,
                beta_true=np.ones(4),
                candidate_set=nested_sequence(1, 3),
                x_star=np.ones(4),
                n_reps=5,
                seed=0,
                schemes=("optimal", "bogus"),
            )

    @pytest.mark.parametrize(
        "run",
        [
            lambda: run_study2(schemes=(), n_reps=20),
            lambda: simulate_cell(
                StudyConfig(
                    family="linear",
                    n=50,
                    beta_true=np.ones(4),
                    candidate_set=nested_sequence(1, 3),
                    x_star=np.ones(4),
                    n_reps=20,
                    seed=0,
                    schemes=(),
                    oracle=CandidateModel((0, 1, 2), 1),
                ),
            ),
        ],
        ids=["run_study2", "simulate_cell"],
    )
    def test_rejects_empty_schemes_before_any_draw(self, monkeypatch, run):
        # a cell with no weighting scheme would fit every candidate on
        # every replication and report no estimate of them
        import glmavg.sim_harness as sim_harness

        def no_draw(*args):
            raise AssertionError("a replication stream was drawn before the schemes were checked")

        monkeypatch.setattr(sim_harness, "substream", no_draw)
        with pytest.raises(DataError, match="schemes is empty"):
            run()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("field", ["beta_true", "x_star"])
    @pytest.mark.parametrize("family", ["linear", "logistic"])
    def test_rejects_non_finite_coefficients_and_target(self, family, field, bad):
        values = dict(beta_true=np.ones(4), x_star=np.ones(4))
        values[field][2] = bad
        with pytest.raises(DataError, match="beta_true and x_star must be finite"):
            StudyConfig(
                family=family,
                n=50,
                candidate_set=nested_sequence(1, 3),
                n_reps=5,
                seed=0,
                **values,
            )

    @pytest.mark.parametrize(
        "run, message",
        [
            (
                lambda: run_study1(n_grid=(1000, 3), cases=("A",), n_reps=200),
                "n=3 too small",
            ),
            (
                lambda: run_study2("logistic", beta3_grid=(0.1, float("nan")), n_reps=200),
                "beta_true and x_star must be finite",
            ),
            (lambda: run_study1(n_grid=(), n_reps=200), "n_grid is empty"),
            (lambda: run_study1(n_grid=(60, 60), n_reps=200), "n_grid names 60 more than once"),
            (lambda: run_study1(cases=("A", "A"), n_reps=200), "cases names A more than once"),
            (lambda: run_study2(cases=(), n_reps=200), "cases is empty"),
            (lambda: run_study2(beta3_grid=(), n_reps=200), "beta3_grid is empty"),
            (
                lambda: run_study2(beta3_grid=(0.1, 0.1), n_reps=200),
                "beta3_grid names 0.1 more than once",
            ),
            (
                lambda: run_study2(schemes=("aic", "aic"), n_reps=200),
                r"weighting schemes \['aic', 'aic'\] name a scheme more than once",
            ),
        ],
        ids=[
            "run_study1-small-n", "run_study2-nan-beta3", "run_study1-empty-n-grid",
            "run_study1-repeated-n", "run_study1-repeated-case", "run_study2-empty-cases",
            "run_study2-empty-beta3-grid", "run_study2-repeated-beta3", "run_study2-repeated-scheme",
        ],
    )
    def test_every_cell_is_checked_before_any_replication(self, monkeypatch, run, message):
        # an empty or repeated grid entry, or a bad cell after a valid one,
        # must fail before the first replication runs
        import glmavg.sim_harness as sim_harness

        def no_fit(*args, **kwargs):
            raise AssertionError("a replication ran")

        monkeypatch.setattr(sim_harness, "_run_block", no_fit)
        with pytest.raises(DataError, match=message) as excinfo:
            run()
        assert "rep" not in str(excinfo.value)

    @pytest.mark.parametrize("family", ["linear", "logistic"])
    def test_unknown_scheme_fails_before_any_fit(self, monkeypatch, family):
        import glmavg.sim_harness as sim_harness

        def no_fit(*args, **kwargs):
            raise AssertionError("a replication ran")

        monkeypatch.setattr(sim_harness, "_run_block", no_fit)
        with pytest.raises(DataError, match="bogus") as excinfo:
            run_study2(family=family, schemes=("optimal", "bogus"), n_reps=2)
        assert "rep" not in str(excinfo.value)

    @pytest.mark.parametrize(
        "run",
        [
            lambda workers: run_study1(n_grid=(60,), cases=("A",), n_reps=2, workers=workers),
            lambda workers: run_study2("logistic", beta3_grid=(0.1,), n_reps=2, workers=workers),
            lambda workers: simulate_cell(
                StudyConfig(
                    family="linear",
                    n=50,
                    beta_true=np.ones(4),
                    candidate_set=nested_sequence(1, 3),
                    x_star=np.ones(4),
                    n_reps=5,
                    seed=0,
                ),
                workers=workers,
            ),
        ],
        ids=["run_study1", "run_study2", "simulate_cell"],
    )
    @pytest.mark.parametrize("workers", [0, -1])
    def test_fewer_than_one_worker_fails_before_any_replication(self, monkeypatch, run, workers):
        import glmavg.sim_harness as sim_harness

        def no_fit(*args, **kwargs):
            raise AssertionError("a replication ran")

        monkeypatch.setattr(sim_harness, "_run_block", no_fit)
        with pytest.raises(DataError, match=f"workers must be at least 1, got {workers}"):
            run(workers)

    def test_truth_linear_and_logistic(self):
        common = dict(
            n=50,
            beta_true=np.array([0.3, 0.1, 0.3, 0.5]),
            candidate_set=nested_sequence(1, 3),
            x_star=np.asarray(STUDY2_X_STAR),
            n_reps=2,
            seed=0,
        )
        lin = StudyConfig(family="linear", **common)
        assert lin.truth == pytest.approx(-0.714, abs=5e-4)
        logi = StudyConfig(family="logistic", **common)
        assert logi.truth == pytest.approx(expit(lin.truth))


class TestModelSets:
    def test_study1_case_a_has_oracle_appended(self):
        sets = study1_model_sets()
        assert len(sets["A"]) == 7 and len(sets["B"]) == 6
        assert sets["A"][6].included == (1, 3)
        assert [m.included for m in sets["B"]] == [
            (0, 1, 2, 3, 4), (1, 2, 3, 4), (2, 3, 4), (3, 4), (4,), (),
        ]

    def test_study2_ladders(self):
        sets = study2_model_sets()
        assert [m.included for m in sets["A"]] == [(), (0,), (0, 1), (0, 1, 2)]
        assert [m.included for m in sets["B"]] == [(), (0,), (0, 1)]


class TestSimulateCell:
    def _config(self, n_reps=8, **fields):
        return StudyConfig(
            family="linear",
            n=40,
            beta_true=np.array([0.3, 0.1, 0.3, 0.1]),
            candidate_set=study2_model_sets()["A"],
            x_star=np.asarray(STUDY2_X_STAR),
            n_reps=n_reps,
            seed=3,
            schemes=("optimal", "aic"),
            **fields,
        )

    def test_shapes_and_keys(self):
        out = simulate_cell(self._config(oracle=CandidateModel((0, 1, 2), 1)))
        assert set(out) == {"optimal", "aic", "oracle"}
        assert all(v.shape == (8,) for v in out.values())

    def test_worker_count_does_not_change_results(self):
        config = self._config(n_reps=12, tags=("t",))
        serial = simulate_cell(config, workers=1)
        threaded = simulate_cell(config, workers=4)
        for key in serial:
            np.testing.assert_array_equal(serial[key], threaded[key])

    def test_worker_count_does_not_change_logistic_results(self):
        config = StudyConfig(
            family="logistic",
            n=60,
            beta_true=np.array([0.3, 0.1, 0.3, 0.1]),
            candidate_set=study2_model_sets()["B"],
            x_star=np.asarray(STUDY2_X_STAR),
            n_reps=6,
            seed=4,
            schemes=("optimal", "aic"),
            tags=("t",),
        )
        serial = simulate_cell(config, workers=1)
        threaded = simulate_cell(config, workers=3)
        for key in serial:
            np.testing.assert_array_equal(serial[key], threaded[key])

    @pytest.mark.parametrize("family, refit", [("linear", "ols_fit"), ("logistic", "logistic_mle")])
    def test_oracle_candidate_is_not_refit(self, monkeypatch, family, refit):
        # Case A holds the oracle (full) model, case B does not.  Both cells
        # draw the same data, so the oracle column must agree.  Only the
        # logistic case B refits the oracle: a linear predictor has fit the
        # full design already, for beta_full.
        import glmavg.sim_harness as sim_harness

        calls = []
        original = getattr(sim_harness, refit)

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(sim_harness, refit, counted)
        oracle = CandidateModel((0, 1, 2), 1)
        out = {}
        for case in ("A", "B"):
            config = StudyConfig(
                family=family,
                n=80,
                beta_true=np.array([0.3, 0.1, 0.3, 0.1]),
                candidate_set=study2_model_sets()[case],
                x_star=np.asarray(STUDY2_X_STAR),
                n_reps=6,
                seed=5,
                oracle=oracle,
                tags=("t",),
            )
            calls.clear()
            out[case] = simulate_cell(config)["oracle"]
            assert len(calls) == (config.n_reps if (case, family) == ("B", "logistic") else 0)
        np.testing.assert_allclose(out["A"], out["B"], rtol=1e-12, atol=0)

    def test_linear_full_oracle_reads_the_predictors_full_fit(self, monkeypatch):
        # Study II case B's candidates span 3 of the 4 columns, so the
        # predictor factors the full design on its own; the full-model oracle
        # reads that fit (2 n-row QRs per replication, where refitting it
        # made 3) and keeps every bit of the refit's report.
        import glmavg.glm_fit as glm_fit

        rows = []
        qr = glm_fit.lapack_qr_r

        def counted(a):
            rows.append(np.shape(a)[-2])
            return qr(a)

        monkeypatch.setattr(glm_fit, "lapack_qr_r", counted)
        config = StudyConfig(
            family="linear",
            n=100,
            beta_true=np.array([0.3, 0.1, 0.3, 0.1]),
            candidate_set=study2_model_sets()["B"],
            x_star=np.asarray(STUDY2_X_STAR),
            n_reps=1,
            seed=0,
            oracle=CandidateModel((0, 1, 2), 1),
        )
        simulate_cell(config)
        assert rows.count(config.n) == 2
        monkeypatch.undo()
        report = run_study2("linear", beta3_grid=(0.1, 0.5), cases=("B",), n_reps=30, seed=3)
        got = [(float(r["mean_estimate"]).hex(), float(r["mse"]).hex()) for r in report.rows]
        assert got == CASE_B_REPORT  # written by the refitting oracle

    def test_failing_replication_names_its_key(self):
        # at n = 8 the logistic fits separate in some replications
        config = StudyConfig(
            family="logistic",
            n=8,
            beta_true=np.array([0.3, 0.1, 0.3, 0.05]),
            candidate_set=study2_model_sets()["A"],
            x_star=np.asarray(STUDY2_X_STAR),
            n_reps=30,
            seed=2,
            schemes=("optimal", "aic"),
            tags=("study2", "logistic", "A", "0.05"),
        )
        for rep in range(config.n_reps):
            try:
                _logistic_replication(config, rep)
            except NonConvergenceError as exc:
                first, direct = rep, exc
                break
        else:
            pytest.fail("no replication separated")
        assert first > 0 and direct.model is not None
        with pytest.raises(NonConvergenceError) as excinfo:
            simulate_cell(config)
        raised = excinfo.value
        assert str(raised) == f"{direct} in replication ('study2', 'logistic', 'A', '0.05', rep {first})"
        assert raised.model == direct.model
        assert raised.iterations == direct.iterations

    @pytest.mark.parametrize("family", ["linear", "logistic"])
    def test_the_cell_is_its_config(self, family):
        # two configs built apart from equal values give the same bits,
        # and the tags alone key the streams
        def build(tags):
            return StudyConfig(
                family=family,
                n=60,
                beta_true=np.array([0.3, 0.1, 0.3, 0.1]),
                candidate_set=study2_model_sets()["B"],
                x_star=np.asarray(STUDY2_X_STAR),
                n_reps=4,
                seed=7,
                schemes=("optimal", "aic"),
                oracle=CandidateModel((0, 1, 2), 1),
                tags=tags,
            )

        first, second = simulate_cell(build(("t", 1))), simulate_cell(build(("t", 1)))
        retagged = simulate_cell(build(("t", 2)))
        assert list(first) == ["optimal", "aic", "oracle"]
        for key in first:
            assert first[key].tobytes() == second[key].tobytes()
            assert not np.array_equal(first[key], retagged[key])

    @pytest.mark.parametrize(
        "oracle", [CandidateModel((0, 1), 2), CandidateModel((0, 3), 1)], ids=["other-p-fixed", "index-at-q"]
    )
    def test_oracle_outside_the_candidate_layout_is_rejected(self, oracle):
        with pytest.raises(DataError, match="p_fixed=1, q=3"):
            self._config(oracle=oracle)


class TestRunStudy1:
    def test_report_shape_and_labels(self):
        report = run_study1(n_grid=(60,), cases=("A",), n_reps=5, seed=1)
        assert len(report.rows) == 2  # optimal + oracle
        schemes = {r["scheme"] for r in report.rows}
        assert schemes == {"optimal", "oracle"}
        for row in report.rows:
            assert set(REPORT_COLUMNS) <= set(row)
            assert row["beta3"] is None
            assert row["n"] == 60

    def test_mse_identity(self):
        report = run_study1(n_grid=(60,), cases=("B",), n_reps=20, seed=2)
        for row in report.rows:
            assert row["mse"] == pytest.approx(row["bias2"] + row["variance"], abs=1e-9)

    def test_truth_is_x_star_dot_beta(self):
        report = run_study1(n_grid=(60,), cases=("A",), n_reps=2, seed=5)
        # the truth is identical across rows and matches a direct recomputation
        truths = {row["truth"] for row in report.rows}
        assert len(truths) == 1


class TestRunStudy2:
    def test_truth_columns_match_reference(self):
        report = run_study2(
            "linear", beta3_grid=STUDY2_BETA3_GRID, cases=("A",), n_reps=2, seed=0,
            schemes=("equal",),
        )
        for row in report.rows:
            assert row["truth"] == pytest.approx(TABLE1_TRUTH[row["beta3"]], abs=5e-4)

    def test_truth_columns_logistic(self):
        report = run_study2(
            "logistic", beta3_grid=STUDY2_BETA3_GRID, cases=("B",), n_reps=2, seed=0,
            schemes=("equal",),
        )
        for row in report.rows:
            assert row["truth"] == pytest.approx(TABLE2_TRUTH[row["beta3"]], abs=5e-4)

    def test_row_grid(self):
        report = run_study2(
            "linear", beta3_grid=(0.01, 0.1), cases=("A", "B"), n_reps=3, seed=0,
        )
        # 2 cases x 2 beta3 x (2 schemes + oracle)
        assert len(report.rows) == 12

    def test_unknown_family(self):
        with pytest.raises(DataError):
            run_study2("poisson", n_reps=2)


class TestOneRunPerStudy:
    """A study's cells share one run_replications call, so one fork at workers > 1."""

    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="the runner forks only with two usable CPUs")
    def test_a_two_cell_study_forks_once(self, monkeypatch):
        forks = []
        fork = os.fork

        def counted():
            forks.append(1)
            return fork()

        monkeypatch.setattr(os, "fork", counted)
        report = run_study2("logistic", beta3_grid=(0.05, 0.5), cases=("A",), n_reps=6, workers=2)
        assert len(forks) == 1  # 2 when each cell made its own run_replications call
        monkeypatch.undo()
        assert report.rows == run_study2("logistic", beta3_grid=(0.05, 0.5), cases=("A",), n_reps=6).rows

    @pytest.mark.parametrize(
        "run",
        [
            lambda workers: run_study1(n_grid=(60, 90), cases=("A", "B"), n_reps=5, seed=2, workers=workers),
            lambda workers: run_study2("linear", beta3_grid=(0.05, 0.5), n_reps=5, seed=2, workers=workers),
            lambda workers: run_study2("logistic", beta3_grid=(0.05, 0.5), n_reps=5, seed=2, workers=workers),
        ],
        ids=["study1", "study2-linear", "study2-logistic"],
    )
    def test_multi_cell_reports_do_not_depend_on_workers(self, run):
        serial = run(1)
        assert len(serial.rows) > 4
        for workers in (2, 3):
            assert run(workers).rows == serial.rows

    def test_replications_are_laid_out_rep_by_rep(self, monkeypatch):
        # so each contiguous block of the one run holds the same share of every cell,
        # and a study whose cells differ in n splits its cost evenly across workers
        import glmavg.sim_harness as sim_harness

        order = []
        original = sim_harness._run_block

        def recorded(cells):
            order.extend((config.n, rep) for config, rep in cells)
            return original(cells)

        monkeypatch.setattr(sim_harness, "_run_block", recorded)
        run_study1(n_grid=(60, 200), cases=("A",), n_reps=3, seed=2)
        assert order == [(60, 0), (200, 0), (60, 1), (200, 1), (60, 2), (200, 2)]

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize(
        "failing, named",
        [
            ({("0.5", 2)}, ("0.5", 2)),
            ({("0.05", 3), ("0.5", 3)}, ("0.05", 3)),
            ({("0.05", 5), ("0.5", 1)}, ("0.5", 1)),
        ],
        ids=["cell-1-alone", "same-rep-cell-0-wins", "earlier-rep-wins"],
    )
    def test_earliest_failing_cell_is_named(self, monkeypatch, workers, failing, named):
        # 2 cells of 6 reps laid out rep by rep: run index 2 * rep + cell, with
        # cell 0 (beta3 = 0.05) and cell 1 (0.5); the earliest index fails first
        import glmavg.sim_harness as sim_harness

        model = CandidateModel((0,), 1)
        original = sim_harness._draw

        def failing_draw(config, rep):
            if (config.tags[-1], rep) in failing:
                raise NonConvergenceError(f"separated at rep {rep}", model=model, iterations=rep)
            return original(config, rep)

        monkeypatch.setattr(sim_harness, "_draw", failing_draw)
        with pytest.raises(NonConvergenceError) as excinfo:
            run_study2("linear", beta3_grid=(0.05, 0.5), cases=("A",), n_reps=6, workers=workers)
        beta3, rep = named
        raised = excinfo.value
        assert str(raised) == f"separated at rep {rep} in replication ('study2', 'linear', 'A', '{beta3}', rep {rep})"
        assert (raised.model, raised.iterations) == (model, rep)


def _report_digest(report) -> str:
    """A digest of a report's rows, floats by ``float.hex``."""
    rows = [[(k, float(v).hex() if isinstance(v, float) else v) for k, v in row.items()] for row in report.rows]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]


def _linear_cells(n_reps=20):
    """Study I cases A and B at n = 60 and 1000, Study II linear cases A and B: every oracle path.

    Study I case A's oracle is a candidate and case B's is not (one
    ``ols_fit`` per replication); Study II case A's full oracle is a
    candidate, and case B's full design lies outside the candidates'
    union, so it has its own factor and the oracle reads ``beta_full``.
    """
    x1 = np.linspace(-1.0, 1.0, 10)
    x1[0] = 1.0
    study1 = [
        StudyConfig(
            family="linear",
            n=n,
            beta_true=np.asarray(STUDY1_BETA),
            candidate_set=study1_model_sets()[case],
            x_star=x1,
            n_reps=n_reps,
            seed=3,
            oracle=CandidateModel(STUDY1_ORACLE_SUPPORT, STUDY1_P_FIXED),
            tags=("study1", case, n),
        )
        for case in "AB"
        for n in (60, 1000)
    ]
    study2 = [
        StudyConfig(
            family="linear",
            n=100,
            beta_true=np.array([0.3, 0.1, 0.3, 0.1]),
            candidate_set=study2_model_sets()[case],
            x_star=np.asarray(STUDY2_X_STAR),
            n_reps=n_reps,
            seed=3,
            schemes=("optimal", "aic", "equal"),
            oracle=CandidateModel((0, 1, 2), 1),
            tags=("study2", "linear", case),
        )
        for case in "AB"
    ]
    return study1 + study2


STACK_SIZES = pytest.mark.parametrize("stack", [1, 7, 10**6], ids=["stack-1", "stack-7", "one-stack"])


class TestStackedLinearFits:
    """A block's linear replications are fitted as one stack, with each lone fit's bits."""

    @pytest.fixture(scope="class")
    def cells_and_reference(self):
        cells = _linear_cells()
        reference = [
            np.array([linear_estimates_reference(config, *study_draw_reference(config, rep)) for rep in range(20)])
            for config in cells
        ]
        return cells, reference

    @STACK_SIZES
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_estimates_equal_one_predictor_per_replication(self, monkeypatch, cells_and_reference, stack, workers):
        cells, reference = cells_and_reference
        monkeypatch.setattr(sim_harness, "_STACK_REPS", stack)
        for config, got, expected in zip(cells, sim_harness._simulate(cells, workers), reference):
            assert list(got) == list(config.columns)
            for c, column in enumerate(config.columns):
                assert got[column].tobytes() == expected[:, c].tobytes(), (config.tags, column)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_reports_keep_their_bits(self, workers):
        # digests of the reports of the per-replication fits that the stacks replace
        study1 = run_study1(n_grid=(100, 1000), cases=("A", "B"), n_reps=40, workers=workers)
        study2 = run_study2("linear", cases=("A", "B"), n_reps=40, workers=workers)
        assert _report_digest(study1) == "d965c3fff6c2e498"
        assert _report_digest(study2) == "1f758ac6e1ff92fa"

    @STACK_SIZES
    def test_every_replication_averages_through_its_own_predictor(self, monkeypatch, stack):
        # perfbench/tracer.py wraps these names: one predict per replication and scheme,
        # one q_form per replication (the optimal scheme's), each on that replication's predictor
        calls = []
        for owner, name in [(LinearAveragingPredictor, "predict"), (LinearQFactory, "q_form")]:
            def counted(predictor, *args, _original=getattr(owner, name), _name=name):
                calls.append((_name, id(predictor)))
                return _original(predictor, *args)

            monkeypatch.setattr(owner, name, counted)
        monkeypatch.setattr(sim_harness, "_STACK_REPS", stack)
        config = _linear_cells(n_reps=9)[5]  # Study II case B: three schemes
        simulate_cell(config)
        predicts = [who for name, who in calls if name == "predict"]
        q_forms = [who for name, who in calls if name == "q_form"]
        assert len(predicts) == 27 and len(q_forms) == 9
        assert predicts[::3] == predicts[1::3] == predicts[2::3] == q_forms

    @STACK_SIZES
    def test_a_guarded_replication_in_a_stack_keeps_its_bits(self, monkeypatch, stack):
        # rep 3's last column nearly repeats column 1 (cond(R_U) about 1e8): past the union
        # check's margin, so that replication alone is guarded one model size at a time
        original = sim_harness._draw

        def draw(config, rep):
            X, y = original(config, rep)
            if rep == 3:
                X = X.copy()
                X[:, -1] = X[:, 1] + 1e-8 * X[:, -1]
            return X, y

        monkeypatch.setattr(sim_harness, "_draw", draw)
        monkeypatch.setattr(sim_harness, "_STACK_REPS", stack)
        config = _linear_cells(n_reps=9)[2]  # Study I case B, n = 60
        got = simulate_cell(config)
        expected = np.array([linear_estimates_reference(config, *draw(config, rep)) for rep in range(9)])
        for c, column in enumerate(config.columns):
            assert got[column].tobytes() == expected[:, c].tobytes()

    @STACK_SIZES
    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_singular_design_raises_what_its_predictor_raises(self, monkeypatch, stack, workers):
        original = sim_harness._draw

        def draw(config, rep):
            X, y = original(config, rep)
            if rep in (4, 7):
                X = X.copy()
                X[:, -1] = X[:, 1]  # every candidate with the last optional column is singular
            return X, y

        monkeypatch.setattr(sim_harness, "_draw", draw)
        monkeypatch.setattr(sim_harness, "_STACK_REPS", stack)
        config = _linear_cells(n_reps=9)[2]
        with pytest.raises(SingularDesignError) as direct:
            LinearAveragingPredictor(*draw(config, 4), config.candidate_set)
        with pytest.raises(SingularDesignError) as excinfo:
            simulate_cell(config, workers=workers)
        assert str(excinfo.value) == f"{direct.value} in replication ('study1', 'B', 60, rep 4)"
        assert excinfo.value.model == direct.value.model is not None

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize(
        "singular_at, unsolved_at, first",
        [(("0.5", 3), ("0.05", 1), "solve"), (("0.5", 1), ("0.05", 4), "fit")],
        ids=["earlier-solve-wins", "earlier-fit-wins"],
    )
    def test_the_earlier_of_a_fit_and_a_solve_failure_wins(self, monkeypatch, workers, singular_at, unsolved_at, first):
        # 2 cells of 6 reps laid out rep by rep (run index 2 * rep + cell): a singular design
        # fails one replication's fit, an injected solver failure another's solve
        original_draw, original_solve = sim_harness._draw, averaging.solve_simplex_qp
        target = {}

        def draw(config, rep):
            X, y = original_draw(config, rep)
            if (config.tags[-1], rep) == singular_at:
                X = X.copy()
                X[:, 3] = X[:, 2]  # only the full candidate is singular
            if (config.tags[-1], rep) == unsolved_at:
                q_hat = LinearAveragingPredictor(X, y, config.candidate_set).q_form(config.x_star)
                target["bias"] = q_hat.bias.tobytes()
            return X, y

        def solve(q_hat):
            if q_hat.bias.tobytes() == target.get("bias"):
                raise NumericalError("weight solve failed: injected")
            return original_solve(q_hat)

        monkeypatch.setattr(sim_harness, "_draw", draw)
        monkeypatch.setattr(averaging, "solve_simplex_qp", solve)
        with pytest.raises((SingularDesignError, NumericalError)) as excinfo:
            run_study2("linear", beta3_grid=(0.05, 0.5), cases=("A",), n_reps=6, workers=workers)
        beta3, rep = singular_at if first == "fit" else unsolved_at
        key = f"in replication ('study2', 'linear', 'A', '{beta3}', rep {rep})"
        if first == "fit":
            assert type(excinfo.value) is SingularDesignError
            assert str(excinfo.value) == f"{RANK_DEFICIENT_MESSAGE} {key}"
            assert excinfo.value.model == study2_model_sets()["A"][3]
        else:
            assert type(excinfo.value) is NumericalError
            assert str(excinfo.value) == f"weight solve failed: injected {key}"


class TestStreamKeys:
    """A cell's string tags are hashed once, when its config is built."""

    @pytest.mark.parametrize("cell", [0, 2, 4], ids=["study1-A", "study1-B", "study2-A"])
    def test_first_draws_are_the_tags_streams(self, cell):
        config = _linear_cells()[cell]
        for rep in (0, 1, 17):
            old = substream(config.seed, *config.tags, rep).standard_normal(4)
            new = substream(*config._keys, rep).standard_normal(4)
            assert old.tobytes() == new.tobytes()
        assert sim_harness._draw(config, 5)[0].tobytes() == study_draw_reference(config, 5)[0].tobytes()

    def test_no_tag_is_hashed_per_replication(self, monkeypatch):
        config = _linear_cells(n_reps=5)[4]
        hashed = []
        key_to_int = rng_module._key_to_int

        def counted(key):
            if isinstance(key, str):
                hashed.append(key)
            return key_to_int(key)

        monkeypatch.setattr(rng_module, "_key_to_int", counted)
        simulate_cell(config)
        assert hashed == []


@pytest.mark.slow
def test_logistic_case_a_mean_recovers_truth():
    # 500-rep mean of the optimal-scheme estimate lands near the true
    # probability when the candidate set contains the true model
    report = run_study2(
        "logistic", beta3_grid=(0.001,), cases=("A",), n_reps=500, seed=0, workers=2,
    )
    row = report.select(scheme="optimal")[0]
    assert row["truth"] == pytest.approx(0.452, abs=5e-4)
    assert abs(row["mean_estimate"] - row["truth"]) <= 0.05


class TestStudyReport:
    def test_csv_round_structure(self):
        report = run_study2("linear", beta3_grid=(0.05,), cases=("A",), n_reps=3, seed=0)
        text = csv_text(REPORT_COLUMNS, report.rows)
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(REPORT_COLUMNS)
        assert len(lines) == 1 + len(report.rows)

    def test_byte_identical_reruns(self):
        a = run_study2("linear", beta3_grid=(0.05,), cases=("B",), n_reps=10, seed=9)
        b = run_study2("linear", beta3_grid=(0.05,), cases=("B",), n_reps=10, seed=9)
        assert csv_text(REPORT_COLUMNS, a.rows) == csv_text(REPORT_COLUMNS, b.rows)
        assert a.rows == b.rows

    def test_worker_invariance_of_report(self):
        a = run_study2("linear", beta3_grid=(0.05,), cases=("B",), n_reps=10, seed=9, workers=3)
        b = run_study2("linear", beta3_grid=(0.05,), cases=("B",), n_reps=10, seed=9, workers=1)
        assert csv_text(REPORT_COLUMNS, a.rows) == csv_text(REPORT_COLUMNS, b.rows)

    def test_select(self):
        report = run_study2("linear", beta3_grid=(0.05, 0.1), cases=("A",), n_reps=2, seed=0)
        rows = report.select(beta3=0.1, scheme="oracle")
        assert len(rows) == 1
