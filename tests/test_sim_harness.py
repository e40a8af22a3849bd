import ast
import dataclasses
import hashlib
import inspect
import json
import os
import textwrap

import numpy as np
import pytest
from scipy.special import expit

import glmavg._lockstep as _lockstep
import glmavg.averaging as averaging
import glmavg.mse_weights as mse_weights
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
    logistic_mle,
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
    STUDY1_BETA,
    STUDY1_ORACLE_SUPPORT,
    STUDY1_P_FIXED,
    STUDY2_BETA3_GRID,
    STUDY2_X_STAR,
    study1_model_sets,
    study2_model_sets,
)
from oracles import (
    linear_estimates_reference,
    logistic_estimates_reference,
    predict_reference,
    study_draw_reference,
)

# the studies here compare worker counts on a few replications, far below a
# study's floor of work per process, so every test lets the studies fork them
pytestmark = pytest.mark.usefixtures("fork_any_work")

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
        monkeypatch.setattr(sim_harness, "_stack_streams", no_draw)
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
                "weighting schemes names aic more than once",
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

    def test_a_stack_whose_every_draw_fails_fits_nothing(self, monkeypatch, change_draws):
        # no replication of the stack has data, so nothing is fitted and the first draw's error is raised
        def failing_draw(config, rep, X, y):
            raise DataError(f"no data at rep {rep}")

        def no_fit(*args):
            raise AssertionError("a stack with no drawn replication was fitted")

        change_draws(failing_draw)
        monkeypatch.setattr(sim_harness, "_fit_average_stack", no_fit)
        with pytest.raises(DataError, match=r"^no data at rep 0 in replication \('t', rep 0\)$"):
            simulate_cell(self._config(n_reps=4, tags=("t",)))

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

    @pytest.mark.parametrize("family, refit", [("linear", "ols_fit"), ("logistic", "_mle_fits")])
    def test_oracle_candidate_is_not_refit(self, monkeypatch, family, refit):
        # Case A holds the oracle (full) model, case B does not.  Both cells
        # draw the same data, so the oracle column must agree.  Neither refits
        # the oracle: in case B both families read the full design's one fit,
        # which the plug-in's beta_full reads too.
        owner = sim_harness if family == "linear" else mse_weights
        calls = []
        original = getattr(owner, refit)

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        def uncounted(method):
            # the candidates' MLEs and the plug-in's full-model MLE are the fit's own, not the oracle's
            def call(fits, *args):
                monkeypatch.setattr(owner, refit, original)
                try:
                    return method(fits, *args)
                finally:
                    monkeypatch.setattr(owner, refit, counted)

            return call

        def no_lone_fit(*args, **kwargs):
            raise AssertionError("a study oracle is fitted with its stack, not alone")

        monkeypatch.setattr(owner, refit, counted)
        for name in ("__init__", "plug_in"):
            monkeypatch.setattr(mse_weights._LogisticFits, name, uncounted(getattr(mse_weights._LogisticFits, name)))
        monkeypatch.setattr(sim_harness, "logistic_mle", no_lone_fit)
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
            assert len(calls) == 0
        np.testing.assert_allclose(out["A"], out["B"], rtol=1e-12, atol=0)

    def test_study1_case_b_calls_no_ols_fit(self, monkeypatch):
        # case B's oracle is neither a candidate nor the full design: each replication
        # factors its columns, and the stack reduces those factors at once
        import glmavg.glm_fit as glm_fit

        def no_ols_fit(*args, **kwargs):
            raise AssertionError("ols_fit was called")

        for module in (glm_fit, sim_harness):
            monkeypatch.setattr(module, "ols_fit", no_ols_fit)
        report = run_study1(n_grid=(60, 200), cases=("B",), n_reps=9, seed=7)
        assert [row["scheme"] for row in report.rows] == ["optimal", "oracle"] * 2

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
                logistic_estimates_reference(config, *study_draw_reference(config, rep))
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
    def test_earliest_failing_cell_is_named(self, change_draws, workers, failing, named):
        # 2 cells of 6 reps laid out rep by rep: run index 2 * rep + cell, with
        # cell 0 (beta3 = 0.05) and cell 1 (0.5); the earliest index fails first
        model = CandidateModel((0,), 1)

        def failing_draw(config, rep, X, y):
            if (config.tags[-1], rep) in failing:
                raise NonConvergenceError(f"separated at rep {rep}", model=model, iterations=rep)

        change_draws(failing_draw)
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


def _stream(config, rep):
    """Replication ``rep``'s stream, unread, for a draw outside a stack."""
    return substream(*config._keys, rep)


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
        monkeypatch.setattr(averaging, "_STACK_REPS", stack)
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
    def test_one_averaging_pass_per_stack(self, monkeypatch, stack):
        # the per-model values and Q-hat are made once per stack, and no replication
        # builds a predictor; a stack of at least _LOCKSTEP_MIN replications solves its
        # weights in one lockstep loop, a smaller one once per replication through
        # averaging.solve_simplex_qp, the name perfbench/tracer.py wraps
        calls = []
        for owner, name in [
            (LinearAveragingPredictor, "predict"),
            (LinearQFactory, "q_form"),
            (LinearQFactory, "__init__"),
            (mse_weights._Fits, "q_parts"),
            (averaging, "solve_simplex_qp"),
            (_lockstep, "_solve_stack"),
        ]:
            def counted(*args, _original=getattr(owner, name), _name=name):
                calls.append(_name)
                return _original(*args)

            monkeypatch.setattr(owner, name, counted)
        monkeypatch.setattr(averaging, "_STACK_REPS", stack)
        # 11 replications in stacks of at most 7 are two stacks of 5 and 6: one solved
        # alone, one in lockstep
        config = _linear_cells(n_reps=11)[5]  # Study II case B: three schemes
        simulate_cell(config)
        count = -(-11 // stack)
        sizes = [11 * (b + 1) // count - 11 * b // count for b in range(count)]
        lockstep = [size for size in sizes if size >= averaging._LOCKSTEP_MIN]
        assert sizes == ([11] if stack > 11 else [5, 6] if stack == 7 else [1] * 11)
        assert calls.count("q_parts") == len(sizes)
        assert calls.count("_solve_stack") == len(lockstep) == (stack > 1)
        assert calls.count("solve_simplex_qp") == 11 - sum(lockstep)
        assert len(calls) == len(sizes) + len(lockstep) + 11 - sum(lockstep)

    @STACK_SIZES
    def test_a_guarded_replication_in_a_stack_keeps_its_bits(self, monkeypatch, change_draws, stack):
        # rep 3's last column nearly repeats column 1 (cond(R_U) about 1e8): past the union
        # check's margin, so that replication alone is guarded one model size at a time
        def draw(config, rep, X, y):
            if rep == 3:
                X[:, -1] = X[:, 1] + 1e-8 * X[:, -1]

        change_draws(draw)
        monkeypatch.setattr(averaging, "_STACK_REPS", stack)
        config = _linear_cells(n_reps=9)[2]  # Study I case B, n = 60
        got = simulate_cell(config)
        expected = np.array(
            [linear_estimates_reference(config, *study_draw_reference(config, rep, draw)) for rep in range(9)]
        )
        for c, column in enumerate(config.columns):
            assert got[column].tobytes() == expected[:, c].tobytes()

    @STACK_SIZES
    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_singular_design_raises_what_its_predictor_raises(self, monkeypatch, change_draws, stack, workers):
        def draw(config, rep, X, y):
            if rep in (4, 7):
                X[:, -1] = X[:, 1]  # every candidate with the last optional column is singular

        change_draws(draw)
        monkeypatch.setattr(averaging, "_STACK_REPS", stack)
        config = _linear_cells(n_reps=9)[2]
        with pytest.raises(SingularDesignError) as direct:
            LinearAveragingPredictor(*study_draw_reference(config, 4, draw), config.candidate_set)
        with pytest.raises(SingularDesignError) as excinfo:
            simulate_cell(config, workers=workers)
        assert str(excinfo.value) == f"{direct.value} in replication ('study1', 'B', 60, rep 4)"
        assert excinfo.value.model == direct.value.model is not None

    @pytest.mark.parametrize("lockstep", [True, False], ids=["lockstep", "lone-solves"])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize(
        "singular_at, unsolved_at, first",
        [(("0.5", 3), ("0.05", 1), "solve"), (("0.5", 1), ("0.05", 4), "fit")],
        ids=["earlier-solve-wins", "earlier-fit-wins"],
    )
    def test_the_earlier_of_a_fit_and_a_solve_failure_wins(
        self, monkeypatch, change_draws, workers, singular_at, unsolved_at, first, lockstep
    ):
        # 2 cells of 6 reps laid out rep by rep (run index 2 * rep + cell): a singular design
        # fails one replication's fit, an injected solver failure another's solve.  At
        # workers=1 the 12 replications are one stack, solved in lockstep unless the
        # lockstep minimum is out of reach; the injected slice then fails the lockstep
        # run, as a slice that cannot be certified does, and is solved alone.
        original_solve, original_stack = averaging.solve_simplex_qp, _lockstep._solve_stack
        target = {}

        def draw(config, rep, X, y):
            if (config.tags[-1], rep) == singular_at:
                X[:, 3] = X[:, 2]  # only the full candidate is singular
            if (config.tags[-1], rep) == unsolved_at:
                q_hat = LinearAveragingPredictor(X, y, config.candidate_set).q_form(config.x_star)
                target["bias"] = q_hat.bias.tobytes()

        def solve(q_hat):
            if q_hat.bias.tobytes() == target.get("bias"):
                raise NumericalError("weight solve failed: injected")
            return original_solve(q_hat)

        def solve_stack(bias, gram_factor):
            *answers, lone = original_stack(bias, gram_factor)
            stacked.append(len(bias))
            return (*answers, lone | [row.tobytes() == target.get("bias") for row in bias])

        stacked = []
        change_draws(draw)
        monkeypatch.setattr(averaging, "solve_simplex_qp", solve)
        monkeypatch.setattr(_lockstep, "_solve_stack", solve_stack)
        if not lockstep:
            monkeypatch.setattr(averaging, "_LOCKSTEP_MIN", 10**9)
        with pytest.raises((SingularDesignError, NumericalError)) as excinfo:
            run_study2("linear", beta3_grid=(0.05, 0.5), cases=("A",), n_reps=6, workers=workers)
        if workers == 1:
            # the fit failure's slice is not stacked
            assert stacked == ([11] if lockstep else [])
        beta3, rep = singular_at if first == "fit" else unsolved_at
        key = f"in replication ('study2', 'linear', 'A', '{beta3}', rep {rep})"
        if first == "fit":
            assert type(excinfo.value) is SingularDesignError
            assert str(excinfo.value) == f"{RANK_DEFICIENT_MESSAGE} {key}"
            assert excinfo.value.model == study2_model_sets()["A"][3]
        else:
            assert type(excinfo.value) is NumericalError
            assert str(excinfo.value) == f"weight solve failed: injected {key}"


def _logistic_cells(n_reps=70):
    """Study II logistic cases A and B at a weak and a strong beta3, with every scheme.

    Case A's full oracle is a candidate; case B's is not, so the stack
    fits the full design once, and both the plug-in and the oracle
    column read that fit.
    """
    return [
        StudyConfig(
            family="logistic",
            n=100,
            beta_true=np.array([0.3, 0.1, 0.3, beta3]),
            candidate_set=study2_model_sets()[case],
            x_star=np.asarray(STUDY2_X_STAR),
            n_reps=n_reps,
            seed=3,
            schemes=("optimal", "aic", "equal"),
            oracle=CandidateModel((0, 1, 2), 1),
            tags=("study2", "logistic", case, repr(beta3)),
        )
        for case in "AB"
        for beta3 in (0.05, 0.5)
    ]


LOGISTIC_STACK_SIZES = pytest.mark.parametrize("stack", [1, 12, 64], ids=["stack-1", "stack-12", "stack-64"])


class TestStackedLogisticFits:
    """A block's logistic replications are fitted as one stack, with each lone fit's bits."""

    @pytest.fixture(scope="class")
    def cells_and_reference(self):
        cells = _logistic_cells()
        reference = [
            np.array(
                [logistic_estimates_reference(config, *study_draw_reference(config, rep)) for rep in range(70)]
            )
            for config in cells
        ]
        return cells, reference

    @LOGISTIC_STACK_SIZES
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_estimates_equal_one_predictor_per_replication(self, monkeypatch, cells_and_reference, stack, workers):
        cells, reference = cells_and_reference
        monkeypatch.setattr(averaging, "_STACK_REPS", stack)
        for config, got, expected in zip(cells, sim_harness._simulate(cells, workers), reference):
            assert list(got) == list(config.columns)
            for c, column in enumerate(config.columns):
                assert got[column].tobytes() == expected[:, c].tobytes(), (config.tags, column)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_reports_keep_their_bits(self, workers):
        # the digest of the report of the per-replication fits that the stacks replace
        report = run_study2("logistic", cases=("A", "B"), n_reps=40, workers=workers)
        assert _report_digest(report) == "98bf91285ba5aeb3"

    def test_a_case_b_stack_fits_its_full_design_once(self, monkeypatch):
        # 3 candidates and the full design per stack: the plug-in's beta_full and R_w
        # and the oracle column read the full design's one fit on X
        calls, stacks = [], []
        fit, fit_stack = mse_weights._mle_fits, sim_harness._fit_stack
        monkeypatch.setattr(mse_weights, "_mle_fits", lambda X, y, **kw: calls.append(X.shape[-1]) or fit(X, y, **kw))
        monkeypatch.setattr(sim_harness, "_fit_stack", lambda *args: stacks.append(1) or fit_stack(*args))
        run_study2(family="logistic", cases=("B",), n_reps=200, workers=1)
        assert len(stacks) == 5
        assert calls == [1, 2, 3, 4] * 5

    def test_an_aic_only_case_b_cell_fits_the_full_design_and_no_plug_in(self, monkeypatch):
        config = _logistic_cells(n_reps=12)[2]
        optimal = simulate_cell(config)
        calls = []
        fit = mse_weights._mle_fits
        monkeypatch.setattr(mse_weights, "_mle_fits", lambda X, y, **kw: calls.append(X.shape[-1]) or fit(X, y, **kw))
        monkeypatch.setattr(mse_weights._LogisticFits, "plug_in", lambda fits: pytest.fail("plug-in made"))
        aic = simulate_cell(dataclasses.replace(config, schemes=("aic",)))
        assert calls == [1, 2, 3, 4]
        for column in ("aic", "oracle"):
            assert aic[column].tobytes() == optimal[column].tobytes()

    @pytest.mark.usefixtures("fork_any_work")
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_a_singular_full_design_names_the_oracle_only_in_its_column(self, change_draws, workers):
        # reps 2 and 4 of a case-B cell have a singular full design: under ``optimal`` the
        # plug-in raises it first, naming no model; in an aic-only cell the oracle column does,
        # naming the oracle, as a lone logistic_mle of the oracle raises it
        def draw(config, rep, X, y):
            if rep in (2, 4):
                X[:, 3] = X[:, 2]

        change_draws(draw)
        config = _logistic_cells(n_reps=6)[2]
        X, y = study_draw_reference(config, 2, draw)
        with pytest.raises(NumericalError) as lone:
            logistic_mle(X, y, model=config.oracle)
        suffix = " in replication ('study2', 'logistic', 'B', '0.05', rep 2)"
        for schemes, model in ((("optimal", "aic"), None), (("aic",), config.oracle)):
            with pytest.raises(NumericalError) as excinfo:
                simulate_cell(dataclasses.replace(config, schemes=schemes), workers=workers)
            assert type(excinfo.value) is type(lone.value)
            assert str(excinfo.value) == f"{lone.value}{suffix}"
            assert excinfo.value.model == model

    def test_a_large_design_caps_the_stack(self, monkeypatch):
        # a logistic stack holds its n-row designs: past _STACK_DOUBLES it holds fewer replications
        config = _logistic_cells(n_reps=10)[2]
        designs = averaging._PREDICTORS["logistic"]._Designs(config.candidate_set.models, 4)
        assert averaging._STACK_REPS * designs.kept(config.n) <= averaging._STACK_DOUBLES
        expected = simulate_cell(config)
        sizes = []
        fit_stack = sim_harness._fit_stack

        def recorded(designs, members, rows, failures):
            sizes.append(len(members))
            return fit_stack(designs, members, rows, failures)

        monkeypatch.setattr(sim_harness, "_fit_stack", recorded)
        monkeypatch.setattr(averaging, "_STACK_DOUBLES", 3 * designs.kept(config.n) + 1)
        got = simulate_cell(config)
        assert sizes == [2, 3, 2, 3]  # 10 in the fewest stacks of at most 3
        for column in config.columns:
            assert got[column].tobytes() == expected[column].tobytes()

    @staticmethod
    def _defective_draw(defects):
        """A change of the draws (``change_draws``) that makes the replications ``defects`` names fail their fits.

        ``"constant"``: every response 1 (no MLE); ``"singular"``: the
        last column a copy of the one before, so the full candidate's
        Hessian is exactly singular; ``"separated"``: the response is
        the sign of column 1, so every candidate with it diverges.
        """

        def draw(config, rep, X, y):
            defect = defects.get(rep)
            if defect == "constant":
                y[:] = 1.0
            elif defect == "singular":
                X[:, 3] = X[:, 2]
            elif defect == "separated":
                y[:] = X[:, 1] > 0

        return draw

    @pytest.mark.parametrize(
        "order",
        [("separated", "singular", "constant"), ("singular", "constant", "separated"), ("constant", "separated", "singular")],
        ids=lambda order: "-".join(order),
    )
    @pytest.mark.parametrize("stack", [1, 12], ids=["stack-1", "stack-12"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_the_earliest_failing_replication_raises_its_lone_error(self, monkeypatch, change_draws, order, stack, workers):
        defects = dict(zip((3, 5, 8), order))
        draw = self._defective_draw(defects)
        change_draws(draw)
        monkeypatch.setattr(averaging, "_STACK_REPS", stack)
        config = _logistic_cells(n_reps=12)[0]
        lone = {}
        for rep in defects:
            with pytest.raises(NumericalError) as info:
                logistic_estimates_reference(config, *study_draw_reference(config, rep, draw))
            lone[defects[rep]] = info.value
            # the error a loop over the candidates' own MLEs meets first, in list order
            X, y = study_draw_reference(config, rep, draw)
            with pytest.raises(NumericalError) as first:
                for model in config.candidate_set.models:
                    logistic_mle(X[:, model.column_indices()], y, model=model)
            assert (type(first.value), str(first.value), first.value.model) == (
                type(info.value), str(info.value), info.value.model
            )
        assert type(lone["singular"]) is SingularDesignError and "singular Hessian" in str(lone["singular"])
        assert type(lone["separated"]) is NonConvergenceError and "diverged" in str(lone["separated"])
        assert type(lone["constant"]) is NonConvergenceError and "degenerate" in str(lone["constant"])
        direct = lone[order[0]]
        with pytest.raises(NumericalError) as excinfo:
            simulate_cell(config, workers=workers)
        raised = excinfo.value
        assert type(raised) is type(direct)
        assert str(raised) == f"{direct} in replication ('study2', 'logistic', 'A', '0.05', rep 3)"
        assert raised.model == direct.model is not None
        assert getattr(raised, "iterations", None) == getattr(direct, "iterations", None)

    def test_a_failed_replication_leaves_the_others_bits(self, monkeypatch):
        # the failing slices freeze while the rest of the stack runs on: each replication
        # of one stack gives its lone predictor's estimates, or raises its lone error
        defects = {3: "separated", 5: "singular", 8: "constant"}
        draw = self._defective_draw(defects)
        config = _logistic_cells(n_reps=12)[2]  # case B: the plug-in fits the full design too
        predictor_class = averaging._PREDICTORS["logistic"]
        designs = predictor_class._Designs(config.candidate_set.models, 4)
        draws = [study_draw_reference(config, rep, draw) for rep in range(12)]
        fits = designs.fit(np.stack([X for X, _ in draws]), np.stack([y for _, y in draws]), config.n)
        _, results = averaging._average_stack(fits, config.x_star, [config.schemes] * 12)

        def outcome(result):
            if isinstance(result, NumericalError):
                return (type(result).__name__, str(result), result.model)
            return [float(value).hex() for value in result]

        for rep, (X, y) in enumerate(draws):
            try:
                predictor = predictor_class(X, y, config.candidate_set)
                expected = [predict_reference(predictor, config.x_star, scheme).value for scheme in config.schemes]
            except NumericalError as exc:
                expected = exc
            result = results[rep]
            if not isinstance(result, NumericalError):
                result = [estimate for estimate, *_ in result]
            got = outcome(result)
            assert got == outcome(expected), rep
            assert isinstance(got, tuple) == (rep in defects), rep


def _study2_cells(family, n_reps, cases="AB", schemes=("optimal", "aic", "equal")):
    """Study II cells of one family at a weak and a strong beta3, laid out as ``run_study2`` lays them out.

    The cells of a case share n, the candidates and x*, so a block
    stacks them together.
    """
    return [
        StudyConfig(
            family=family,
            n=100,
            beta_true=np.array([0.3, 0.1, 0.3, beta3]),
            candidate_set=study2_model_sets()[case],
            x_star=np.asarray(STUDY2_X_STAR),
            n_reps=n_reps,
            seed=3,
            schemes=schemes,
            oracle=CandidateModel((0, 1, 2), 1),
            tags=("study2", family, case, repr(beta3)),
        )
        for case in cases
        for beta3 in (0.05, 0.5)
    ]


def _estimates_reference(cells, draw=study_draw_reference):
    """Each cell's estimates, one row per replication, from one predictor fitted per replication."""
    reference = {"linear": linear_estimates_reference, "logistic": logistic_estimates_reference}
    return [
        np.array([reference[config.family](config, *draw(config, rep)) for rep in range(config.n_reps)])
        for config in cells
    ]


class TestCrossCellStacks:
    """A block's replications that share a design are fitted and averaged as one stack, whatever their cell."""

    def test_cells_that_share_a_design_share_their_stacks(self, monkeypatch):
        stacks = []
        fit_stack = sim_harness._fit_stack

        def recorded(designs, members, rows, failures):
            stacks.append([(config.tags[2], config.tags[3], rep) for _, config, rep in members])
            return fit_stack(designs, members, rows, failures)

        monkeypatch.setattr(sim_harness, "_fit_stack", recorded)
        monkeypatch.setattr(averaging, "_STACK_REPS", 5)
        sim_harness._simulate(_study2_cells("logistic", 3), 1)
        # rep by rep: (A 0.05, A 0.5, B 0.05, B 0.5) for rep 0, then rep 1, ...; each case is one
        # design, and its 6 replications are cut into two stacks of 3, not 5 and 1
        assert stacks == [
            [("A", "0.05", 0), ("A", "0.5", 0), ("A", "0.05", 1)],
            [("A", "0.5", 1), ("A", "0.05", 2), ("A", "0.5", 2)],
            [("B", "0.05", 0), ("B", "0.5", 0), ("B", "0.05", 1)],
            [("B", "0.5", 1), ("B", "0.05", 2), ("B", "0.5", 2)],
        ]

    @pytest.mark.parametrize("family", ["linear", "logistic"])
    @pytest.mark.parametrize("n_reps, sizes", [(65, [32, 33]), (70, [35, 35])])
    def test_a_group_over_one_stack_is_cut_into_equal_stacks(self, monkeypatch, family, n_reps, sizes):
        # one cell of 65 or 70 replications at a cap of 64: two near-equal stacks, not 64
        # and a remainder of 1 or 6, with the rows of one replication a stack
        monkeypatch.setattr(averaging, "_STACK_REPS", 64)
        cell = _study2_cells(family, n_reps, cases="A")[:1]
        stacks = []
        fit_stack = sim_harness._fit_stack

        def recorded(designs, members, rows, failures):
            stacks.append(len(members))
            return fit_stack(designs, members, rows, failures)

        monkeypatch.setattr(sim_harness, "_fit_stack", recorded)
        [got] = sim_harness._simulate(cell, 1)
        assert stacks == sizes
        monkeypatch.setattr(averaging, "_STACK_REPS", 1)
        [lone] = sim_harness._simulate(cell, 1)
        assert len(stacks) == 2 + n_reps
        for column in cell[0].columns:
            assert got[column].tobytes() == lone[column].tobytes(), column

    def test_the_count_cap_binds_every_stock_design(self):
        # a stack's doubles count its inverse Grams, but the stock studies' K <= 7 candidates hold
        # few: their groups are cut by the count alone, three caps' worth into three full stacks
        cap = averaging._STACK_REPS
        designs = [("linear", models, n) for models in study1_model_sets().values() for n in (100, 1000, 3000)]
        designs += [(family, models, 100) for family in ("linear", "logistic") for models in study2_model_sets().values()]
        for family, models, n in designs:
            p = models.p_fixed + models.q
            stacks = averaging._stacks(averaging._PREDICTORS[family]._Designs(models.models, p), n, list(range(3 * cap)))
            assert [len(stack) for stack in stacks] == [cap] * 3, (family, len(models), n)

    @pytest.fixture(scope="class", params=["linear", "logistic"])
    def cells_and_reference(self, request):
        cells = _study2_cells(request.param, 30)
        return cells, _estimates_reference(cells)

    @LOGISTIC_STACK_SIZES
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_estimates_equal_one_predictor_per_replication(self, monkeypatch, cells_and_reference, stack, workers):
        # at stacks of 12 and 64 every stack holds both beta3 cells of its case
        cells, reference = cells_and_reference
        monkeypatch.setattr(averaging, "_STACK_REPS", stack)
        for config, got, expected in zip(cells, sim_harness._simulate(cells, workers), reference):
            assert list(got) == list(config.columns)
            for c, column in enumerate(config.columns):
                assert got[column].tobytes() == expected[:, c].tobytes(), (config.tags, column)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("n_reps", [1, 2])
    @pytest.mark.parametrize("family", ["linear", "logistic"])
    def test_thin_studies_keep_their_bits(self, monkeypatch, family, n_reps, workers):
        # the stock grid's 12 cells hold one or two replications each: every block stacks a case's cells
        seen = []
        simulate = sim_harness._simulate

        def recorded(configs, workers):
            got = simulate(configs, workers)
            seen.append((configs, got))
            return got

        monkeypatch.setattr(sim_harness, "_simulate", recorded)
        report = run_study2(family, n_reps=n_reps, seed=4, workers=workers)
        [(configs, got)] = seen
        assert len(configs) == 12 and len(report.rows) == 36
        for config, estimates, expected in zip(configs, got, _estimates_reference(configs)):
            for c, column in enumerate(config.columns):
                assert estimates[column].tobytes() == expected[:, c].tobytes(), (config.tags, column)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize(
        "fit_at, plug_in_at, first",
        [(("0.05", 1), ("0.5", 2), "fit"), (("0.05", 3), ("0.5", 1), "plug-in")],
        ids=["earlier-fit-wins", "earlier-plug-in-wins"],
    )
    def test_the_earliest_of_a_fit_and_a_plug_in_failure_wins(self, change_draws, workers, fit_at, plug_in_at, first):
        # 2 case-B cells of 6 reps laid out rep by rep (run index 2 * rep + cell), one stack at
        # workers=1: one replication fails its fit, one of the other cell its plug-in alone
        def draw(config, rep, X, y):
            if (config.tags[-1], rep) == fit_at:
                y[:] = 1.0  # no candidate has an MLE
            if (config.tags[-1], rep) == plug_in_at:
                X[:, 3] = X[:, 2]  # only the full design, the plug-in's own fit, is singular

        change_draws(draw)
        cells = _study2_cells("logistic", 6, cases="B", schemes=("optimal", "aic"))
        lone = {}
        for beta3, rep in (fit_at, plug_in_at):
            config = next(config for config in cells if config.tags[-1] == beta3)
            with pytest.raises(NumericalError) as info:
                logistic_estimates_reference(config, *study_draw_reference(config, rep, draw))
            lone[beta3, rep] = info.value
        assert "degenerate" in str(lone[fit_at]) and lone[fit_at].model is not None
        assert "singular Hessian" in str(lone[plug_in_at]) and lone[plug_in_at].model is None
        beta3, rep = fit_at if first == "fit" else plug_in_at
        direct = lone[beta3, rep]
        with pytest.raises(NumericalError) as excinfo:
            sim_harness._simulate(cells, workers)
        raised = excinfo.value
        assert type(raised) is type(direct)
        assert str(raised) == f"{direct} in replication ('study2', 'logistic', 'B', '{beta3}', rep {rep})"
        assert raised.model == direct.model


def _lockstep_studies():
    """A Study I, a Study II linear and a Study II logistic run whose stacks hold 10 to 20 replications."""
    return {
        "study1": lambda workers: run_study1(n_grid=(100,), cases=("A", "B"), n_reps=20, seed=11, workers=workers),
        "study2-linear": lambda workers: run_study2(
            "linear", beta3_grid=(0.05, 0.5), cases=("A", "B"), n_reps=10, seed=12, workers=workers
        ),
        "study2-logistic": lambda workers: run_study2(
            "logistic", beta3_grid=(0.05, 0.5), cases=("A", "B"), n_reps=10, seed=13, workers=workers
        ),
    }


class TestLockstepSolve:
    """A study's reports and errors are the same whether its stacks solve their weights in lockstep or one by one."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("study", list(_lockstep_studies()))
    def test_reports_equal_lone_solves(self, monkeypatch, study, workers):
        run = _lockstep_studies()[study]
        stacks = []
        solve_stack = _lockstep._solve_stack

        def counted(bias, gram_factor):
            stacks.append(len(bias))
            return solve_stack(bias, gram_factor)

        monkeypatch.setattr(_lockstep, "_solve_stack", counted)
        lockstep = run(workers)
        if workers == 1:  # a forked worker's calls are not seen here
            assert stacks and min(stacks) >= averaging._LOCKSTEP_MIN
        monkeypatch.setattr(averaging, "_LOCKSTEP_MIN", 10**9)
        stacks.clear()
        lone = run(workers)
        assert stacks == []
        assert _report_digest(lockstep) == _report_digest(lone)
        assert csv_text(REPORT_COLUMNS, lockstep.rows) == csv_text(REPORT_COLUMNS, lone.rows)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("study", list(_lockstep_studies()))
    def test_a_failing_replication_is_named_alike(self, monkeypatch, change_draws, study, workers):
        # rep 7 of every cell fails its fit: a copied column (linear) or a constant response
        # (logistic); the other replications of its stack are solved in lockstep
        def draw(config, rep, X, y):
            if rep == 7:
                if config.family == "linear":
                    X[:, -1] = X[:, 1]
                else:
                    y[:] = 1.0

        change_draws(draw)
        run = _lockstep_studies()[study]
        raised = []
        for minimum in (averaging._LOCKSTEP_MIN, 10**9):
            monkeypatch.setattr(averaging, "_LOCKSTEP_MIN", minimum)
            with pytest.raises(NumericalError) as excinfo:
                run(workers)
            raised.append((type(excinfo.value), str(excinfo.value), excinfo.value.model))
        assert raised[0] == raised[1]
        assert "rep 7)" in raised[0][1]


class TestStreamKeys:
    """A cell's string tags are hashed once, when its config is built, and its streams keyed once per stack."""

    def test_a_stack_of_50_builds_no_seed_sequence_per_replication(self, monkeypatch):
        # the study2_logistic workload's call: 2 cells of 25 share one design, one stack of 50
        seed_sequences, streams = [], []
        seed_sequence = np.random.SeedSequence

        def counted(*args, **kwargs):
            seed_sequences.append(args)
            return seed_sequence(*args, **kwargs)

        original = sim_harness._draw

        def recorded(stream):
            for rng in stream:
                streams.append(rng)
                yield rng

        def draw(designs, chunk, stream, failures):
            return original(designs, chunk, recorded(stream), failures)

        monkeypatch.setattr(np.random, "SeedSequence", counted)
        monkeypatch.setattr(sim_harness, "_draw", draw)
        report = run_study2("logistic", beta3_grid=(0.05, 0.5), cases=("A",), n_reps=25, seed=0)
        assert seed_sequences == []
        assert len(streams) == 50 and len({id(rng) for rng in streams}) == 2  # one generator per cell

        def lone_draw(designs, chunk, stream, failures):
            lone = (_stream(config, rep) for _, config, rep in chunk)
            return original(designs, chunk, lone, failures)

        monkeypatch.setattr(sim_harness, "_draw", lone_draw)
        assert run_study2("logistic", beta3_grid=(0.05, 0.5), cases=("A",), n_reps=25, seed=0).rows == report.rows
        assert len(seed_sequences) == 50  # each lone draw builds its substream

    @pytest.mark.parametrize("cell", [0, 2, 4], ids=["study1-A", "study1-B", "study2-A"])
    def test_first_draws_are_the_tags_streams(self, cell):
        config = _linear_cells()[cell]
        for rep in (0, 1, 17):
            old = substream(config.seed, *config.tags, rep).standard_normal(4)
            new = substream(*config._keys, rep).standard_normal(4)
            assert old.tobytes() == new.tobytes()
        designs = averaging._PREDICTORS["linear"]._Designs(config.candidate_set.models, config.x_star.shape[0])
        X, _ = sim_harness._draw(designs, [(0, config, 5)], iter([_stream(config, 5)]), {})
        assert X[0].tobytes() == study_draw_reference(config, 5)[0].tobytes()

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


def _stack_members(family, n_reps):
    """A stack's members, (position, config, rep) laid out rep by rep over two cells of one design, and its designs."""
    cells = _study2_cells(family, n_reps, cases="B")
    members = [(2 * rep + c, config, rep) for rep in range(n_reps) for c, config in enumerate(cells)]
    config = cells[0]
    return config._family(config.candidate_set.models, 4, config.oracle), members


def _doubles_a_replication(designs, n):
    """What a drawn replication counts against ``sim_harness._CHUNK_DOUBLES``."""
    return n * (2 * designs.p + 2)


class TestChunkedDraws:
    """A stack is drawn in chunks whose only per-replication work is the stream calls, with every draw's bits."""

    @pytest.mark.parametrize("family", ["linear", "logistic"])
    @pytest.mark.parametrize(
        "budget, size",
        [(lambda per: per, 1), (lambda per: 2 * per - 1, 1), (lambda per: 2 * per, 2), (lambda per: 3 * per - 1, 2),
         (lambda per: 10**9, 14)],
        ids=["chunks-of-1", "below-2", "chunks-of-2", "below-3", "whole-stack"],
    )
    def test_draws_equal_lone_draws_bit_for_bit(self, monkeypatch, family, budget, size):
        designs, members = _stack_members(family, 7)
        monkeypatch.setattr(sim_harness, "_CHUNK_DOUBLES", budget(_doubles_a_replication(designs, 100)))
        drawn, chunks = [], []
        original = sim_harness._draw

        def recorded(designs, chunk, streams, failures):
            X, y = original(designs, chunk, streams, failures)
            chunks.append(len(chunk))
            drawn.extend((config, rep, X_j.copy(), y_j.copy()) for (_, config, rep), X_j, y_j in zip(chunk, X, y))
            return X, y

        monkeypatch.setattr(sim_harness, "_draw", recorded)
        rows, failures = [None] * 14, {}
        sim_harness._fit_stack(designs, members, rows, failures)
        assert failures == {} and None not in rows
        assert chunks == [size] * (14 // size) + [14 % size] * (14 % size > 0)
        assert [(config, rep) for config, rep, _, _ in drawn] == [(config, rep) for _, config, rep in members]
        for config, rep, X, y in drawn:
            X_ref, y_ref = study_draw_reference(config, rep)
            assert X.tobytes() == X_ref.tobytes() and y.tobytes() == y_ref.tobytes(), (config.tags, rep)

    @pytest.mark.parametrize(
        "family, spoil, message",
        [
            ("linear", np.inf, "design and response must be finite"),
            ("logistic", np.nan, "design and response must be finite"),
            ("logistic", 0.5, "logistic responses must be coded 0/1"),
        ],
    )
    def test_a_refused_replication_in_mid_chunk_fails_alone(self, monkeypatch, family, spoil, message):
        # chunks of 4: the second chunk's second replication (position 5, rep 2 of the second cell)
        # gets a response the checks refuse; it fails with its own error, and the stack's other
        # replications keep their lone predictors' bits
        designs, members = _stack_members(family, 5)
        monkeypatch.setattr(sim_harness, "_CHUNK_DOUBLES", 4 * _doubles_a_replication(designs, 100))
        respond, calls = designs.respond, []

        def spoiled(eta, noise):
            y = respond(eta, noise)
            calls.append(len(y))
            if len(calls) == 2:
                y[1, 7] = spoil
            return y

        monkeypatch.setattr(type(designs), "respond", staticmethod(spoiled))
        rows, failures = [None] * 10, {}
        sim_harness._fit_stack(designs, members, rows, failures)
        assert calls == [4, 4, 2]
        assert list(failures) == [5] and type(failures[5]) is DataError and str(failures[5]) == message
        reference = {"linear": linear_estimates_reference, "logistic": logistic_estimates_reference}[family]
        for position, config, rep in members:
            if position != 5:
                expected = reference(config, *study_draw_reference(config, rep))
                assert [float(v).hex() for v in rows[position]] == [v.hex() for v in expected], position

    @pytest.mark.parametrize("family", ["linear", "logistic"])
    def test_checks_response_law_and_reduce_run_once_per_chunk(self, monkeypatch, family):
        # the study2_logistic workload's stack of 50 (two cells of 25, one design) at n = 100:
        # two chunks, each checked, answered and reduced once
        designs_class = averaging._PREDICTORS[family]._Designs
        cells = _study2_cells(family, 25, cases="A", schemes=("optimal", "aic"))  # checked before the count
        calls = []

        def counted(owner, name, wrap=lambda f: f):
            original = getattr(owner, name)

            def call(*args):
                calls.append(name)
                return original(*args)

            monkeypatch.setattr(owner, name, wrap(call))

        counted(sim_harness, "require_finite")
        counted(mse_weights, "_require_binary")
        counted(designs_class, "respond", staticmethod)
        counted(designs_class, "reduce")
        stacks = []
        fit_stack = sim_harness._fit_stack
        monkeypatch.setattr(sim_harness, "_fit_stack", lambda *args: stacks.append(len(args[1])) or fit_stack(*args))
        sim_harness._simulate(cells, 1)
        per_replication = _doubles_a_replication(designs_class(study2_model_sets()["A"].models, 4), 100)
        chunks = -(-50 // (sim_harness._CHUNK_DOUBLES // per_replication))
        assert stacks == [50] and chunks == 2
        for name in ("require_finite", "respond", "reduce"):
            assert calls.count(name) == chunks, name
        assert calls.count("_require_binary") == (chunks if family == "logistic" else 0)

    @pytest.mark.parametrize("function", ["_fit_stack", "_run_block", "_draw"])
    def test_the_stack_code_names_no_family(self, function):
        # the family's record answers every family question: no family name or field in the code
        tree = ast.parse(textwrap.dedent(inspect.getsource(getattr(sim_harness, function))))
        body = tree.body[0].body[1:]  # past the docstring
        nodes = [node for statement in body for node in ast.walk(statement)]
        assert not [node.value for node in nodes if isinstance(node, ast.Constant) and node.value in ("linear", "logistic")]
        assert not [node.attr for node in nodes if isinstance(node, ast.Attribute) and node.attr == "family"]


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
