import numpy as np
import pytest
from scipy.special import expit

from glmavg import (
    CandidateModel,
    DataError,
    ModelSet,
    NonConvergenceError,
    StudyConfig,
    nested_sequence,
    run_study1,
    run_study2,
    simulate_cell,
)
from glmavg.dataio import csv_text
from glmavg.sim_harness import (
    REPORT_COLUMNS,
    _one_replication,
    STUDY1_BETA,
    STUDY2_BETA3_GRID,
    STUDY2_X_STAR,
    study1_model_sets,
    study2_model_sets,
)

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

        monkeypatch.setattr(sim_harness, "_one_replication", no_fit)
        with pytest.raises(DataError, match=message) as excinfo:
            run()
        assert "rep" not in str(excinfo.value)

    @pytest.mark.parametrize("family", ["linear", "logistic"])
    def test_unknown_scheme_fails_before_any_fit(self, monkeypatch, family):
        import glmavg.sim_harness as sim_harness

        def no_fit(*args, **kwargs):
            raise AssertionError("a replication ran")

        monkeypatch.setattr(sim_harness, "_one_replication", no_fit)
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

        monkeypatch.setattr(sim_harness, "_one_replication", no_fit)
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
        # draw the same data, so the oracle column must agree, and only
        # case B may refit the oracle.
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
            assert len(calls) == (0 if case == "A" else config.n_reps)
        np.testing.assert_allclose(out["A"], out["B"], rtol=1e-12, atol=0)

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
                _one_replication(config, rep)
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
