import numpy as np
import pytest

from oracles import select_best_subset_reference

import glmavg.crossval as crossval
import glmavg.glm_fit as glm_fit
from glmavg import (
    CandidateModel,
    CapacityError,
    DataError,
    Dataset,
    LinearQFactory,
    ModelSet,
    cv_compare,
    derive_seed,
    enumerate_all_subsets,
    split,
    synthetic_prostate,
)


def _dataset(seed=0, n=60, q=3, beta=None, sigma=1.0):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, q))
    beta = np.asarray(beta) if beta is not None else rng.uniform(-1, 1, q + 1)
    y = beta[0] + X @ beta[1:] + sigma * rng.standard_normal(n)
    return Dataset(
        response=y,
        design=np.column_stack([np.ones(n), X]),
        column_names=["(intercept)"] + [f"x{j}" for j in range(q)],
        family="linear",
    )


def _chosen(train, select_by, seed=0, repeat=0):
    """The subset that ``cv_compare``'s rule picks among all subsets of ``train``'s optional columns.

    The CV rule is ``crossval._cv_choice``, which fits its own factory per
    inner fold; the AIC rule is the least AIC of a factory fitted on
    ``train``, as ``cv_compare``'s all-subsets fit of the split is.
    """
    subsets = enumerate_all_subsets(1, train.d - 1)
    if select_by == "cv":
        return subsets[crossval._cv_choice(train, subsets, seed, repeat)]
    factory = LinearQFactory(train.design, train.response, subsets)
    return subsets[int(np.argmin(crossval.aic_values(factory.logliks(), factory.dims())))]


class TestSelect:
    def test_noiseless_sparse_truth_selected(self):
        ds = _dataset(seed=1, n=80, q=4, beta=[1.0, 2.0, 0.0, 0.0, -1.5], sigma=0.0)
        model = _chosen(ds, "cv", seed=0, repeat=0)
        # exact fit: the truth's support {0, 3} must be included
        assert {0, 3} <= set(model.included)

    def test_aic_rule(self):
        ds = _dataset(seed=2, n=100, q=3, beta=[0.5, 3.0, 0.0, 0.0], sigma=1.0)
        model = _chosen(ds, "aic")
        assert 0 in model.included

    def test_unknown_rule(self):
        with pytest.raises(DataError):
            cv_compare(_dataset(), methods=("best_subset",), select_by="bic")

    @pytest.mark.parametrize("select_by", ["cv", "aic"])
    def test_matches_per_candidate_fits_on_prostate_splits(self, select_by):
        # the factory scores differ from one ols_fit per candidate in the
        # last bits at most; the chosen subset must not change
        ds = synthetic_prostate()
        for repeat in range(8):
            train, _ = split(ds, 67, derive_seed(0, "cv-split", repeat))
            got = _chosen(train, select_by, seed=0, repeat=repeat)
            expected = select_best_subset_reference(train, select_by, seed=0, repeat=repeat)
            assert got == expected, repeat

    def test_too_many_optional_predictors(self):
        with pytest.raises(CapacityError):
            cv_compare(_dataset(n=40, q=21), methods=("best_subset",))


class TestBestSubsetCv:
    def test_equals_cv_compare_entry(self):
        ds = _dataset(seed=4)
        report = cv_compare(ds, methods=("full_model", "best_subset"), n_repeats=3, seed=2)
        alone = cv_compare(ds, methods=("best_subset",), n_repeats=3, seed=2)
        assert alone.mean_errors["best_subset"] == report.mean_errors["best_subset"]

    @pytest.mark.parametrize("select_by", ["cv", "aic"])
    def test_errors_are_the_same_bits_whatever_else_is_asked(self, select_by):
        # best_subset reads the split's all-subsets fit, whichever fits the other methods need
        subsets = enumerate_all_subsets(1, 8)
        lacking = ModelSet(list(subsets)[::3], 8)  # 86 of the 256 subsets
        runs = [
            (("best_subset",), None),
            (("full_model", "best_subset"), None),
            (crossval.DEFAULT_METHODS, None),
            (("avg_aic", "best_subset"), lacking),
        ]
        errors = []
        for methods, models in runs:
            report = cv_compare(synthetic_prostate(), methods=methods, models=models, select_by=select_by)
            errors.append([row["error"].hex() for row in report.per_repeat if row["method"] == "best_subset"])
        assert len(errors[0]) == 5
        assert errors[1:] == [errors[0]] * 3

    def test_single_predictor_runs(self):
        ds = _dataset(seed=3, q=1, beta=[1.0, 2.0], sigma=0.5)
        err = cv_compare(ds, methods=("best_subset",), n_repeats=2, seed=0).mean_errors["best_subset"]
        assert err >= 0.0

    def test_noiseless_error_near_zero(self):
        ds = _dataset(seed=4, n=80, q=3, beta=[1.0, 2.0, 0.0, 1.0], sigma=0.0)
        err = cv_compare(ds, methods=("best_subset",), n_repeats=2, seed=0).mean_errors["best_subset"]
        assert err == pytest.approx(0.0, abs=1e-16)


class TestCvCompare:
    def test_full_model_on_noiseless_data(self):
        ds = _dataset(seed=5, sigma=0.0)
        report = cv_compare(ds, methods=("full_model",), n_repeats=2, seed=0)
        assert report.mean_errors["full_model"] == pytest.approx(0.0, abs=1e-18)

    def test_all_weight_on_full_matches_full_model(self):
        # averaging over a single full-model candidate is the full model
        ds = _dataset(seed=6)
        full_only = ModelSet([CandidateModel((0, 1, 2), 1)], 3)
        report = cv_compare(
            ds,
            methods=("avg_optimal", "avg_aic", "full_model"),
            n_repeats=3,
            seed=2,
            models=full_only,
        )
        assert report.mean_errors["avg_optimal"] == pytest.approx(
            report.mean_errors["full_model"], abs=1e-12
        )
        assert report.mean_errors["avg_aic"] == pytest.approx(
            report.mean_errors["full_model"], abs=1e-12
        )

    def test_methods_share_splits_within_repeat(self):
        ds = _dataset(seed=7)
        full_only = ModelSet([CandidateModel((0, 1, 2), 1)], 3)
        report = cv_compare(
            ds, methods=("avg_optimal", "full_model"), n_repeats=2, seed=3, models=full_only
        )
        by_repeat = {}
        for row in report.per_repeat:
            by_repeat.setdefault(row["repeat"], {})[row["method"]] = row["error"]
        for errors in by_repeat.values():
            assert errors["avg_optimal"] == pytest.approx(errors["full_model"], abs=1e-12)

    def test_report_metadata(self):
        ds = _dataset(seed=8, n=45)
        report = cv_compare(ds, methods=("full_model",), n_repeats=2, seed=4)
        assert report.n_train + report.n_test == 45
        assert report.n_repeats == 2
        assert report.seed == 4
        assert set(report.mean_errors) == {"full_model"}
        assert [row["repeat"] for row in report.per_repeat] == [0, 1]

    def test_rejects_logistic_family(self):
        ds = synthetic_prostate()
        logistic = Dataset(
            response=(ds.response > np.median(ds.response)).astype(float),
            design=ds.design,
            column_names=ds.column_names,
            family="logistic",
        )
        with pytest.raises(DataError):
            cv_compare(logistic, n_repeats=1)

    def test_rejects_unknown_method(self):
        with pytest.raises(DataError):
            cv_compare(_dataset(), methods=("ridge",), n_repeats=1)

    def test_rejects_repeated_method(self):
        with pytest.raises(DataError, match="methods names full_model more than once"):
            cv_compare(_dataset(), methods=("full_model", "full_model"), n_repeats=1)

    def test_rejects_empty_methods_before_any_split(self, monkeypatch):
        def no_split(*args, **kwargs):
            raise AssertionError("a split was drawn")

        monkeypatch.setattr(crossval, "split", no_split)
        with pytest.raises(DataError, match="methods is empty"):
            cv_compare(_dataset(), methods=(), n_repeats=2)

    @pytest.mark.parametrize(
        "n_train, methods, select_by, message",
        [
            (8, crossval.DEFAULT_METHODS, "cv", "n_train=8 leaves 6 rows to fit the design's 9 columns"),
            (5, ("full_model",), "aic", "n_train=5 leaves 5 rows to fit the design's 9 columns"),
            (11, ("best_subset",), "cv", "n_train=11 leaves 8 rows to fit the design's 9 columns"),
            (10, ("full_model", "best_subset"), "cv", "n_train=10 leaves 8 rows"),
        ],
    )
    def test_rejects_training_split_too_small_before_any_split(
        self, monkeypatch, n_train, methods, select_by, message
    ):
        # every method fits the full design on the split, and the CV rule on each inner fold
        def no_split(*args, **kwargs):
            raise AssertionError("a split was drawn")

        monkeypatch.setattr(crossval, "split", no_split)
        with pytest.raises(DataError, match=message):
            cv_compare(synthetic_prostate(), methods=methods, n_train=n_train, select_by=select_by)

    @pytest.mark.parametrize(
        "n_train, methods, select_by",
        [(9, ("full_model",), "cv"), (11, ("best_subset",), "aic"), (12, ("best_subset",), "cv")],
    )
    def test_smallest_legal_training_split_runs(self, n_train, methods, select_by):
        report = cv_compare(
            synthetic_prostate(), methods=methods, n_repeats=1, n_train=n_train, select_by=select_by
        )
        assert np.isfinite(list(report.mean_errors.values())).all()

    @pytest.mark.parametrize("methods", [("full_model",), ("avg_aic", "best_subset")])
    def test_rejects_unknown_selection_rule_before_any_split(self, monkeypatch, methods):
        def no_split(*args, **kwargs):
            raise AssertionError("a split was drawn")

        monkeypatch.setattr(crossval, "split", no_split)
        with pytest.raises(DataError, match="unknown selection rule 'bic'"):
            cv_compare(_dataset(), methods=methods, n_repeats=2, select_by="bic")

    @pytest.mark.parametrize("workers", [0, -2])
    def test_rejects_fewer_than_one_worker_before_any_split(self, monkeypatch, workers):
        def no_split(*args, **kwargs):
            raise AssertionError("a split was drawn")

        monkeypatch.setattr(crossval, "split", no_split)
        with pytest.raises(DataError, match=f"workers must be at least 1, got {workers}"):
            cv_compare(_dataset(), methods=("full_model",), n_repeats=2, workers=workers)

    @pytest.mark.parametrize("n_repeats", [0, -1])
    def test_rejects_fewer_than_one_repeat(self, n_repeats):
        with pytest.raises(DataError, match="n_repeats must be at least 1"):
            cv_compare(_dataset(), methods=("full_model",), n_repeats=n_repeats)

    @pytest.mark.parametrize("methods", [("avg_optimal",), ("best_subset",)])
    def test_rejects_model_set_of_another_dimension(self, methods):
        models = ModelSet([CandidateModel((0, 1, 2), 1)], q=3)  # 4 coefficients
        with pytest.raises(DataError, match="design has 9 columns, model space needs 4"):
            cv_compare(synthetic_prostate(), methods=methods, n_repeats=1, models=models)

    def test_deterministic(self):
        ds = _dataset(seed=9)
        a = cv_compare(ds, methods=("full_model", "best_subset"), n_repeats=2, seed=5)
        b = cv_compare(ds, methods=("full_model", "best_subset"), n_repeats=2, seed=5)
        assert a.mean_errors == b.mean_errors

    def test_worker_count_does_not_change_report(self):
        ds = _dataset(seed=10)
        kwargs = dict(methods=("full_model", "avg_aic"), n_repeats=3, seed=6)
        serial = cv_compare(ds, **kwargs, workers=1)
        threaded = cv_compare(ds, **kwargs, workers=3)
        assert serial.mean_errors == threaded.mean_errors
        assert serial.per_repeat == threaded.per_repeat


class TestSplitFactory:
    """Each repeat fits its training rows once; only inner CV folds fit apart from it."""

    N_TRAIN = 67  # the default split of the 97 prostate rows

    @pytest.fixture
    def builds(self, monkeypatch):
        # (rows, K) of every LinearQFactory built, as crossval sees the class
        record = []
        init = crossval.LinearQFactory.__init__

        def recording_init(factory, X, y, models):
            models = list(models)
            record.append((np.shape(X)[0], len(models)))
            init(factory, X, y, models)

        def no_ols_fit(*args, **kwargs):
            raise AssertionError("ols_fit was called")

        monkeypatch.setattr(crossval.LinearQFactory, "__init__", recording_init)
        monkeypatch.setattr(glm_fit, "ols_fit", no_ols_fit)
        monkeypatch.setattr(crossval, "ols_fit", no_ols_fit, raising=False)
        return record

    def test_aic_rule_fits_each_split_once(self, builds):
        cv_compare(synthetic_prostate(), n_repeats=2, select_by="aic")
        assert builds == [(self.N_TRAIN, 256)] * 2

    def test_cv_rule_adds_only_the_inner_folds(self, builds):
        cv_compare(synthetic_prostate(), n_repeats=2, select_by="cv")
        # the 67 rows fall into folds of 14, 14, 13, 13 and 13
        folds = [(53, 256)] * 2 + [(54, 256)] * 3
        assert builds == (folds + [(self.N_TRAIN, 256)]) * 2

    @pytest.mark.parametrize("select_by", ["cv", "aic"])
    @pytest.mark.parametrize("methods", [("best_subset",), crossval.DEFAULT_METHODS], ids=["alone", "default"])
    def test_the_split_gets_one_all_subsets_fit_per_repeat(self, builds, methods, select_by):
        cv_compare(synthetic_prostate(), methods=methods, n_repeats=2, select_by=select_by)
        assert [b for b in builds if b[0] == self.N_TRAIN] == [(self.N_TRAIN, 256)] * 2


@pytest.mark.slow
def test_prostate_pipeline_smoke():
    ds = synthetic_prostate()
    report = cv_compare(ds, n_repeats=2, seed=0)
    assert set(report.mean_errors) == {"avg_optimal", "avg_aic", "best_subset", "full_model"}
    assert all(v >= 0 for v in report.mean_errors.values())


@pytest.mark.slow
def test_prostate_best_subset_error_in_plausible_band():
    # default five-repeat pipeline on the bundled stand-in
    report = cv_compare(synthetic_prostate(), methods=("best_subset",), n_repeats=5, seed=0)
    err = report.mean_errors["best_subset"]
    assert 0.4 <= err <= 1.0
