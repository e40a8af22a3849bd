import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from glmavg import enumerate_all_subsets, nested_sequence, save_csv, synthetic_prostate
from glmavg.cli import main

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
# `glmavg cv` argument lists (paths relative to the repo root) mapped to their exact stdout,
# written by tests/data/make_cv_golden.py
CV_GOLDEN = json.loads((SRC.parent / "tests" / "data" / "cv_golden.json").read_text())
# the same for every other subcommand, written by tests/data/make_cli_golden.py
CLI_GOLDEN = json.loads((SRC.parent / "tests" / "data" / "cli_golden.json").read_text())


def _exit_code(argv):
    """``main``'s exit code, counting argparse's usage errors (which raise SystemExit)."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


IMPORT_GUARD = """
import sys
import glmavg.cli

def loaded(*names):
    return sorted(m for m in sys.modules if any(m == n or m.startswith(n + ".") for n in names))

print(loaded("scipy", "multiprocessing", "concurrent.futures"))
code = glmavg.cli.main(["band", "--data", sys.argv[1], "--response", "lpsa", "--test-data",
                        sys.argv[2], "--reps", "5", "--out", sys.argv[3]])
print(code, loaded("numpy.ma"))
"""


def test_cli_import_loads_no_scipy(tmp_path):
    # Every CLI call pays for its imports; the package needs numpy only.
    # multiprocessing and concurrent.futures would cost a cold call about
    # 20 ms, and np.quantile's numpy.ma over 10 ms of every band run.
    train, test = tmp_path / "train.csv", tmp_path / "test.csv"
    prostate = synthetic_prostate()
    save_csv(prostate.take(range(67)), train)
    save_csv(prostate.take([70, 80]), test)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_GUARD, str(train), str(test), str(tmp_path / "band.csv")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.splitlines() == ["[]", "0 []"]


@pytest.mark.parametrize("args", sorted(CLI_GOLDEN))
def test_every_command_matches_golden_text(args, monkeypatch, capsys):
    # weights/predict (both families, every scheme, CSV, JSON, --dump-q), study1,
    # study2 (both families) and band (one and two workers)
    monkeypatch.chdir(SRC.parent)
    assert main(args.split()) == 0
    assert capsys.readouterr().out == CLI_GOLDEN[args]


@pytest.fixture
def linear_csv(tmp_path):
    rng = np.random.default_rng(0)
    n = 80
    x1 = rng.standard_normal(n)
    x2 = rng.standard_normal(n)
    y = 1.0 + 0.8 * x1 + 0.1 * x2 + rng.standard_normal(n)
    path = tmp_path / "data.csv"
    lines = ["x1,x2,y"] + [
        f"{float(a)!r},{float(b)!r},{float(c)!r}" for a, b, c in zip(x1, x2, y)
    ]
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.fixture
def logistic_csv(tmp_path):
    rng = np.random.default_rng(1)
    n = 120
    x = rng.standard_normal(n)
    p = 1.0 / (1.0 + np.exp(-(0.3 + 0.9 * x)))
    y = (rng.random(n) < p).astype(int)
    path = tmp_path / "binary.csv"
    lines = ["x,y"] + [f"{float(a)!r},{int(b)}" for a, b in zip(x, y)]
    path.write_text("\n".join(lines) + "\n")
    return path


class TestWeightsCommand:
    def test_csv_output(self, linear_csv, capsys):
        rc = main([
            "weights", "--data", str(linear_csv), "--response", "y",
            "--x-star", "1,0.5,-0.5",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        lines = out.strip().split("\n")
        assert lines[0] == "model,included,weight,per_model_value"
        assert len(lines) == 5  # header + 2^2 candidate models
        weights = [float(line.split(",")[2]) for line in lines[1:]]
        assert sum(weights) == pytest.approx(1.0, abs=1e-9)

    def test_json_output_with_dump_q(self, linear_csv, tmp_path):
        out = tmp_path / "weights.json"
        rc = main([
            "weights", "--data", str(linear_csv), "--response", "y",
            "--x-star", "1,0.5,-0.5", "--format", "json", "--dump-q",
            "--out", str(out),
        ])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert len(payload["weights"]) == 4
        assert len(payload["q_matrix"]) == 4
        assert payload["objective"] >= 0.0
        # the solver's own diagnostics, consistent with the dumped Q
        w, Q = np.array(payload["weights"]), np.array(payload["q_matrix"])
        assert payload["objective"] == pytest.approx(float(w @ Q @ w), rel=1e-12)
        grad = 2.0 * (Q @ w)
        assert 0.0 <= payload["kkt_residual"] <= 1e-12 * max(1.0, float(np.max(np.abs(grad))))
        assert isinstance(payload["iterations"], int)

    def test_dump_q_requires_json(self, linear_csv):
        rc = main([
            "weights", "--data", str(linear_csv), "--response", "y",
            "--x-star", "1,0.5,-0.5", "--dump-q",
        ])
        assert rc == 2

    def test_dump_q_without_json_is_rejected_before_reading_data(self, tmp_path, capsys):
        rc = main([
            "weights", "--data", str(tmp_path / "missing.csv"), "--response", "y",
            "--x-star", "1,0.5,-0.5", "--dump-q",
        ])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--dump-q needs --format json" in captured.err

    def test_custom_model_file(self, linear_csv, tmp_path):
        models_path = tmp_path / "models.jsonl"
        models_path.write_text(nested_sequence(1, 2).to_jsonl())
        rc = main([
            "weights", "--data", str(linear_csv), "--response", "y",
            "--x-star", "1,0,0", "--models", str(models_path),
        ])
        assert rc == 0

    def test_wrong_x_star_length(self, linear_csv):
        rc = main([
            "weights", "--data", str(linear_csv), "--response", "y",
            "--x-star", "1,0.5",
        ])
        assert rc == 2

    def test_model_file_dimension_mismatch(self, linear_csv, tmp_path):
        models_path = tmp_path / "models.jsonl"
        models_path.write_text(nested_sequence(1, 5).to_jsonl())  # 6 coefs, data has 3
        rc = main([
            "weights", "--data", str(linear_csv), "--response", "y",
            "--x-star", "1,0,0", "--models", str(models_path),
        ])
        assert rc == 2


class TestPredictCommand:
    def test_linear_json(self, linear_csv, capsys):
        rc = main([
            "predict", "--data", str(linear_csv), "--response", "y",
            "--x-star", "1,1,0", "--format", "json",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert 0.5 < payload["estimate"] < 3.5
        assert payload["objective"] >= 0.0
        assert payload["kkt_residual"] >= 0.0
        assert payload["iterations"] >= 1

    def test_baseline_scheme_has_no_solver_fields(self, linear_csv, capsys):
        rc = main([
            "predict", "--data", str(linear_csv), "--response", "y",
            "--x-star", "1,1,0", "--format", "json", "--scheme", "aic",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert not {"objective", "kkt_residual", "iterations"} & set(payload)

    def test_logistic(self, logistic_csv, capsys):
        rc = main([
            "predict", "--data", str(logistic_csv), "--response", "y",
            "--family", "logistic", "--x-star", "1,0", "--format", "json",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert 0.0 < payload["estimate"] < 1.0
        assert {"objective", "kkt_residual", "iterations"} <= set(payload)

    @pytest.mark.parametrize("command", ["predict", "weights"])
    @pytest.mark.parametrize("scheme", ["optimal", "aic", "equal"])
    @pytest.mark.parametrize("x_star", ["1,nan,2", "1,inf,0"])
    def test_non_finite_x_star_is_a_data_error(self, linear_csv, command, scheme, x_star, capsys):
        rc = main([
            command, "--data", str(linear_csv), "--response", "y",
            "--x-star", x_star, "--scheme", scheme,
        ])
        assert rc == 2
        assert "x_star must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["predict", "weights"])
    @pytest.mark.parametrize(
        "flag", [["--seed", "1"], ["--reps", "3"], ["--workers", "0"]], ids=["seed", "reps", "workers"]
    )
    def test_run_flags_are_usage_errors(self, linear_csv, command, flag, capsys):
        # a point estimate draws nothing, so it takes no seed, count or workers
        rc = _exit_code([
            command, "--data", str(linear_csv), "--response", "y", "--x-star", "1,0,0", *flag,
        ])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: {' '.join(flag)}" in captured.err

    @pytest.mark.parametrize("scheme", ["optimal", "aic"])
    def test_non_finite_x_star_logistic(self, logistic_csv, scheme, capsys):
        rc = main([
            "predict", "--data", str(logistic_csv), "--response", "y",
            "--family", "logistic", "--x-star", "1,nan", "--scheme", scheme,
        ])
        assert rc == 2
        assert "x_star must be finite" in capsys.readouterr().err

    def test_dump_q_attaches_matrix(self, linear_csv, capsys):
        rc = main([
            "predict", "--data", str(linear_csv), "--response", "y",
            "--x-star", "1,0,0", "--format", "json", "--dump-q",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["q_matrix"]) == 4
        assert len(payload["bias"]) == 4

    @pytest.mark.parametrize(
        "record",
        [
            '{"p_fixed": 1.9, "q": 2, "included": [0.5]}',
            '{"p_fixed": 1, "q": 2, "included": "01"}',
            '{"p_fixed": 1, "q": 2, "included": [true]}',
        ],
        ids=["floats", "string-included", "bool-index"],
    )
    def test_non_integer_model_record_is_a_data_error(self, linear_csv, tmp_path, record, capsys):
        models_path = tmp_path / "models.jsonl"
        models_path.write_text(record + "\n")
        rc = main([
            "predict", "--data", str(linear_csv), "--response", "y",
            "--x-star", "1,0,0", "--models", str(models_path),
        ])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "bad model record on line 1" in captured.err

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o027, 0o640)], ids=["022", "027"])
    def test_out_file_mode_follows_umask(self, linear_csv, tmp_path, umask, mode):
        # the mode a shell redirect would give, not mkstemp's 0600
        out = tmp_path / "estimate.csv"
        previous = os.umask(umask)
        try:
            rc = main([
                "predict", "--data", str(linear_csv), "--response", "y",
                "--x-star", "1,0,0", "--out", str(out),
            ])
        finally:
            os.umask(previous)
        assert rc == 0
        assert out.stat().st_mode & 0o777 == mode

    def test_out_never_sets_the_umask(self, linear_csv, tmp_path, monkeypatch):
        # setting the umask, even for a moment, would unmask files another thread creates
        calls = []
        monkeypatch.setattr(os, "umask", lambda mask: calls.append(mask) or 0o022)
        out = tmp_path / "estimate.csv"
        rc = main([
            "predict", "--data", str(linear_csv), "--response", "y",
            "--x-star", "1,0,0", "--out", str(out),
        ])
        assert rc == 0 and out.exists()
        assert calls == []
        assert [path.name for path in tmp_path.iterdir() if path.name.startswith(".glmavg-")] == []

    @pytest.mark.parametrize("out", ["missing-dir/o.csv", "outdir"], ids=["missing-dir", "directory"])
    def test_unwritable_out_names_the_path_as_given(self, linear_csv, tmp_path, out, monkeypatch, capsys):
        # the error names --out, not the temp file, and no file is made or left anywhere
        monkeypatch.chdir(tmp_path)
        (tmp_path / "outdir").mkdir()
        before = sorted(tmp_path.rglob("*"))
        rc = main([
            "predict", "--data", str(linear_csv), "--response", "y",
            "--x-star", "1,0,0", "--out", out,
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert repr(out) in err
        assert ".glmavg-" not in err
        assert sorted(tmp_path.rglob("*")) == before

    def test_failed_write_leaves_no_temp_file(self, linear_csv, tmp_path, monkeypatch, capsys):
        # the temp file is written, the rename fails: the temp file goes and the error names --out
        def failing_replace(src, dst):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, "replace", failing_replace)
        out = tmp_path / "estimate.csv"
        rc = main([
            "predict", "--data", str(linear_csv), "--response", "y",
            "--x-star", "1,0,0", "--out", str(out),
        ])
        assert rc == 2
        assert f"glmavg: [Errno 28] No space left on device: {str(out)!r}" in capsys.readouterr().err
        assert sorted(path.name for path in tmp_path.iterdir()) == [linear_csv.name]

    def test_unparsable_x_star_entry_is_a_data_error(self, linear_csv, capsys):
        rc = main([
            "predict", "--data", str(linear_csv), "--response", "y", "--x-star", "1,one,0",
        ])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "data error: cannot parse --x-star: could not convert string to float: 'one'" in captured.err

    def test_too_many_predictors_is_an_error_with_exit_2(self, tmp_path, capsys):
        # 21 predictors ask for 2**21 candidates: a CapacityError, which main reports as a plain error
        path = tmp_path / "wide.csv"
        rng = np.random.default_rng(21)
        header = ",".join([f"x{j}" for j in range(21)] + ["y"])
        rows = [",".join(repr(float(v)) for v in row) for row in rng.standard_normal((30, 22))]
        path.write_text("\n".join([header, *rows]) + "\n")
        rc = main(["predict", "--data", str(path), "--response", "y", "--x-star", ",".join(["1"] * 22)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "glmavg: error: 2**21 candidate models exceeds the enumeration guard (q <= 20)\n"

    def test_empty_x_star_entry_is_a_data_error(self, linear_csv, capsys):
        # "1,,0,0" must not be read as the 3-entry "1,0,0"
        rc = main([
            "predict", "--data", str(linear_csv), "--response", "y", "--x-star", "1,,0,0",
        ])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--x-star entry 2 of 4 is empty" in captured.err

    def test_missing_column_exit_code(self, linear_csv):
        assert main([
            "predict", "--data", str(linear_csv), "--response", "zz",
            "--x-star", "1,0,0",
        ]) == 2

    def test_numerical_failure_exit_code(self, tmp_path):
        # perfectly separated logistic data: the slope model diverges
        path = tmp_path / "sep.csv"
        rows = ["x,y"] + [f"{float(v)!r},{int(v > 0)}" for v in np.linspace(-2, 2, 24)]
        path.write_text("\n".join(rows) + "\n")
        rc = main([
            "predict", "--data", str(path), "--response", "y",
            "--family", "logistic", "--x-star", "1,0",
        ])
        assert rc == 3


    @pytest.mark.parametrize("command", ["weights", "predict"])
    def test_fewer_rows_than_columns_is_a_numerical_failure(self, command, tmp_path, capsys):
        path = tmp_path / "wide.csv"
        header = ",".join([f"x{j}" for j in range(8)] + ["y"])
        rows = [",".join(repr(float(i * 9 + j) ** 0.5) for j in range(9)) for i in range(3)]
        path.write_text("\n".join([header, *rows]) + "\n")
        rc = main([command, "--data", str(path), "--response", "y", "--x-star", ",".join(["1"] * 9)])
        assert rc == 3
        assert "numerical failure: need n >= d, got n=3, d=4" in capsys.readouterr().err

class TestPointOutputShapes:
    """Exact output layout of ``weights`` and ``predict``, which share one handler."""

    @staticmethod
    def _args(command, family, linear_csv, logistic_csv, scheme, *extra):
        if family == "logistic":
            data, x_star = logistic_csv, "1,0.3"
        else:
            data, x_star = linear_csv, "1,0.5,-0.5"
        return [
            command, "--data", str(data), "--response", "y", "--family", family,
            "--x-star", x_star, "--scheme", scheme, *extra,
        ]

    @pytest.mark.parametrize("family", ["linear", "logistic"])
    @pytest.mark.parametrize("scheme", ["optimal", "aic"])
    def test_predict_csv_row(self, linear_csv, logistic_csv, family, scheme, capsys):
        args = self._args("predict", family, linear_csv, logistic_csv, scheme)
        assert main(args + ["--format", "json"]) == 0
        estimate = json.loads(capsys.readouterr().out)["estimate"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert out == f"family,scheme,estimate\n{family},{scheme},{estimate!r}\n"

    @pytest.mark.parametrize("family", ["linear", "logistic"])
    @pytest.mark.parametrize("scheme", ["optimal", "aic"])
    @pytest.mark.parametrize("dump_q", [False, True])
    @pytest.mark.parametrize("command", ["weights", "predict"])
    def test_json_key_order(
        self, linear_csv, logistic_csv, command, family, scheme, dump_q, capsys
    ):
        extra = ["--format", "json"] + (["--dump-q"] if dump_q else [])
        args = self._args(command, family, linear_csv, logistic_csv, scheme, *extra)
        assert main(args) == 0
        payload = json.loads(capsys.readouterr().out)
        if command == "weights":
            expected = ["scheme", "family", "estimate", "weights", "per_model", "models"]
        else:
            expected = ["family", "scheme", "estimate", "weights"]
        if scheme == "optimal":
            expected += ["objective", "kkt_residual", "iterations"]
            expected += ["bias", "q_matrix"] if dump_q else []
        assert list(payload) == expected


class TestStudyCommands:
    @pytest.mark.parametrize(
        "args, message",
        [
            (["study1", "--cases", "C", "--n-grid", "60"], "unknown cases ['C']"),
            (["study2", "--cases", "A,C", "--beta3", "0.1"], "unknown cases ['C']"),
            (["study1", "--cases", "A", "--n-grid", "100.7"], "must be an integer, got 100.7"),
            (
                ["study2", "--schemes", "optimal,bogus", "--beta3", "0.1"],
                "unknown weighting schemes ['bogus']; expected",
            ),
            (["study1", "--n-grid", "60", "--workers", "0"], "workers must be at least 1, got 0"),
            (["study2", "--beta3", "0.1", "--workers", "0"], "workers must be at least 1, got 0"),
            (["study2", "--beta3", "inf"], "beta_true and x_star must be finite"),
            (["study2", "--beta3", "0.1,nan"], "beta_true and x_star must be finite"),
            (
                ["study2", "--family", "logistic", "--beta3", "inf"],
                "beta_true and x_star must be finite",
            ),
            (
                ["study2", "--family", "logistic", "--beta3", "nan"],
                "beta_true and x_star must be finite",
            ),
            (["study1", "--n-grid", "60", "--dump-q"], "unrecognized arguments: --dump-q"),
            (["study2", "--beta3", "0.1", "--dump-q"], "unrecognized arguments: --dump-q"),
            (["study1", "--n-grid", ""], "n_grid is empty"),
            (["study2", "--beta3", ""], "beta3_grid is empty"),
            (["study1", "--n-grid", "100,,200"], "--n-grid entry 2 of 3 is empty"),
            (["study1", "--n-grid", "60,60"], "n_grid names 60.0 more than once"),
            (["study2", "--beta3", "0.1,0.1"], "beta3_grid names 0.1 more than once"),
            (["study1", "--cases", "A,A", "--n-grid", "60"], "cases names A more than once"),
            (["study2", "--cases", "A,A", "--beta3", "0.1"], "cases names A more than once"),
            (
                ["study2", "--schemes", "aic,aic", "--beta3", "0.1"],
                "weighting schemes names aic more than once",
            ),
        ],
        ids=[
            "study1-case", "study2-case", "study1-n", "study2-scheme", "study1-workers",
            "study2-workers", "study2-inf-beta3", "study2-nan-beta3", "study2-logistic-inf-beta3",
            "study2-logistic-nan-beta3", "study1-dump-q", "study2-dump-q", "study1-empty-n-grid",
            "study2-empty-beta3", "study1-empty-n-grid-entry", "study1-repeated-n",
            "study2-repeated-beta3", "study1-repeated-case", "study2-repeated-case",
            "study2-repeated-scheme",
        ],
    )
    def test_bad_study_arguments_are_data_errors(self, args, message, capsys):
        assert _exit_code(args + ["--reps", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err
        assert "rep " not in captured.err

    @pytest.mark.parametrize(
        "args", [["study1", "--n-grid", "60"], ["study2", "--beta3", "0.1"]], ids=["study1", "study2"]
    )
    def test_negative_seed_is_a_data_error(self, args, capsys):
        # every cell's config checks its seed, so no replication runs
        assert _exit_code(args + ["--reps", "2", "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "seed and integer stream keys must be non-negative, got -1" in captured.err
        assert "rep " not in captured.err

    def test_study2_csv_to_file(self, tmp_path):
        out = tmp_path / "study2.csv"
        rc = main([
            "study2", "--seed", "3", "--reps", "4", "--beta3", "0.05,0.1",
            "--cases", "A", "--out", str(out),
        ])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0].startswith("case,family,beta3,n,scheme")
        assert len(lines) == 1 + 2 * 3  # 2 beta3 x (optimal, aic, oracle)

    def test_study1_json(self, tmp_path):
        out = tmp_path / "study1.json"
        rc = main([
            "study1", "--seed", "1", "--reps", "3", "--n-grid", "60",
            "--cases", "B", "--format", "json", "--out", str(out),
        ])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["columns"][0] == "case"
        assert len(payload["rows"]) == 2

    @pytest.mark.usefixtures("fork_any_work")
    def test_study2_deterministic_output(self, tmp_path):
        args = ["study2", "--seed", "5", "--reps", "3", "--beta3", "0.1", "--cases", "B"]
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--workers", "3", "--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()


class TestCvCommand:
    def test_cv_small(self, tmp_path, capsys):
        ds = synthetic_prostate()
        data_path = tmp_path / "prostate.csv"
        save_csv(ds, data_path)
        models_path = tmp_path / "models.jsonl"
        models_path.write_text(nested_sequence(1, 8).to_jsonl())
        rc = main([
            "cv", "--data", str(data_path), "--response", "lpsa",
            "--reps", "1", "--seed", "0",
            "--methods", "avg_optimal,full_model", "--models", str(models_path),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("method,mean_error")
        assert "avg_optimal" in out and "full_model" in out

    def test_model_file_dimension_mismatch(self, tmp_path, capsys):
        data_path = tmp_path / "prostate.csv"
        save_csv(synthetic_prostate(), data_path)
        models_path = tmp_path / "models.jsonl"
        models_path.write_text(nested_sequence(1, 3).to_jsonl())  # 4 coefs, data has 9
        rc = main([
            "cv", "--data", str(data_path), "--response", "lpsa", "--reps", "1",
            "--models", str(models_path),
        ])
        assert rc == 2
        assert "model set is over 4 coefficients, data has 9" in capsys.readouterr().err

    def test_zero_reps_is_data_error(self, linear_csv, capsys):
        rc = main([
            "cv", "--data", str(linear_csv), "--response", "y",
            "--reps", "0", "--methods", "full_model",
        ])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "n_repeats must be at least 1" in captured.err

    def test_best_subset_only(self, linear_csv, capsys):
        rc = main([
            "cv", "--data", str(linear_csv), "--response", "y",
            "--reps", "2", "--methods", "best_subset", "--format", "json",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert "best_subset" in payload["mean_errors"]

    def test_select_by_aic(self, linear_csv, capsys):
        rc = main([
            "cv", "--data", str(linear_csv), "--response", "y",
            "--reps", "2", "--methods", "best_subset,full_model",
            "--select-by", "aic",
        ])
        assert rc == 0
        assert "best_subset" in capsys.readouterr().out

    @pytest.mark.parametrize("args", sorted(CV_GOLDEN))
    def test_output_matches_golden_text(self, args, monkeypatch, capsys):
        monkeypatch.chdir(SRC.parent)
        assert main(args.split()) == 0
        assert capsys.readouterr().out == CV_GOLDEN[args]

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--n-train", "8"], "n_train=8 leaves 6 rows to fit the design's 9 columns"),
            (["--n-train", "5", "--methods", "full_model"], "n_train=5 leaves 5 rows"),
            (["--n-train", "11", "--methods", "best_subset"], "n_train=11 leaves 8 rows"),
            (["--methods", "full_model,full_model"], "methods names full_model more than once"),
            (["--methods", ""], "unknown methods ['']"),
            (["--workers", "0"], "workers must be at least 1, got 0"),
            (["--dump-q"], "unrecognized arguments: --dump-q"),
            (["--seed", "-3"], "seed and integer stream keys must be non-negative, got -3"),
            (
                ["--seed", "-3", "--select-by", "aic"],
                "seed and integer stream keys must be non-negative, got -3",
            ),
        ],
        ids=[
            "n-train-8", "n-train-5", "inner-fold-8", "repeated-method", "empty-methods", "zero-workers",
            "dump-q", "negative-seed", "negative-seed-aic",
        ],
    )
    def test_bad_split_or_methods_are_data_errors(self, extra, message, monkeypatch, capsys):
        monkeypatch.chdir(SRC.parent)
        rc = _exit_code([
            "cv", "--data", "data/prostate_synth.csv", "--response", "lpsa", "--reps", "2", *extra,
        ])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err


class TestBandCommand:
    def test_band_csv(self, linear_csv, tmp_path):
        # reuse the training file's first rows as a small test set
        test_path = tmp_path / "test.csv"
        lines = linear_csv.read_text().strip().split("\n")
        test_path.write_text("\n".join(lines[:4]) + "\n")
        models_path = tmp_path / "models.jsonl"
        models_path.write_text(nested_sequence(1, 2).to_jsonl())
        out = tmp_path / "band.csv"
        rc = main([
            "band", "--data", str(linear_csv), "--response", "y",
            "--test-data", str(test_path), "--models", str(models_path),
            "--n-sub", "40", "--reps", "20", "--seed", "2", "--out", str(out),
        ])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "index,actual,predicted,lower,upper"
        assert len(lines) == 4
        for line in lines[1:]:
            _, _, predicted, lower, upper = map(float, line.split(","))
            assert lower <= predicted <= upper

    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="the runner forks only with two usable CPUs")
    def test_band_forks_once_for_every_row(self, linear_csv, tmp_path, monkeypatch, capsys):
        # every row's replications go through one runner call (one fork per row when each row made its own)
        from glmavg import prediction_band
        from glmavg.dataio import load_csv

        test_path = tmp_path / "test.csv"
        lines = linear_csv.read_text().strip().split("\n")
        test_path.write_text("\n".join(lines[:4]) + "\n")
        args = [
            "band", "--data", str(linear_csv), "--response", "y", "--test-data", str(test_path),
            "--n-sub", "30", "--reps", "6", "--seed", "4", "--sigma", "0.5", "--format", "json",
        ]
        forks = []
        fork = os.fork

        def counted():
            forks.append(1)
            return fork()

        monkeypatch.setattr(os, "fork", counted)
        assert main([*args, "--workers", "2"]) == 0
        assert len(forks) == 1  # 3 test rows
        monkeypatch.undo()
        forked = capsys.readouterr().out
        assert main([*args, "--workers", "1"]) == 0
        assert capsys.readouterr().out == forked
        train, test = load_csv(linear_csv, "y"), load_csv(test_path, "y")
        models = enumerate_all_subsets(1, train.d - 1)
        rows = json.loads(forked)["rows"]
        assert len(rows) == test.n == 3
        for i, row in enumerate(rows):
            band = prediction_band(
                train.design, train.response, test.design[i], models, n_sub=30, n_reps=6, sigma=0.5, seed=4 + i
            )
            assert (row["predicted"], row["lower"], row["upper"]) == (band.point, band.lower, band.upper)

    def test_band_respects_sigma_flag(self, linear_csv, tmp_path, capsys):
        test_path = tmp_path / "test.csv"
        lines = linear_csv.read_text().strip().split("\n")
        test_path.write_text("\n".join(lines[:2]) + "\n")
        models_path = tmp_path / "models.jsonl"
        models_path.write_text(nested_sequence(1, 2).to_jsonl())
        rc = main([
            "band", "--data", str(linear_csv), "--response", "y",
            "--test-data", str(test_path), "--models", str(models_path),
            "--n-sub", "40", "--reps", "10", "--sigma", "0.5",
            "--format", "json",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["sigma"] == 0.5
        assert len(payload["rows"]) == 1

    def test_test_columns_in_another_order_are_rejected(self, tmp_path, capsys):
        # same names and width, but a and b swapped: reading by position would swap the covariates
        rng = np.random.default_rng(3)
        train, test = tmp_path / "train.csv", tmp_path / "test.csv"
        rows = [f"{a!r},{b!r},{a + b!r}" for a, b in rng.standard_normal((20, 2)).tolist()]
        train.write_text("\n".join(["a,b,y"] + rows) + "\n")
        test.write_text("\n".join(["b,a,y"] + rows[:2]) + "\n")
        rc = main([
            "band", "--data", str(train), "--response", "y", "--test-data", str(test),
            "--n-sub", "10", "--reps", "3",
        ])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "training and test files must have the same columns" in captured.err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--sigma", "-1"], "sigma must be finite and non-negative"),
            (["--sigma", "nan"], "sigma must be finite and non-negative"),
            (["--n-sub", "0"], "n_sub must be at least 1"),
            (["--n-sub", "2"], "n_sub=2 is below the design's 3 columns"),
            (["--workers", "0"], "workers must be at least 1, got 0"),
            (["--dump-q"], "unrecognized arguments: --dump-q"),
            (["--seed", "-3"], "seed and integer stream keys must be non-negative, got -3"),
        ],
        ids=[
            "negative-sigma", "nan-sigma", "zero-n-sub", "n-sub-below-columns", "zero-workers",
            "dump-q", "negative-seed",
        ],
    )
    def test_bad_band_arguments_are_data_errors(self, linear_csv, tmp_path, flags, message, capsys):
        test_path = tmp_path / "test.csv"
        lines = linear_csv.read_text().strip().split("\n")
        test_path.write_text("\n".join(lines[:2]) + "\n")
        rc = _exit_code([
            "band", "--data", str(linear_csv), "--response", "y",
            "--test-data", str(test_path), "--reps", "3", *flags,
        ])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err
