"""Self-tests of the benchmark's own code.

    python3 perfbench/selftest.py

Covers tail-percentile selection, self-time subtraction for nested and
overlapping spans, the outside-in tracer on a real nested call, and a
minimal-size smoke run of every workload in both modes (about a minute
on 2 cores).
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import glmavg  # noqa: E402
from tracer import Span, Tracer, covered, self_times, tail_percentile  # noqa: E402
from workloads import Outcome  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SPEC = json.loads((BENCH_DIR / "spec.json").read_text())
PRINTED = ("setup_s", "ops_per_s", "op_ms_p50", "op_ms_tail", "failed_frac", "peak_rss_mb")


class TailPercentile(unittest.TestCase):
    def test_needs_ten_beyond_the_median(self):
        self.assertIsNone(tail_percentile(range(19)))
        self.assertEqual(tail_percentile(range(1, 21)), (50.0, 10, 20))

    def test_highest_percentile_with_ten_beyond(self):
        self.assertEqual(tail_percentile(range(1, 101)), (90.0, 90, 100))
        self.assertEqual(tail_percentile(range(1, 200)), (90.0, 180, 199))
        self.assertEqual(tail_percentile(range(1, 201)), (95.0, 190, 200))
        self.assertEqual(tail_percentile(range(1, 1001)), (99.0, 990, 1000))

    def test_counts_samples_strictly_beyond(self):
        samples = np.random.default_rng(0).exponential(size=537)
        p, value, n = tail_percentile(samples)
        self.assertEqual((p, n), (95.0, 537))
        self.assertGreaterEqual(int(np.sum(samples > value)), 10)


class SelfTime(unittest.TestCase):
    def test_nested_children_are_subtracted(self):
        spans = [
            Span(1, "build_q_logistic", "mse_weights.qform", None, 0.0, 10.0),
            Span(2, "logistic_mle", "glm_fit", 1, 1.0, 3.0),
            Span(3, "logistic_pseudo_fit", "glm_fit", 1, 4.0, 6.0),
            Span(4, "logistic_pseudo_fit", "glm_fit", 1, 6.0, 7.5),
        ]
        own = self_times(spans)
        self.assertAlmostEqual(own[1], 10.0 - 2.0 - 2.0 - 1.5)
        self.assertEqual((own[2], own[3], own[4]), (2.0, 2.0, 1.5))

    def test_overlapping_children_count_once(self):
        # two worker threads under one run_study2 span
        spans = [
            Span(1, "run_study2", "sim_harness", None, 0.0, 10.0),
            Span(2, "fit_and_average_logistic", "averaging", 1, 1.0, 5.0),
            Span(3, "fit_and_average_logistic", "averaging", 1, 2.0, 6.0),
            Span(4, "logistic_mle", "glm_fit", 1, 9.0, 12.0),
        ]
        self.assertAlmostEqual(self_times(spans)[1], 10.0 - 5.0 - 1.0)
        self.assertEqual(covered([(1.0, 5.0), (2.0, 6.0), (9.0, 12.0)], 0.0, 10.0), 6.0)

    def test_traced_build_q_logistic_excludes_its_fits(self):
        rng = np.random.default_rng(3)
        X = np.column_stack([np.ones(80), rng.standard_normal((80, 2))])
        y = (rng.random(80) < 0.5).astype(float)
        models = glmavg.ModelSet([glmavg.CandidateModel((), 1), glmavg.CandidateModel((0, 1), 1)], 2)
        functional = glmavg.Functional.logistic_point([1.0, 0.2, -0.3])
        untraced = glmavg.fit_and_average_logistic(X, y, models, functional)
        with Tracer() as tracer:
            traced = glmavg.averaging.fit_and_average_logistic(X, y, models, functional)
        self.assertEqual(traced.value, untraced.value)
        self.assertIs(glmavg.averaging.solve_simplex_qp, glmavg.mse_weights.solve_simplex_qp)

        (outer,) = [s for s in tracer.spans if s.name == "build_q_logistic"]
        children = [s for s in tracer.spans if s.parent == outer.sid]
        self.assertEqual(sorted(s.name for s in children), ["logistic_mle", "logistic_pseudo_fit", "logistic_pseudo_fit"])
        own = self_times(tracer.spans)
        self.assertAlmostEqual(own[outer.sid], outer.duration - sum(s.duration for s in children), places=12)
        self.assertLess(own[outer.sid], outer.duration)


class OutcomeAccounting(unittest.TestCase):
    def test_segments_ops_and_kernel_samples(self):
        out = Outcome(attempted=4)
        out.timed(0.5)  # a fit completes no op
        out.timed(0.25, 1)
        out.timed(3.0, 2)  # a batch adds its mean per op
        out.fail(1, 0.25, "broken")
        self.assertEqual((out.wall_s, out.done, out.op_ms), (4.0, 3, [250.0, 1500.0]))
        self.assertEqual(out.problems, ["broken"])
        self.assertGreaterEqual(len(out.kernel_ms), 1)


def run_bench(cwd, workload, trace, seconds=1, seed=1):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


class Smoke(unittest.TestCase):
    """Minimal-size runs: every workload, both modes, every metric present."""

    def test_every_workload_emits_every_metric(self):
        self.assertEqual([w["name"] for w in BENCHMARK["workloads"]], list(SPEC["workloads"]))
        for workload in SPEC["workloads"]:
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    done = run_bench(ROOT, workload, trace)
                    self.assertEqual(done.returncode, 0, done.stdout + done.stderr)
                    lines = done.stdout.splitlines()
                    result = json.loads(lines[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(list(result["metrics"]), [m["name"] for m in BENCHMARK[section]])
                    if trace == 0:
                        printed = {line.split()[0] for line in lines[:-1] if line.startswith("  ")}
                        wanted = set(PRINTED) | ({"uncertified_frac"} if workload == "prostate_cv" else set())
                        self.assertLessEqual(wanted, printed)
                    if workload == "study2_logistic" and trace == 1:
                        metrics = result["metrics"]
                        self.assertEqual(metrics["glm_fit.mle_calls_per_op"]["value"], 10.0)
                        self.assertEqual(metrics["glm_fit.pseudo_calls_per_op"]["value"], 4.0)

    def test_fails_without_the_program(self):
        (ROOT / ".perfbench_work").mkdir(exist_ok=True)
        bare = Path(tempfile.mkdtemp(dir=ROOT / ".perfbench_work"))
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(BENCH_DIR, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
            env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "prostate_cv", "--seed", "0",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180, env=env,
            )
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"correct"', done.stdout)
        finally:
            shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()
