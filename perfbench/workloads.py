"""The four workloads: inputs made from a seed, a timed closed loop, and output checks.

Every workload is a closed loop in one process (``cli_band``: one child
process at a time): the next op starts when the previous one returns.
A run does a fixed amount of work, ``plan(seconds)`` units, sized from
the nominal unit times below (measured on a 2-core x86-64 VM, Python
3.11, numpy 2.4, BLAS pinned to one thread) so that a run of the
unchanged program lasts about ``seconds``.  The same seed and seconds
therefore always mean the same inputs and the same op count, and a
faster program finishes the same work sooner.

Between timed segments a run samples a fixed reference kernel (see
``reference_kernel``), so latencies can also be read relative to the
speed the machine had during that run.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.linalg import solve_triangular

import glmavg
import glmavg.sim_harness as sim_harness
from glmavg import GlmavgError

import checks
from tracer import is_certified, spans_from_json

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

# The 23 (split, row) prostate predictions whose active-set solve falls
# back to projected gradient, with split r seeded by
# derive_seed(0, "prostate-split", r) (ROADMAP "Measured baseline").
ROADMAP_FALLBACKS = frozenset({
    (3, 15), (3, 17), (12, 1), (14, 14), (16, 6), (20, 13), (26, 29), (27, 23),
    (37, 26), (46, 19), (48, 14), (49, 4), (55, 27), (58, 3), (66, 22), (67, 3),
    (78, 29), (83, 20), (87, 10), (87, 28), (90, 0), (96, 28), (97, 7),
})

# The reference kernel: 32 small least-squares solves in a Python loop,
# the same kind of work as glmavg's per-model loops, on fixed data and
# without glmavg.  On a shared host the machine's speed drifts by tens of
# percent over minutes; the kernel's median time within a run tracks that
# drift, so an op latency divided by it stays comparable between runs
# made at different times.  A run samples the kernel at most every
# KERNEL_EVERY_S, and up to KERNEL_BURST times after a long segment.
_KERNEL_X = np.random.default_rng(20260808).standard_normal((67, 9))
_KERNEL_V = np.linspace(-1.0, 1.0, 9)
_KERNEL_COLUMNS = [[0] + [j for j in range(1, 9) if (m >> (j - 1)) & 1] for m in range(0, 256, 8)]
KERNEL_EVERY_S = 0.05
KERNEL_BURST = 8


def reference_kernel() -> None:
    for cols in _KERNEL_COLUMNS:
        R = np.linalg.qr(_KERNEL_X[:, cols], mode="r")
        z = solve_triangular(R, _KERNEL_V[cols], trans="T")
        solve_triangular(R, z)


@dataclass
class Outcome:
    """What one pass over a workload's inputs produced."""

    attempted: int = 0
    failed: int = 0
    wall_s: float = 0.0  # fits, ops and failed ops; output checks and kernel samples are excluded
    op_ms: list = field(default_factory=list)  # per op; a study batch adds its mean per replication
    kernel_ms: list = field(default_factory=list)
    problems: list = field(default_factory=list)
    uncertified: int = 0
    child_peak_rss_kb: int = 0
    _kernel_at: float = 0.0

    def timed(self, seconds: float, ops: int = 0) -> None:
        """Account one segment that completed ``ops`` ops (0 for a fit)."""
        self.wall_s += seconds
        if ops:
            self.op_ms.append(1e3 * seconds / ops)
        self._sample_kernel()

    def fail(self, ops: int, seconds: float, why: str) -> None:
        self.failed += ops
        self.wall_s += seconds
        self.problems.append(why)
        self._sample_kernel()

    def _sample_kernel(self) -> None:
        runs = min(KERNEL_BURST, int((time.perf_counter() - self._kernel_at) / KERNEL_EVERY_S))
        for _ in range(runs):
            start = time.perf_counter()
            reference_kernel()
            self.kernel_ms.append(1e3 * (time.perf_counter() - start))
        if runs:
            self._kernel_at = time.perf_counter()

    @property
    def done(self) -> int:
        return self.attempted - self.failed


class Workload:
    name = ""
    unit_s = 1.0  # nominal seconds per unit of work
    in_process = True  # False: the program runs in subprocesses, traced there

    def plan(self, seconds: float) -> int:
        return max(1, round(seconds / self.unit_s))

    def build(self, seed: int, seconds: float, workdir: Path):
        raise NotImplementedError

    def run(self, inputs, tracer=None) -> Outcome:
        raise NotImplementedError

    def final_checks(self) -> list[str]:
        return []


class ProstateCV(Workload):
    name = "prostate_cv"
    unit_s = 0.55  # one split: one fit, 30 predictions

    def build(self, seed, seconds, workdir):
        dataset = glmavg.synthetic_prostate()
        splits = [
            glmavg.split(dataset, 67, seed=glmavg.derive_seed(seed, "prostate-split", r))
            for r in range(self.plan(seconds))
        ]
        return glmavg.enumerate_all_subsets(1, 8), splits

    def run(self, inputs, tracer=None):
        models, splits = inputs
        out = Outcome()
        for r, (train, test) in enumerate(splits):
            out.attempted += test.n
            start = time.perf_counter()
            try:
                predictor = glmavg.LinearAveragingPredictor(train.design, train.response, models)
            except GlmavgError as exc:
                out.fail(test.n, time.perf_counter() - start, f"split {r}: fit raised {exc!r}")
                continue
            out.timed(time.perf_counter() - start)
            for i in range(test.n):
                if tracer is not None:
                    tracer.context = (r, i)
                start = time.perf_counter()
                try:
                    est = predictor.predict(test.design[i], "optimal")
                except GlmavgError as exc:
                    out.fail(1, time.perf_counter() - start, f"({r}, {i}): predict raised {exc!r}")
                    continue
                elapsed = time.perf_counter() - start
                problems = checks.check_estimate(est)
                if i == 0:
                    problems += checks.check_q_hat(est, train.design, train.response, models, test.design[i])
                if problems:
                    out.fail(1, elapsed, f"({r}, {i}): " + "; ".join(problems))
                    continue
                out.timed(elapsed, 1)
                if not is_certified(est.q_hat.matrix, est.weights):
                    out.uncertified += 1
        return out


class StudyWorkload(Workload):
    reps = 1  # replications per cell in one batch
    cells = 1
    rows_per_batch = 1
    reference_call = {"seed": 0, "n_reps": 40}  # the call whose report reference.json stores

    def call(self, seed: int, n_reps: int):
        raise NotImplementedError

    def build(self, seed, seconds, workdir):
        return [glmavg.derive_seed(seed, f"perfbench-{self.name}", b) for b in range(self.plan(seconds))]

    def run(self, inputs, tracer=None):
        out = Outcome()
        ops = self.reps * self.cells
        for b, batch_seed in enumerate(inputs):
            out.attempted += ops
            start = time.perf_counter()
            try:
                report = self.call(batch_seed, self.reps)
            except GlmavgError as exc:
                out.fail(ops, time.perf_counter() - start, f"batch {b}: {exc!r}")
                continue
            elapsed = time.perf_counter() - start
            problems = checks.check_study_rows(report.rows, self.rows_per_batch, self.reps)
            if problems:
                out.fail(ops, elapsed, f"batch {b}: " + "; ".join(problems))
            else:
                out.timed(elapsed, ops)
        return out

    def reference_rows(self):
        return self.call(**self.reference_call).rows

    def final_checks(self):
        return checks.check_reference(self.name, self.reference_rows())


class Study1(StudyWorkload):
    name = "study1_n1000"
    unit_s = 0.13
    reps = 50
    rows_per_batch = 2  # optimal, oracle

    def call(self, seed, n_reps):
        return sim_harness.run_study1(n_grid=(1000,), cases=("A",), n_reps=n_reps, seed=seed, workers=1)


class Study2Logistic(StudyWorkload):
    name = "study2_logistic"
    unit_s = 0.24
    reps = 25
    beta3 = (0.05, 0.5)  # a weak and a strong coefficient from STUDY2_BETA3_GRID
    cells = len(beta3)
    rows_per_batch = 3 * len(beta3)  # optimal, aic, oracle per cell

    def call(self, seed, n_reps):
        return sim_harness.run_study2(
            family="logistic",
            beta3_grid=self.beta3,
            cases=("A",),
            schemes=("optimal", "aic"),
            n_reps=n_reps,
            seed=seed,
            workers=2,
        )


def pinned_env() -> dict:
    """Environment for child processes: the pinned thread counts and the checkout's sources."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


class CliBand(Workload):
    name = "cli_band"
    unit_s = 0.6
    in_process = False
    rows = 1  # test rows per invocation
    # Band replications per row.  About 1 in 25 replications here hits the
    # solver's slow projected-gradient fallback (0.15-0.5 s, ten times a
    # normal replication); with 5 per invocation most invocations have
    # none, so the median invocation is steady while the fallbacks still
    # show in ops_per_s and the tail.
    reps = 5

    def build(self, seed, seconds, workdir):
        dataset = glmavg.synthetic_prostate()
        train, test = glmavg.split(dataset, 67, seed=glmavg.derive_seed(seed, "cli-band-split"))
        train_csv = workdir / "train.csv"
        glmavg.save_csv(train, train_csv)
        invocations = []
        for j in range(self.plan(seconds)):
            part = test.take([(self.rows * j + k) % test.n for k in range(self.rows)])
            test_csv = workdir / f"test{j}.csv"
            glmavg.save_csv(part, test_csv)
            invocations.append((part, test_csv, workdir / f"band{j}.json", glmavg.derive_seed(seed, "cli-band", j)))
        return train_csv, invocations

    def run(self, inputs, tracer=None):
        train_csv, invocations = inputs
        out = Outcome()
        env = pinned_env()
        for j, (part, test_csv, out_json, band_seed) in enumerate(invocations):
            out.attempted += 1
            args = [
                "band", "--data", str(train_csv), "--response", "lpsa",
                "--test-data", str(test_csv), "--n-sub", "50", "--reps", str(self.reps),
                "--seed", str(band_seed), "--format", "json", "--out", str(out_json),
            ]
            spans_json = out_json.with_suffix(".spans.json")
            if tracer is None:
                cmd = [sys.executable, "-m", "glmavg.cli"] + args
            else:
                cmd = [sys.executable, str(BENCH_DIR / "traced_cli.py"), str(spans_json)] + args
            code, stderr, rss_kb, elapsed = run_child(cmd, env)
            out.child_peak_rss_kb = max(out.child_peak_rss_kb, rss_kb)
            if code != 0:
                out.fail(1, elapsed, f"invocation {j}: exit {code}: {stderr.strip()[-300:]}")
                continue
            problems = checks.check_band_json(out_json, part)
            if problems:
                out.fail(1, elapsed, f"invocation {j}: " + "; ".join(problems))
            else:
                out.timed(elapsed, 1)
            if tracer is not None:
                offset = 1 + max((s.sid for s in tracer.spans), default=0)
                tracer.spans.extend(spans_from_json(json.loads(spans_json.read_text()), offset))
        return out


def run_child(cmd, env) -> tuple[int, str, int, float]:
    """Run a child to completion: (exit code, stderr, peak RSS in KiB, wall seconds)."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    with proc.stderr:
        stderr = proc.stderr.read()
    _, status, usage = os.wait4(proc.pid, 0)
    elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, stderr, usage.ru_maxrss, elapsed


WORKLOADS = {w.name: w for w in (ProstateCV(), CliBand(), Study1(), Study2Logistic())}
