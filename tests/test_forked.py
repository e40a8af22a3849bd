"""The forked replication runner: rows in index order, the earliest failure, no child left."""

import os
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

import glmavg._forked as _forked
import glmavg.sim_harness as sim_harness
from glmavg import (
    CandidateModel,
    NonConvergenceError,
    StudyConfig,
    cv_compare,
    nested_sequence,
    prediction_band,
    simulate_cell,
    synthetic_prostate,
)
from glmavg._forked import run_replications
from glmavg.sim_harness import STUDY1_BETA, STUDY2_X_STAR, study1_model_sets, study2_model_sets

two_cpus = pytest.mark.skipif(
    len(os.sched_getaffinity(0)) < 2, reason="the runner forks only with two usable CPUs"
)


@pytest.fixture
def deadline():
    """Fail, rather than hang, when a call does not return within 30 s."""

    def expire(signum, frame):
        raise TimeoutError("run_replications did not return within 30 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(30)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def per_index(task):
    """The block task that runs ``task`` on each index of its block."""
    return lambda block: [task(i) for i in block]


def counted_forks(monkeypatch):
    """A list that gains an entry at each ``os.fork`` from now on."""
    forks = []
    fork = os.fork

    def counted():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return forks


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _config(family="linear", n_reps=40):
    return StudyConfig(
        family=family,
        n=60,
        beta_true=np.array([0.3, 0.1, 0.3, 0.1]),
        candidate_set=study2_model_sets()["B"],
        x_star=np.asarray(STUDY2_X_STAR),
        n_reps=n_reps,
        seed=4,
        schemes=("optimal", "aic"),
        tags=("t",),
    )


@pytest.mark.parametrize("failing, first", [((17, 30), 17), ((30, 35), 30)], ids=["parent-and-child", "child"])
def test_earliest_failure_wins(monkeypatch, deadline, fork_any_work, failing, first):
    # 40 replications on 2 workers: the calling process runs reps 0-19, a child 20-39,
    # and a child's failure comes back pickled, with its class and attributes
    model = CandidateModel((0, 1), 1)
    original = sim_harness._draw

    def failing_draw(config, rep, rng=None):
        if rep in failing:
            raise NonConvergenceError(f"separated at rep {rep}", model=model, iterations=rep)
        return original(config, rep, rng)

    monkeypatch.setattr(sim_harness, "_draw", failing_draw)
    forks = counted_forks(monkeypatch)
    with pytest.raises(NonConvergenceError) as excinfo:
        simulate_cell(_config(), workers=2)
    assert len(forks) == min(2, len(os.sched_getaffinity(0))) - 1
    raised = excinfo.value
    assert str(raised) == f"separated at rep {first} in replication ('t', rep {first})"
    assert (raised.model, raised.iterations) == (model, first)
    assert_no_child_left()


@two_cpus
@pytest.mark.parametrize("end", ["exit", "kill"])
def test_child_that_sends_nothing_raises(deadline, end):
    parent = os.getpid()

    def task(i):
        if os.getpid() != parent:
            if end == "exit":
                os._exit(3)
            os.kill(os.getpid(), signal.SIGKILL)
        return i

    code = 3 if end == "exit" else -signal.SIGKILL
    with pytest.raises(ChildProcessError, match=f"replications 3-5 ended with exit code {code}"):
        run_replications(per_index(task), 6, 2)
    assert_no_child_left()


def test_no_child_left_after_return(deadline):
    assert run_replications(per_index(lambda i: i * i), 7, 2) == [i * i for i in range(7)]
    assert_no_child_left()


def test_no_child_left_after_raise_in_calling_process(deadline):
    # the child's block would run for 60 s; the failure in block 0 must not wait for it
    parent = os.getpid()

    def task(i):
        if os.getpid() == parent:
            raise ValueError(f"bad replication {i}")
        time.sleep(60)

    start = time.perf_counter()
    with pytest.raises(ValueError, match="bad replication 0"):
        run_replications(per_index(task), 4, 2)
    assert time.perf_counter() - start < 20
    assert_no_child_left()


@pytest.mark.parametrize("workers", [3, 64])
def test_workers_above_cpus_or_n_give_the_same_bits(monkeypatch, fork_any_work, workers):
    config = _config(family="logistic", n_reps=3)
    serial = simulate_cell(config, workers=1)
    forks = counted_forks(monkeypatch)
    wide = simulate_cell(config, workers=workers)
    assert len(forks) == min(3, len(os.sched_getaffinity(0))) - 1
    for key in serial:
        assert serial[key].tobytes() == wide[key].tobytes()
    assert_no_child_left()


@two_cpus
def test_two_workers_use_two_processes(deadline):
    pids = run_replications(per_index(lambda i: os.getpid()), 6, 2)
    assert pids[:3] == [os.getpid()] * 3
    assert len(set(pids[3:])) == 1 and pids[3] != os.getpid()


def test_live_thread_runs_serially(deadline):
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert run_replications(per_index(lambda i: os.getpid()), 4, 2) == [os.getpid()] * 4
    finally:
        release.set()
        thread.join()


def refuse_fork():
    raise AssertionError("os.fork called below the floor")


def _study2_cell(family, n_reps):
    """A Study II case A cell at n = 100, the shape of the thin studies below."""
    return StudyConfig(
        family=family,
        n=100,
        beta_true=np.array([0.3, 0.1, 0.3, 0.05]),
        candidate_set=study2_model_sets()["A"],
        x_star=np.asarray(STUDY2_X_STAR),
        n_reps=n_reps,
        seed=5,
    )


@two_cpus
def test_blocks_below_the_floor_run_in_the_calling_process(monkeypatch, deadline):
    cell = _study2_cell("linear", 6)
    # 6 replications on 2 workers: blocks of 3, a floor 0.1% over a block's estimate
    block_ms = 3 * sim_harness._rep_ms(cell)
    monkeypatch.setattr(sim_harness, "_FORK_FLOOR_MS", {"linear": block_ms * 1.001})
    monkeypatch.setattr(os, "fork", refuse_fork)
    serial = sim_harness.simulate_cell(cell, workers=2)
    monkeypatch.undo()
    # a floor 0.1% under a block's estimate: the block of 3 is forked
    monkeypatch.setattr(sim_harness, "_FORK_FLOOR_MS", {"linear": block_ms * 0.999})
    forks = counted_forks(monkeypatch)
    forked = sim_harness.simulate_cell(cell, workers=2)
    assert len(forks) == 1
    for key in serial:
        assert serial[key].tobytes() == forked[key].tobytes()
    assert_no_child_left()


def _study(name, n_reps):
    """The cells and the call of a two-cell study: Study II case A of one family, or Study I case A at n = 100 and 1000."""
    if name == "study1":
        cells = [
            StudyConfig(
                family="linear",
                n=n,
                beta_true=np.asarray(STUDY1_BETA),
                candidate_set=study1_model_sets()["A"],
                x_star=np.ones(len(STUDY1_BETA)),
                n_reps=n_reps,
                seed=5,
            )
            for n in (100, 1000)
        ]
        return cells, lambda workers: sim_harness.run_study1(
            n_grid=(100, 1000), cases=("A",), n_reps=n_reps, seed=5, workers=workers
        )
    return [_study2_cell(name, n_reps)], lambda workers: sim_harness.run_study2(
        name, beta3_grid=(0.05, 0.5), cases=("A",), n_reps=n_reps, seed=5, workers=workers
    )


@two_cpus
@pytest.mark.parametrize(
    "study, n_reps, forks",
    [
        ("logistic", 6, 0),
        ("logistic", 25, 0),
        ("logistic", 33, 0),
        ("logistic", 34, 1),
        ("logistic", 40, 1),
        ("linear", 30, 0),
        ("linear", 64, 0),
        ("linear", 65, 1),
        ("linear", 80, 1),
        ("study1", 17, 0),
        ("study1", 18, 1),
    ],
)
def test_a_study_forks_only_above_the_floor(monkeypatch, deadline, study, n_reps, forks):
    # two cells of 25 logistic replications, the study2_logistic workload's call,
    # estimate 1.71 ms a block and keep to one process; a linear replication costs
    # about half a logistic one, so a linear study forks from about twice as many.
    # Study I's cells of n = 100 and 1000 (0.067 and 0.201 ms a replication) are
    # weighed on their mean.
    cells, run = _study(study, n_reps)
    # a 2-worker block holds n_reps replications, one of each cell per rep
    block_ms = n_reps * sum(map(sim_harness._rep_ms, cells)) / len(cells)
    assert (block_ms >= sim_harness._FORK_FLOOR_MS[cells[0].family]) == bool(forks)
    called = counted_forks(monkeypatch)
    forked = run(2)
    monkeypatch.undo()
    assert len(called) == forks
    assert forked.rows == run(1).rows
    assert_no_child_left()


@two_cpus
def test_band_and_cv_fork_at_any_work(monkeypatch, deadline):
    # no floor: two replications or repeats on two workers fork one child
    data = synthetic_prostate()
    models = nested_sequence(1, 8)
    band = dict(n_sub=30, n_reps=2, sigma=0.5, seed=3)
    cv = dict(methods=("full_model", "avg_aic"), n_repeats=2, seed=3)
    forks = counted_forks(monkeypatch)
    forked_band = prediction_band(data.design, data.response, data.design[0], models, **band, workers=2)
    assert len(forks) == 1
    forked_cv = cv_compare(data, **cv, workers=2)
    assert len(forks) == 2
    monkeypatch.undo()
    assert forked_band == prediction_band(data.design, data.response, data.design[0], models, **band)
    assert forked_cv == cv_compare(data, **cv)
    assert_no_child_left()


@pytest.fixture
def blas_two_threads():
    """The loaded OpenBLAS's (get, set), set to two threads for the test; skips without one."""
    calls = _forked._blas_calls()
    if calls is None:
        pytest.skip("no OpenBLAS found among the process's loaded objects")
    get, set_ = calls
    previous = get()
    set_(2)
    try:
        if get() != 2:
            pytest.skip("this OpenBLAS does not run two threads")
        yield calls
    finally:
        set_(previous)


@two_cpus
def test_every_block_runs_on_one_blas_thread(deadline, blas_two_threads):
    get = blas_two_threads[0]
    rows = run_replications(per_index(lambda i: (os.getpid(), get())), 6, 2)
    assert [threads for _, threads in rows] == [1] * 6
    assert rows[0][0] == os.getpid() != rows[5][0]  # one child among them
    assert get() == 2
    assert_no_child_left()


@two_cpus
def test_blas_threads_are_restored_after_a_raise(deadline, blas_two_threads):
    get = blas_two_threads[0]
    parent = os.getpid()
    seen = []

    def task(i):
        if os.getpid() == parent:
            seen.append(get())
            raise ValueError(f"bad replication {i}")
        return i

    with pytest.raises(ValueError, match="bad replication 0"):
        run_replications(per_index(task), 4, 2)
    assert seen == [1] and get() == 2
    assert_no_child_left()


NO_CTYPES = """
import os
import sys
sys.modules["ctypes"] = None  # any import of ctypes now raises ImportError
import glmavg.cli
import glmavg._forked as _forked
import glmavg.sim_harness as sim_harness
from glmavg import run_study2

serial = run_study2("logistic", beta3_grid=(0.05, 0.5), n_reps=4, workers=1).rows
assert glmavg.cli.main(["study1", "--n-grid", "60", "--reps", "3", "--workers", "1"]) == 0
print(_forked._blas_calls.cache_info().currsize)
sim_harness._FORK_FLOOR_MS = dict.fromkeys(sim_harness._FORK_FLOOR_MS, 1e-9)
forked = run_study2("logistic", beta3_grid=(0.05, 0.5), n_reps=4, workers=2).rows
looked = _forked._blas_calls.cache_info().currsize == 1  # the forked path looks for OpenBLAS
print(forked == serial, looked == (len(os.sched_getaffinity(0)) > 1), _forked._blas_calls())
"""


def test_only_a_forked_run_looks_for_openblas(tmp_path):
    # numpy imports ctypes when it can; with ctypes refused, the CLI's import,
    # a serial study and a CLI run must not need it, and a forked run skips the
    # BLAS pin instead of failing
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", NO_CTYPES], env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.splitlines()[-2:] == ["0", "True True None"]
