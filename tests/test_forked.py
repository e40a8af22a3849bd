"""The forked replication runner: rows in index order, the earliest failure, no child left."""

import os
import signal
import threading
import time

import numpy as np
import pytest

import glmavg.sim_harness as sim_harness
from glmavg import CandidateModel, NonConvergenceError, StudyConfig, simulate_cell
from glmavg._forked import run_replications
from glmavg.sim_harness import STUDY2_X_STAR, study2_model_sets

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
def test_earliest_failure_wins(monkeypatch, deadline, failing, first):
    # 40 replications on 2 workers: the calling process runs reps 0-19, a child 20-39
    model = CandidateModel((0, 1), 1)
    original = sim_harness._draw

    def failing_draw(config, rep):
        if rep in failing:
            raise NonConvergenceError(f"separated at rep {rep}", model=model, iterations=rep)
        return original(config, rep)

    monkeypatch.setattr(sim_harness, "_draw", failing_draw)
    with pytest.raises(NonConvergenceError) as excinfo:
        simulate_cell(_config(), workers=2)
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
def test_workers_above_cpus_or_n_give_the_same_bits(workers):
    config = _config(family="logistic", n_reps=3)
    serial = simulate_cell(config, workers=1)
    wide = simulate_cell(config, workers=workers)
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
