"""Fixtures shared by the test modules."""

import pytest

import glmavg._forked as _forked
import glmavg.sim_harness as sim_harness


@pytest.fixture
def fork_any_work(monkeypatch):
    """Let the replication runner fork as many blocks as workers, n and the CPUs allow.

    The runner forks a block only above a floor of estimated work, which
    the small runs of a test seldom reach; a test that compares a forked
    run with a serial one, or checks which failure wins across processes,
    takes this fixture so that its forked side forks.
    """
    monkeypatch.setattr(_forked, "_FORK_FLOOR_MS", 1e-9)
    monkeypatch.setattr(sim_harness, "_PROCESS_MS", dict.fromkeys(sim_harness._PROCESS_MS, 0.0))
