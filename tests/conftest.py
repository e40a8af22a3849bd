"""Fixtures shared by the test modules."""

import pytest

import glmavg.sim_harness as sim_harness


@pytest.fixture
def fork_any_work(monkeypatch):
    """Let a study fork as many blocks as workers, n and the CPUs allow.

    A study caps its workers so that each block holds its family's floor
    of estimated work, which the small runs of a test seldom reach; a
    test that compares a forked study with a serial one, or checks which
    failure wins across processes, takes this fixture so that its forked
    side forks.  ``band`` and ``cv`` fork whenever asked, with no fixture.
    """
    monkeypatch.setattr(sim_harness, "_FORK_FLOOR_MS", dict.fromkeys(sim_harness._FORK_FLOOR_MS, 1e-9))
