"""Fixtures shared by the test modules."""

import pytest

import glmavg.sim_harness as sim_harness
from glmavg import GlmavgError


@pytest.fixture
def fork_any_work(monkeypatch):
    """Let a study fork as many blocks as workers, n and the CPUs allow.

    A study caps its workers so that each block holds its floor of
    estimated work, which the small runs of a test seldom reach; a
    test that compares a forked study with a serial one, or checks which
    failure wins across processes, takes this fixture so that its forked
    side forks.  ``band`` and ``cv`` fork whenever asked, with no fixture.
    """
    monkeypatch.setattr(sim_harness, "_FORK_FLOOR_MS", 1e-9)


@pytest.fixture
def change_draws(monkeypatch):
    """Patch a study's draws: ``change_draws(change)`` passes each replication's data through ``change``.

    ``change(config, rep, X, y)`` runs on every replication a study
    draws, after its chunk's draw (``sim_harness._draw``) and before its
    reduction, with that replication's slices of the chunk, which it may
    alter in place; a ``GlmavgError`` it raises becomes the
    replication's failure, as a failed draw's is.
    ``oracles.study_draw_reference(config, rep, change)`` draws the same
    data alone.
    """

    def patch(change):
        original = sim_harness._draw

        def draw(designs, chunk, streams, failures):
            X, y = original(designs, chunk, streams, failures)
            for (position, config, rep), X_j, y_j in zip(chunk, X, y):
                try:
                    change(config, rep, X_j, y_j)
                except GlmavgError as exc:
                    failures[position] = exc
            return X, y

        monkeypatch.setattr(sim_harness, "_draw", draw)

    return patch
