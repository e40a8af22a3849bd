"""Wolfe's nearest-point algorithm in lockstep over a stack of weight QPs.

A study stack solves the ``optimal`` weights of all its replications
here at once (``averaging._average_stack``), each replication with the
bits that ``mse_weights.solve_simplex_qp`` gives it alone; every lone
solve, and each form of a stack too small to gain, stays on
``mse_weights._nearest_point``.  Both paths build the solver's points
with ``mse_weights._points`` and certify an answer with
``mse_weights._certificate``, on any leading axes, so the set-up and
the KKT certificate, with its tolerance, are written once.  A run
without bytecode caches, as every cold CLI call is, compiles each
module it imports, so the loop lives apart and is imported on the
first lockstep solve: in
``mse_weights.py``, the largest module, it raised the peak RSS of
``import glmavg`` by about 0.3 MB, and compiling it takes about 0.9 ms
that a CLI call, a ``predict`` or ``cv`` never needs.
"""

from __future__ import annotations

import math

import numpy as np

from .glm_fit import lapack_solve
from .mse_weights import _DROP_TOL, _GAP_TOL, SOLVER_MAX_ITER, _certificate, _points


def _by_size(sizes: np.ndarray):
    """(k, positions) for each distinct corral size k in ``sizes``; one size takes them all as a slice."""
    present = np.flatnonzero(np.bincount(sizes)).tolist()
    if len(present) == 1:
        yield present[0], slice(None)
        return
    for k in present:
        yield k, np.flatnonzero(sizes == k)


def _nearest_points(P: np.ndarray, sq_norms: np.ndarray):
    """``mse_weights._nearest_point`` on every slice of a stack P (m, K, d), in one lockstep loop, each slice with its bits.

    Each slice keeps its own corral, as a row of a padded index array in
    insertion order, its own weights, c, ``last`` and cycle count.  Every
    active slice makes its major cycle, then the slices that added a
    point make minor cycles until each has moved to its affine minimiser;
    a slice that stops leaves the active set.  In each cycle the active
    slices are grouped by corral size, and each group makes one gather
    of its corrals' points S (g, k, d), one stacked S S' and one
    ``lapack_solve``; the ratio test, the drops (a stable reorder of the
    kept entries) and c are whole-array operations.  Stacked ``matmul``
    and the gufuncs work slice by slice, on the shapes and in the order
    of the lone loop, and every other step is elementwise or exact, so a
    slice's weights and cycle count are its lone run's to the last bit.
    A drop renormalises w at the start of the slice's next minor cycle,
    once it is grouped with the slices of its new size, so that w's sum
    runs over its own entries as the lone sum does.

    Returns the weights (m, K), the major cycles (m,), and ``failed``
    (m,): the slices that met a singular corral system, a corral with
    more points than an affinely independent set holds, or no
    convergence in ``SOLVER_MAX_ITER`` major cycles.  Their weights mean
    nothing; ``solve_simplex_qp`` gives each its lone answer or error.
    """
    m, K, d = P.shape
    width = min(K, d + 1) + 1  # an affinely independent corral has at most d + 1 points, and one may enter
    stop = _GAP_TOL * sq_norms.max(axis=-1)
    corral = np.zeros((m, width), dtype=np.intp)
    corral[:, 0] = sq_norms.argmin(axis=-1)
    w = np.zeros((m, width))
    w[:, 0] = 1.0
    size = np.ones(m, dtype=np.intp)
    c = sq_norms.min(axis=-1)
    last = np.full(m, math.inf)
    cycles = np.zeros(m, dtype=np.intp)
    failed = np.zeros(m, dtype=bool)
    pending = np.zeros(m, dtype=bool)  # dropped points: w to renormalise and c to retake
    ones = np.ones((m, width))
    active = np.arange(m)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        for cycle in range(1, SOLVER_MAX_ITER + 1):
            x = np.empty((active.size, d))
            for k, at in _by_size(size[active]):
                i = active[at]
                x[at] = (w[i, None, :k] @ P[i[:, None], corral[i, :k]])[:, 0]
            g = ((P if active.size == m else P[active]) @ x[..., None])[..., 0]
            j = g.argmin(axis=-1)
            xx = np.vecdot(x, x)
            done = (xx - g.min(axis=-1) <= stop[active]) | (xx >= last[active])
            cycles[active[done]] = cycle
            crowded = ~done & (size[active] == width)
            failed[active[crowded]] = True
            going = ~(done | crowded)
            active, j = active[going], j[going]
            if not active.size:
                break
            last[active] = xx[going]
            corral[active, size[active]] = j
            c[active] = np.maximum(c[active], sq_norms[active, j])
            size[active] += 1
            minor = active
            while minor.size:
                moving = []
                for k, at in _by_size(size[minor]):
                    i = minor[at]
                    redo = i[pending[i]]
                    if redo.size:
                        w[redo, :k] /= w[redo, :k].sum(axis=-1, keepdims=True)
                        c[redo] = sq_norms[redo[:, None], corral[redo, :k]].max(axis=-1)
                        pending[redo] = False
                    S = P[i[:, None], corral[i, :k]]
                    A = S @ S.mT
                    A += c[i, None, None]
                    u = lapack_solve(A, ones[: i.size, :k])
                    total = u.sum(axis=-1)
                    broke = ~((0.0 < total) & (total < math.inf))
                    failed[i[broke]] = True
                    u /= total[:, None]
                    inside = ~broke & (u.min(axis=-1) > 0.0)
                    w[i[inside], :k] = u[inside]
                    out = ~(broke | inside)
                    if not out.any():
                        continue
                    i, u = i[out], u[out]
                    v = w[i, :k]
                    # ratio test: the largest step toward u that keeps every weight >= 0
                    # (each ratio is at most 1, so 1 in the other places is the lone default)
                    blocking = (u <= 0.0) & (v > u)
                    theta = np.where(blocking, v / (v - u), 1.0).min(axis=-1)
                    v += theta[:, None] * (u - v)
                    kept = v > _DROP_TOL
                    order = (np.arange(i.size)[:, None], np.argsort(~kept, axis=-1, kind="stable"))
                    w[i, :k] = np.where(kept, v, 0.0)[order]
                    corral[i, :k] = corral[i, :k][order]
                    size[i] = kept.sum(axis=-1)
                    pending[i] = True
                    moving.append(i)
                minor = np.concatenate(moving) if moving else active[:0]
            active = active[~failed[active]]
        else:
            failed[active] = True
    weights = np.zeros((m, K))
    held = np.arange(width) < size[:, None]
    weights[np.nonzero(held)[0], corral[held]] = w[held]
    return weights, cycles, failed


def _solve_stack(bias: np.ndarray, gram_factor: np.ndarray):
    """``mse_weights.solve_simplex_qp`` of every form of a stack (bias (m, K), gram_factor (m, rows, K)) at once.

    The lone solve's set-up (``mse_weights._points``) and KKT
    certificate (``mse_weights._certificate``) run once for the stack,
    on its leading axis, and the fast run of Wolfe's algorithm is one
    lockstep loop over its slices (``_nearest_points``).  A slice's
    weights, objective, cycle count and KKT residual are its lone
    solve's to the last bit.
    Returns those four arrays and ``lone`` (m,): the slices with
    non-finite entries, a failed fast run or no certificate, whose
    answer, from the Gram run, then the QR run, or whose error only
    ``solve_simplex_qp`` on that slice alone gives.
    """
    P, sq_norms, lone = _points(bias, gram_factor)
    m, K = bias.shape
    if K == 1:
        return np.ones((m, 1)), sq_norms[:, 0], np.zeros(m, dtype=np.intp), np.zeros(m), lone
    weights, cycles = np.zeros((m, K)), np.zeros(m, dtype=np.intp)
    finite = np.flatnonzero(~lone)
    if finite.size < m:
        P, sq_norms = P[finite], sq_norms[finite]
    weights[finite], cycles[finite], failed = _nearest_points(P, sq_norms)
    objective, residual = np.full(m, math.nan), np.full(m, math.nan)
    objective[finite], residual[finite], bound = _certificate(P, weights[finite], sq_norms)
    lone[finite] = failed | (residual[finite] > bound)
    return weights, objective, cycles, residual, lone
