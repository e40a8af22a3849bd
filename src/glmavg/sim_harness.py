"""Seeded Monte Carlo studies of the averaging estimator.

Two stock experiments are provided:

* ``run_study1`` — bias/variance movement of the optimally-weighted
  averaging estimator against the oracle fit over a sample-size grid,
  on a 5 fixed + 5 optional coefficient design with a nested candidate
  ladder (optionally extended with the oracle model itself).
* ``run_study2`` — optimal vs smoothed-AIC weights (plus the oracle)
  for linear and logistic targets as the weakest coefficient sweeps a
  grid, with the candidate sets growing from the intercept upward.

A cell is one ``StudyConfig``: the data-generating process, the
candidate set and schemes, the oracle model and the cell's stream tags.
Both studies build and check every cell's config first, so a bad cell
(a negative seed included) raises before the first replication; one
private runner then simulates the cells and writes one summary row per
estimate column.  The oracle column is the oracle model's own fit on
each replication's draws, at x*: the predictor's fit when the oracle is
a candidate or, in the linear family, the full design, else one
``ols_fit`` or ``logistic_mle`` of its columns.  Replication r draws
its design and response from the stream ``substream(seed, *tags, r)``,
keyed once per cell, so reports are byte-identical across runs and
across worker counts.  A study lays all its cells' replications out rep
by rep (rep 0 of every cell, then rep 1, ...) in one
``run_replications`` call, which hands each process one contiguous
block holding the same share of every cell: the first block runs in the
calling process and the others in forked worker processes (see
``glmavg._forked``), with one fork per worker for the whole study; they
run serially when ``workers`` is 1, when the process may use one CPU
only, off Linux, or while another Python thread is alive.  In a block
(``_run_block``), each replication draws its data and factors [X_U | y]
on its n rows; a linear cell's replications are then fitted as stacks
of up to ``_STACK_REPS``, with one LAPACK call per model size and one
inverse per model size per stack, and each replication reads its slice
as its own predictor, whose Q-hat, simplex solves and estimates run per
replication.  A logistic replication is fitted on its own.  Every
estimate keeps the bits of one predictor fitted per replication.
Design matrices are redrawn each replication; the target covariate x*
is drawn once per study (Study I) or fixed to the stock values
(Study II) so the estimand is a constant.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .averaging import (
    SCHEMES,
    LinearAveragingPredictor,
    LogisticAveragingPredictor,
    fit_and_average_logistic,  # no longer called here; perfbench/tracer.py looks it up here
)
from ._forked import run_replications
from .errors import DataError, GlmavgError
from .glm_fit import expit, logistic_mle, ols_fit, require_finite
from .model_space import CandidateModel, ModelSet, nested_sequence
from .mse_weights import _full_index, _LinearDesigns, _LinearFits
from .rng import _checked_keys, substream

# The most linear replications of one cell fitted as one stack.  A stack
# holds about K p^2 doubles per replication, never the n-row designs.
# Measured on Study I (K = 7, p = 10; 256 replications, BLAS on one
# thread, 2-core x86-64 VM), ms per replication at n = 100 / 1000:
# stacks of 1: 0.469 / 0.612, 8: 0.203 / 0.347, 32: 0.165 / 0.305,
# 64: 0.160 / 0.295, 256: 0.155 / 0.294; one replication at a time,
# unstacked, took 0.417 / 0.568.
_STACK_REPS = 64

REPORT_COLUMNS = (
    "case",
    "family",
    "beta3",
    "n",
    "scheme",
    "truth",
    "mean_estimate",
    "error",
    "bias2",
    "variance",
    "mse",
)

STUDY1_BETA = (0.3, 0.3, 0.5, 0.1, 0.5, 0.0, 0.6, 0.0, 0.1, 0.0)
STUDY1_P_FIXED = 5
STUDY1_Q = 5
#: optional indices of the nonzero optional coefficients in STUDY1_BETA
STUDY1_ORACLE_SUPPORT = (1, 3)

# both families evaluate this covariate draw (its commonly-quoted
# 3-decimal form rounds this vector); using the full-precision values
# keeps every stock probability truth within 5e-4 of the reference
# column, which the rounded form misses at beta3=0.1
STUDY2_X_STAR = (1.0, -1.855445, -1.018565, -1.045111)
STUDY2_BETA_BASE = (0.3, 0.1, 0.3)
STUDY2_BETA3_GRID = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5)


@dataclass(frozen=True, eq=False)
class StudyConfig:
    """One Monte Carlo cell: a data-generating process plus estimation settings.

    ``oracle``, when given, adds an "oracle" estimate column: that
    model's own fit on each replication's draws, read from the predictor
    when the oracle is a candidate or, in the linear family, the full
    design (the predictor's ``beta_full``), and otherwise fitted on the
    oracle's columns alone, then evaluated at x* through the family's
    link, as ``truth`` is.  ``tags`` key the cell's streams (replication r draws
    from ``substream(seed, *tags, r)``; the keys are hashed once, here)
    and name a failing replication.
    The cell is checked here, so a bad one raises ``DataError`` before
    any draw: the oracle must share the candidate set's ``p_fixed`` and
    index only below its ``q``, and the seed and integer tags must be
    non-negative.

    A config compares and hashes by identity: two configs built apart
    from equal values are two cells, unequal, each usable as a dict key.
    The generated field-wise ``==`` and ``hash`` would raise on the array
    fields.
    """

    family: str
    n: int
    beta_true: np.ndarray
    candidate_set: ModelSet
    x_star: np.ndarray
    n_reps: int
    seed: int
    schemes: tuple[str, ...] = ("optimal",)
    oracle: CandidateModel | None = None
    tags: tuple = ()

    def __post_init__(self):
        if self.family not in ("linear", "logistic"):
            raise DataError(f"unknown family {self.family!r}")
        beta = np.array(self.beta_true, dtype=float)
        x = np.array(self.x_star, dtype=float)
        total = self.candidate_set.p_fixed + self.candidate_set.q
        if beta.shape != (total,) or x.shape != (total,):
            raise DataError("beta_true and x_star must have length p_fixed + q")
        require_finite("beta_true and x_star", beta, x)
        largest = max(m.dim for m in self.candidate_set)
        if self.n < largest + 1:
            raise DataError(f"n={self.n} too small for a {largest}-parameter candidate")
        if self.n_reps < 1:
            raise DataError("n_reps must be at least 1")
        if not self.schemes:
            raise DataError("schemes is empty; a cell needs at least one weighting scheme")
        unknown = [scheme for scheme in self.schemes if scheme not in SCHEMES]
        if unknown:
            raise DataError(f"unknown weighting schemes {unknown}; expected a subset of {SCHEMES}")
        if len(set(self.schemes)) < len(self.schemes):
            raise DataError(f"weighting schemes {list(self.schemes)} name a scheme more than once")
        if self.oracle is not None and (
            self.oracle.p_fixed != self.candidate_set.p_fixed
            or any(j >= self.candidate_set.q for j in self.oracle.included)
        ):
            raise DataError(
                f"oracle {self.oracle} is not a model over the candidate set's "
                f"p_fixed={self.candidate_set.p_fixed}, q={self.candidate_set.q}"
            )
        # the cell's stream keys, hashed once: replication r draws from substream(*keys, r)
        object.__setattr__(self, "_keys", _checked_keys(self.seed, *self.tags))
        # the oracle's index among the candidates, or None
        models = self.candidate_set.models
        object.__setattr__(self, "_oracle_k", models.index(self.oracle) if self.oracle in models else None)
        beta.flags.writeable = False
        x.flags.writeable = False
        object.__setattr__(self, "beta_true", beta)
        object.__setattr__(self, "x_star", x)

    @property
    def truth(self) -> float:
        eta = float(self.x_star @ self.beta_true)
        return float(expit(eta)) if self.family == "logistic" else eta

    @property
    def columns(self) -> tuple[str, ...]:
        """The estimate columns: one per scheme, then the oracle's."""
        oracle = ("oracle",) if self.oracle is not None else ()
        return (*self.schemes, *oracle)


@dataclass
class StudyReport:
    """Plot-ready table of per-cell Monte Carlo summaries.

    ``rows`` holds one dict per cell and estimate column, keyed by
    ``REPORT_COLUMNS`` (a Study I row's ``beta3`` is None).  The CLI
    writes them as ``dataio.csv_text(REPORT_COLUMNS, rows)``, or as the
    JSON ``{"columns": REPORT_COLUMNS, "rows": rows}``.
    """

    rows: list[dict] = field(default_factory=list)

    def select(self, **conditions) -> list[dict]:
        """Rows matching all the given column values."""
        return [r for r in self.rows if all(r.get(k) == v for k, v in conditions.items())]


# ---------------------------------------------------------------------------
# generic cell runner
# ---------------------------------------------------------------------------


def _draw(config: StudyConfig, rep: int):
    """Replication ``rep``'s design and response, from the stream ``substream(seed, *tags, rep)``."""
    rng = substream(*config._keys, rep)
    n = config.n
    X = np.column_stack([np.ones(n), rng.standard_normal((n, config.beta_true.shape[0] - 1))])
    eta = X @ config.beta_true
    if config.family == "linear":
        y = eta + rng.standard_normal(n)
    else:
        y = (rng.random(n) < expit(eta)).astype(float)
    return X, y


def _own_oracle(config: StudyConfig) -> bool:
    """Whether the oracle needs a fit of its own: it is neither a candidate nor, in the linear family, the full design."""
    oracle = config.oracle
    if oracle is None or config._oracle_k is not None:
        return False
    return config.family == "logistic" or oracle.dim < config.x_star.shape[0]


def _oracle_fit(config: StudyConfig, X: np.ndarray, y: np.ndarray) -> float:
    """The oracle's value at x* from one fit of its own columns on (X, y)."""
    cols = config.oracle.column_indices()
    # through this module's ols_fit and logistic_mle: the names perfbench/tracer.py wraps
    if config.family == "linear":
        return float(config.x_star[cols] @ ols_fit(X[:, cols], y, model=config.oracle).beta)
    fit = logistic_mle(X[:, cols], y, model=config.oracle)
    return float(expit(float(config.x_star[cols] @ fit.beta)))


def _estimates(config: StudyConfig, predictor, oracle_fit) -> list[float]:
    """One replication's estimates from its predictor, one per ``config.columns``.

    ``oracle_fit()`` gives the oracle's value when ``_own_oracle`` holds.
    """
    x_star = config.x_star
    values = [predictor.predict(x_star, scheme).value for scheme in config.schemes]
    if config._oracle_k is not None:
        # the oracle is a candidate, so the predictor has fit it already
        values.append(float(predictor.per_model_values(x_star)[config._oracle_k]))
    elif _own_oracle(config):
        values.append(oracle_fit())
    elif config.oracle is not None:
        # the full design, which the linear predictor has fit already
        values.append(float(x_star[config.oracle.column_indices()] @ predictor.beta_full))
    return values


def _logistic_replication(config: StudyConfig, rep: int) -> list[float]:
    """One logistic replication's estimates, one per ``config.columns``."""
    X, y = _draw(config, rep)
    predictor = LogisticAveragingPredictor(X, y, config.candidate_set)
    return _estimates(config, predictor, lambda: _oracle_fit(config, X, y))


def _returned(result):
    """``result``, or raise it when it is an error."""
    if isinstance(result, GlmavgError):
        raise result
    return result


def _linear_stack(config: StudyConfig, members, rows: list, failures: dict) -> None:
    """Fit a linear cell's replications as one stack and average each; fill ``rows`` and ``failures``.

    ``members`` are (position, rep) pairs.  Each replication draws its
    data and makes its n-row QRs (``_LinearDesigns.factors``), and fits
    an oracle of its own (``_oracle_fit``) while it has its draws; then
    one ``_LinearFits`` over the stack of R factors makes every
    candidate's QR, guard, solve and, on the first ``q_form``, inverse
    Gram, with the bits of ``LinearQFactory`` on one training set.  Each
    replication then reads its slice as its own predictor
    (``LinearAveragingPredictor._from_stack``), which raises its fit's
    error and averages as a predictor fitted alone does.  A
    replication's ``GlmavgError`` goes to ``failures[position]``: the
    first raised in the order of a lone replication (its fit, then its
    schemes in order, then its oracle).
    """
    models = config.candidate_set.models
    p = config.x_star.shape[0]
    cols = [model.columns for model in models]
    designs = _LinearDesigns(cols, _full_index(cols, p), p)
    factors, oracles = [None] * len(members), [None] * len(members)
    for j, (position, rep) in enumerate(members):
        try:
            X, y = _draw(config, rep)
            require_finite("design and response", X, y)
        except GlmavgError as exc:
            failures[position] = exc
            continue
        factors[j] = designs.factors(X, y)
        if _own_oracle(config):
            try:
                oracles[j] = _oracle_fit(config, X, y)
            except GlmavgError as exc:
                oracles[j] = exc
    drawn = [f for f in factors if f is not None]
    if not drawn:
        return
    # a replication whose draw failed stacks another's factors, and its failure stands
    factors = [drawn[0] if f is None else f for f in factors]
    R_aug, R_full = (None if parts[0] is None else np.stack(parts) for parts in zip(*factors))
    fits = _LinearFits(designs, R_aug, R_full, config.n)
    for j, (position, _) in enumerate(members):
        if position in failures:  # its draw failed
            continue
        try:
            predictor = LinearAveragingPredictor._from_stack(models, fits, j)
            rows[position] = _estimates(config, predictor, functools.partial(_returned, oracles[j]))
        except GlmavgError as exc:
            failures[position] = exc


def _run_block(cells) -> list[list[float]]:
    """The estimates of each (config, rep) of ``cells``, one contiguous block of a study's layout.

    A linear cell's replications in the block are fitted in stacks of
    at most ``_STACK_REPS`` (``_linear_stack``); a logistic cell's one
    replication at a time.  The failure at the earliest position of
    ``cells`` is raised, whatever the stage it failed in, with the
    replication's key, the config's tags and the rep, appended to its
    message, e.g. ``('study2', 'logistic', 'A', '0.05', rep 17)``; its
    class and attributes are kept.
    """
    rows, failures = [None] * len(cells), {}
    by_config = {}  # configs compare by identity
    for position, (config, rep) in enumerate(cells):
        by_config.setdefault(config, []).append((position, rep))
    for config, members in by_config.items():
        step = _STACK_REPS if config.family == "linear" else 1
        for start in range(0, len(members), step):
            if failures and members[start][0] > min(failures):
                break  # an earlier replication has failed already
            if config.family == "linear":
                _linear_stack(config, members[start : start + step], rows, failures)
                continue
            position, rep = members[start]
            try:
                rows[position] = _logistic_replication(config, rep)
            except GlmavgError as exc:
                failures[position] = exc
    if failures:
        position = min(failures)
        exc, (config, rep) = failures[position], cells[position]
        key = ", ".join([*map(repr, config.tags), f"rep {rep}"])
        exc.args = (f"{exc} in replication ({key})",)
        raise exc
    return rows


def _simulate(configs, workers: int) -> list[dict[str, np.ndarray]]:
    """Every replication estimate of each config, in one ``run_replications`` call.

    The configs share ``n_reps``, as a study's cells do.  The
    replications are laid out rep by rep (rep 0 of every cell, then rep
    1, ...), so each contiguous block of the run holds the same share of
    every cell, whatever a cell's n makes it cost; ``_run_block`` runs a
    block.  The earliest failing (rep, cell) in that order is raised,
    for every ``workers``.  Each cell's rows are then taken back in
    order and keyed by its ``columns``.
    """
    count, n_reps = len(configs), configs[0].n_reps
    assert all(config.n_reps == n_reps for config in configs)

    def block_rows(block):
        return _run_block([(configs[i % count], i // count) for i in block])

    rows = run_replications(block_rows, count * n_reps, workers)
    return [dict(zip(config.columns, np.asarray(rows[c::count], dtype=float).T)) for c, config in enumerate(configs)]


def simulate_cell(config: StudyConfig, *, workers: int = 1) -> dict[str, np.ndarray]:
    """All replication estimates for one cell, keyed by ``config.columns``.

    This is the studies' runner on one config.  The output is a
    deterministic function of ``config``, bit for bit the same for every
    ``workers``: up to ``workers`` processes run contiguous blocks of
    replications (serially when ``workers`` is 1, on one usable CPU, off
    Linux, or while another Python thread is alive), and the rows are
    joined in index order.  ``workers`` below 1 raises ``DataError``
    before any replication.  A ``GlmavgError`` raised in a replication
    is re-raised with that replication's key, the config's tags and the
    rep index, appended to its message, e.g.
    ``('study2', 'logistic', 'A', '0.05', rep 17)``; its class and
    attributes are kept, and the earliest failing replication wins.
    """
    return _simulate([config], workers)[0]


def _check_grid(name: str, values) -> None:
    """DataError unless a study grid has at least one value and no value twice."""
    seen = set()
    for value in values:
        if value in seen:
            raise DataError(f"{name} names {value} more than once")
        seen.add(value)
    if not seen:
        raise DataError(f"{name} is empty")


def _check_cases(cases, model_sets: dict[str, ModelSet]) -> None:
    _check_grid("cases", cases)
    unknown = [case for case in cases if case not in model_sets]
    if unknown:
        raise DataError(f"unknown cases {unknown}; expected a subset of {sorted(model_sets)}")


def _run_cells(cells, workers: int) -> StudyReport:
    """Simulate every (config, labels) cell and summarise its estimate columns.

    All the cells' replications go through one ``run_replications``
    call (``_simulate``), so a study forks once per worker, not once per
    cell, and a failure names the earliest failing (rep, cell).
    Each row starts with the cell's ``labels`` (case, family, beta3, n in
    that order), then its ``scheme``; the configs come built, hence
    checked, so a bad cell raises before the first replication.
    """
    report = StudyReport()
    configs = [config for config, _ in cells]
    for (config, labels), estimates in zip(cells, _simulate(configs, workers)):
        for name in config.columns:
            report.rows.append(_summary_row(estimates[name], config.truth, **labels, scheme=name))
    return report


def _summary_row(estimates: np.ndarray, truth: float, **labels) -> dict:
    mean = float(np.mean(estimates))
    bias2 = (mean - truth) ** 2
    variance = float(np.mean((estimates - mean) ** 2))
    mse = float(np.mean((estimates - truth) ** 2))
    row = dict(labels)
    row.update(
        truth=truth,
        mean_estimate=mean,
        error=math.sqrt(mse),
        bias2=bias2,
        variance=variance,
        mse=mse,
    )
    return row


# ---------------------------------------------------------------------------
# stock studies
# ---------------------------------------------------------------------------


def study1_model_sets() -> dict[str, ModelSet]:
    """Case A: the 6-model nested ladder plus the oracle model; case B: the ladder alone."""
    nested = nested_sequence(STUDY1_P_FIXED, STUDY1_Q)
    oracle = CandidateModel(STUDY1_ORACLE_SUPPORT, STUDY1_P_FIXED)
    return {
        "A": ModelSet(list(nested) + [oracle], STUDY1_Q),
        "B": nested,
    }


def run_study1(
    n_grid=tuple(range(100, 1001, 100)),
    cases=("A", "B"),
    *,
    n_reps: int = 1000,
    seed: int = 0,
    workers: int = 1,
) -> StudyReport:
    """Bias/variance comparison of optimal-weight averaging vs the oracle fit.

    Every cell is checked before the first replication runs; an empty
    ``cases`` or ``n_grid``, or one naming a value twice, raises
    ``DataError``.
    ``workers`` splits the replications of all the cells, in one run,
    as ``simulate_cell`` splits a cell's; the report is byte-identical
    for every value, and a value below 1 raises ``DataError`` before any
    replication runs.
    """
    beta = np.asarray(STUDY1_BETA)
    x_star = np.concatenate(
        [[1.0], substream(seed, "study1", "x_star").standard_normal(len(beta) - 1)]
    )
    oracle = CandidateModel(STUDY1_ORACLE_SUPPORT, STUDY1_P_FIXED)
    model_sets = study1_model_sets()
    _check_cases(cases, model_sets)
    _check_grid("n_grid", n_grid)
    for n in n_grid:
        if not float(n).is_integer():
            raise DataError(f"sample size n must be an integer, got {float(n)!r}")

    cells = [
        (
            StudyConfig(
                family="linear",
                n=int(n),
                beta_true=beta,
                candidate_set=model_sets[case],
                x_star=x_star,
                n_reps=n_reps,
                seed=seed,
                schemes=("optimal",),
                oracle=oracle,
                tags=("study1", case, int(n)),
            ),
            dict(case=case, family="linear", beta3=None, n=int(n)),
        )
        for case in cases
        for n in n_grid
    ]
    return _run_cells(cells, workers)


def study2_model_sets() -> dict[str, ModelSet]:
    """Intercept-up candidate ladders; case A includes the largest (true) model."""
    ladder = [
        CandidateModel((), 1),
        CandidateModel((0,), 1),
        CandidateModel((0, 1), 1),
        CandidateModel((0, 1, 2), 1),
    ]
    return {"A": ModelSet(ladder, 3), "B": ModelSet(ladder[:3], 3)}


def run_study2(
    family: str = "linear",
    beta3_grid=STUDY2_BETA3_GRID,
    cases=("A", "B"),
    schemes=("optimal", "aic"),
    *,
    n_reps: int = 500,
    seed: int = 0,
    workers: int = 1,
) -> StudyReport:
    """Optimal vs AIC weighting, and the oracle, as the weakest coefficient varies.

    Every cell has n = 100 observations at x* = ``STUDY2_X_STAR`` and
    reports one row per scheme, then one for the oracle (the full
    4-coefficient model, fit on the same draws).  Every cell is checked
    before the first replication runs; an unknown ``family``, an empty
    ``cases`` or ``beta3_grid``, or one naming a value twice, and empty
    or repeated ``schemes`` raise ``DataError``.
    ``workers`` splits the replications of all the cells, in one run,
    as ``simulate_cell`` splits a cell's; the report is byte-identical
    for every value, and a value below 1 raises ``DataError`` before any
    replication runs.
    """
    model_sets = study2_model_sets()
    _check_cases(cases, model_sets)
    _check_grid("beta3_grid", beta3_grid)
    # every coefficient of the generating vector is nonzero, so the
    # oracle support is the full 4-coefficient model in both cases
    oracle = CandidateModel((0, 1, 2), 1)

    cells = [
        (
            StudyConfig(
                family=family,
                n=100,
                beta_true=np.asarray(STUDY2_BETA_BASE + (float(beta3),)),
                candidate_set=model_sets[case],
                x_star=STUDY2_X_STAR,
                n_reps=n_reps,
                seed=seed,
                schemes=tuple(schemes),
                oracle=oracle,
                tags=("study2", family, case, repr(float(beta3))),
            ),
            dict(case=case, family=family, beta3=float(beta3), n=100),
        )
        for case in cases
        for beta3 in beta3_grid
    ]
    return _run_cells(cells, workers)
