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
estimate column.  The harness never branches on the family: each
family's designs (``_PREDICTORS[family]._Designs``) are its one record,
with its link (``truth``), its response law (``_draw``), its cost per
replication (``_rep_ms``) and its oracle fit.  The oracle column is the
oracle model's own fit on each replication's draws, at x*, which the
stack's fit gives (``_Fits.oracle_values``): the candidates' values
when the oracle is a candidate, else the one fit of its design in the
designs' list, made once for the whole stack: the full design's, which
the plug-in's ``beta_full`` reads too, or its own columns' (linear:
each replication's R factor of its columns, reduced once per stack;
logistic: one more stacked MLE), with the bits of a lone ``ols_fit``
or ``logistic_mle``.
Replication r draws its design and response from the stream
``substream(seed, *tags, r)``, keyed once per cell, so reports are
byte-identical across runs and across worker counts; a stack draws a
cell's replications from one generator re-keyed per replication
(``rng._stack_streams``), with ``substream``'s bits.  A study lays all
its cells' replications out rep by rep (rep 0 of every cell, then rep
1, ...) in one ``run_replications`` call, which hands each process one
contiguous block holding the same share of every cell: the first block
runs in the calling process and the others in forked worker processes
(see ``glmavg._forked``), with one fork per worker for the whole study; they
run serially when ``workers`` is 1, when the process may use one CPU
only, off Linux, while another Python thread is alive, or when a
block's estimated work (``_rep_ms``) is below the study's floor of work
per process (``_FORK_FLOOR_MS``).  In a block (``_run_block``), the
replications that share a design (the family, n, the candidates, the
oracle and x*) are stacked together, across cells, so the cells of a
beta3 grid share their stacks; each group is cut into
stacks by ``averaging._stacks`` (the fewest of up to
``averaging._STACK_REPS``, whatever the family, their sizes differing by
one at most) and run through one routine (``_fit_stack``).  Each
replication draws its data and keeps what its family's fit needs: a
linear one factors [X_U | y] on its n rows (and an oracle's own
columns), a logistic one keeps its design and response.  The stack is
then fitted at once (``averaging._fit_average_stack``, which ``band``
runs too), with one
LAPACK call per model size (linear) or one damped Newton loop per
candidate (logistic), and one inverse per model size or candidate for
the plug-in.  One averaging pass
(``averaging._average_stack``) then makes the per-model values, Q-hat
and the AIC weights for the whole stack, and solves its weights in one
lockstep loop (``_lockstep._solve_stack``), or one replication at a
time in a stack of fewer than ``averaging._LOCKSTEP_MIN``; only the
weighted sums, and a lone solve for a form the loop cannot certify,
run per replication.  Every estimate keeps the bits of one predictor
fitted per replication.
Design matrices are redrawn each replication; the target covariate x*
is drawn once per study (Study I) or fixed to the stock values
(Study II) so the estimand is a constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .averaging import (
    _PREDICTORS,
    SCHEMES,
    _stacks,
    _fit_average_stack,
    fit_and_average_logistic,  # no longer called here; perfbench/tracer.py looks it up here
)
from ._forked import run_replications
from .errors import DataError, GlmavgError, _returned
from .glm_fit import (
    _checked_names,
    _frozen,
    _integer,
    # no longer called here; perfbench/tracer.py looks them up here
    logistic_mle,
    ols_fit,
    require_finite,
)
from .model_space import CandidateModel, ModelSet, nested_sequence
from .rng import _checked_keys, _stack_streams, substream

# A study forks a block only when its estimated work (``_rep_ms``) reaches
# this many milliseconds.  ``tools/fork_floor.py`` (four runs, medians of
# 31 each, BLAS on one thread, 2-core x86-64 VM), forked time over serial
# time by estimated block work, on two Study II case A cells: linear
# 1.08-1.14 at 1.78 ms (50 a cell), 1.00-1.07 at 2.14 ms (60), 0.94-1.03
# at 2.49 ms (70), 0.91 at 2.85 ms (80), 0.87-0.91 from 3.2 ms up;
# logistic 1.10 at 1.71 ms (25), 1.01-1.02 at 2.05 ms (30), 0.93-0.98 at
# 2.39 ms (35), 0.87-0.93 at 2.74 ms (40); 0.53-0.78 from 4.8 ms up (the
# stock grids, criterion 7's Study I run).  An empty 2-block fork costs
# about 1.5 ms.  Both families break even near 2.1 ms, and a block that
# only breaks even keeps to one process.
_FORK_FLOOR_MS = 2.3

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

    ``family`` names one of ``averaging._PREDICTORS``, whose ``_Designs``
    are the family's record: ``truth`` is the family's link at x*'beta,
    and a replication's response follows its response law.  ``oracle``,
    when given, adds an "oracle" estimate column: that model's own fit
    on each replication's draws at x*, through the family's link, as
    ``truth`` is.  The designs take the oracle and fit it with the
    stack (``_Fits.oracle_values``): they read the candidates' fit when
    the oracle is a candidate, the full design's one fit, which the
    plug-in reads too, when it is the full design, and otherwise the fit
    of the oracle's columns alone.  ``tags`` key the cell's streams (replication r draws from
    ``substream(seed, *tags, r)``; the keys are hashed once, here) and
    name a failing replication.
    The cell is checked here, so a bad one raises ``DataError`` before
    any draw: ``beta_true`` and ``x_star`` must be finite vectors of
    length p_fixed + q (kept as read-only copies), ``n`` and ``n_reps``
    integers (numpy integers pass), ``n_reps`` at least 1, ``schemes``
    a non-empty selection of ``SCHEMES`` with no scheme twice, the
    oracle must share the candidate set's ``p_fixed`` and index only
    below its ``q``, and the seed and integer tags must be non-negative.

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
        if self.family not in _PREDICTORS:
            raise DataError(f"unknown family {self.family!r}")
        # the family's record: its link, response law and designs
        object.__setattr__(self, "_family", _PREDICTORS[self.family]._Designs)
        beta, x = _frozen(self.beta_true), _frozen(self.x_star)
        total = self.candidate_set.p_fixed + self.candidate_set.q
        if beta.shape != (total,) or x.shape != (total,):
            raise DataError("beta_true and x_star must have length p_fixed + q")
        require_finite("beta_true and x_star", beta, x)
        object.__setattr__(self, "n", _integer(self.n, "n"))
        object.__setattr__(self, "n_reps", _integer(self.n_reps, "n_reps", 1))
        largest = max(m.dim for m in self.candidate_set)
        if self.n < largest + 1:
            raise DataError(f"n={self.n} too small for a {largest}-parameter candidate")
        _checked_names("weighting schemes", self.schemes, SCHEMES)
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
        # what the replications of one stack share: the family, n, the candidates, the oracle and x* (hence p)
        models = tuple(self.candidate_set.models)
        object.__setattr__(self, "_design", (self.family, self.n, models, self.oracle, x.tobytes()))
        object.__setattr__(self, "beta_true", beta)
        object.__setattr__(self, "x_star", x)

    @property
    def truth(self) -> float:
        return float(self._family.link(float(self.x_star @ self.beta_true)))

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


def _draw(config: StudyConfig, rep: int, rng: np.random.Generator):
    """Replication ``rep``'s design and response, from ``rng``: the stream ``substream(seed, *tags, rep)``, unread.

    ``_fit_stack`` re-keys one generator per cell of a stack.  The
    response follows the family's law (``_Designs.respond``) about
    eta = X beta.
    """
    n = config.n
    X = np.column_stack([np.ones(n), rng.standard_normal((n, config.beta_true.shape[0] - 1))])
    return X, config._family.respond(X @ config.beta_true, rng)


def _fit_stack(designs, members, rows: list, failures: dict) -> None:
    """Fit and average a stack of replications that share a design; fill ``rows`` and ``failures``.

    ``designs`` are the family's designs (the predictor's ``_Designs``,
    with the configs' oracle) and ``members`` (position, config, rep)
    triples whose configs share the family, n, the candidates, the
    oracle and x*; they may come from several cells.  Each replication
    draws its data and keeps what the fit needs (``designs.reduce``: a
    linear replication its n-row QRs, an oracle's of its own columns
    among them, a logistic one its design and response).  Then one
    stacked fit and one averaging pass (``averaging._fit_average_stack``,
    the routine ``band`` runs too) make every candidate's fit for all of
    them at once (the linear QRs, guards and solves with one LAPACK call
    per model size, the logistic MLEs with one damped Newton loop per
    candidate), the per-model values, Q-hat, the AIC weights and, from
    ``averaging._LOCKSTEP_MIN`` replications up, the weight solves; only
    the weighted sums and any lone solves run per replication.  The
    oracle column is the fit's ``oracle_values``, made once for the
    stack.  Every estimate keeps the bits of one predictor fitted per
    replication.  A replication's ``GlmavgError`` goes to
    ``failures[position]``: the first raised in the order of a lone
    replication (its draw, its fit, its schemes in order, then its
    oracle).
    """
    cell_reps = {}
    for _, config, rep in members:
        cell_reps.setdefault(config, []).append(rep)
    # each cell's streams, one re-keyed generator per cell (``rng._stack_streams``)
    streams = {config: _stack_streams(config._keys, reps) for config, reps in cell_reps.items()}
    drawn, parts = [], []
    for position, config, rep in members:
        try:
            X, y = _draw(config, rep, next(streams[config]))
            require_finite("design and response", X, y)
            parts.append(designs.reduce(X, y))
        except GlmavgError as exc:
            failures[position] = exc
            continue
        drawn.append((position, config))
    if not drawn:
        return
    first = drawn[0][1]
    schemes = [config.schemes for _, config in drawn]
    fits, slices, values, results = _fit_average_stack(designs, parts, first.n, first.x_star, schemes)
    oracle, oracle_failures = (None, {}) if designs.oracle is None else fits.oracle_values(first.x_star, values)
    for (position, _), i, result in zip(drawn, slices, results):
        try:
            estimates = [estimate for estimate, *_ in _returned(result)]
            if oracle is not None:
                estimates.append(float(_returned(oracle_failures.get(i, oracle[i]))))
            rows[position] = estimates
        except GlmavgError as exc:
            failures[position] = exc


def _run_block(cells) -> list[list[float]]:
    """The estimates of each (config, rep) of ``cells``, one contiguous block of a study's layout.

    The block's replications are grouped by design (``config._design``),
    across cells: a study's cells that differ only in the generating
    coefficients, as the stock beta3 grid's do, share their stacks.
    Each group is cut by the one stack-cut policy
    (``averaging._stacks``: the fewest stacks of at most
    ``_STACK_REPS`` sets and ``_STACK_DOUBLES`` doubles, their sizes
    differing by one at most), whatever its family, and each stack is
    fitted and averaged by ``_fit_stack``.  The failure at the
    earliest position of ``cells`` is raised, whatever the stage it failed in,
    with the replication's key, the config's tags and the rep, appended
    to its message, e.g. ``('study2', 'logistic', 'A', '0.05', rep 17)``;
    its class and attributes are kept.
    """
    rows, failures = [None] * len(cells), {}
    groups = {}
    for position, (config, rep) in enumerate(cells):
        groups.setdefault(config._design, []).append((position, config, rep))
    for members in groups.values():
        config = members[0][1]
        designs = config._family(config.candidate_set.models, config.x_star.shape[0], config.oracle)
        for stack in _stacks(designs, config.n, members):
            if failures and stack[0][0] > min(failures):
                break  # an earlier replication has failed already
            _fit_stack(designs, stack, rows, failures)
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
    order and keyed by its ``columns``.  ``workers`` is capped at
    ``_block_cap``, so a thin study runs in one process.
    """
    count, n_reps = len(configs), configs[0].n_reps
    assert all(config.n_reps == n_reps for config in configs)

    def block_rows(block):
        return _run_block([(configs[i % count], i // count) for i in block])

    rows = run_replications(block_rows, count * n_reps, min(_integer(workers, "workers", 1), _block_cap(configs)))
    return [dict(zip(config.columns, np.asarray(rows[c::count], dtype=float).T)) for c, config in enumerate(configs)]


def _block_cap(configs) -> int:
    """The most blocks a study of ``configs`` is split into: each must hold ``_FORK_FLOOR_MS`` of work.

    A block's estimated work is its length times the cells' mean
    ``_rep_ms``.
    """
    n = len(configs) * configs[0].n_reps
    mean_ms = sum(map(_rep_ms, configs)) / len(configs)
    return max(1, int(n * mean_ms / _FORK_FLOOR_MS))


def _rep_ms(config: StudyConfig) -> float:
    """An estimate of one replication's milliseconds in a stack of ``config``'s cell.

    Its family's ``rep_ms`` gives the milliseconds per candidate and per
    design entry (n x p), fitted to the added cost of a replication in
    cells of 50 and 200, each cell one stack (BLAS on one thread, 2-core
    x86-64 VM, two runs of medians of 21): linear, Study I case A at
    n = 100 / 1000 / 3000 0.066 / 0.200 / 0.50 ms (model: 0.067 / 0.201
    / 0.500), Study II case A at n = 100 0.036 (0.035); logistic, Study
    II case A at n = 100 / 400 / 1000 0.068 / 0.205 / 0.46 (0.068 /
    0.200 / 0.464), the Study I ladder with an oracle of its own at
    n = 200 / 1000 0.36 / 1.46 (0.257 / 1.144), in stacks that
    ``_STACK_DOUBLES`` cuts.  ``tools/fork_floor.py`` prints the
    estimate beside each run.
    """
    per_model, per_entry = config._family.rep_ms
    return per_model * len(config.candidate_set.models) + per_entry * config.n * config.x_star.shape[0]


def simulate_cell(config: StudyConfig, *, workers: int = 1) -> dict[str, np.ndarray]:
    """All replication estimates for one cell, keyed by ``config.columns``.

    This is the studies' runner on one config.  The output is a
    deterministic function of ``config``, bit for bit the same for every
    ``workers``: up to ``workers`` processes run contiguous blocks of
    replications (serially when ``workers`` is 1, on one usable CPU, off
    Linux, while another Python thread is alive, or below the study's
    floor of work per process), and the rows are joined in index order.
    A ``workers`` that is no integer, or below 1, raises ``DataError``
    before any replication.  A ``GlmavgError`` raised in a replication
    is re-raised with that replication's key, the config's tags and the
    rep index, appended to its message, e.g.
    ``('study2', 'logistic', 'A', '0.05', rep 17)``; its class and
    attributes are kept, and the earliest failing replication wins.
    """
    return _simulate([config], workers)[0]


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
    ``cases`` or ``n_grid``, one naming a value twice, or an unknown case
    raises ``DataError``.
    ``workers`` splits the replications of all the cells, in one run,
    as ``simulate_cell`` splits a cell's (serially when ``workers`` is 1,
    on one usable CPU, off Linux, while another Python thread is alive,
    or below the study's floor of work per process); the report is
    byte-identical for every value, and one that is no integer, or below
    1, raises ``DataError`` before any replication runs.
    """
    x_star = np.concatenate(
        [[1.0], substream(seed, "study1", "x_star").standard_normal(len(STUDY1_BETA) - 1)]
    )
    oracle = CandidateModel(STUDY1_ORACLE_SUPPORT, STUDY1_P_FIXED)
    model_sets = study1_model_sets()
    _checked_names("cases", cases, sorted(model_sets))
    _checked_names("n_grid", n_grid)
    for n in n_grid:
        if not float(n).is_integer():
            raise DataError(f"sample size n must be an integer, got {float(n)!r}")

    cells = [
        (
            StudyConfig(
                family="linear",
                n=int(n),
                beta_true=STUDY1_BETA,
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
    ``cases`` or ``beta3_grid``, one naming a value twice, an unknown
    case, and empty, unknown or repeated ``schemes`` raise ``DataError``.
    ``workers`` splits the replications of all the cells, in one run,
    as ``simulate_cell`` splits a cell's (serially when ``workers`` is 1,
    on one usable CPU, off Linux, while another Python thread is alive,
    or below the study's floor of work per process); the report is
    byte-identical for every value, and one that is no integer, or below
    1, raises ``DataError`` before any replication runs.
    """
    model_sets = study2_model_sets()
    _checked_names("cases", cases, sorted(model_sets))
    _checked_names("beta3_grid", beta3_grid)
    # every coefficient of the generating vector is nonzero, so the
    # oracle support is the full 4-coefficient model in both cases
    oracle = CandidateModel((0, 1, 2), 1)

    cells = [
        (
            StudyConfig(
                family=family,
                n=100,
                beta_true=STUDY2_BETA_BASE + (float(beta3),),
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
