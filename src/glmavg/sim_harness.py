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
each replication's draws, at x*: the candidates' fit when the oracle is
a candidate or, in the linear family, the full design, else one
``ols_fit`` of its columns (linear) or one more MLE of its columns for
the whole stack (logistic), with the bits of a lone ``logistic_mle``.
Replication r draws its design and response from the stream
``substream(seed, *tags, r)``, keyed once per cell, so reports are
byte-identical across runs and across worker counts.  A study lays all
its cells' replications out rep by rep (rep 0 of every cell, then rep
1, ...) in one ``run_replications`` call, which hands each process one
contiguous block holding the same share of every cell: the first block
runs in the calling process and the others in forked worker processes
(see ``glmavg._forked``), with one fork per worker for the whole study; they
run serially when ``workers`` is 1, when the process may use one CPU
only, off Linux, while another Python thread is alive, or when a
block's estimated work (``_rep_ms``) is below the study's floor of work
per process (``_FORK_FLOOR_MS``, higher for a logistic study).  In
a block (``_run_block``), the replications that share a design (the
family, n, the candidates and x*) are stacked together, across cells, so the
cells of a beta3 grid share their stacks; each group is cut into
stacks by ``averaging._stacks`` (the fewest of up to
``averaging._STACK_REPS``, whatever the family, their sizes differing by
one at most) and run through one routine (``_fit_stack``).  Each
replication draws its data and keeps what its family's fit needs: a
linear one factors [X_U | y] on its n rows, a logistic one keeps its
design and response.  The stack is then fitted at once
(``averaging._fit_average_stack``, which ``band`` runs too), with one
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
    _mle_fits,
    expit,
    logistic_mle,  # no longer called here; perfbench/tracer.py looks it up here
    ols_fit,
    require_finite,
)
from .model_space import CandidateModel, ModelSet, nested_sequence
from .rng import _checked_keys, substream

# One stacked replication's milliseconds, per candidate and per design
# entry (n x p), by family, for the floor of work per process below.
# Fitted to the added cost of a replication in cells of 50 and 200 (BLAS
# on one thread, 2-core x86-64 VM): linear, Study I case A at n = 100 /
# 1000 / 3000 0.094 / 0.242 / 0.539 ms (model: 0.099 / 0.234 / 0.534),
# Study II case A at n = 100 0.060 (0.054); logistic, Study II case A at
# n = 100 / 400 / 1000 0.108 / 0.250 / 0.540 (0.108 / 0.252 / 0.540),
# the Study I ladder at n = 200 / 1000 0.339 / 1.397 (0.330 / 1.290).
# ``tools/fork_floor.py`` prints the estimate beside each run.
_REP_MS = {"linear": (0.012, 1.5e-5), "logistic": (0.015, 1.2e-4)}
# A study forks a block only when its estimated work (``_REP_MS``) reaches
# this many milliseconds, by family.  ``tools/fork_floor.py`` (five runs,
# medians of 31 or 41 each, BLAS on one thread, 2-core x86-64 VM), forked
# time over serial time by estimated block work, on two Study II case A
# cells: linear 1.32-1.40 at 1.08 ms (20 a cell), 1.13-1.20 at 1.62 ms
# (30), 0.95-0.99 at 1.89 ms (35), 0.84-0.87 at 2.7 ms (50); logistic
# 1.02-1.08 at 2.16 ms (20), 0.96-1.02 at 2.7 ms (25), 0.91-0.94 at
# 3.24 ms (30), 0.71-0.78 from 3.78 ms up; 0.52-0.69 from 7.2 ms up (the
# stock grids, criterion 7's Study I run).  An empty 2-block fork costs
# about 1.45 ms, and a logistic block's first Newton loops run on pages
# the fork left shared (a child's first Study II logistic replication
# took 1.28 against 0.58 ms unforked, medians of 200), so a logistic
# block needs 1.2 ms more: a block that only breaks even keeps to one
# process.
_FORK_FLOOR_MS = {"linear": 1.8, "logistic": 3.0}

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
    model's own fit on each replication's draws, read from the candidates'
    fit when the oracle is a candidate or, in the linear family, the full
    design (the fit's ``beta_full``), and otherwise fitted on the
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
        # what the replications of one stack share: the family, n, the candidates and x* (hence p)
        object.__setattr__(self, "_design", (self.family, self.n, tuple(models), x.tobytes()))
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


def _linear_oracle(config: StudyConfig, X: np.ndarray, y: np.ndarray):
    """A linear oracle's value at x* from one ``ols_fit`` of its own columns on (X, y), or its error."""
    cols = config.oracle.column_indices()
    try:
        # through this module's ols_fit: the name perfbench/tracer.py wraps
        return float(config.x_star[cols] @ ols_fit(X[:, cols], y, model=config.oracle).beta)
    except GlmavgError as exc:
        return exc


def _logistic_oracle(oracle: CandidateModel, X: np.ndarray, y: np.ndarray, x_star: np.ndarray):
    """A logistic oracle's value at x* on every training set of the stack (X, y), and its failures.

    One ``_mle_fits`` over the stack's ``X[..., cols]``, the layout of
    the candidates' own fits, so each training set keeps the bits of a
    lone ``logistic_mle`` of its ``X[:, cols]``.
    """
    cols = list(oracle.columns)
    beta, _, _, failures = _mle_fits(X[..., cols], y, model=oracle)
    return expit(np.vecdot(x_star[cols], beta)), failures


def _fit_stack(designs, members, rows: list, failures: dict) -> None:
    """Fit and average a stack of replications that share a design; fill ``rows`` and ``failures``.

    ``designs`` are the family designs (the predictor's ``_Designs``)
    and ``members`` (position, config, rep) triples whose configs share
    the family, n, the candidates and x*; they may come from several
    cells.  Each replication draws its data and keeps what the fit needs
    (``designs.reduce``: a linear replication its n-row QRs, a logistic
    one its design and response), and a linear oracle of its own is
    fitted while it has its draws (``_linear_oracle``).  Then one
    stacked fit and one averaging pass (``averaging._fit_average_stack``,
    the routine ``band`` runs too) make every candidate's fit for all of
    them at once (the linear QRs, guards and solves with one LAPACK call
    per model size, the logistic MLEs with one damped Newton loop per
    candidate), the per-model values, Q-hat, the AIC weights and, from
    ``averaging._LOCKSTEP_MIN`` replications up, the weight solves; only
    the weighted sums and any lone solves run per replication.  The
    oracle column reads the stack's values when the oracle is a
    candidate, the stack's ``beta_full`` when it is the linear full
    design, and one more stacked MLE when it is a logistic model of its
    own (``_logistic_oracle``).  Every estimate keeps the bits of one
    predictor fitted per replication.  A replication's ``GlmavgError``
    goes to ``failures[position]``: the first raised in the order of a
    lone replication (its draw, its fit, its schemes in order, then its
    oracle).
    """
    drawn, parts, oracles = [], [], []
    for position, config, rep in members:
        try:
            X, y = _draw(config, rep)
            require_finite("design and response", X, y)
            parts.append(designs.reduce(X, y))
        except GlmavgError as exc:
            failures[position] = exc
            continue
        drawn.append((position, config))
        oracles.append(_linear_oracle(config, X, y) if config.family == "linear" and _own_oracle(config) else None)
    if not drawn:
        return
    first = drawn[0][1]
    schemes = [config.schemes for _, config in drawn]
    fits, slices, values, results = _fit_average_stack(designs, parts, first.n, first.x_star, schemes)
    own = {}  # a logistic oracle of its own -> its values and failures over the stack
    for (position, config), i, result, oracle in zip(drawn, slices, results, oracles):
        try:
            estimates = [estimate for estimate, *_ in _returned(result)]
            if config._oracle_k is not None:
                # the oracle is a candidate, so the stack has fit it already
                estimates.append(float(values[i][config._oracle_k]))
            elif config.family == "linear" and _own_oracle(config):
                estimates.append(_returned(oracle))
            elif config.oracle is not None and config.family == "linear":
                # the full design, which the linear fit has fit already
                estimates.append(float(config.x_star[config.oracle.column_indices()] @ fits.beta_full[i]))
            elif config.oracle is not None:
                if config.oracle not in own:
                    own[config.oracle] = _logistic_oracle(config.oracle, fits.X, fits.y, config.x_star)
                oracle_values, oracle_failures = own[config.oracle]
                estimates.append(float(_returned(oracle_failures.get(i, oracle_values[i]))))
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
        designs = _PREDICTORS[config.family]._Designs(config.candidate_set.models, config.x_star.shape[0])
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

    # a workers below 1 passes through, for the runner to refuse
    rows = run_replications(block_rows, count * n_reps, min(workers, _block_cap(configs)))
    return [dict(zip(config.columns, np.asarray(rows[c::count], dtype=float).T)) for c, config in enumerate(configs)]


def _block_cap(configs) -> int:
    """The most blocks a study of ``configs`` is split into: each must hold its floor of work.

    A block's estimated work is its length times the cells' mean
    ``_rep_ms``, and the floor the largest ``_FORK_FLOOR_MS`` of their
    families.
    """
    n = len(configs) * configs[0].n_reps
    mean_ms = sum(map(_rep_ms, configs)) / len(configs)
    floor = max(_FORK_FLOOR_MS[config.family] for config in configs)
    return max(1, int(n * mean_ms / floor))


def _rep_ms(config: StudyConfig) -> float:
    """An estimate of one replication's milliseconds in a stack of ``config``'s cell."""
    per_model, per_entry = _REP_MS[config.family]
    return per_model * len(config.candidate_set.models) + per_entry * config.n * config.x_star.shape[0]


def simulate_cell(config: StudyConfig, *, workers: int = 1) -> dict[str, np.ndarray]:
    """All replication estimates for one cell, keyed by ``config.columns``.

    This is the studies' runner on one config.  The output is a
    deterministic function of ``config``, bit for bit the same for every
    ``workers``: up to ``workers`` processes run contiguous blocks of
    replications (serially when ``workers`` is 1, on one usable CPU, off
    Linux, while another Python thread is alive, or below the study's
    floor of work per process), and the rows are joined in index order.
    ``workers`` below 1 raises ``DataError`` before any replication.  A
    ``GlmavgError`` raised in a replication is re-raised with that
    replication's key, the config's tags and the rep index, appended to
    its message, e.g.
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
    as ``simulate_cell`` splits a cell's (serially when ``workers`` is 1,
    on one usable CPU, off Linux, while another Python thread is alive,
    or below the study's floor of work per process); the report is
    byte-identical for every value, and a value below 1 raises
    ``DataError`` before any replication runs.
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
    as ``simulate_cell`` splits a cell's (serially when ``workers`` is 1,
    on one usable CPU, off Linux, while another Python thread is alive,
    or below the study's floor of work per process); the report is
    byte-identical for every value, and a value below 1 raises
    ``DataError`` before any replication runs.
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
