"""Candidate model sets over fixed + optional coefficients.

A candidate model keeps all ``p_fixed`` leading coefficients and some
subset of the ``q`` optional ones.  Full-length design matrices and
covariate vectors are laid out as ``[fixed columns | optional columns]``,
so optional index ``j`` lives at column ``p_fixed + j``.

Every model is commensurable under a single linear functional in the
common (p_fixed + q)-dimensional coordinates: x*'beta_k over the model's
own columns equals x*' times beta_k zero-padded to full length.  The
candidate factories in ``mse_weights`` keep each candidate's
coefficients in that padded form; this module only does the column
bookkeeping (``columns``, ``column_indices``, ``subset_columns``,
``subset_point``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import CapacityError, DataError
from .glm_fit import _float_array, _integer

#: All-subsets enumeration is refused above this many optional coefficients.
MAX_ENUMERABLE_Q = 20


@dataclass(frozen=True)
class CandidateModel:
    """One candidate: ``p_fixed`` always-kept coefficients plus an optional-index subset.

    ``columns``, built once, is the tuple of the model's column
    positions in a full [fixed | optional] layout; ``column_indices``
    returns it as a new list.  It is not a field, so ``==``, ``hash``
    and ``repr`` read ``included`` and ``p_fixed`` alone.  Both are
    taken as ``operator.index`` takes an integer (numpy integers pass);
    any other value, such as 1.9, or a negative one raises ``DataError``
    (``glm_fit._integer``).
    """

    included: tuple[int, ...]
    p_fixed: int

    def __post_init__(self):
        object.__setattr__(self, "included", tuple(_integer(i, "an optional index", 0) for i in self.included))
        object.__setattr__(self, "p_fixed", _integer(self.p_fixed, "p_fixed", 0))
        if any(b <= a for a, b in zip(self.included, self.included[1:])):
            raise DataError(f"optional indices must be strictly increasing, got {self.included}")
        if self.p_fixed + len(self.included) < 1:
            raise DataError("a candidate model must have at least one coefficient")
        object.__setattr__(self, "columns", (*range(self.p_fixed), *(self.p_fixed + j for j in self.included)))

    @property
    def dim(self) -> int:
        """Number of coefficients this model estimates."""
        return self.p_fixed + len(self.included)

    def column_indices(self) -> list[int]:
        """Column positions of this model inside a full [fixed | optional] layout."""
        return list(self.columns)


class ModelSet:
    """Ordered collection of candidate models sharing one (p_fixed, q) layout."""

    def __init__(self, models: Sequence[CandidateModel], q: int):
        models = tuple(models)
        if not models:
            raise DataError("a model set must contain at least one model")
        q = _integer(q, "q", 0)
        p_fixed = models[0].p_fixed
        seen = set()
        for m in models:
            if m.p_fixed != p_fixed:
                raise DataError("all models in a set must share p_fixed")
            if m.included and m.included[-1] >= q:
                raise DataError(f"optional index {m.included[-1]} out of range for q={q}")
            if m.included in seen:
                raise DataError(f"duplicate candidate model {m.included}")
            seen.add(m.included)
        self.models = models
        self.q = q

    @property
    def p_fixed(self) -> int:
        return self.models[0].p_fixed

    def __len__(self) -> int:
        return len(self.models)

    def __iter__(self) -> Iterator[CandidateModel]:
        return iter(self.models)

    def __getitem__(self, k: int) -> CandidateModel:
        return self.models[k]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ModelSet)
            and self.q == other.q
            and self.models == other.models
        )

    def __repr__(self) -> str:
        return f"ModelSet({len(self.models)} models, p_fixed={self.p_fixed}, q={self.q})"

    def to_jsonl(self) -> str:
        """One JSON object per line: {"p_fixed":…, "q":…, "included":[…]}."""
        lines = [
            json.dumps({"p_fixed": m.p_fixed, "q": self.q, "included": list(m.included)})
            for m in self.models
        ]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_jsonl(cls, text: str) -> "ModelSet":
        """The inverse of ``to_jsonl``.

        ``p_fixed``, ``q`` and every ``included`` entry must be JSON
        integers (not a float, a bool or a string) and ``included`` a
        list; any other record raises ``DataError`` naming its line.
        """
        models = []
        q = None
        for lineno, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                included, p_fixed, line_q = rec["included"], rec["p_fixed"], rec["q"]
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                raise DataError(f"bad model record on line {lineno}: {exc}") from exc
            if not isinstance(included, list) or any(
                type(v) is not int for v in (p_fixed, line_q, *included)
            ):
                raise DataError(
                    f"bad model record on line {lineno}: p_fixed, q and every included entry "
                    "must be JSON integers, and included a list"
                )
            model = CandidateModel(tuple(included), p_fixed)
            if q is None:
                q = line_q
            elif q != line_q:
                raise DataError(f"inconsistent q on line {lineno}: {line_q} != {q}")
            models.append(model)
        if q is None:
            raise DataError("no model records found")
        return cls(models, q)


def enumerate_all_subsets(p_fixed: int, q: int) -> ModelSet:
    """All 2**q candidate models, in binary-counting order (bit j <-> optional index j)."""
    q = _integer(q, "q", 0)
    if q > MAX_ENUMERABLE_Q:
        raise CapacityError(
            f"2**{q} candidate models exceeds the enumeration guard (q <= {MAX_ENUMERABLE_Q})"
        )
    models = []
    for mask in range(2**q):
        included = tuple(j for j in range(q) if (mask >> j) & 1)
        models.append(CandidateModel(included, p_fixed))
    return ModelSet(models, q)


def nested_sequence(p_fixed: int, q: int) -> ModelSet:
    """q+1 nested models, dropping optional coefficients from the front.

    Model 0 keeps every optional index, model i keeps {i, ..., q-1},
    model q keeps none.
    """
    q = _integer(q, "q", 0)
    models = [CandidateModel(tuple(range(i, q)), p_fixed) for i in range(q + 1)]
    return ModelSet(models, q)


def subset_columns(full_design: np.ndarray, model: CandidateModel) -> np.ndarray:
    """Columns of ``full_design`` used by ``model``: fixed block, then its optional columns."""
    full_design = _float_array(full_design)
    if full_design.ndim != 2:
        raise DataError("full_design must be a 2-d matrix")
    cols = model.column_indices()
    if cols and cols[-1] >= full_design.shape[1]:
        raise DataError(
            f"design has {full_design.shape[1]} columns, model needs column {cols[-1]}"
        )
    return full_design[:, cols]


def subset_point(x_star: np.ndarray, model: CandidateModel) -> np.ndarray:
    """``subset_columns`` for a single covariate vector."""
    x_star = _float_array(x_star)
    if x_star.ndim != 1:
        raise DataError("x_star must be a 1-d vector")
    cols = model.column_indices()
    if cols and cols[-1] >= x_star.shape[0]:
        raise DataError(f"x_star has length {x_star.shape[0]}, model needs index {cols[-1]}")
    return x_star[cols]
