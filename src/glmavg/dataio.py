"""CSV ingestion, serialization, and train/test splitting.

A ``Dataset`` is a numeric response plus a design matrix whose first
column is an all-ones intercept; predictor columns keep the CSV's
order.  Ordered categorical variables are passed through as numbers —
no factor encoding happens here.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .averaging import _checked_family
from .errors import DataError
from .glm_fit import _checked_data, _frozen, _integer
from .rng import substream

INTERCEPT_NAME = "(intercept)"


@dataclass(frozen=True)
class Dataset:
    """Numeric regression data with a leading intercept column.

    The design and response are read-only copies of the caller's arrays
    (``glm_fit._frozen``), checked as every fit checks them
    (``glm_fit._checked_data``: a 2-d design, one response per row,
    every entry finite); a malformed input, an unknown family, a column-name count off the design's or a
    first column that is not all ones raises ``DataError``.
    """

    response: np.ndarray
    design: np.ndarray
    column_names: list[str]
    family: str
    response_name: str = "y"

    def __post_init__(self):
        _checked_family(self.family)
        design, response = map(_frozen, _checked_data(self.design, self.response))
        if len(self.column_names) != design.shape[1]:
            raise DataError("need one column name per design column")
        if design.shape[0] > 0 and not np.all(design[:, 0] == 1.0):
            raise DataError("the first design column must be an all-ones intercept")
        object.__setattr__(self, "response", response)
        object.__setattr__(self, "design", design)

    @property
    def n(self) -> int:
        return self.response.shape[0]

    @property
    def d(self) -> int:
        return self.design.shape[1]

    def take(self, indices) -> "Dataset":
        """Row subset as a new Dataset (indices kept in the given order).

        ``indices`` must make an integer array (an empty list passes) of
        rows in [0, n); a float, a bool, a ragged list or an index outside
        that range raises ``DataError``, so no index is truncated, read as
        a mask or counted from the end.
        """
        try:
            idx = np.asarray(indices)
        except ValueError as exc:
            raise DataError(f"expected an array of row indices: {exc}") from None
        if idx.size == 0:
            idx = idx.astype(int)
        elif idx.dtype.kind not in "iu":
            raise DataError(f"row indices must be integers, got {idx.dtype} entries")
        outside = idx[(idx < 0) | (idx >= self.n)]
        if outside.size:
            raise DataError(f"row indices must be in [0, {self.n}), got {int(outside[0])}")
        return Dataset(
            response=self.response[idx],
            design=self.design[idx],
            column_names=list(self.column_names),
            family=self.family,
            response_name=self.response_name,
        )


def load_csv(path, response_column: str, family: str = "linear") -> Dataset:
    """Read a numeric CSV with a header row into a Dataset.

    All non-response columns become predictors in file order, behind a
    prepended intercept column.  Blank lines (records with no cells,
    such as a trailing empty line) are skipped, as ``csv.DictReader``
    skips them; a row with some cells but not the header's count raises.
    Parse failures report the offending row and column.
    """
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file, expected a header row") from None
        header = [h.strip() for h in header]
        if response_column not in header:
            raise DataError(f"{path}: no column named {response_column!r} in header {header}")
        response_idx = header.index(response_column)
        predictor_names = [h for i, h in enumerate(header) if i != response_idx]

        response = []
        rows = []
        for lineno, record in enumerate(reader, start=2):
            if not record:  # a blank line, as csv.DictReader skips it
                continue
            if len(record) != len(header):
                raise DataError(
                    f"{path}: row {lineno} has {len(record)} cells, header has {len(header)}"
                )
            parsed = []
            for name, cell in zip(header, record):
                cell = cell.strip()
                if cell == "":
                    raise DataError(f"{path}: missing value at row {lineno}, column {name!r}")
                try:
                    parsed.append(float(cell))
                except ValueError:
                    raise DataError(
                        f"{path}: cannot parse {cell!r} at row {lineno}, column {name!r}"
                    ) from None
            response.append(parsed[response_idx])
            rows.append([v for i, v in enumerate(parsed) if i != response_idx])

    if not rows:
        raise DataError(f"{path}: no data rows")
    return Dataset(
        response=response,
        design=np.column_stack([np.ones(len(rows)), rows]),
        column_names=[INTERCEPT_NAME] + predictor_names,
        family=family,
        response_name=response_column,
    )


def save_csv(dataset: Dataset, path) -> None:
    """Write predictors + response back to CSV with round-trippable floats."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(dataset.column_names[1:] + [dataset.response_name])
        for i in range(dataset.n):
            row = [repr(float(v)) for v in dataset.design[i, 1:]]
            row.append(repr(float(dataset.response[i])))
            writer.writerow(row)


def csv_text(columns, rows) -> str:
    """The CLI's CSV: a header of ``columns``, then one line per row dict, ending in a newline.

    A float cell is ``repr(float(v))``, so it reads back to the same
    double; None or a missing key is an empty cell; anything else is
    ``str(v)``.  No cell is quoted, and lines end in ``"\\n"``
    (``save_csv`` writes the ``csv`` module's quoted ``"\\r\\n"`` form).
    """
    def cell(value) -> str:
        if value is None:
            return ""
        return repr(float(value)) if isinstance(value, float) else str(value)

    lines = [",".join(columns)]
    lines += [",".join(cell(row.get(column)) for column in columns) for row in rows]
    return "\n".join(lines) + "\n"


def _train_size(dataset: Dataset, n_train) -> int:
    """``n_train`` as an int in (0, n), a split's training rows; anything else raises ``DataError``."""
    n_train = _integer(n_train, "n_train")
    if not 0 < n_train < dataset.n:
        raise DataError(f"n_train must be in (0, {dataset.n}), got {n_train}")
    return n_train


def split(dataset: Dataset, n_train: int, seed: int) -> tuple[Dataset, Dataset]:
    """Uniform without-replacement split into (train, test), deterministic in seed."""
    n_train = _train_size(dataset, n_train)
    perm = substream(seed, "split").permutation(dataset.n)
    train_idx = np.sort(perm[:n_train])
    test_idx = np.sort(perm[n_train:])
    return dataset.take(train_idx), dataset.take(test_idx)
