"""Exception hierarchy.

Data problems (bad CSV, missing columns, out-of-range arguments) and
numerical failures (singular designs, non-convergent fits) are kept on
separate branches so the CLI can map them to distinct exit codes.
"""

from __future__ import annotations


class GlmavgError(Exception):
    """Base class for all errors raised by this package."""


class DataError(GlmavgError):
    """Malformed or unusable input data (parse errors, missing columns, bad sizes)."""


class CapacityError(GlmavgError):
    """Requested model space is too large to enumerate."""


class NumericalError(GlmavgError):
    """Base class for numerical failures during fitting or weight solving."""


class SingularDesignError(NumericalError):
    """Design matrix is rank deficient (or numerically so).

    Carries the offending candidate model when the failure happened
    inside a per-model fit.
    """

    def __init__(self, message: str, model=None):
        super().__init__(message)
        self.model = model


class NonConvergenceError(NumericalError):
    """Iterative fit failed to converge (includes separation in logistic fits)."""

    def __init__(self, message: str, model=None, iterations: int = 0):
        super().__init__(message)
        self.model = model
        self.iterations = iterations


def _returned(result):
    """``result``, or raise it when it is an error (a ``GlmavgError``); None passes."""
    if isinstance(result, GlmavgError):
        raise result
    return result
