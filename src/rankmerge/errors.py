"""Exception hierarchy shared across the toolkit.

Every error raised by this package derives from :class:`RankmergeError`, so
callers (including the CLI) can distinguish domain failures from programming
bugs with a single ``except`` clause.
"""

from __future__ import annotations

__all__ = [
    "RankmergeError",
    "FormatError",
    "UnsupportedDtype",
    "TruncationError",
    "ArchitectureMismatch",
    "NumericError",
    "RankError",
    "ShapeError",
    "EmptyInput",
    "InsufficientTasks",
    "PlanError",
    "ZeroTaskVector",
    "EvaluationError",
    "RangeError",
    "ParamError",
    "InvariantError",
    "EmptyBatch",
]


class RankmergeError(Exception):
    """Base class for all domain errors raised by this package."""


# --- checkpoint container -------------------------------------------------

class FormatError(RankmergeError):
    """The container header is malformed or internally inconsistent."""


class UnsupportedDtype(RankmergeError):
    """A tensor declares a dtype outside {float32, float64}."""


class TruncationError(RankmergeError):
    """A declared tensor buffer extends past the end of the file."""


class ArchitectureMismatch(RankmergeError):
    """Checkpoints disagree on tensor names, shapes, or dtypes."""

    def __init__(self, tensor_name: str, detail: str):
        self.tensor_name = tensor_name
        super().__init__(f"{tensor_name}: {detail}")


# --- linear algebra kernels -----------------------------------------------

class NumericError(RankmergeError):
    """Non-finite values where finite arithmetic is required."""


class RankError(RankmergeError):
    """A requested rank is outside the valid range for the factor."""


class ShapeError(RankmergeError):
    """Operands have incompatible shapes."""


# --- origin solver ----------------------------------------------------------

class EmptyInput(RankmergeError):
    """An operation that needs at least one layer received none."""


class InsufficientTasks(RankmergeError):
    """An operation defined over task pairs received fewer than two tasks."""


# --- merge engine -----------------------------------------------------------

class PlanError(RankmergeError):
    """Merge coefficients have the wrong shape or a non-finite value."""


# --- interference analysis --------------------------------------------------

class ZeroTaskVector(RankmergeError):
    """A task vector is identically zero, so normalization is undefined."""


class EvaluationError(RankmergeError):
    """A user-supplied evaluator failed or returned invalid accuracies."""


class RangeError(RankmergeError):
    """Scalar arguments violate their required ordering or sign."""


# --- synthetic suites and bound certification -------------------------------

class ParamError(RankmergeError):
    """Suite generation parameters violate the stated preconditions."""


class InvariantError(RankmergeError):
    """A synthetic suite fails the invariants its guarantees rely on."""


# --- adaptation --------------------------------------------------------------

class EmptyBatch(RankmergeError):
    """Entropy cannot be computed over an empty batch."""
