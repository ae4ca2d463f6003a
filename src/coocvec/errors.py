"""Error hierarchy shared by every module.

Each error carries a stable ``category`` tag; the command line prints the tag
as a single machine-parseable line and exits nonzero.
"""
from __future__ import annotations

import math


class WorkbenchError(Exception):
    """Base class for all package errors."""

    category = "error"


class EmptyVocabularyError(WorkbenchError):
    category = "empty-vocabulary"


class InvalidOptionError(WorkbenchError, ValueError):
    """An option or setting outside its valid range (also a ValueError)."""

    category = "invalid-option"


def check_at_least(name: str, value, low, strict: bool = False, error=InvalidOptionError) -> None:
    """Raise error unless low <= value < inf, or low < value < inf when strict.

    The one range check of a setting; name says which.  Comparisons refuse
    NaN and take an int of any size.  An array value passes only if every
    element does.
    """
    ok = (value > low if strict else value >= low) & (value < math.inf)
    if not (ok.all() if hasattr(ok, "all") else ok):
        raise error(f"{name} must be a finite number {'>' if strict else '>='} {low}, got {value}")


def check_choice(name: str, value, choices: tuple) -> None:
    """Raise InvalidOptionError unless value is one of choices; name says which setting."""
    if value not in choices:
        raise InvalidOptionError(f"{name} must be one of {choices}, got {value!r}")


class InvalidShiftError(WorkbenchError):
    """Shift parameter k outside [1, inf)."""

    category = "invalid-k"


def check_shift(k: float) -> None:
    """Raise InvalidShiftError unless k is a finite real >= 1."""
    check_at_least("shift k", k, 1, error=InvalidShiftError)


class DegenerateMarginalError(WorkbenchError, ValueError):
    """A zero marginal or total pair mass where a positive one is needed (also a ValueError)."""

    category = "degenerate-marginal"


class MarkerContaminationError(WorkbenchError):
    """A matrix containing undefined / minus-infinity markers reached a numeric routine."""

    category = "marker-contamination"


class DivergenceError(WorkbenchError):
    """An iterative solver diverged: a rising objective, an overflow or a singular system."""

    category = "divergence"


class DomainError(WorkbenchError):
    """Closed form or similarity evaluated outside its region of validity."""

    category = "domain-error"


class UnknownWordError(WorkbenchError):
    category = "unknown-word"


class InsufficientPairsError(WorkbenchError):
    """Fewer than two scorable pairs in a similarity evaluation."""

    category = "insufficient-pairs"


class DimensionMismatchError(WorkbenchError):
    category = "dimension-mismatch"


class MixedProvenanceError(WorkbenchError):
    """Inputs produced by different upstream runs were mixed in one report."""

    category = "mixed-provenance"


class FormatError(WorkbenchError):
    """Malformed input file."""

    category = "bad-format"
