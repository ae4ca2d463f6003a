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


def check_seed(seed: int) -> None:
    """Raise InvalidOptionError unless seed is a valid generator seed (>= 0)."""
    if seed < 0:
        raise InvalidOptionError(f"seed must be >= 0, got {seed}")


def check_min_count(min_count: int) -> None:
    """Raise InvalidOptionError unless min_count is a valid vocabulary cut-off (>= 1)."""
    if min_count < 1:
        raise InvalidOptionError(f"min_count must be >= 1, got {min_count}")


def check_choice(name: str, value, choices: tuple) -> None:
    """Raise InvalidOptionError unless value is one of choices; name says which setting."""
    if value not in choices:
        raise InvalidOptionError(f"{name} must be one of {choices}, got {value!r}")


def check_shards(shards: int) -> None:
    """Raise InvalidOptionError unless shards is a valid shard (thread) count (>= 1)."""
    if shards < 1:
        raise InvalidOptionError(f"shard count must be >= 1, got {shards}")


class InvalidShiftError(WorkbenchError):
    """Shift parameter k outside [1, inf)."""

    category = "invalid-k"


def check_shift(k: float) -> None:
    """Raise InvalidShiftError unless k is a finite real >= 1."""
    if not (k >= 1.0 and math.isfinite(k)):
        raise InvalidShiftError(f"shift k must be a finite real >= 1, got {k}")


class DegenerateMarginalError(WorkbenchError, ValueError):
    """A zero marginal or total pair mass where a positive one is needed (also a ValueError)."""

    category = "degenerate-marginal"


class MarkerContaminationError(WorkbenchError):
    """A matrix containing undefined / minus-infinity markers reached a numeric routine."""

    category = "marker-contamination"


class DivergenceError(WorkbenchError):
    """An iterative solver increased its objective beyond tolerance."""

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
