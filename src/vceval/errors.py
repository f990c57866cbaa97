"""Exception taxonomy for the toolkit; the CLI maps these onto exit codes.

A class exists only where code tells it apart: by catching it, by reading
what it carries, or by the exit code it maps to.  Any other failure raises
its nearest such class, with a message that says what went wrong.
"""

from __future__ import annotations

from collections.abc import Sequence


class EvalError(Exception):
    """Base class for all toolkit errors; the CLI exits 1 on it."""


class SchemaViolation(EvalError):
    """A record breaks one or more rules; .violations lists each of them."""

    def __init__(self, violations: Sequence[str]):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class IoFailure(EvalError):
    """A file or directory could not be read or written."""


class InvalidArgs(EvalError, ValueError):
    """An operation was invoked with out-of-contract arguments."""


class DegenerateSeries(InvalidArgs):
    """Correlation is undefined: series too short or constant."""


class NoNumericComponent(EvalError, ValueError):
    """A version string has no leading integer segment."""


class InvalidReference(EvalError):
    """A reference snippet is not syntactically valid."""


class EmptyAfterNormalization(EvalError):
    """Nothing remained of a generated sample after normalization."""
