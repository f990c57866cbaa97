"""Exception taxonomy for the toolkit; the CLI maps these onto exit codes."""

from __future__ import annotations

from collections.abc import Sequence


class EvalError(Exception):
    """Base class for all toolkit errors."""


class ViolationError(EvalError):
    """An error carrying the full list of violated rules."""

    def __init__(self, violations: Sequence[str] | str):
        if isinstance(violations, str):
            violations = [violations]
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class SchemaViolation(ViolationError):
    """A record breaks one or more schema invariants."""


class MaskSentinelMismatch(SchemaViolation):
    """A completion instance's mask sentinel rules are violated."""


class PairingViolation(ViolationError):
    """Two meta-instances cannot form a migration pair."""


class JoinFailure(EvalError):
    """Line-delimited inputs could not be joined; .orphans lists the bad keys."""

    def __init__(self, message: str, orphans: Sequence = ()):
        self.orphans = list(orphans)
        super().__init__(message)


class IoFailure(EvalError):
    """A file or directory could not be read or written."""


class InvalidArgs(EvalError, ValueError):
    """An operation was invoked with out-of-contract arguments."""


class KExceedsN(InvalidArgs):
    """A requested k exceeds the available sample count n."""


class MissingExecReports(InvalidArgs):
    """The pass metric was requested without complete execution verdicts."""


class DegenerateSeries(InvalidArgs):
    """Correlation is undefined: series too short or constant."""


class NoNumericComponent(EvalError, ValueError):
    """A version string has no leading integer segment."""


class UnsortedVersions(EvalError):
    """A surface sequence is not strictly ascending by version."""


class SpanUnresolvable(EvalError):
    """A mask target does not resolve to a span in the subject code."""


class SentinelCollision(EvalError):
    """Subject code already contains a literal mask sentinel."""


class InvalidReference(EvalError):
    """A reference snippet is not syntactically valid."""


class EmptyAfterNormalization(EvalError):
    """Nothing remained of a generated sample after normalization."""
