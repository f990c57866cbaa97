"""Domain records, version algebra, and task-instance validation.

All types are immutable after construction and every operation is a pure
function, so everything here is safe to share across threads.
"""

from __future__ import annotations

import operator
import re
from collections.abc import Sequence
from dataclasses import dataclass
from datetime import date
from enum import Enum
from itertools import repeat

from .errors import MaskSentinelMismatch, NoNumericComponent, SchemaViolation


class TaskKind(str, Enum):
    VSCC = "vscc"  # fill a masked span so the result fits a stated library version
    VACM = "vacm"  # rewrite code from one library version to another


class Granularity(str, Enum):
    TOKEN = "token"
    LINE = "line"
    BLOCK = "block"


class DataSource(str, Enum):
    LIBRARY_SOURCE = "library_source"
    DOWNSTREAM_APPLICATION = "downstream_application"
    STACK_OVERFLOW = "stack_overflow"


class LifecycleTag(str, Enum):
    ADDITION = "addition"
    DEPRECATION = "deprecation"
    GENERAL = "general"


class MetricName(str, Enum):
    EM = "em"
    ISM = "ism"
    PM = "pm"
    CDC = "cdc"
    PASS = "pass"


class Ordering(str, Enum):
    LESS = "less"
    EQUAL = "equal"
    GREATER = "greater"


class VersionPattern(str, Enum):
    MAJOR = "major"
    MINOR = "minor"


MASK_SENTINELS = {
    Granularity.TOKEN: "[token-mask]",
    Granularity.LINE: "[line-mask]",
    Granularity.BLOCK: "[block-mask]",
}

# Python identifiers may be non-ASCII: a letter or underscore, then word characters
IDENTIFIER_RE = re.compile(r"[^\W\d]\w*")

_INT_SEGMENT_RE = re.compile(r"[0-9]+")


@dataclass(frozen=True)
class VersionId:
    """A leniently parsed version: numeric components plus a residual suffix.

    The raw string is preserved verbatim.
    """

    raw: str
    components: tuple[int, ...]
    suffix: str


def parse_version(raw: str) -> VersionId:
    """Split on dots, take the leading run of integer segments, keep the rest
    (first non-integer segment onward) as the suffix."""
    segments = raw.split(".") if raw else []
    components: list[int] = []
    consumed = 0
    for segment in segments:
        if not _INT_SEGMENT_RE.fullmatch(segment):
            break
        components.append(int(segment))
        consumed += 1
    if not components:
        raise NoNumericComponent(f"version {raw!r} has no leading integer segment")
    return VersionId(raw=raw, components=tuple(components), suffix=".".join(segments[consumed:]))


def version_sort_key(v: VersionId) -> tuple:
    """Sort key realizing compare_versions as a total order.

    Trailing zero components are insignificant; at equal components an empty
    suffix (a release) sorts above any non-empty one (a pre-release).
    """
    components = list(v.components)
    while components and components[-1] == 0:
        components.pop()
    suffix_key = (1, "") if not v.suffix else (0, v.suffix)
    return (tuple(components), suffix_key)


def compare_versions(a: VersionId, b: VersionId) -> Ordering:
    """Componentwise numeric order with zero padding; suffix breaks ties."""
    ka, kb = version_sort_key(a), version_sort_key(b)
    if ka < kb:
        return Ordering.LESS
    if ka > kb:
        return Ordering.GREATER
    return Ordering.EQUAL


def classify_version_pattern(v: VersionId) -> VersionPattern:
    """Major iff every component after the first is zero (or absent)."""
    if all(c == 0 for c in v.components[1:]):
        return VersionPattern.MAJOR
    return VersionPattern.MINOR


@dataclass(frozen=True)
class MetaInstance:
    """One harvested (library, version, description, code) record with provenance tags."""

    library: str
    version: VersionId
    description: str
    code: str
    data_source: DataSource
    lifecycle_tag: LifecycleTag | None = None
    release_date: date | None = None

    def __post_init__(self) -> None:
        problems = []
        if not self.library or any(ch.isspace() for ch in self.library):
            problems.append("library: must be non-empty and contain no whitespace")
        if not self.code:
            problems.append("code: must be non-empty")
        if problems:
            raise SchemaViolation(problems)


@dataclass(frozen=True)
class TaskInstance:
    """One evaluation item, either a masked completion or a migration pair.

    Construction does not validate; validate_instance is the gate every
    decoded or generated record goes through.
    """

    id: str
    task: TaskKind
    granularity: Granularity
    library: str
    source_version: VersionId
    description: str
    reference: str
    core_token: str
    data_source: DataSource
    target_version: VersionId | None = None
    masked_code: str | None = None
    source_code: str | None = None
    lifecycle_tag: LifecycleTag | None = None
    release_date: date | None = None


@dataclass(frozen=True)
class SampleSet:
    """The ordered generated-code samples for one instance."""

    instance_id: str
    samples: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.samples) < 1:
            raise SchemaViolation(["samples: need at least one generated sample"])

    @property
    def n(self) -> int:
        return len(self.samples)


def in_unit_interval(values: Sequence[float]) -> bool:
    """True iff every value lies in [0, 1]; a NaN does not.  The comparisons
    run in C."""
    return all(map(operator.le, repeat(0.0), values)) and all(
        map(operator.ge, repeat(1.0), values)
    )


@dataclass(frozen=True)
class ScoreVector:
    """Per-sample outcomes of one metric on one instance."""

    instance_id: str
    metric: MetricName
    per_sample: tuple[float, ...]

    def __post_init__(self) -> None:
        if not in_unit_interval(self.per_sample):
            raise SchemaViolation(["per_sample: scores must lie in [0, 1]"])

    @property
    def correct_count(self) -> int:
        """The number of samples that scored exactly 1."""
        return self.per_sample.count(1.0)


def validate_instance(record: TaskInstance) -> TaskInstance:
    """Check every schema invariant; return the record unchanged or raise.

    Raises MaskSentinelMismatch when mask sentinel rules are broken and
    SchemaViolation otherwise; either way the error lists every violated rule.
    """
    problems: list[str] = []
    sentinel_problems: list[str] = []

    if not record.id:
        problems.append("id: must be non-empty")
    if not record.library or any(ch.isspace() for ch in record.library):
        problems.append("library: must be non-empty and contain no whitespace")
    if not IDENTIFIER_RE.fullmatch(record.core_token or ""):
        problems.append("core_token: must be a single identifier")

    if record.task is TaskKind.VSCC:
        if record.masked_code is None:
            problems.append("masked_code: required for vscc instances")
        if record.source_code is not None:
            problems.append("source_code: only migration instances carry source code")
        if record.target_version is not None:
            problems.append("target_version: only migration instances carry a target version")
        if record.masked_code is not None:
            sentinel = MASK_SENTINELS[record.granularity]
            count = record.masked_code.count(sentinel)
            if count != 1:
                sentinel_problems.append(
                    f"masked_code: expected exactly one {sentinel!r}, found {count}"
                )
            else:
                restored = record.masked_code.replace(sentinel, record.reference, 1)
                leftover = [s for s in MASK_SENTINELS.values() if s in restored]
                if leftover:
                    sentinel_problems.append(
                        f"masked_code: sentinels {leftover} remain after substituting the reference"
                    )
    else:
        if record.source_code is None:
            problems.append("source_code: required for vacm instances")
        if record.masked_code is not None:
            problems.append("masked_code: only completion instances carry masked code")
        if record.target_version is None:
            problems.append("target_version: required for vacm instances")
        elif compare_versions(record.source_version, record.target_version) is Ordering.EQUAL:
            problems.append("target_version: must differ from source_version")
        if record.granularity is not Granularity.BLOCK:
            problems.append("granularity: vacm instances are block-level")

    if sentinel_problems:
        raise MaskSentinelMismatch(problems + sentinel_problems)
    if problems:
        raise SchemaViolation(problems)
    return record
