"""Domain records that validate on construction, and version algebra.

All types are immutable after construction and every operation is a pure
function, so everything here is safe to share across threads.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from dataclasses import dataclass
from datetime import date
from enum import Enum
from keyword import iskeyword

from .errors import NoNumericComponent, SchemaViolation


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


def _broken_rules(known: Mapping[str, object]) -> list[str]:
    """The messages of the meta and task instance rules that the field
    values in known break.  A rule is judged only when known holds every
    field it reads; an optional field that is None there is absent."""
    problems: list[str] = []
    given = {name for name, value in known.items() if value is not None}
    unset = known.keys() - given

    if "id" in known and not known["id"]:
        problems.append("id: must be non-empty")
    if "library" in known and (not known["library"] or any(map(str.isspace, known["library"]))):
        problems.append("library: must be non-empty and contain no whitespace")
    # the identifier stream drops hard keywords, not soft ones such as match
    token = known.get("core_token")
    if "core_token" in known and (not IDENTIFIER_RE.fullmatch(token or "") or iskeyword(token)):
        problems.append("core_token: must be a single identifier")
    if "code" in known and not known["code"]:
        problems.append("code: must be non-empty")

    task = known.get("task")
    if task is TaskKind.VSCC:
        if "masked_code" in unset:
            problems.append("masked_code: required for vscc instances")
        if "source_code" in given:
            problems.append("source_code: only migration instances carry source code")
        if "target_version" in given:
            problems.append("target_version: only migration instances carry a target version")
        if "masked_code" in given and "granularity" in known:
            sentinel = MASK_SENTINELS[known["granularity"]]
            count = known["masked_code"].count(sentinel)
            if count != 1:
                problems.append(f"masked_code: expected exactly one {sentinel!r}, found {count}")
            elif "reference" in known:
                restored = known["masked_code"].replace(sentinel, known["reference"], 1)
                leftover = [s for s in MASK_SENTINELS.values() if s in restored]
                if leftover:
                    problems.append(
                        f"masked_code: sentinels {leftover} remain after substituting the reference"
                    )
    elif "task" in known:
        if "source_code" in unset:
            problems.append("source_code: required for vacm instances")
        if "masked_code" in given:
            problems.append("masked_code: only completion instances carry masked code")
        if "target_version" in unset:
            problems.append("target_version: required for vacm instances")
        elif {"source_version", "target_version"} <= given and compare_versions(
            known["source_version"], known["target_version"]
        ) is Ordering.EQUAL:
            problems.append("target_version: must differ from source_version")
        if "granularity" in known and known["granularity"] is not Granularity.BLOCK:
            problems.append("granularity: vacm instances are block-level")
    return problems


class _SelfChecked:
    """A record whose construction raises SchemaViolation listing the rules
    that _broken_rules finds broken."""

    def __post_init__(self) -> None:
        problems = _broken_rules(vars(self))
        if problems:
            raise SchemaViolation(problems)


@dataclass(frozen=True)
class MetaInstance(_SelfChecked):
    """One harvested (library, version, description, code) record with
    provenance tags; construction raises SchemaViolation listing every
    broken rule."""

    library: str
    version: VersionId
    description: str
    code: str
    data_source: DataSource
    lifecycle_tag: LifecycleTag | None = None
    release_date: date | None = None


@dataclass(frozen=True)
class TaskInstance(_SelfChecked):
    """One evaluation item, either a masked completion or a migration pair.

    Construction raises SchemaViolation listing every broken rule, the mask
    sentinel rules among them.
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

