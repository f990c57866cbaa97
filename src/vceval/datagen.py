"""Benchmark instance construction: span masking at three granularities,
migration pairing with direction/pattern categorization, and corpus quality
filtering."""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

from .core_model import (
    MASK_SENTINELS,
    Granularity,
    MetaInstance,
    Ordering,
    TaskInstance,
    TaskKind,
    VersionId,
    classify_version_pattern,
    compare_versions,
)
from .errors import EvalError, InvalidArgs, IoFailure, SchemaViolation
from .syntax import check_syntax, contains_core_token, identifier_spans


@dataclass(frozen=True)
class MaskSpec:
    """Where to cut one masked span out of a meta-instance's code.

    token: the occurrence-th identifier occurrence of core_token (0-based,
    first by default); line: the 0-based line_index; block: the inclusive
    line_span.  Block spans cover whole lines so the sentinel sits on its own
    line.  Instance ids are caller-supplied; the toolkit never invents them.
    """

    granularity: Granularity
    instance_id: str
    core_token: str
    occurrence: int = 0
    line_index: int | None = None
    line_span: tuple[int, int] | None = None


_LINE_END_RE = re.compile(r"\r\n|\r|\n")


def _line_offsets(code: str) -> list[tuple[int, int]]:
    # (start, end) character offsets per line, end excluding the line
    # terminator; a line ends at LF, CRLF or CR, as Python ends one
    offsets = []
    start = 0
    for terminator in _LINE_END_RE.finditer(code):
        offsets.append((start, terminator.start()))
        start = terminator.end()
    offsets.append((start, len(code)))
    return offsets


def _resolve_span(code: str, spec: MaskSpec) -> tuple[int, int]:
    if spec.granularity is Granularity.TOKEN:
        hits = [(s, e) for name, s, e in identifier_spans(code) if name == spec.core_token]
        if not 0 <= spec.occurrence < len(hits):
            raise EvalError(
                f"occurrence {spec.occurrence} of {spec.core_token!r} not found"
                f" ({len(hits)} occurrence(s) present)"
            )
        return hits[spec.occurrence]
    lines = _line_offsets(code)
    if spec.granularity is Granularity.LINE:
        if spec.line_index is None or not 0 <= spec.line_index < len(lines):
            raise EvalError(f"line {spec.line_index} outside 0..{len(lines) - 1}")
        return lines[spec.line_index]
    if spec.line_span is None:
        raise EvalError("block masking needs a line_span")
    first, last = spec.line_span
    if not 0 <= first <= last < len(lines):
        raise EvalError(f"line span {spec.line_span} outside 0..{len(lines) - 1}")
    return lines[first][0], lines[last][1]


def mask_instance(meta: MetaInstance, spec: MaskSpec) -> TaskInstance:
    """Cut the requested span out of meta.code, producing a completion instance.

    The masked code holds exactly one sentinel and the reference is the
    removed span verbatim, so substituting it back restores the original
    byte-for-byte.  Lines end at LF, CRLF or CR, and a line or block span
    takes no terminator after its last line.  The span must hold the core
    token as a whole identifier (not in a string or comment), so that a
    sample equal to the reference can score 1.  Code that does not compile
    raises InvalidArgs; code holding a literal sentinel, or a span that
    cannot be resolved or lacks the core token, raises EvalError.
    """
    if not check_syntax(meta.code):
        raise InvalidArgs("meta.code must be syntactically valid before masking")
    for sentinel in MASK_SENTINELS.values():
        if sentinel in meta.code:
            raise EvalError(f"code already contains the literal sentinel {sentinel!r}")

    start, end = _resolve_span(meta.code, spec)
    instance = TaskInstance(
        id=spec.instance_id,
        task=TaskKind.VSCC,
        granularity=spec.granularity,
        library=meta.library,
        source_version=meta.version,
        description=meta.description,
        reference=meta.code[start:end],
        core_token=spec.core_token,
        data_source=meta.data_source,
        masked_code=meta.code[:start] + MASK_SENTINELS[spec.granularity] + meta.code[end:],
        lifecycle_tag=meta.lifecycle_tag,
        release_date=meta.release_date,
    )
    if not contains_core_token(instance.reference, spec.core_token):
        raise EvalError(
            f"instance {spec.instance_id!r}: span {instance.reference!r}"
            f" does not hold the core token {spec.core_token!r}"
        )
    return instance


class MigrationDirection(str, Enum):
    OLD_TO_NEW = "old_to_new"
    NEW_TO_OLD = "new_to_old"


class MigrationPattern(str, Enum):
    MAJOR_TO_MAJOR = "major_to_major"
    MAJOR_TO_MINOR = "major_to_minor"
    MINOR_TO_MAJOR = "minor_to_major"
    MINOR_TO_MINOR = "minor_to_minor"


@dataclass(frozen=True)
class MigrationCategory:
    direction: MigrationDirection
    pattern: MigrationPattern


def categorize_migration(source: VersionId, target: VersionId) -> MigrationCategory:
    """Direction from the version order, pattern from the endpoint classifications."""
    order = compare_versions(source, target)
    if order is Ordering.EQUAL:
        raise SchemaViolation(["versions must differ"])
    direction = (
        MigrationDirection.OLD_TO_NEW if order is Ordering.LESS else MigrationDirection.NEW_TO_OLD
    )
    pattern = MigrationPattern(
        f"{classify_version_pattern(source).value}_to_{classify_version_pattern(target).value}"
    )
    return MigrationCategory(direction, pattern)


def build_migration_pair(
    m_i: MetaInstance, m_j: MetaInstance, instance_id: str, core_token: str
) -> tuple[TaskInstance, MigrationCategory]:
    """Turn two same-functionality meta-instances from different versions into
    a migration instance: source code from m_i, reference answer from m_j.

    Provenance tags (data source, lifecycle tag, release date) come from the
    target side m_j, whose code is the graded reference; that code must hold
    core_token as a whole identifier.  SchemaViolation lists whatever keeps
    the two from pairing.
    """
    problems = []
    if m_i.library != m_j.library:
        problems.append(f"library mismatch: {m_i.library!r} vs {m_j.library!r}")
    if m_i.description != m_j.description:
        problems.append("description mismatch")
    if compare_versions(m_i.version, m_j.version) is Ordering.EQUAL:
        problems.append(f"versions must differ, both compare equal to {m_i.version.raw!r}")
    if problems:
        raise SchemaViolation(problems)

    category = categorize_migration(m_i.version, m_j.version)
    instance = TaskInstance(
        id=instance_id,
        task=TaskKind.VACM,
        granularity=Granularity.BLOCK,
        library=m_i.library,
        source_version=m_i.version,
        target_version=m_j.version,
        description=m_i.description,
        reference=m_j.code,
        core_token=core_token,
        source_code=m_i.code,
        data_source=m_j.data_source,
        lifecycle_tag=m_j.lifecycle_tag,
        release_date=m_j.release_date,
    )
    if not contains_core_token(m_j.code, core_token):
        raise SchemaViolation(
            [f"instance {instance_id!r}: target code does not hold the core token {core_token!r}"]
        )
    return instance, category


FILTER_AVG_LINE_LENGTH = "avg_line_length"
FILTER_MAX_LINE_LENGTH = "max_line_length"
FILTER_ALPHABETIC_RATIO = "alphabetic_ratio"
FILTER_SYNTAX_ERROR = "syntax_error"
FILTER_DECODE_ERROR = "decode_error"


@dataclass(frozen=True)
class FilterVerdict:
    reasons: tuple[str, ...]

    @property
    def keep(self) -> bool:
        return not self.reasons


_ASCII_NON_LETTERS = bytes(c for c in range(128) if not chr(c).isalpha())
_NON_ASCII_RE = re.compile(r"[^\x00-\x7f]")


def _letter_count(text: str) -> int:
    """The number of characters of text for which str.isalpha() is true."""
    # ASCII letters are counted by deleting every other ASCII byte in C;
    # isalpha runs in Python only on the non-ASCII characters.
    ascii_letters = text.encode("ascii", "ignore").translate(None, _ASCII_NON_LETTERS)
    return len(ascii_letters) + sum(ch.isalpha() for ch in _NON_ASCII_RE.findall(text))


def filter_corpus_file(content: str) -> FilterVerdict:
    """Judge one source file against the corpus quality rules.

    Rejection reasons list every rule the file trips: mean line length over
    100, any line over 1000 characters, letter fraction under 0.25, or a
    syntax error.  Thresholds are strict, so the boundary values themselves
    keep.  Line terminators are excluded from line lengths and from the
    letter-fraction denominator; an empty file keeps.
    """
    lines = content.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    lines = [line[:-1] if line.endswith("\r") else line for line in lines]

    reasons: list[str] = []
    if lines:
        lengths = [len(line) for line in lines]
        if sum(lengths) / len(lengths) > 100:
            reasons.append(FILTER_AVG_LINE_LENGTH)
        if max(lengths) > 1000:
            reasons.append(FILTER_MAX_LINE_LENGTH)
    body_length = len(content) - content.count("\n") - content.count("\r")
    if body_length and _letter_count(content) / body_length < 0.25:
        reasons.append(FILTER_ALPHABETIC_RATIO)
    if not check_syntax(content):
        reasons.append(FILTER_SYNTAX_ERROR)
    return FilterVerdict(tuple(reasons))


def filter_tree(root: str | Path) -> list[tuple[str, FilterVerdict]]:
    """Judge every .py file under root; paths are root-relative POSIX strings.

    Files that cannot be decoded are rejected with the decode_error reason.
    A leading UTF-8 byte-order mark is not part of the judged text.  Files
    are judged on every usable core (see _fanout.fan_out).
    """
    base = Path(root)
    if not base.is_dir():
        raise IoFailure(f"not a readable directory: {base}")
    from ._fanout import fan_out  # see its module docstring

    paths = [path for path in sorted(base.rglob("*.py")) if path.is_file()]
    verdicts = fan_out(_filter_path, paths)
    return [(path.relative_to(base).as_posix(), verdict) for path, verdict in zip(paths, verdicts)]


def _filter_path(path: Path) -> FilterVerdict:
    try:
        content = path.read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError):
        return FilterVerdict((FILTER_DECODE_ERROR,))
    return filter_corpus_file(content)
