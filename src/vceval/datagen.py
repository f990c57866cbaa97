"""Benchmark instance construction: span masking at three granularities,
migration pairing with direction/pattern categorization, and corpus quality
filtering."""

from __future__ import annotations

import re
from pathlib import Path
from typing import NamedTuple

from .core_model import (
    MASK_SENTINELS,
    Granularity,
    MetaInstance,
    TaskInstance,
    TaskKind,
    VersionId,
    version_sort_key,
)
from .errors import EvalError, IoFailure, SchemaViolation
from .syntax import (
    check_syntax,
    contains_core_token,
    decode_source,
    identifier_spans,
    line_offsets,
    python_files,
    universal_newlines,
)


class MaskSpec(NamedTuple):
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


def _resolve_span(code: str, spec: MaskSpec) -> tuple[int, int]:
    if spec.granularity is Granularity.TOKEN:
        hits = [(s, e) for name, s, e in identifier_spans(code) if name == spec.core_token]
        if not 0 <= spec.occurrence < len(hits):
            raise EvalError(
                f"occurrence {spec.occurrence} of {spec.core_token!r} not found"
                f" ({len(hits)} occurrence(s) present)"
            )
        return hits[spec.occurrence]
    lines = line_offsets(code)
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
    sample equal to the reference can score 1.  Code holding a literal
    sentinel, or a span that cannot be resolved or lacks the core token,
    raises EvalError.
    """
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


def categorize_migration(source: VersionId, target: VersionId) -> tuple[str, str]:
    """The (direction, pattern) labels of a migration, for example
    ("old_to_new", "minor_to_major"): direction from the version order,
    pattern from the endpoint labels.  An endpoint is major iff every
    component after the first is zero; its suffix does not count."""
    source_key, target_key = version_sort_key(source), version_sort_key(target)
    if source_key == target_key:
        raise SchemaViolation(["versions must differ"])
    direction = "old_to_new" if source_key < target_key else "new_to_old"
    labels = ["minor" if any(v.components[1:]) else "major" for v in (source, target)]
    return direction, "_to_".join(labels)


def build_migration_pair(
    m_i: MetaInstance, m_j: MetaInstance, instance_id: str, core_token: str
) -> tuple[TaskInstance, tuple[str, str]]:
    """Turn two same-functionality meta-instances from different versions into
    a migration instance: source code from m_i, reference answer from m_j.

    Provenance tags (data source, lifecycle tag, release date) come from the
    target side m_j, whose code is the graded reference; that code must hold
    core_token as a whole identifier.  The instance comes with its
    categorize_migration labels.  SchemaViolation lists whatever keeps the
    two from pairing.
    """
    problems = []
    if m_i.library != m_j.library:
        problems.append(f"library mismatch: {m_i.library!r} vs {m_j.library!r}")
    if m_i.description != m_j.description:
        problems.append("description mismatch")
    if version_sort_key(m_i.version) == version_sort_key(m_j.version):
        problems.append(f"versions must differ, both compare equal to {m_i.version.raw!r}")
    if problems:
        raise SchemaViolation(problems)

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
    return instance, categorize_migration(m_i.version, m_j.version)


FILTER_AVG_LINE_LENGTH = "avg_line_length"
FILTER_MAX_LINE_LENGTH = "max_line_length"
FILTER_ALPHABETIC_RATIO = "alphabetic_ratio"
FILTER_SYNTAX_ERROR = "syntax_error"
FILTER_DECODE_ERROR = "decode_error"


class FilterVerdict(NamedTuple):
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
    keep.  A line ends at LF, CRLF or CR, so the three forms of one file get
    one verdict, and line ends count in neither line lengths nor the
    letter-fraction denominator; an empty file keeps.
    """
    text = universal_newlines(content)
    # no line follows a last line end; an empty file is one empty line
    lengths = list(map(len, text.removesuffix("\n").split("\n")))
    reasons: list[str] = []
    if sum(lengths) / len(lengths) > 100:
        reasons.append(FILTER_AVG_LINE_LENGTH)
    if max(lengths) > 1000:
        reasons.append(FILTER_MAX_LINE_LENGTH)
    body_length = sum(lengths)
    if body_length and _letter_count(text) / body_length < 0.25:
        reasons.append(FILTER_ALPHABETIC_RATIO)
    if not check_syntax(text):
        reasons.append(FILTER_SYNTAX_ERROR)
    return FilterVerdict(tuple(reasons))


def filter_tree(root: str | Path) -> list[tuple[str, FilterVerdict]]:
    """Judge every .py file under root, as syntax.python_files lists them;
    paths are root-relative POSIX strings.

    Each file's text is what syntax.decode_source reads from its bytes; a
    file that cannot be read or decoded is rejected with the decode_error
    reason.  Files are judged on every usable core (see _fanout.fan_out).
    """
    base = Path(root)
    if not base.is_dir():
        raise IoFailure(f"not a readable directory: {base}")
    from ._fanout import fan_out  # see its module docstring

    files = list(python_files(base))
    verdicts = fan_out(_filter_path, [Path(entry.path) for entry, _ in files])
    return [("/".join(parts), verdict) for (_, parts), verdict in zip(files, verdicts)]


def _filter_path(path: Path) -> FilterVerdict:
    try:
        content = decode_source(path.read_bytes())
    except OSError:
        content = None
    return FilterVerdict((FILTER_DECODE_ERROR,)) if content is None else filter_corpus_file(content)
