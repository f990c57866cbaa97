"""Pipeline plumbing: JSONL ingestion, generation-text normalization, metric
orchestration, grouped aggregation, and report emission.

Only the calling process logs: scoring normalizes every item's samples in
input order and logs one summary per kind of normalization loss, then
scores the items on every core.
The workers also encode each item's per-instance rows, when they are asked
for, and send back only that text and the item's @k values; the caller takes
up results and errors in input order, so the same inputs always give the
same output bytes, whatever the core count.
"""

from __future__ import annotations

import contextlib
import io
import json
import logging
import math
import os
import re
import stat
import textwrap
from collections import Counter
from collections.abc import Callable, Iterable, Mapping, Sequence
from datetime import date
from itertools import repeat
from pathlib import Path
from typing import NamedTuple, get_args, get_type_hints

from .core_model import (
    MASK_SENTINELS,
    DataSource,
    Granularity,
    LifecycleTag,
    MetaInstance,
    MetricName,
    TaskInstance,
    TaskKind,
    VersionId,
    _broken_rules,
    parse_version,
)
from .datagen import MaskSpec, categorize_migration
from .errors import (
    DegenerateSeries,
    EmptyAfterNormalization,
    EvalError,
    InvalidArgs,
    InvalidReference,
    IoFailure,
    SchemaViolation,
)
from .metrics import (
    block_line_average,
    cdc_check,
    em_block,
    em_token,
    estimate_at_k,
    ism_line,
    pearson,
    pm_line,
    score_at_k,
    strip_code_fences,
)
from .syntax import IDENTIFIER_RE, universal_newlines

log = logging.getLogger(__name__)

EXEC_CASE_CATEGORIES = ("return_type", "normal_input", "boundary_values", "functionality")

GROUP_DIMENSIONS = ("data_source", "lifecycle_tag", "year", "pattern", "direction")


class ExecReport(NamedTuple):
    """Externally produced execution verdict for one generated sample;
    decode_exec_report validates it."""

    instance_id: str
    sample_index: int
    passed: bool
    case_results: Mapping[str, bool] | None = None


class AggregateRow(NamedTuple):
    """One aggregated metric value for one group of instances."""

    group_key: str
    metric: str
    k: int
    value: float
    instance_count: int


class EvaluationItem(NamedTuple):
    """A validated instance joined with its samples and optional exec verdicts."""

    instance: TaskInstance
    samples: tuple[str, ...]
    exec_passed: tuple[bool | None, ...]


class ScoringResult(NamedTuple):
    """Group aggregates and each instance's per-instance rows.

    per_instance holds one JSONL text per instance, in input order, with
    one row per selected metric (see write_score_vectors); it is empty
    unless run_scoring was called with per_instance=True.
    """

    per_instance: tuple[str, ...]
    aggregates: tuple[AggregateRow, ...]


def _read_text(path: Path) -> str:
    """The UTF-8 text of path; IoFailure if it is missing, unreadable or not UTF-8."""
    try:
        return path.read_text(encoding="utf-8")
    except FileNotFoundError as exc:
        raise IoFailure(f"missing file: {path}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise IoFailure(f"unreadable file {path}: {exc}") from exc


def _invalid_json(where: str, exc: ValueError | RecursionError) -> SchemaViolation:
    # json.loads raises JSONDecodeError on bad syntax, a plain ValueError on
    # an integer past the interpreter's digit limit and RecursionError on
    # deep nesting; a JSONDecodeError's msg leaves out the position
    reason = exc.msg if isinstance(exc, json.JSONDecodeError) else exc
    return SchemaViolation([f"{where}: invalid JSON: {reason}"])


def read_jsonl(path: str | Path) -> list[tuple[int, dict]]:
    """All (lineno, object) records of a line-delimited JSON file."""
    path = Path(path)
    text = _read_text(path)
    rows = []
    # split on "\n" only: str.splitlines() also breaks at U+2028, U+0085 and
    # other separators that may sit unescaped inside a JSON string
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except (ValueError, RecursionError) as exc:
            raise _invalid_json(f"{path}:{lineno}", exc) from None
        if not isinstance(obj, dict):
            raise SchemaViolation([f"{path}:{lineno}: expected a JSON object"])
        rows.append((lineno, obj))
    return rows


def write_text(path: str | Path, chunks: Iterable[str], what: str = "") -> Path:
    """Write the concatenated chunks to path.  A new path or an existing
    regular file is replaced atomically: the chunks go to a temp file beside
    it, which takes the old file's permission bits, is fsynced and then
    os.replace'd over path, so a failed write leaves any previous file
    untouched and removes the temp file, also when producing the chunks
    raises.  That needs a writable directory.  Anything else -- a symlink, or
    a device or pipe such as /dev/stdout -- is opened and written through in
    place.

    Raises IoFailure("cannot write <what><path>: ...") on any OSError; the
    message names path, never the temp file.  Other exceptions raised by
    chunks propagate as they are.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(16).hex()}.tmp")
    try:
        try:
            mode = os.lstat(path).st_mode
        except FileNotFoundError:
            mode = None
        if mode is not None and not stat.S_ISREG(mode):
            with open(path, "w", encoding="utf-8") as handle:
                handle.writelines(chunks)
            return path
        # O_EXCL never follows a planted file; mode 0o666 lets the umask
        # decide for a new file, as for a plain open()
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with open(fd, "w", encoding="utf-8") as handle:
                if mode is not None:
                    os.fchmod(fd, stat.S_IMODE(mode))
                handle.writelines(chunks)
                handle.flush()
                os.fsync(fd)
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                tmp.unlink()
            raise
    except OSError as exc:
        reason = exc
        if exc.errno is not None and exc.filename is not None:
            reason = OSError(exc.errno, exc.strerror, str(path))
        raise IoFailure(f"cannot write {what}{path}: {reason}") from exc
    return path


def _jsonl_line(row: Mapping) -> str:
    return json.dumps(row, sort_keys=True) + "\n"


def write_jsonl(path: str | Path, rows: Iterable[Mapping]) -> Path:
    return write_text(path, map(_jsonl_line, rows))


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _decode_str(value) -> str:
    if not isinstance(value, str):
        raise ValueError("expected a string")
    return value


def _decode_version(value) -> VersionId:
    if not isinstance(value, str):
        raise ValueError("expected a version string")
    return parse_version(value)  # NoNumericComponent is a ValueError


def _decode_date(value) -> date:
    # date.fromisoformat alone also takes "20211201" and "2021-W48-3" on 3.11+
    if isinstance(value, str) and re.fullmatch(r"[0-9]{4}-[0-9]{2}-[0-9]{2}", value):
        with contextlib.suppress(ValueError):  # a month or day out of range
            return date.fromisoformat(value)
    raise ValueError(f"expected a YYYY-MM-DD date, got {value!r}")


def _enum_codec(enum_cls):
    def decode(value):
        try:
            return enum_cls(value)
        except ValueError:
            allowed = [member.value for member in enum_cls]
            raise ValueError(f"{value!r} not one of {allowed}") from None

    return decode, lambda member: member.value


# The JSON form of each record field type, as (decode, encode).  A decoder
# raises ValueError carrying the violation text.
_CODECS = {
    str: (_decode_str, lambda text: text),
    VersionId: (_decode_version, lambda version: version.raw),
    date: (_decode_date, date.isoformat),
    **{cls: _enum_codec(cls) for cls in (TaskKind, Granularity, DataSource, LifecycleTag)},
}


def _record_fields(cls) -> tuple[tuple[str, type, bool], ...]:
    """(name, codec type, required) of each field of a record named tuple,
    in field order.  A field with no default is required."""
    hints = get_type_hints(cls)
    out = []
    for name in cls._fields:
        hint = hints[name]
        kind = next(t for t in get_args(hint) or (hint,) if t is not type(None))
        out.append((name, kind, name not in cls._field_defaults))
    return tuple(out)


_INSTANCE_RECORD = _record_fields(TaskInstance)
# a meta record carries its caller-supplied id and core token beside the
# MetaInstance fields
_META_RECORD = (("id", str, True), ("core_token", str, True)) + _record_fields(MetaInstance)
# a mask record names its instance_id where a meta record has its id, and
# adds the fields that place the masked span
_MASK_RECORD = (("instance_id", str, True),) + _META_RECORD[1:]
_MASK_TARGET_FIELDS = frozenset({"occurrence", "line_index", "line_start", "line_end"})


def _decode_field(obj: dict, name: str, kind: type, required: bool, problems: list[str]):
    value = obj.get(name)
    if value is None:
        if required:
            problems.append(f"{name}: required")
        return None
    try:
        return _CODECS[kind][0](value)
    except ValueError as exc:
        problems.append(f"{name}: {exc}")
        return None


def _decode_record(obj: dict, record: tuple, problems: list[str]) -> dict:
    """The fields of record that decode from obj, an absent optional one as
    None; each unknown, missing or malformed field adds a problem instead."""
    unknown = set(obj) - {name for name, _, _ in record}
    if unknown:
        problems.append(f"unknown fields: {sorted(unknown)}")
    values = {}
    for name, kind, required in record:
        before = len(problems)
        value = _decode_field(obj, name, kind, required, problems)
        if len(problems) == before:
            values[name] = value
    return values


def _check(values: dict, problems: list[str], where: str) -> None:
    """Raise one error naming the decode problems and every record rule that
    the decoded values break, if there is any."""
    broken = _broken_rules(values)
    if problems or broken:
        raise SchemaViolation([f"{where}: {p}" for p in problems + broken])


def decode_instance(obj: dict, where: str = "instance") -> TaskInstance:
    """Decode one instance record; every problem with it is raised at once."""
    problems: list[str] = []
    values = _decode_record(obj, _INSTANCE_RECORD, problems)
    if problems:
        _check(values, problems, where)
    try:  # with every field decoded, construction judges the record rules
        return TaskInstance(**values)
    except SchemaViolation as exc:
        raise SchemaViolation([f"{where}: {p}" for p in exc.violations]) from None


def encode_instance(instance: TaskInstance) -> dict:
    """Inverse of decode_instance; None-valued optional fields are omitted."""
    row = {}
    for name, kind, _ in _INSTANCE_RECORD:
        value = getattr(instance, name)
        if value is not None:
            row[name] = _CODECS[kind][1](value)
    return row


def _decode_meta(
    obj: dict, record: tuple, where: str, problems: list[str]
) -> tuple[str, str, MetaInstance]:
    """Decode obj as record, whose first field is the caller-supplied id;
    its problems join those in problems, all raised in one error."""
    values = _decode_record(obj, record, problems)
    meta_id = values.pop(record[0][0], None)
    _check(values, problems, where)
    core_token = values.pop("core_token")
    return meta_id, core_token, MetaInstance(**values)


def decode_meta_record(obj: dict, where: str = "meta") -> tuple[str, str, MetaInstance]:
    """Decode one meta record carrying its caller-supplied id and core token.
    The id may not hold "::", which joins the two ids of a migration pair."""
    problems = []
    if isinstance(obj.get("id"), str) and "::" in obj["id"]:
        problems.append(f"id: {obj['id']!r} holds '::', which joins the ids of a pair")
    return _decode_meta(obj, _META_RECORD, where, problems)


def decode_mask_record(
    obj: dict, granularity: Granularity, where: str = "mask"
) -> tuple[MetaInstance, MaskSpec]:
    """Decode one masking request: a meta record plus target fields.

    token granularity reads "occurrence" (default 0), line reads
    "line_index", block reads "line_start"/"line_end" (inclusive).  The
    problems with the target, the instance_id and the meta fields are
    reported together in one SchemaViolation.
    """
    problems: list[str] = []
    if granularity is Granularity.TOKEN:
        target = {"occurrence": obj.get("occurrence", 0)}
        if not _is_int(target["occurrence"]):
            problems.append("occurrence: expected an integer")
    elif granularity is Granularity.LINE:
        target = {"line_index": obj.get("line_index")}
        if not _is_int(target["line_index"]):
            problems.append("line_index: required integer for line masking")
    else:
        target = {"line_span": (obj.get("line_start"), obj.get("line_end"))}
        if not all(map(_is_int, target["line_span"])):
            problems.append("line_start/line_end: required integers for block masking")
    meta_obj = {k: v for k, v in obj.items() if k not in _MASK_TARGET_FIELDS}
    instance_id, core_token, meta = _decode_meta(meta_obj, _MASK_RECORD, where, problems)
    return meta, MaskSpec(granularity, instance_id, core_token, **target)


def decode_exec_report(obj: dict, where: str = "exec") -> ExecReport:
    """Decode one exec report; every problem with it is raised at once."""
    problems: list[str] = []
    unknown = set(obj) - set(ExecReport._fields)
    if unknown:
        problems.append(f"unknown fields: {sorted(unknown)}")
    iid = _decode_field(obj, "instance_id", str, True, problems)
    index = obj.get("sample_index")
    if not _is_int(index):
        problems.append("sample_index: expected an integer")
    elif index < 0:
        problems.append("sample_index: must be >= 0")
    passed = obj.get("passed")
    if not isinstance(passed, bool):
        problems.append("passed: expected a boolean")
    cases = obj.get("case_results")
    if cases is not None and (
        not isinstance(cases, dict) or not all(isinstance(v, bool) for v in cases.values())
    ):
        problems.append("case_results: expected a map of category -> boolean")
    elif cases:
        unknown = set(cases) - set(EXEC_CASE_CATEGORIES)
        if unknown:
            problems.append(f"case_results: unknown categories {sorted(unknown)}")
        if isinstance(passed, bool) and passed != all(cases.values()):
            problems.append("passed: must equal the conjunction of case_results")
    if problems:
        raise SchemaViolation([f"{where}: {p}" for p in problems])
    return ExecReport(iid, index, passed, cases)


def ingest(
    instances_path: str | Path,
    samples_path: str | Path,
    exec_reports_path: str | Path | None = None,
) -> list[EvaluationItem]:
    """Join the line-delimited inputs on instance_id (and sample_index).

    Every sample set must name a known instance and every instance must have
    a sample set; exec reports are optional but must reference known
    instances and in-range sample indexes.
    """
    instances: dict[str, TaskInstance] = {}
    for lineno, obj in read_jsonl(instances_path):
        inst = decode_instance(obj, where=f"{instances_path}:{lineno}")
        if inst.id in instances:
            raise SchemaViolation([f"{instances_path}:{lineno}: duplicate instance id {inst.id!r}"])
        instances[inst.id] = inst

    sample_sets: dict[str, tuple[str, ...]] = {}
    orphan_samples: dict[str, None] = {}  # each unknown id once, in input order
    for lineno, obj in read_jsonl(samples_path):
        where = f"{samples_path}:{lineno}"
        iid = obj.get("instance_id")
        samples = obj.get("samples")
        text_list = isinstance(samples, list) and all(map(isinstance, samples, repeat(str)))
        if not isinstance(iid, str) or not text_list:
            raise SchemaViolation([f"{where}: expected {{instance_id, samples: [text, ...]}}"])
        if iid in sample_sets:
            raise SchemaViolation([f"{where}: duplicate sample set for instance {iid!r}"])
        if iid not in instances:
            orphan_samples[iid] = None
            continue
        if not samples:
            raise SchemaViolation([f"{where}: samples: need at least one generated sample"])
        sample_sets[iid] = tuple(samples)
    if orphan_samples:
        raise EvalError(f"sample sets reference unknown instance ids: {list(orphan_samples)}")
    missing_samples = [iid for iid in instances if iid not in sample_sets]
    if missing_samples:
        raise EvalError(f"instances lack sample sets: {missing_samples}")

    verdicts: dict[str, list[bool | None]] = {iid: [None] * len(s) for iid, s in sample_sets.items()}
    if exec_reports_path is not None:
        orphan_reports: dict[str, None] = {}
        for lineno, obj in read_jsonl(exec_reports_path):
            where = f"{exec_reports_path}:{lineno}"
            report = decode_exec_report(obj, where)
            if report.instance_id not in instances:
                orphan_reports[report.instance_id] = None
                continue
            slots = verdicts[report.instance_id]
            n = len(slots)
            if report.sample_index >= n:
                raise SchemaViolation(
                    [f"{where}: sample_index {report.sample_index} out of range for n={n}"]
                )
            if slots[report.sample_index] is not None:  # set by an earlier report
                key = (report.instance_id, report.sample_index)
                raise SchemaViolation([f"{where}: duplicate exec report for {key}"])
            slots[report.sample_index] = report.passed
        if orphan_reports:
            raise EvalError(f"exec reports reference unknown instance ids: {list(orphan_reports)}")

    return [EvaluationItem(i, sample_sets[i.id], tuple(verdicts[i.id])) for i in instances.values()]


def _shorten(text: str, limit: int = 60) -> str:
    return text if len(text) <= limit else text[: limit - 3] + "..."


def normalize_generation(raw: str, granularity: Granularity) -> str:
    """Fence-strip (first fenced block wins, prose outside it is dropped),
    trim whitespace, and for token granularity reduce to the first
    identifier-like token.

    A line or block generation starts at its first non-blank line and keeps
    that line's indentation, so that its lines keep their indentation
    relative to each other when cdc dedents it.

    Raises EmptyAfterNormalization when nothing remains.  Token reduction
    may discard surrounding text: a prose answer like "The answer is x"
    reduces to "The", which is the documented hazard.  This logs nothing;
    run_scoring counts the samples that were reduced or emptied and logs one
    summary per kind.
    """
    text = strip_code_fences(raw).rstrip()
    body = text.lstrip()
    if granularity is Granularity.TOKEN:
        match = IDENTIFIER_RE.search(body)
        if match is None:
            raise EmptyAfterNormalization(f"no identifier-like token in {raw!r}")
        text = match.group(0)
    else:  # leading blank lines go; the first line keeps its indentation
        text = universal_newlines(text[: len(text) - len(body)]).rpartition("\n")[2] + body
    if not text:
        raise EmptyAfterNormalization(f"nothing left after normalizing {raw!r}")
    return text


def _normalize_metric_selection(metrics) -> tuple[MetricName, ...]:
    chosen = set()
    for metric in metrics:
        try:
            chosen.add(MetricName(metric))
        except ValueError:
            raise InvalidArgs(
                f"unknown metric {metric!r}; choose from {[m.value for m in MetricName]}"
            ) from None
    return tuple(m for m in MetricName if m in chosen)


def _normalize_ks(ks) -> tuple[int, ...]:
    out = set()
    for k in ks:
        if not _is_int(k) or k < 1:
            raise InvalidArgs(f"k values must be positive integers, got {k!r}")
        out.add(k)
    if not out:
        raise InvalidArgs("need at least one k value")
    return tuple(sorted(out))


def _scorer(metric: MetricName, instance: TaskInstance) -> Callable[[str], float]:
    """The function that scores a normalized generation of instance by one
    static metric (em, ism, pm or cdc).

    cdc judges a line or block sample inside the program that the masked
    code completes, and a token or migration sample alone.  The sample is
    dedented and then takes the reference's margin (the indentation that
    all its non-blank lines share), so a sample equal to the reference
    rebuilds the program and a sample written at column 0 lands where the
    span was.  The text around the mask, the reference and its margin are
    derived here, once per instance.
    """
    reference = instance.reference
    granularity = instance.granularity
    if metric is MetricName.EM:
        if granularity is Granularity.TOKEN:
            return lambda text: float(em_token(text, reference))
        return lambda text: float(em_block(text, instance.core_token))
    if metric is not MetricName.CDC:
        line_metric = ism_line if metric is MetricName.ISM else pm_line
        if granularity is Granularity.BLOCK:
            return lambda text: block_line_average(text, reference, line_metric)
        return lambda text: line_metric(text, reference)
    # every text LF-ended, as textwrap needs
    head = tail = margin = ""
    if instance.masked_code is not None and granularity is not Granularity.TOKEN:
        masked = universal_newlines(instance.masked_code)
        head, _, tail = masked.partition(MASK_SENTINELS[granularity])
    reference = universal_newlines(reference)
    if reference[:1].isspace():  # else the first line is at column 0 and there is no margin
        margin = os.path.commonprefix(re.findall(r"(?m)^[ \t]*(?=[^ \t\n])", reference))

    def cdc(text: str) -> float:
        sample = textwrap.dedent(universal_newlines(text))
        if margin:
            sample = textwrap.indent(sample, margin)
        try:
            return float(cdc_check(sample, reference, instance.core_token, head, tail).overall)
        except InvalidReference as exc:
            raise InvalidReference(f"instance {instance.id!r}: {exc}") from None

    return cdc


def _normalized(
    item: EvaluationItem, reduced: list[tuple[str, str, int]], emptied: list[tuple[str, str, int]]
) -> dict[str, str | None]:
    """Each distinct raw sample text of item, in first-occurrence order,
    mapped to its normalized text, or to None when nothing is left.  Samples
    repeat heavily at large n, so each distinct text is normalized once.

    For each distinct text that token reduction shortened, or that nothing
    was left of, appends (instance id, example, number of samples with that
    text) to reduced or emptied; _log_losses sums them up."""
    instance = item.instance
    token = instance.granularity is Granularity.TOKEN
    normalized: dict[str, str | None] = {}
    for raw, count in Counter(item.samples).items():
        try:
            text = normalize_generation(raw, instance.granularity)
        except EmptyAfterNormalization:
            normalized[raw] = None
            emptied.append((instance.id, repr(_shorten(instance.id)), count))
            continue
        normalized[raw] = text
        if token and text != strip_code_fences(raw).strip():
            reduced.append((instance.id, f"{_shorten(raw)!r} -> {_shorten(text)!r}", count))
    return normalized


def _log_losses(message: str, losses: Sequence[tuple[str, str, int]]) -> None:
    """One warning for losses from _normalized, unless there are none:
    message takes the number of samples, the number of instances and the
    first three distinct examples in input order."""
    if not losses:
        return
    examples = dict.fromkeys(example for _, example, _ in losses)
    log.warning(
        message,
        sum(count for _, _, count in losses),
        len({instance_id for instance_id, _, _ in losses}),
        ", ".join(list(examples)[:3]),
    )


def _score_item(
    item: EvaluationItem,
    normalized: Mapping[str, str | None],
    metrics: Sequence[MetricName],
    ks: Sequence[int],
    per_instance: bool,
) -> tuple[dict[MetricName, Mapping[int, float]], str] | EvalError:
    """Score one instance from its _normalized map: its @k values per
    metric, and the JSONL text of its per-instance rows when per_instance
    is set ("" otherwise); or return the error that stopped it.  Each
    distinct normalized text is scored once per static metric; pass stays
    per sample index because it follows each sample's exec verdict.  A
    sample that normalized to nothing scores 0."""
    instance = item.instance
    texts = list(map(normalized.__getitem__, item.samples))
    distinct = [text for text in dict.fromkeys(texts) if text is not None]

    n = len(item.samples)
    at_k_values = {}
    rows = []
    for metric in metrics:
        if metric is MetricName.PASS:
            per_sample = tuple(map(float, item.exec_passed))
        else:
            score = _scorer(metric, instance)
            try:
                scores = {text: score(text) for text in distinct}
            except EvalError as exc:
                return exc
            scores[None] = 0.0
            per_sample = tuple(map(scores.__getitem__, texts))
        correct = per_sample.count(1.0)
        if metric in (MetricName.EM, MetricName.CDC, MetricName.PASS):
            at_k = {k: estimate_at_k(n, correct, k) for k in ks}
        else:  # score_at_k checks that the scores lie in [0, 1]
            ordered = sorted(per_sample)  # once: score_at_k sorts sorted input in one pass
            at_k = {k: score_at_k(ordered, k) for k in ks}
        at_k_values[metric] = at_k
        if per_instance:
            row = {
                "instance_id": instance.id,
                "metric": metric.value,
                "n": n,
                "correct_count": correct,
                "per_sample": list(per_sample),
                "at_k": {str(k): value for k, value in at_k.items()},
            }
            rows.append(_jsonl_line(row))
    return at_k_values, "".join(rows)


def _group_key(instance: TaskInstance, group_by: str | None) -> str:
    if group_by is None:
        return "all"
    if group_by == "data_source":
        return f"data_source={instance.data_source.value}"
    if group_by == "lifecycle_tag":
        tag = instance.lifecycle_tag.value if instance.lifecycle_tag else "unspecified"
        return f"lifecycle_tag={tag}"
    if group_by == "year":
        year = instance.release_date.year if instance.release_date else "unspecified"
        return f"year={year}"
    # pattern / direction apply to migration instances only
    if instance.task is not TaskKind.VACM:
        return f"{group_by}=unspecified"
    direction, pattern = categorize_migration(instance.source_version, instance.target_version)
    return f"{group_by}={pattern if group_by == 'pattern' else direction}"


def run_scoring(
    items: Sequence[EvaluationItem],
    metrics: Sequence[MetricName | str],
    ks: Sequence[int],
    group_by: str | None = None,
    *,
    per_instance: bool = False,
) -> ScoringResult:
    """Score every item, estimate @k per requested k, and aggregate unweighted
    per-group means.

    Every item's samples are normalized in input order before any item is
    scored.  That pass counts, over all samples with repeats, the token
    samples that reduction shortened and the samples that nothing was left
    of, and logs at most one warning per kind: the number of samples and of
    instances and the first three distinct examples.  A run that aborts has
    logged them first.  Items are then scored on every usable core (see
    _fanout.fan_out), and the first error in input order is raised, so the
    result, the log and the error do not depend on the core count.  The
    workers send back only each item's @k values, which the aggregates and
    Pearson rows are computed from, and, with per_instance, the item's
    encoded per-instance rows; a run without it encodes none.

    When both pass and a static metric are selected, a Pearson agreement row
    (metric "pearson_<m>_vs_pass") over the per-instance @k series is emitted
    per k; degenerate series are skipped with a warning.
    """
    metric_sel = _normalize_metric_selection(metrics)
    if not metric_sel:
        raise InvalidArgs("no metrics selected")
    ks = _normalize_ks(ks)
    if group_by is not None and group_by not in GROUP_DIMENSIONS:
        raise InvalidArgs(f"unknown group-by {group_by!r}; choose from {list(GROUP_DIMENSIONS)}")
    items = list(items)

    for item in items:
        for k in ks:
            if k > len(item.samples):
                raise InvalidArgs(
                    f"k={k} exceeds n={len(item.samples)} for instance {item.instance.id!r}"
                )
    if MetricName.PASS in metric_sel:
        missing = [
            (item.instance.id, i)
            for item in items
            for i, verdict in enumerate(item.exec_passed)
            if verdict is None
        ]
        if missing:
            raise InvalidArgs(
                f"pass metric requested but {len(missing)} sample(s) lack execution verdicts,"
                f" first: {missing[: 3]}"
            )

    from ._fanout import fan_out  # see its module docstring

    reduced: list[tuple[str, str, int]] = []
    emptied: list[tuple[str, str, int]] = []
    work = [(item, _normalized(item, reduced, emptied)) for item in items]
    _log_losses("token normalization reduced %d sample(s) of %d instance(s); first: %s", reduced)
    _log_losses("%d sample(s) of %d instance(s) normalized to nothing and score 0; first: %s",
                emptied)
    scored = fan_out(lambda pair: _score_item(*pair, metric_sel, ks, per_instance), work)
    for result in scored:
        if isinstance(result, EvalError):
            raise result
    at_k = [values for values, _ in scored]

    groups: dict[str, list[int]] = {}
    for idx, item in enumerate(items):
        groups.setdefault(_group_key(item.instance, group_by), []).append(idx)

    rows: list[AggregateRow] = []
    for key in sorted(groups):
        indexes = groups[key]
        for metric in metric_sel:
            for k in ks:
                mean = math.fsum(at_k[i][metric][k] for i in indexes) / len(indexes)
                rows.append(AggregateRow(key, metric.value, k, mean, len(indexes)))

    if MetricName.PASS in metric_sel and len(items) >= 2:
        pass_series = {k: [values[MetricName.PASS][k] for values in at_k] for k in ks}
        for metric in metric_sel:
            if metric is MetricName.PASS:
                continue
            for k in ks:
                series = [values[metric][k] for values in at_k]
                try:
                    coefficient = pearson(series, pass_series[k])
                except DegenerateSeries as exc:
                    log.warning(
                        "skipping %s-vs-pass agreement at k=%d: %s", metric.value, k, exc
                    )
                    continue
                rows.append(
                    AggregateRow(
                        "all", f"pearson_{metric.value}_vs_pass", k, coefficient, len(items)
                    )
                )

    rows.sort(key=lambda row: (row.group_key, row.metric, row.k))
    texts = tuple(text for _, text in scored) if per_instance else ()
    return ScoringResult(texts, tuple(rows))


def emit_report(aggregates: Sequence[AggregateRow], fmt: str, out_path: str | Path) -> Path:
    """Write rows sorted by (group_key, metric, k) as csv or json, with
    AggregateRow's fields as columns.

    Output is byte-deterministic for identical inputs; empty aggregates are
    refused.
    """
    rows = sorted(aggregates, key=lambda row: (row.group_key, row.metric, row.k))
    if not rows:
        raise InvalidArgs("refusing to emit an empty report")
    if fmt not in ("csv", "json"):
        raise InvalidArgs(f"unknown report format {fmt!r}")
    if fmt == "json":
        payload = {"rows": [row._asdict() for row in rows]}
        data = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        import csv  # here, so that only a csv report loads it

        # csv writes a float as its repr, as json does
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\n").writerows([AggregateRow._fields, *rows])
        data = buffer.getvalue()
    return write_text(out_path, (data,), what="report ")


def write_score_vectors(result: ScoringResult, out_path: str | Path) -> Path:
    """Write result's per-instance rows as JSONL: per instance in input
    order, one row per metric with its instance_id, n, correct_count,
    per_sample scores and at_k values.  The workers of
    run_scoring(..., per_instance=True) encoded them; a result from a run
    without per_instance has none, and gives an empty file."""
    return write_text(out_path, result.per_instance)
