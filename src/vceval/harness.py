"""Pipeline plumbing: JSONL ingestion, generation-text normalization, metric
orchestration over a worker pool, grouped aggregation, and report emission.

Items are scored independently and reduced in input order, so worker count
never changes any output byte.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import logging
import os
import stat
import textwrap
import uuid
from collections.abc import Mapping, Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from datetime import date
from pathlib import Path

from .core_model import (
    IDENTIFIER_RE,
    DataSource,
    Granularity,
    LifecycleTag,
    MetaInstance,
    MetricName,
    SampleSet,
    ScoreVector,
    TaskInstance,
    TaskKind,
    parse_version,
)
from .core_model import validate_instance as _validate_instance
from .datagen import MaskSpec, categorize_migration
from .errors import (
    DegenerateSeries,
    EmptyAfterNormalization,
    InvalidArgs,
    InvalidReference,
    IoFailure,
    JoinFailure,
    KExceedsN,
    MissingExecReports,
    NoNumericComponent,
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

log = logging.getLogger(__name__)

EXEC_CASE_CATEGORIES = ("return_type", "normal_input", "boundary_values", "functionality")

GROUP_DIMENSIONS = ("data_source", "lifecycle_tag", "year", "pattern", "direction")

_METRIC_ORDER = (MetricName.EM, MetricName.ISM, MetricName.PM, MetricName.CDC, MetricName.PASS)


@dataclass(frozen=True)
class ExecReport:
    """Externally produced execution verdict for one generated sample."""

    instance_id: str
    sample_index: int
    passed: bool
    case_results: Mapping[str, bool] | None = None

    def __post_init__(self) -> None:
        problems = []
        if self.sample_index < 0:
            problems.append("sample_index: must be >= 0")
        if self.case_results is not None:
            unknown = set(self.case_results) - set(EXEC_CASE_CATEGORIES)
            if unknown:
                problems.append(f"case_results: unknown categories {sorted(unknown)}")
            if self.case_results and self.passed != all(self.case_results.values()):
                problems.append("passed: must equal the conjunction of case_results")
        if problems:
            raise SchemaViolation(problems)


@dataclass(frozen=True)
class AggregateRow:
    """One aggregated metric value for one group of instances."""

    group_key: str
    metric: str
    k: int
    value: float
    instance_count: int


@dataclass(frozen=True)
class EvaluationItem:
    """A validated instance joined with its samples and optional exec verdicts."""

    instance: TaskInstance
    sample_set: SampleSet
    exec_passed: tuple[bool | None, ...]


@dataclass(frozen=True)
class ScoringResult:
    """Per-instance score vectors, @k values keyed by (id, metric, k), and
    group aggregates."""

    score_vectors: tuple[ScoreVector, ...]
    at_k: Mapping[tuple[str, MetricName, int], float]
    aggregates: tuple[AggregateRow, ...]
    ks: tuple[int, ...]


def read_jsonl(path: str | Path) -> list[tuple[int, dict]]:
    """All (lineno, object) records of a line-delimited JSON file."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError as exc:
        raise IoFailure(f"missing file: {path}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise IoFailure(f"unreadable file {path}: {exc}") from exc
    rows = []
    # split on "\n" only: str.splitlines() also breaks at U+2028, U+0085 and
    # other separators that may sit unescaped inside a JSON string
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise SchemaViolation([f"{path}:{lineno}: invalid JSON: {exc.msg}"]) from None
        if not isinstance(obj, dict):
            raise SchemaViolation([f"{path}:{lineno}: expected a JSON object"])
        rows.append((lineno, obj))
    return rows


def write_text(path: str | Path, data: str, what: str = "") -> Path:
    """Write data to path.  A new path or an existing regular file is
    replaced atomically: the data goes to a temp file beside it, which takes
    the old file's permission bits, is fsynced and then os.replace'd over
    path, so a failed write leaves any previous file untouched.  That needs
    a writable directory.  Anything else -- a symlink, or a device or pipe
    such as /dev/stdout -- is opened and written through in place.

    Raises IoFailure("cannot write <what><path>: ...") on any OSError; the
    message names path, never the temp file.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        try:
            mode = os.lstat(path).st_mode
        except FileNotFoundError:
            mode = None
        if mode is not None and not stat.S_ISREG(mode):
            path.write_text(data, encoding="utf-8")
            return path
        # O_EXCL never follows a planted file; mode 0o666 lets the umask
        # decide for a new file, as for a plain open()
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        with open(fd, "w", encoding="utf-8") as handle:
            if mode is not None:
                os.fchmod(fd, stat.S_IMODE(mode))
            handle.write(data)
            handle.flush()
            os.fsync(fd)
        os.replace(tmp, path)
    except OSError as exc:
        with contextlib.suppress(OSError):
            tmp.unlink()
        reason = exc
        if exc.errno is not None and exc.filename is not None:
            reason = OSError(exc.errno, exc.strerror, str(path))
        raise IoFailure(f"cannot write {what}{path}: {reason}") from exc
    return path


def write_jsonl(path: str | Path, rows: Sequence[Mapping]) -> Path:
    return write_text(path, "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows))


def _prefixed(exc: SchemaViolation, where: str) -> SchemaViolation:
    return type(exc)([f"{where}: {v}" for v in exc.violations])


def _decode_enum(enum_cls, value, field: str, problems: list[str]):
    if value is None:
        return None
    try:
        return enum_cls(value)
    except ValueError:
        allowed = [member.value for member in enum_cls]
        problems.append(f"{field}: {value!r} not one of {allowed}")
        return None


def _decode_version(value, field: str, problems: list[str]):
    if value is None:
        return None
    if not isinstance(value, str):
        problems.append(f"{field}: expected a version string")
        return None
    try:
        return parse_version(value)
    except NoNumericComponent as exc:
        problems.append(f"{field}: {exc}")
        return None


def _decode_date(value, field: str, problems: list[str]):
    if value is None:
        return None
    try:
        return date.fromisoformat(value)
    except (TypeError, ValueError):
        problems.append(f"{field}: expected an ISO 8601 date, got {value!r}")
        return None


def _decode_str(obj: dict, field: str, problems: list[str], required: bool = True):
    value = obj.get(field)
    if value is None:
        if required:
            problems.append(f"{field}: required")
        return None
    if not isinstance(value, str):
        problems.append(f"{field}: expected a string")
        return None
    return value


_INSTANCE_FIELDS = {
    "id",
    "task",
    "granularity",
    "library",
    "source_version",
    "target_version",
    "description",
    "masked_code",
    "source_code",
    "reference",
    "core_token",
    "data_source",
    "lifecycle_tag",
    "release_date",
}


def decode_instance(obj: dict, where: str = "instance") -> TaskInstance:
    """Decode and fully validate one instance record."""
    problems: list[str] = []
    unknown = set(obj) - _INSTANCE_FIELDS
    if unknown:
        problems.append(f"unknown fields: {sorted(unknown)}")

    for field in ("task", "granularity", "data_source", "source_version"):
        if obj.get(field) is None:
            problems.append(f"{field}: required")
    iid = _decode_str(obj, "id", problems)
    task = _decode_enum(TaskKind, obj.get("task"), "task", problems)
    granularity = _decode_enum(Granularity, obj.get("granularity"), "granularity", problems)
    library = _decode_str(obj, "library", problems)
    source_version = _decode_version(obj.get("source_version"), "source_version", problems)
    target_version = _decode_version(obj.get("target_version"), "target_version", problems)
    description = _decode_str(obj, "description", problems)
    masked_code = _decode_str(obj, "masked_code", problems, required=False)
    source_code = _decode_str(obj, "source_code", problems, required=False)
    reference = _decode_str(obj, "reference", problems)
    core_token = _decode_str(obj, "core_token", problems)
    data_source = _decode_enum(DataSource, obj.get("data_source"), "data_source", problems)
    lifecycle_tag = _decode_enum(LifecycleTag, obj.get("lifecycle_tag"), "lifecycle_tag", problems)
    release_date = _decode_date(obj.get("release_date"), "release_date", problems)
    if problems:
        raise SchemaViolation([f"{where}: {p}" for p in problems])

    instance = TaskInstance(
        id=iid,
        task=task,
        granularity=granularity,
        library=library,
        source_version=source_version,
        target_version=target_version,
        description=description,
        masked_code=masked_code,
        source_code=source_code,
        reference=reference,
        core_token=core_token,
        data_source=data_source,
        lifecycle_tag=lifecycle_tag,
        release_date=release_date,
    )
    try:
        return _validate_instance(instance)
    except SchemaViolation as exc:
        raise _prefixed(exc, where) from None


def encode_instance(instance: TaskInstance) -> dict:
    """Inverse of decode_instance; None-valued optional fields are omitted."""
    row = {
        "id": instance.id,
        "task": instance.task.value,
        "granularity": instance.granularity.value,
        "library": instance.library,
        "source_version": instance.source_version.raw,
        "description": instance.description,
        "reference": instance.reference,
        "core_token": instance.core_token,
        "data_source": instance.data_source.value,
    }
    if instance.target_version is not None:
        row["target_version"] = instance.target_version.raw
    if instance.masked_code is not None:
        row["masked_code"] = instance.masked_code
    if instance.source_code is not None:
        row["source_code"] = instance.source_code
    if instance.lifecycle_tag is not None:
        row["lifecycle_tag"] = instance.lifecycle_tag.value
    if instance.release_date is not None:
        row["release_date"] = instance.release_date.isoformat()
    return row


_META_FIELDS = {
    "id",
    "core_token",
    "library",
    "version",
    "description",
    "code",
    "data_source",
    "lifecycle_tag",
    "release_date",
}


def decode_meta_record(obj: dict, where: str = "meta") -> tuple[str, str, MetaInstance]:
    """Decode one meta record carrying its caller-supplied id and core token."""
    problems: list[str] = []
    unknown = set(obj) - _META_FIELDS
    if unknown:
        problems.append(f"unknown fields: {sorted(unknown)}")
    meta_id = _decode_str(obj, "id", problems)
    core_token = _decode_str(obj, "core_token", problems)
    if core_token is not None and not IDENTIFIER_RE.fullmatch(core_token):
        problems.append("core_token: must be a single identifier")
    library = _decode_str(obj, "library", problems)
    version = _decode_version(obj.get("version"), "version", problems)
    if obj.get("version") is None:
        problems.append("version: required")
    description = _decode_str(obj, "description", problems)
    code = _decode_str(obj, "code", problems)
    data_source = _decode_enum(DataSource, obj.get("data_source"), "data_source", problems)
    if obj.get("data_source") is None:
        problems.append("data_source: required")
    lifecycle_tag = _decode_enum(LifecycleTag, obj.get("lifecycle_tag"), "lifecycle_tag", problems)
    release_date = _decode_date(obj.get("release_date"), "release_date", problems)
    if problems:
        raise SchemaViolation([f"{where}: {p}" for p in problems])
    try:
        meta = MetaInstance(
            library=library,
            version=version,
            description=description,
            code=code,
            data_source=data_source,
            lifecycle_tag=lifecycle_tag,
            release_date=release_date,
        )
    except SchemaViolation as exc:
        raise _prefixed(exc, where) from None
    return meta_id, core_token, meta


def decode_mask_record(
    obj: dict, granularity: Granularity, where: str = "mask"
) -> tuple[MetaInstance, MaskSpec]:
    """Decode one masking request: a meta record plus target fields.

    token granularity reads "occurrence" (default 0), line reads
    "line_index", block reads "line_start"/"line_end" (inclusive).
    """
    target_fields = {"instance_id", "occurrence", "line_index", "line_start", "line_end"}
    meta_obj = {k: v for k, v in obj.items() if k in _META_FIELDS - {"id"}}
    extra = set(obj) - target_fields - set(meta_obj)
    problems: list[str] = []
    if extra:
        problems.append(f"unknown fields: {sorted(extra)}")
    instance_id = _decode_str(obj, "instance_id", problems)
    if problems:
        raise SchemaViolation([f"{where}: {p}" for p in problems])
    _, core_token, meta = decode_meta_record({"id": instance_id, **meta_obj}, where)

    occurrence = obj.get("occurrence", 0)
    line_index = obj.get("line_index")
    line_start, line_end = obj.get("line_start"), obj.get("line_end")
    if granularity is Granularity.TOKEN:
        if not isinstance(occurrence, int) or isinstance(occurrence, bool):
            raise SchemaViolation([f"{where}: occurrence: expected an integer"])
        spec = MaskSpec(granularity, instance_id, core_token, occurrence=occurrence)
    elif granularity is Granularity.LINE:
        if not isinstance(line_index, int) or isinstance(line_index, bool):
            raise SchemaViolation([f"{where}: line_index: required integer for line masking"])
        spec = MaskSpec(granularity, instance_id, core_token, line_index=line_index)
    else:
        if not all(isinstance(v, int) and not isinstance(v, bool) for v in (line_start, line_end)):
            raise SchemaViolation(
                [f"{where}: line_start/line_end: required integers for block masking"]
            )
        spec = MaskSpec(granularity, instance_id, core_token, line_span=(line_start, line_end))
    return meta, spec


_EXEC_FIELDS = {"instance_id", "sample_index", "passed", "case_results"}


def decode_exec_report(obj: dict, where: str = "exec") -> ExecReport:
    problems: list[str] = []
    unknown = set(obj) - _EXEC_FIELDS
    if unknown:
        problems.append(f"unknown fields: {sorted(unknown)}")
    iid = _decode_str(obj, "instance_id", problems)
    index = obj.get("sample_index")
    if not isinstance(index, int) or isinstance(index, bool):
        problems.append("sample_index: expected an integer")
    passed = obj.get("passed")
    if not isinstance(passed, bool):
        problems.append("passed: expected a boolean")
    cases = obj.get("case_results")
    if cases is not None and (
        not isinstance(cases, dict) or not all(isinstance(v, bool) for v in cases.values())
    ):
        problems.append("case_results: expected a map of category -> boolean")
    if problems:
        raise SchemaViolation([f"{where}: {p}" for p in problems])
    try:
        return ExecReport(iid, index, passed, cases)
    except SchemaViolation as exc:
        raise _prefixed(exc, where) from None


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
    order: list[str] = []
    for lineno, obj in read_jsonl(instances_path):
        inst = decode_instance(obj, where=f"{instances_path}:{lineno}")
        if inst.id in instances:
            raise SchemaViolation([f"{instances_path}:{lineno}: duplicate instance id {inst.id!r}"])
        instances[inst.id] = inst
        order.append(inst.id)

    sample_sets: dict[str, SampleSet] = {}
    orphan_samples: list[str] = []
    for lineno, obj in read_jsonl(samples_path):
        where = f"{samples_path}:{lineno}"
        iid = obj.get("instance_id")
        samples = obj.get("samples")
        if not isinstance(iid, str) or not isinstance(samples, list) or not all(
            isinstance(s, str) for s in samples
        ):
            raise SchemaViolation([f"{where}: expected {{instance_id, samples: [text, ...]}}"])
        if iid in sample_sets:
            raise SchemaViolation([f"{where}: duplicate sample set for instance {iid!r}"])
        if iid not in instances:
            orphan_samples.append(iid)
            continue
        try:
            sample_sets[iid] = SampleSet(iid, tuple(samples))
        except SchemaViolation as exc:
            raise _prefixed(exc, where) from None
    if orphan_samples:
        raise JoinFailure(
            f"sample sets reference unknown instance ids: {orphan_samples}", orphan_samples
        )
    missing_samples = [iid for iid in order if iid not in sample_sets]
    if missing_samples:
        raise JoinFailure(f"instances lack sample sets: {missing_samples}", missing_samples)

    verdicts: dict[str, list[bool | None]] = {iid: [None] * sample_sets[iid].n for iid in order}
    if exec_reports_path is not None:
        seen: set[tuple[str, int]] = set()
        orphan_reports: list[str] = []
        for lineno, obj in read_jsonl(exec_reports_path):
            where = f"{exec_reports_path}:{lineno}"
            report = decode_exec_report(obj, where)
            if report.instance_id not in instances:
                orphan_reports.append(report.instance_id)
                continue
            n = sample_sets[report.instance_id].n
            if report.sample_index >= n:
                raise SchemaViolation(
                    [f"{where}: sample_index {report.sample_index} out of range for n={n}"]
                )
            key = (report.instance_id, report.sample_index)
            if key in seen:
                raise SchemaViolation([f"{where}: duplicate exec report for {key}"])
            seen.add(key)
            verdicts[report.instance_id][report.sample_index] = report.passed
        if orphan_reports:
            raise JoinFailure(
                f"exec reports reference unknown instance ids: {orphan_reports}", orphan_reports
            )

    return [EvaluationItem(instances[iid], sample_sets[iid], tuple(verdicts[iid])) for iid in order]


def _shorten(text: str, limit: int = 60) -> str:
    return text if len(text) <= limit else text[: limit - 3] + "..."


def normalize_generation(raw: str, granularity: Granularity) -> str:
    """Fence-strip (first fenced block wins, prose outside it is dropped),
    trim whitespace, and for token granularity reduce to the first
    identifier-like token.

    Raises EmptyAfterNormalization when nothing remains.  A warning is logged
    whenever token reduction discards surrounding text: a prose answer like
    "The answer is x" reduces to "The", which is the documented hazard.
    Scoring calls this once per distinct raw sample text of an instance, so
    the warning appears once per such text, not once per sample.
    """
    text = strip_code_fences(raw).strip()
    if granularity is Granularity.TOKEN:
        match = IDENTIFIER_RE.search(text)
        if match is None:
            raise EmptyAfterNormalization(f"no identifier-like token in {raw!r}")
        if match.group(0) != text:
            log.warning(
                "token normalization reduced %r to %r", _shorten(raw), match.group(0)
            )
        text = match.group(0)
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
    return tuple(m for m in _METRIC_ORDER if m in chosen)


def _normalize_ks(ks) -> tuple[int, ...]:
    out = set()
    for k in ks:
        if not isinstance(k, int) or isinstance(k, bool) or k < 1:
            raise InvalidArgs(f"k values must be positive integers, got {k!r}")
        out.add(k)
    if not out:
        raise InvalidArgs("need at least one k value")
    return tuple(sorted(out))


def _score_text(metric: MetricName, instance: TaskInstance, text: str) -> float:
    """One static metric (em, ism, pm or cdc) of one normalized generation."""
    reference = instance.reference
    granularity = instance.granularity
    if metric is MetricName.EM:
        if granularity is Granularity.TOKEN:
            return float(em_token(text, reference))
        return float(em_block(text, instance.core_token))
    if metric is MetricName.ISM:
        if granularity is Granularity.BLOCK:
            return block_line_average(text, reference, ism_line)
        return ism_line(text, reference)
    if metric is MetricName.PM:
        if granularity is Granularity.BLOCK:
            return block_line_average(text, reference, pm_line)
        return pm_line(text, reference)
    # cdc; dedent both sides so an indented masked span judges as a unit
    try:
        return cdc_check(
            textwrap.dedent(text), textwrap.dedent(reference), instance.core_token
        ).score
    except InvalidReference as exc:
        raise InvalidReference(f"instance {instance.id!r}: {exc}") from None


def _score_item(
    item: EvaluationItem, metrics: Sequence[MetricName], ks: Sequence[int]
) -> dict[MetricName, tuple[ScoreVector, dict[int, float]]]:
    """Score one instance.  Samples repeat heavily at large n, so each
    distinct raw text is normalized once and each distinct normalized text
    is scored once per static metric; pass stays per sample index because
    it follows each sample's exec verdict.  A sample that normalizes to
    nothing (None) scores 0."""
    instance = item.instance
    normalized: dict[str, str | None] = {}
    for raw in item.sample_set.samples:
        if raw in normalized:
            continue
        try:
            normalized[raw] = normalize_generation(raw, instance.granularity)
        except EmptyAfterNormalization:
            log.warning("instance %s: a sample normalized to nothing, scoring it 0", instance.id)
            normalized[raw] = None
    texts = [normalized[raw] for raw in item.sample_set.samples]
    distinct = [text for text in dict.fromkeys(texts) if text is not None]

    n = item.sample_set.n
    result = {}
    for metric in metrics:
        if metric is MetricName.PASS:
            per_sample = tuple(1.0 if passed else 0.0 for passed in item.exec_passed)
        else:
            scores = {text: _score_text(metric, instance, text) for text in distinct}
            scores[None] = 0.0
            per_sample = tuple(scores[text] for text in texts)
        vector = ScoreVector.from_scores(instance.id, metric, per_sample)
        at_k: dict[int, float] = {}
        for k in ks:
            if metric in (MetricName.EM, MetricName.CDC, MetricName.PASS):
                at_k[k] = estimate_at_k(n, vector.correct_count, k)
            else:
                at_k[k] = score_at_k(per_sample, k)
        result[metric] = (vector, at_k)
    return result


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
    if instance.task is not TaskKind.VACM or instance.target_version is None:
        return f"{group_by}=unspecified"
    category = categorize_migration(instance.source_version, instance.target_version)
    value = category.pattern.value if group_by == "pattern" else category.direction.value
    return f"{group_by}={value}"


def run_scoring(
    items: Sequence[EvaluationItem],
    metrics: Sequence[MetricName | str],
    ks: Sequence[int],
    group_by: str | None = None,
    workers: int = 1,
) -> ScoringResult:
    """Score every item, estimate @k per requested k, and aggregate unweighted
    per-group means.

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
    if workers < 1:
        raise InvalidArgs("workers must be >= 1")
    items = list(items)

    for item in items:
        for k in ks:
            if k > item.sample_set.n:
                raise KExceedsN(
                    f"k={k} exceeds n={item.sample_set.n} for instance {item.instance.id!r}"
                )
    if MetricName.PASS in metric_sel:
        missing = [
            (item.instance.id, i)
            for item in items
            for i, verdict in enumerate(item.exec_passed)
            if verdict is None
        ]
        if missing:
            raise MissingExecReports(
                f"pass metric requested but {len(missing)} sample(s) lack execution verdicts,"
                f" first: {missing[: 3]}"
            )

    if workers == 1 or len(items) <= 1:
        scored = [_score_item(item, metric_sel, ks) for item in items]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            scored = list(pool.map(lambda item: _score_item(item, metric_sel, ks), items))

    vectors: list[ScoreVector] = []
    at_k: dict[tuple[str, MetricName, int], float] = {}
    groups: dict[str, list[int]] = {}
    for idx, item in enumerate(items):
        groups.setdefault(_group_key(item.instance, group_by), []).append(idx)
        for metric in metric_sel:
            vector, ks_map = scored[idx][metric]
            vectors.append(vector)
            for k, value in ks_map.items():
                at_k[(item.instance.id, metric, k)] = value

    rows: list[AggregateRow] = []
    for key in sorted(groups):
        indexes = groups[key]
        for metric in metric_sel:
            for k in ks:
                mean = sum(scored[i][metric][1][k] for i in indexes) / len(indexes)
                rows.append(AggregateRow(key, metric.value, k, mean, len(indexes)))

    if MetricName.PASS in metric_sel and len(items) >= 2:
        pass_series = {
            k: [scored[i][MetricName.PASS][1][k] for i in range(len(items))] for k in ks
        }
        for metric in metric_sel:
            if metric is MetricName.PASS:
                continue
            for k in ks:
                series = [scored[i][metric][1][k] for i in range(len(items))]
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
    return ScoringResult(tuple(vectors), at_k, tuple(rows), ks)


def emit_report(aggregates: Sequence[AggregateRow], fmt: str, out_path: str | Path) -> Path:
    """Write rows sorted by (group_key, metric, k) as csv or json.

    Output is byte-deterministic for identical inputs; empty aggregates are
    refused.
    """
    rows = sorted(aggregates, key=lambda row: (row.group_key, row.metric, row.k))
    if not rows:
        raise InvalidArgs("refusing to emit an empty report")
    if fmt not in ("csv", "json"):
        raise InvalidArgs(f"unknown report format {fmt!r}")
    if fmt == "json":
        payload = {
            "rows": [
                {
                    "group_key": row.group_key,
                    "metric": row.metric,
                    "k": row.k,
                    "value": row.value,
                    "instance_count": row.instance_count,
                }
                for row in rows
            ]
        }
        data = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["group_key", "metric", "k", "value", "instance_count"])
        for row in rows:
            writer.writerow([row.group_key, row.metric, row.k, repr(row.value), row.instance_count])
        data = buffer.getvalue()
    return write_text(out_path, data, what="report ")


def load_aggregates(path: str | Path) -> list[AggregateRow]:
    """Read back a JSON report produced by emit_report."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise IoFailure(f"missing file: {path}") from exc
    except OSError as exc:
        raise IoFailure(f"unreadable file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaViolation([f"{path}: invalid JSON: {exc.msg}"]) from None
    rows = payload.get("rows") if isinstance(payload, dict) else None
    if not isinstance(rows, list):
        raise SchemaViolation([f"{path}: expected an object with a 'rows' list"])
    out = []
    for i, row in enumerate(rows):
        try:
            out.append(
                AggregateRow(
                    group_key=row["group_key"],
                    metric=row["metric"],
                    k=int(row["k"]),
                    value=float(row["value"]),
                    instance_count=int(row["instance_count"]),
                )
            )
        except (TypeError, KeyError, ValueError) as exc:
            raise SchemaViolation([f"{path}: rows[{i}]: malformed aggregate row ({exc})"]) from None
    return out


def write_score_vectors(result: ScoringResult, out_path: str | Path) -> Path:
    """Dump per-instance score vectors (with their @k values) as JSONL."""
    rows = []
    for vector in result.score_vectors:
        rows.append(
            {
                "instance_id": vector.instance_id,
                "metric": vector.metric.value,
                "n": len(vector.per_sample),
                "correct_count": vector.correct_count,
                "per_sample": list(vector.per_sample),
                "at_k": {
                    str(k): result.at_k[(vector.instance_id, vector.metric, k)]
                    for k in result.ks
                },
            }
        )
    return write_jsonl(out_path, rows)
