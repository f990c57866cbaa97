"""Record decoders pinned case by case.

Each case starts from a valid record of one kind and changes one field: it
drops the field, sets it to None, to a value of the wrong JSON type, or to
a value of the right type that the schema refuses.  A kind may also have a
record with several problems, which one error must name together.  The
expected outcome is the error type and the sorted violation messages, or
None for a record that decodes.  The table was recorded from the hand-written per-field decoders
that preceded the codec table in harness, so it holds both to one behaviour.
Since then every kind has come to name all of a record's problems at once,
field problems and broken record rules together: the three empty mask rows
were widened and the several rows added.  A rule that reads a field which
failed to decode is not judged.  Meta and mask records also have a row whose
code does not compile beside one other broken field: compiling is a record
rule, named in the same error as the rest.
"""

import pytest

from vceval.core_model import Granularity
from vceval.harness import (
    decode_exec_report,
    decode_instance,
    decode_mask_record,
    decode_meta_record,
)

VSCC = {
    "id": "x1",
    "task": "vscc",
    "granularity": "token",
    "library": "pandas",
    "source_version": "1.3.5",
    "description": "d",
    "masked_code": "df.[token-mask]()",
    "reference": "to_numpy",
    "core_token": "to_numpy",
    "data_source": "library_source",
    "lifecycle_tag": "general",
    "release_date": "2021-12-01",
}

VACM = {
    "id": "m1",
    "task": "vacm",
    "granularity": "block",
    "library": "pandas",
    "source_version": "1.3.5",
    "target_version": "2.0",
    "description": "d",
    "source_code": "df.as_matrix()",
    "reference": "df.to_numpy()",
    "core_token": "to_numpy",
    "data_source": "downstream_application",
}

META = {
    "id": "a",
    "core_token": "to_numpy",
    "library": "pandas",
    "version": "1.3.5",
    "description": "d",
    "code": "x = df.to_numpy()\ny = 1\n",
    "data_source": "stack_overflow",
    "lifecycle_tag": "addition",
    "release_date": "2021-12-01",
}

_MASK_META = {k: v for k, v in META.items() if k != "id"}
MASK = {
    Granularity.TOKEN: {**_MASK_META, "instance_id": "t1", "occurrence": 0},
    Granularity.LINE: {**_MASK_META, "instance_id": "l1", "line_index": 0},
    Granularity.BLOCK: {**_MASK_META, "instance_id": "b1", "line_start": 0, "line_end": 1},
}

EXEC = {
    "instance_id": "x1",
    "sample_index": 0,
    "passed": True,
    "case_results": {"return_type": True, "normal_input": True},
}

INSTANCE_FIELDS = (
    "id", "task", "granularity", "library", "source_version", "target_version",
    "description", "masked_code", "source_code", "reference", "core_token",
    "data_source", "lifecycle_tag", "release_date",
)
META_FIELDS = (
    "id", "core_token", "library", "version", "description", "code",
    "data_source", "lifecycle_tag", "release_date",
)
MASK_TARGET_FIELDS = ("instance_id", "occurrence", "line_index", "line_start", "line_end")
EXEC_FIELDS = ("instance_id", "sample_index", "passed", "case_results")

# kind -> (decoder, base record, fields varied)
KINDS = {
    "vscc": (decode_instance, VSCC, INSTANCE_FIELDS),
    "vacm": (decode_instance, VACM, INSTANCE_FIELDS),
    "meta": (decode_meta_record, META, META_FIELDS),
    "mask-token": (
        lambda obj: decode_mask_record(obj, Granularity.TOKEN),
        MASK[Granularity.TOKEN],
        META_FIELDS + MASK_TARGET_FIELDS,
    ),
    "mask-line": (
        lambda obj: decode_mask_record(obj, Granularity.LINE),
        MASK[Granularity.LINE],
        MASK_TARGET_FIELDS,
    ),
    "mask-block": (
        lambda obj: decode_mask_record(obj, Granularity.BLOCK),
        MASK[Granularity.BLOCK],
        MASK_TARGET_FIELDS,
    ),
    "exec": (decode_exec_report, EXEC, EXEC_FIELDS),
}

_INT_FIELDS = {"sample_index", "occurrence", "line_index", "line_start", "line_end"}

# a value of the wrong JSON type for each field
WRONG_TYPE = {
    **{name: "1" for name in _INT_FIELDS},
    "passed": 1,
    "case_results": ["return_type"],
}

# a value of the right JSON type that the schema refuses (or, for free
# text, an edge value that it accepts)
BAD_VALUE = {
    "id": "",
    "task": "complete",
    "granularity": "word",
    "library": "pan das",
    "source_version": "v1",
    "target_version": "v2",
    "version": "v1",
    "description": "",
    "masked_code": "df.to_numpy()",
    "source_code": "",
    "reference": "",
    "code": "",
    "core_token": "to.numpy",
    "data_source": "github",
    "lifecycle_tag": "removed",
    "release_date": "2021-13-01",
    "instance_id": "",
    "sample_index": -1,
    "occurrence": True,
    "line_index": -1,
    "line_start": 2.0,
    "line_end": None,
    "passed": False,
    "case_results": {"speed": True},
}

# a record with several problems, per kind that reports them all at once
SEVERAL = {
    "vscc": {**VSCC, "source_version": "v1", "library": "pan das", "masked_code": "df.to_numpy()"},
    "vacm": {**VACM, "source_version": "v1", "library": "pan das", "granularity": "line"},
    "meta": {
        "id": "a::b",
        "core_token": "f",
        "library": "has space",
        "version": 5,
        "description": "d",
        "code": "",
        "data_source": "library_source",
    },
    "mask-token": {
        **MASK[Granularity.TOKEN], "occurrence": "x", "library": "a b", "core_token": "1x",
        "code": "",
    },
    "mask-line": {**MASK[Granularity.LINE], "line_index": "x", "library": "a b", "code": ""},
    "mask-block": {**MASK[Granularity.BLOCK], "line_start": "x", "version": 5, "code": ""},
    "exec": {
        "instance_id": 5,
        "sample_index": -1,
        "passed": True,
        "case_results": {"made_up": True},
    },
}

# a meta or mask record whose code does not compile, beside one other broken field
UNCOMPILED = {
    "meta": {**META, "code": "    x = df.to_numpy()\n", "library": "has space"},
    "mask-token": {**MASK[Granularity.TOKEN], "code": "x = df.to_numpy(", "occurrence": "x"},
    "mask-line": {**MASK[Granularity.LINE], "code": "else:\n    x = 1\n", "line_index": "x"},
    "mask-block": {**MASK[Granularity.BLOCK], "code": "def (:\n", "version": 5},
}


def record_for(kind, field, variant):
    obj = dict(KINDS[kind][1])
    if variant == "missing":
        obj.pop(field, None)
    elif variant == "none":
        obj[field] = None
    elif variant == "wrong_type":
        obj[field] = WRONG_TYPE.get(field, 7)
    elif variant == "bad_value":
        obj[field] = BAD_VALUE[field]
    elif variant == "unknown":
        obj["extra"] = 1
    elif variant == "empty":
        obj = {}
    elif variant == "several":
        obj = dict(SEVERAL[kind])
    elif variant == "uncompiled":
        obj = dict(UNCOMPILED[kind])
    return obj


def outcome(kind, obj):
    try:
        KINDS[kind][0](obj)
    except Exception as exc:  # the table pins the exact error type
        return type(exc).__name__, sorted(getattr(exc, "violations", [str(exc)]))
    return None


EXPECTED = {
    ("vscc", "id", "missing"): ("SchemaViolation", ["instance: id: required"]),
    ("vscc", "id", "none"): ("SchemaViolation", ["instance: id: required"]),
    ("vscc", "id", "wrong_type"): ("SchemaViolation", ["instance: id: expected a string"]),
    ("vscc", "id", "bad_value"): ("SchemaViolation", ["instance: id: must be non-empty"]),
    ("vscc", "task", "missing"): ("SchemaViolation", ["instance: task: required"]),
    ("vscc", "task", "none"): ("SchemaViolation", ["instance: task: required"]),
    ("vscc", "task", "wrong_type"): (
        "SchemaViolation", ["instance: task: 7 not one of ['vscc', 'vacm']"]
    ),
    ("vscc", "task", "bad_value"): (
        "SchemaViolation", ["instance: task: 'complete' not one of ['vscc', 'vacm']"]
    ),
    ("vscc", "granularity", "missing"): ("SchemaViolation", ["instance: granularity: required"]),
    ("vscc", "granularity", "none"): ("SchemaViolation", ["instance: granularity: required"]),
    ("vscc", "granularity", "wrong_type"): (
        "SchemaViolation", ["instance: granularity: 7 not one of ['token', 'line', 'block']"]
    ),
    ("vscc", "granularity", "bad_value"): (
        "SchemaViolation", ["instance: granularity: 'word' not one of ['token', 'line', 'block']"]
    ),
    ("vscc", "library", "missing"): ("SchemaViolation", ["instance: library: required"]),
    ("vscc", "library", "none"): ("SchemaViolation", ["instance: library: required"]),
    ("vscc", "library", "wrong_type"): (
        "SchemaViolation", ["instance: library: expected a string"]
    ),
    ("vscc", "library", "bad_value"): (
        "SchemaViolation", ["instance: library: must be non-empty and contain no whitespace"]
    ),
    ("vscc", "source_version", "missing"): (
        "SchemaViolation", ["instance: source_version: required"]
    ),
    ("vscc", "source_version", "none"): (
        "SchemaViolation", ["instance: source_version: required"]
    ),
    ("vscc", "source_version", "wrong_type"): (
        "SchemaViolation", ["instance: source_version: expected a version string"]
    ),
    ("vscc", "source_version", "bad_value"): (
        "SchemaViolation",
        [
            "instance: source_version: version 'v1' has no leading integer segment",
        ],
    ),
    ("vscc", "target_version", "missing"): None,
    ("vscc", "target_version", "none"): None,
    ("vscc", "target_version", "wrong_type"): (
        "SchemaViolation", ["instance: target_version: expected a version string"]
    ),
    ("vscc", "target_version", "bad_value"): (
        "SchemaViolation",
        [
            "instance: target_version: version 'v2' has no leading integer segment",
        ],
    ),
    ("vscc", "description", "missing"): ("SchemaViolation", ["instance: description: required"]),
    ("vscc", "description", "none"): ("SchemaViolation", ["instance: description: required"]),
    ("vscc", "description", "wrong_type"): (
        "SchemaViolation", ["instance: description: expected a string"]
    ),
    ("vscc", "description", "bad_value"): None,
    ("vscc", "masked_code", "missing"): (
        "SchemaViolation", ["instance: masked_code: required for vscc instances"]
    ),
    ("vscc", "masked_code", "none"): (
        "SchemaViolation", ["instance: masked_code: required for vscc instances"]
    ),
    ("vscc", "masked_code", "wrong_type"): (
        "SchemaViolation", ["instance: masked_code: expected a string"]
    ),
    ("vscc", "masked_code", "bad_value"): (
        "SchemaViolation",
        [
            "instance: masked_code: expected exactly one '[token-mask]', found 0",
        ],
    ),
    ("vscc", "source_code", "missing"): None,
    ("vscc", "source_code", "none"): None,
    ("vscc", "source_code", "wrong_type"): (
        "SchemaViolation", ["instance: source_code: expected a string"]
    ),
    ("vscc", "source_code", "bad_value"): (
        "SchemaViolation", ["instance: source_code: only migration instances carry source code"]
    ),
    ("vscc", "reference", "missing"): ("SchemaViolation", ["instance: reference: required"]),
    ("vscc", "reference", "none"): ("SchemaViolation", ["instance: reference: required"]),
    ("vscc", "reference", "wrong_type"): (
        "SchemaViolation", ["instance: reference: expected a string"]
    ),
    ("vscc", "reference", "bad_value"): None,
    ("vscc", "core_token", "missing"): ("SchemaViolation", ["instance: core_token: required"]),
    ("vscc", "core_token", "none"): ("SchemaViolation", ["instance: core_token: required"]),
    ("vscc", "core_token", "wrong_type"): (
        "SchemaViolation", ["instance: core_token: expected a string"]
    ),
    ("vscc", "core_token", "bad_value"): (
        "SchemaViolation", ["instance: core_token: must be a single identifier"]
    ),
    ("vscc", "data_source", "missing"): ("SchemaViolation", ["instance: data_source: required"]),
    ("vscc", "data_source", "none"): ("SchemaViolation", ["instance: data_source: required"]),
    ("vscc", "data_source", "wrong_type"): (
        "SchemaViolation",
        [
            "instance: data_source: 7 not one of ['library_source', 'downstream_application', 'stack_overflow']",
        ],
    ),
    ("vscc", "data_source", "bad_value"): (
        "SchemaViolation",
        [
            "instance: data_source: 'github' not one of ['library_source', 'downstream_application', 'stack_overflow']",
        ],
    ),
    ("vscc", "lifecycle_tag", "missing"): None,
    ("vscc", "lifecycle_tag", "none"): None,
    ("vscc", "lifecycle_tag", "wrong_type"): (
        "SchemaViolation",
        [
            "instance: lifecycle_tag: 7 not one of ['addition', 'deprecation', 'general']",
        ],
    ),
    ("vscc", "lifecycle_tag", "bad_value"): (
        "SchemaViolation",
        [
            "instance: lifecycle_tag: 'removed' not one of ['addition', 'deprecation', 'general']",
        ],
    ),
    ("vscc", "release_date", "missing"): None,
    ("vscc", "release_date", "none"): None,
    ("vscc", "release_date", "wrong_type"): (
        "SchemaViolation", ["instance: release_date: expected a YYYY-MM-DD date, got 7"]
    ),
    ("vscc", "release_date", "bad_value"): (
        "SchemaViolation", ["instance: release_date: expected a YYYY-MM-DD date, got '2021-13-01'"]
    ),
    ("vscc", "-", "unknown"): ("SchemaViolation", ["instance: unknown fields: ['extra']"]),
    ("vscc", "-", "empty"): (
        "SchemaViolation",
        [
            "instance: core_token: required",
            "instance: data_source: required",
            "instance: description: required",
            "instance: granularity: required",
            "instance: id: required",
            "instance: library: required",
            "instance: reference: required",
            "instance: source_version: required",
            "instance: task: required",
        ],
    ),
    ("vscc", "-", "several"): (
        "SchemaViolation",
        [
            "instance: library: must be non-empty and contain no whitespace",
            "instance: masked_code: expected exactly one '[token-mask]', found 0",
            "instance: source_version: version 'v1' has no leading integer segment",
        ],
    ),
    ("vacm", "id", "missing"): ("SchemaViolation", ["instance: id: required"]),
    ("vacm", "id", "none"): ("SchemaViolation", ["instance: id: required"]),
    ("vacm", "id", "wrong_type"): ("SchemaViolation", ["instance: id: expected a string"]),
    ("vacm", "id", "bad_value"): ("SchemaViolation", ["instance: id: must be non-empty"]),
    ("vacm", "task", "missing"): ("SchemaViolation", ["instance: task: required"]),
    ("vacm", "task", "none"): ("SchemaViolation", ["instance: task: required"]),
    ("vacm", "task", "wrong_type"): (
        "SchemaViolation", ["instance: task: 7 not one of ['vscc', 'vacm']"]
    ),
    ("vacm", "task", "bad_value"): (
        "SchemaViolation", ["instance: task: 'complete' not one of ['vscc', 'vacm']"]
    ),
    ("vacm", "granularity", "missing"): ("SchemaViolation", ["instance: granularity: required"]),
    ("vacm", "granularity", "none"): ("SchemaViolation", ["instance: granularity: required"]),
    ("vacm", "granularity", "wrong_type"): (
        "SchemaViolation", ["instance: granularity: 7 not one of ['token', 'line', 'block']"]
    ),
    ("vacm", "granularity", "bad_value"): (
        "SchemaViolation", ["instance: granularity: 'word' not one of ['token', 'line', 'block']"]
    ),
    ("vacm", "library", "missing"): ("SchemaViolation", ["instance: library: required"]),
    ("vacm", "library", "none"): ("SchemaViolation", ["instance: library: required"]),
    ("vacm", "library", "wrong_type"): (
        "SchemaViolation", ["instance: library: expected a string"]
    ),
    ("vacm", "library", "bad_value"): (
        "SchemaViolation", ["instance: library: must be non-empty and contain no whitespace"]
    ),
    ("vacm", "source_version", "missing"): (
        "SchemaViolation", ["instance: source_version: required"]
    ),
    ("vacm", "source_version", "none"): (
        "SchemaViolation", ["instance: source_version: required"]
    ),
    ("vacm", "source_version", "wrong_type"): (
        "SchemaViolation", ["instance: source_version: expected a version string"]
    ),
    ("vacm", "source_version", "bad_value"): (
        "SchemaViolation",
        [
            "instance: source_version: version 'v1' has no leading integer segment",
        ],
    ),
    ("vacm", "target_version", "missing"): (
        "SchemaViolation", ["instance: target_version: required for vacm instances"]
    ),
    ("vacm", "target_version", "none"): (
        "SchemaViolation", ["instance: target_version: required for vacm instances"]
    ),
    ("vacm", "target_version", "wrong_type"): (
        "SchemaViolation", ["instance: target_version: expected a version string"]
    ),
    ("vacm", "target_version", "bad_value"): (
        "SchemaViolation",
        [
            "instance: target_version: version 'v2' has no leading integer segment",
        ],
    ),
    ("vacm", "description", "missing"): ("SchemaViolation", ["instance: description: required"]),
    ("vacm", "description", "none"): ("SchemaViolation", ["instance: description: required"]),
    ("vacm", "description", "wrong_type"): (
        "SchemaViolation", ["instance: description: expected a string"]
    ),
    ("vacm", "description", "bad_value"): None,
    ("vacm", "masked_code", "missing"): None,
    ("vacm", "masked_code", "none"): None,
    ("vacm", "masked_code", "wrong_type"): (
        "SchemaViolation", ["instance: masked_code: expected a string"]
    ),
    ("vacm", "masked_code", "bad_value"): (
        "SchemaViolation", ["instance: masked_code: only completion instances carry masked code"]
    ),
    ("vacm", "source_code", "missing"): (
        "SchemaViolation", ["instance: source_code: required for vacm instances"]
    ),
    ("vacm", "source_code", "none"): (
        "SchemaViolation", ["instance: source_code: required for vacm instances"]
    ),
    ("vacm", "source_code", "wrong_type"): (
        "SchemaViolation", ["instance: source_code: expected a string"]
    ),
    ("vacm", "source_code", "bad_value"): None,
    ("vacm", "reference", "missing"): ("SchemaViolation", ["instance: reference: required"]),
    ("vacm", "reference", "none"): ("SchemaViolation", ["instance: reference: required"]),
    ("vacm", "reference", "wrong_type"): (
        "SchemaViolation", ["instance: reference: expected a string"]
    ),
    ("vacm", "reference", "bad_value"): None,
    ("vacm", "core_token", "missing"): ("SchemaViolation", ["instance: core_token: required"]),
    ("vacm", "core_token", "none"): ("SchemaViolation", ["instance: core_token: required"]),
    ("vacm", "core_token", "wrong_type"): (
        "SchemaViolation", ["instance: core_token: expected a string"]
    ),
    ("vacm", "core_token", "bad_value"): (
        "SchemaViolation", ["instance: core_token: must be a single identifier"]
    ),
    ("vacm", "data_source", "missing"): ("SchemaViolation", ["instance: data_source: required"]),
    ("vacm", "data_source", "none"): ("SchemaViolation", ["instance: data_source: required"]),
    ("vacm", "data_source", "wrong_type"): (
        "SchemaViolation",
        [
            "instance: data_source: 7 not one of ['library_source', 'downstream_application', 'stack_overflow']",
        ],
    ),
    ("vacm", "data_source", "bad_value"): (
        "SchemaViolation",
        [
            "instance: data_source: 'github' not one of ['library_source', 'downstream_application', 'stack_overflow']",
        ],
    ),
    ("vacm", "lifecycle_tag", "missing"): None,
    ("vacm", "lifecycle_tag", "none"): None,
    ("vacm", "lifecycle_tag", "wrong_type"): (
        "SchemaViolation",
        [
            "instance: lifecycle_tag: 7 not one of ['addition', 'deprecation', 'general']",
        ],
    ),
    ("vacm", "lifecycle_tag", "bad_value"): (
        "SchemaViolation",
        [
            "instance: lifecycle_tag: 'removed' not one of ['addition', 'deprecation', 'general']",
        ],
    ),
    ("vacm", "release_date", "missing"): None,
    ("vacm", "release_date", "none"): None,
    ("vacm", "release_date", "wrong_type"): (
        "SchemaViolation", ["instance: release_date: expected a YYYY-MM-DD date, got 7"]
    ),
    ("vacm", "release_date", "bad_value"): (
        "SchemaViolation", ["instance: release_date: expected a YYYY-MM-DD date, got '2021-13-01'"]
    ),
    ("vacm", "-", "unknown"): ("SchemaViolation", ["instance: unknown fields: ['extra']"]),
    ("vacm", "-", "empty"): (
        "SchemaViolation",
        [
            "instance: core_token: required",
            "instance: data_source: required",
            "instance: description: required",
            "instance: granularity: required",
            "instance: id: required",
            "instance: library: required",
            "instance: reference: required",
            "instance: source_version: required",
            "instance: task: required",
        ],
    ),
    ("vacm", "-", "several"): (
        "SchemaViolation",
        [
            "instance: granularity: vacm instances are block-level",
            "instance: library: must be non-empty and contain no whitespace",
            "instance: source_version: version 'v1' has no leading integer segment",
        ],
    ),
    ("meta", "id", "missing"): ("SchemaViolation", ["meta: id: required"]),
    ("meta", "id", "none"): ("SchemaViolation", ["meta: id: required"]),
    ("meta", "id", "wrong_type"): ("SchemaViolation", ["meta: id: expected a string"]),
    ("meta", "id", "bad_value"): None,
    ("meta", "core_token", "missing"): ("SchemaViolation", ["meta: core_token: required"]),
    ("meta", "core_token", "none"): ("SchemaViolation", ["meta: core_token: required"]),
    ("meta", "core_token", "wrong_type"): (
        "SchemaViolation", ["meta: core_token: expected a string"]
    ),
    ("meta", "core_token", "bad_value"): (
        "SchemaViolation", ["meta: core_token: must be a single identifier"]
    ),
    ("meta", "library", "missing"): ("SchemaViolation", ["meta: library: required"]),
    ("meta", "library", "none"): ("SchemaViolation", ["meta: library: required"]),
    ("meta", "library", "wrong_type"): ("SchemaViolation", ["meta: library: expected a string"]),
    ("meta", "library", "bad_value"): (
        "SchemaViolation", ["meta: library: must be non-empty and contain no whitespace"]
    ),
    ("meta", "version", "missing"): ("SchemaViolation", ["meta: version: required"]),
    ("meta", "version", "none"): ("SchemaViolation", ["meta: version: required"]),
    ("meta", "version", "wrong_type"): (
        "SchemaViolation", ["meta: version: expected a version string"]
    ),
    ("meta", "version", "bad_value"): (
        "SchemaViolation", ["meta: version: version 'v1' has no leading integer segment"]
    ),
    ("meta", "description", "missing"): ("SchemaViolation", ["meta: description: required"]),
    ("meta", "description", "none"): ("SchemaViolation", ["meta: description: required"]),
    ("meta", "description", "wrong_type"): (
        "SchemaViolation", ["meta: description: expected a string"]
    ),
    ("meta", "description", "bad_value"): None,
    ("meta", "code", "missing"): ("SchemaViolation", ["meta: code: required"]),
    ("meta", "code", "none"): ("SchemaViolation", ["meta: code: required"]),
    ("meta", "code", "wrong_type"): ("SchemaViolation", ["meta: code: expected a string"]),
    ("meta", "code", "bad_value"): ("SchemaViolation", ["meta: code: must be non-empty"]),
    ("meta", "data_source", "missing"): ("SchemaViolation", ["meta: data_source: required"]),
    ("meta", "data_source", "none"): ("SchemaViolation", ["meta: data_source: required"]),
    ("meta", "data_source", "wrong_type"): (
        "SchemaViolation",
        [
            "meta: data_source: 7 not one of ['library_source', 'downstream_application', 'stack_overflow']",
        ],
    ),
    ("meta", "data_source", "bad_value"): (
        "SchemaViolation",
        [
            "meta: data_source: 'github' not one of ['library_source', 'downstream_application', 'stack_overflow']",
        ],
    ),
    ("meta", "lifecycle_tag", "missing"): None,
    ("meta", "lifecycle_tag", "none"): None,
    ("meta", "lifecycle_tag", "wrong_type"): (
        "SchemaViolation",
        [
            "meta: lifecycle_tag: 7 not one of ['addition', 'deprecation', 'general']",
        ],
    ),
    ("meta", "lifecycle_tag", "bad_value"): (
        "SchemaViolation",
        [
            "meta: lifecycle_tag: 'removed' not one of ['addition', 'deprecation', 'general']",
        ],
    ),
    ("meta", "release_date", "missing"): None,
    ("meta", "release_date", "none"): None,
    ("meta", "release_date", "wrong_type"): (
        "SchemaViolation", ["meta: release_date: expected a YYYY-MM-DD date, got 7"]
    ),
    ("meta", "release_date", "bad_value"): (
        "SchemaViolation", ["meta: release_date: expected a YYYY-MM-DD date, got '2021-13-01'"]
    ),
    ("meta", "-", "unknown"): ("SchemaViolation", ["meta: unknown fields: ['extra']"]),
    ("meta", "-", "empty"): (
        "SchemaViolation",
        [
            "meta: code: required",
            "meta: core_token: required",
            "meta: data_source: required",
            "meta: description: required",
            "meta: id: required",
            "meta: library: required",
            "meta: version: required",
        ],
    ),
    ("meta", "-", "several"): (
        "SchemaViolation",
        [
            "meta: code: must be non-empty",
            "meta: id: 'a::b' holds '::', which joins the ids of a pair",
            "meta: library: must be non-empty and contain no whitespace",
            "meta: version: expected a version string",
        ],
    ),
    ("meta", "-", "uncompiled"): (
        "SchemaViolation",
        [
            "meta: code: must compile as a Python module",
            "meta: library: must be non-empty and contain no whitespace",
        ],
    ),
    ("mask-token", "id", "missing"): None,
    ("mask-token", "id", "none"): ("SchemaViolation", ["mask: unknown fields: ['id']"]),
    ("mask-token", "id", "wrong_type"): ("SchemaViolation", ["mask: unknown fields: ['id']"]),
    ("mask-token", "id", "bad_value"): ("SchemaViolation", ["mask: unknown fields: ['id']"]),
    ("mask-token", "core_token", "missing"): ("SchemaViolation", ["mask: core_token: required"]),
    ("mask-token", "core_token", "none"): ("SchemaViolation", ["mask: core_token: required"]),
    ("mask-token", "core_token", "wrong_type"): (
        "SchemaViolation", ["mask: core_token: expected a string"]
    ),
    ("mask-token", "core_token", "bad_value"): (
        "SchemaViolation", ["mask: core_token: must be a single identifier"]
    ),
    ("mask-token", "library", "missing"): ("SchemaViolation", ["mask: library: required"]),
    ("mask-token", "library", "none"): ("SchemaViolation", ["mask: library: required"]),
    ("mask-token", "library", "wrong_type"): (
        "SchemaViolation", ["mask: library: expected a string"]
    ),
    ("mask-token", "library", "bad_value"): (
        "SchemaViolation", ["mask: library: must be non-empty and contain no whitespace"]
    ),
    ("mask-token", "version", "missing"): ("SchemaViolation", ["mask: version: required"]),
    ("mask-token", "version", "none"): ("SchemaViolation", ["mask: version: required"]),
    ("mask-token", "version", "wrong_type"): (
        "SchemaViolation", ["mask: version: expected a version string"]
    ),
    ("mask-token", "version", "bad_value"): (
        "SchemaViolation", ["mask: version: version 'v1' has no leading integer segment"]
    ),
    ("mask-token", "description", "missing"): ("SchemaViolation", ["mask: description: required"]),
    ("mask-token", "description", "none"): ("SchemaViolation", ["mask: description: required"]),
    ("mask-token", "description", "wrong_type"): (
        "SchemaViolation", ["mask: description: expected a string"]
    ),
    ("mask-token", "description", "bad_value"): None,
    ("mask-token", "code", "missing"): ("SchemaViolation", ["mask: code: required"]),
    ("mask-token", "code", "none"): ("SchemaViolation", ["mask: code: required"]),
    ("mask-token", "code", "wrong_type"): ("SchemaViolation", ["mask: code: expected a string"]),
    ("mask-token", "code", "bad_value"): ("SchemaViolation", ["mask: code: must be non-empty"]),
    ("mask-token", "data_source", "missing"): ("SchemaViolation", ["mask: data_source: required"]),
    ("mask-token", "data_source", "none"): ("SchemaViolation", ["mask: data_source: required"]),
    ("mask-token", "data_source", "wrong_type"): (
        "SchemaViolation",
        [
            "mask: data_source: 7 not one of ['library_source', 'downstream_application', 'stack_overflow']",
        ],
    ),
    ("mask-token", "data_source", "bad_value"): (
        "SchemaViolation",
        [
            "mask: data_source: 'github' not one of ['library_source', 'downstream_application', 'stack_overflow']",
        ],
    ),
    ("mask-token", "lifecycle_tag", "missing"): None,
    ("mask-token", "lifecycle_tag", "none"): None,
    ("mask-token", "lifecycle_tag", "wrong_type"): (
        "SchemaViolation",
        [
            "mask: lifecycle_tag: 7 not one of ['addition', 'deprecation', 'general']",
        ],
    ),
    ("mask-token", "lifecycle_tag", "bad_value"): (
        "SchemaViolation",
        [
            "mask: lifecycle_tag: 'removed' not one of ['addition', 'deprecation', 'general']",
        ],
    ),
    ("mask-token", "release_date", "missing"): None,
    ("mask-token", "release_date", "none"): None,
    ("mask-token", "release_date", "wrong_type"): (
        "SchemaViolation", ["mask: release_date: expected a YYYY-MM-DD date, got 7"]
    ),
    ("mask-token", "release_date", "bad_value"): (
        "SchemaViolation", ["mask: release_date: expected a YYYY-MM-DD date, got '2021-13-01'"]
    ),
    ("mask-token", "instance_id", "missing"): ("SchemaViolation", ["mask: instance_id: required"]),
    ("mask-token", "instance_id", "none"): ("SchemaViolation", ["mask: instance_id: required"]),
    ("mask-token", "instance_id", "wrong_type"): (
        "SchemaViolation", ["mask: instance_id: expected a string"]
    ),
    ("mask-token", "instance_id", "bad_value"): None,
    ("mask-token", "occurrence", "missing"): None,
    ("mask-token", "occurrence", "none"): (
        "SchemaViolation", ["mask: occurrence: expected an integer"]
    ),
    ("mask-token", "occurrence", "wrong_type"): (
        "SchemaViolation", ["mask: occurrence: expected an integer"]
    ),
    ("mask-token", "occurrence", "bad_value"): (
        "SchemaViolation", ["mask: occurrence: expected an integer"]
    ),
    ("mask-token", "line_index", "missing"): None,
    ("mask-token", "line_index", "none"): None,
    ("mask-token", "line_index", "wrong_type"): None,
    ("mask-token", "line_index", "bad_value"): None,
    ("mask-token", "line_start", "missing"): None,
    ("mask-token", "line_start", "none"): None,
    ("mask-token", "line_start", "wrong_type"): None,
    ("mask-token", "line_start", "bad_value"): None,
    ("mask-token", "line_end", "missing"): None,
    ("mask-token", "line_end", "none"): None,
    ("mask-token", "line_end", "wrong_type"): None,
    ("mask-token", "line_end", "bad_value"): None,
    ("mask-token", "-", "unknown"): ("SchemaViolation", ["mask: unknown fields: ['extra']"]),
    ("mask-token", "-", "empty"): (
        "SchemaViolation",
        [
            "mask: code: required",
            "mask: core_token: required",
            "mask: data_source: required",
            "mask: description: required",
            "mask: instance_id: required",
            "mask: library: required",
            "mask: version: required",
        ],
    ),
    ("mask-token", "-", "several"): (
        "SchemaViolation",
        [
            "mask: code: must be non-empty",
            "mask: core_token: must be a single identifier",
            "mask: library: must be non-empty and contain no whitespace",
            "mask: occurrence: expected an integer",
        ],
    ),
    ("mask-token", "-", "uncompiled"): (
        "SchemaViolation",
        [
            "mask: code: must compile as a Python module",
            "mask: occurrence: expected an integer",
        ],
    ),
    ("mask-line", "instance_id", "missing"): ("SchemaViolation", ["mask: instance_id: required"]),
    ("mask-line", "instance_id", "none"): ("SchemaViolation", ["mask: instance_id: required"]),
    ("mask-line", "instance_id", "wrong_type"): (
        "SchemaViolation", ["mask: instance_id: expected a string"]
    ),
    ("mask-line", "instance_id", "bad_value"): None,
    ("mask-line", "occurrence", "missing"): None,
    ("mask-line", "occurrence", "none"): None,
    ("mask-line", "occurrence", "wrong_type"): None,
    ("mask-line", "occurrence", "bad_value"): None,
    ("mask-line", "line_index", "missing"): (
        "SchemaViolation", ["mask: line_index: required integer for line masking"]
    ),
    ("mask-line", "line_index", "none"): (
        "SchemaViolation", ["mask: line_index: required integer for line masking"]
    ),
    ("mask-line", "line_index", "wrong_type"): (
        "SchemaViolation", ["mask: line_index: required integer for line masking"]
    ),
    ("mask-line", "line_index", "bad_value"): None,
    ("mask-line", "line_start", "missing"): None,
    ("mask-line", "line_start", "none"): None,
    ("mask-line", "line_start", "wrong_type"): None,
    ("mask-line", "line_start", "bad_value"): None,
    ("mask-line", "line_end", "missing"): None,
    ("mask-line", "line_end", "none"): None,
    ("mask-line", "line_end", "wrong_type"): None,
    ("mask-line", "line_end", "bad_value"): None,
    ("mask-line", "-", "unknown"): ("SchemaViolation", ["mask: unknown fields: ['extra']"]),
    ("mask-line", "-", "empty"): (
        "SchemaViolation",
        [
            "mask: code: required",
            "mask: core_token: required",
            "mask: data_source: required",
            "mask: description: required",
            "mask: instance_id: required",
            "mask: library: required",
            "mask: line_index: required integer for line masking",
            "mask: version: required",
        ],
    ),
    ("mask-line", "-", "several"): (
        "SchemaViolation",
        [
            "mask: code: must be non-empty",
            "mask: library: must be non-empty and contain no whitespace",
            "mask: line_index: required integer for line masking",
        ],
    ),
    ("mask-line", "-", "uncompiled"): (
        "SchemaViolation",
        [
            "mask: code: must compile as a Python module",
            "mask: line_index: required integer for line masking",
        ],
    ),
    ("mask-block", "instance_id", "missing"): ("SchemaViolation", ["mask: instance_id: required"]),
    ("mask-block", "instance_id", "none"): ("SchemaViolation", ["mask: instance_id: required"]),
    ("mask-block", "instance_id", "wrong_type"): (
        "SchemaViolation", ["mask: instance_id: expected a string"]
    ),
    ("mask-block", "instance_id", "bad_value"): None,
    ("mask-block", "occurrence", "missing"): None,
    ("mask-block", "occurrence", "none"): None,
    ("mask-block", "occurrence", "wrong_type"): None,
    ("mask-block", "occurrence", "bad_value"): None,
    ("mask-block", "line_index", "missing"): None,
    ("mask-block", "line_index", "none"): None,
    ("mask-block", "line_index", "wrong_type"): None,
    ("mask-block", "line_index", "bad_value"): None,
    ("mask-block", "line_start", "missing"): (
        "SchemaViolation", ["mask: line_start/line_end: required integers for block masking"]
    ),
    ("mask-block", "line_start", "none"): (
        "SchemaViolation", ["mask: line_start/line_end: required integers for block masking"]
    ),
    ("mask-block", "line_start", "wrong_type"): (
        "SchemaViolation", ["mask: line_start/line_end: required integers for block masking"]
    ),
    ("mask-block", "line_start", "bad_value"): (
        "SchemaViolation", ["mask: line_start/line_end: required integers for block masking"]
    ),
    ("mask-block", "line_end", "missing"): (
        "SchemaViolation", ["mask: line_start/line_end: required integers for block masking"]
    ),
    ("mask-block", "line_end", "none"): (
        "SchemaViolation", ["mask: line_start/line_end: required integers for block masking"]
    ),
    ("mask-block", "line_end", "wrong_type"): (
        "SchemaViolation", ["mask: line_start/line_end: required integers for block masking"]
    ),
    ("mask-block", "line_end", "bad_value"): (
        "SchemaViolation", ["mask: line_start/line_end: required integers for block masking"]
    ),
    ("mask-block", "-", "unknown"): ("SchemaViolation", ["mask: unknown fields: ['extra']"]),
    ("mask-block", "-", "empty"): (
        "SchemaViolation",
        [
            "mask: code: required",
            "mask: core_token: required",
            "mask: data_source: required",
            "mask: description: required",
            "mask: instance_id: required",
            "mask: library: required",
            "mask: line_start/line_end: required integers for block masking",
            "mask: version: required",
        ],
    ),
    ("mask-block", "-", "several"): (
        "SchemaViolation",
        [
            "mask: code: must be non-empty",
            "mask: line_start/line_end: required integers for block masking",
            "mask: version: expected a version string",
        ],
    ),
    ("mask-block", "-", "uncompiled"): (
        "SchemaViolation",
        [
            "mask: code: must compile as a Python module",
            "mask: version: expected a version string",
        ],
    ),
    ("exec", "instance_id", "missing"): ("SchemaViolation", ["exec: instance_id: required"]),
    ("exec", "instance_id", "none"): ("SchemaViolation", ["exec: instance_id: required"]),
    ("exec", "instance_id", "wrong_type"): (
        "SchemaViolation", ["exec: instance_id: expected a string"]
    ),
    ("exec", "instance_id", "bad_value"): None,
    ("exec", "sample_index", "missing"): (
        "SchemaViolation", ["exec: sample_index: expected an integer"]
    ),
    ("exec", "sample_index", "none"): (
        "SchemaViolation", ["exec: sample_index: expected an integer"]
    ),
    ("exec", "sample_index", "wrong_type"): (
        "SchemaViolation", ["exec: sample_index: expected an integer"]
    ),
    ("exec", "sample_index", "bad_value"): (
        "SchemaViolation", ["exec: sample_index: must be >= 0"]
    ),
    ("exec", "passed", "missing"): ("SchemaViolation", ["exec: passed: expected a boolean"]),
    ("exec", "passed", "none"): ("SchemaViolation", ["exec: passed: expected a boolean"]),
    ("exec", "passed", "wrong_type"): ("SchemaViolation", ["exec: passed: expected a boolean"]),
    ("exec", "passed", "bad_value"): (
        "SchemaViolation", ["exec: passed: must equal the conjunction of case_results"]
    ),
    ("exec", "case_results", "missing"): None,
    ("exec", "case_results", "none"): None,
    ("exec", "case_results", "wrong_type"): (
        "SchemaViolation", ["exec: case_results: expected a map of category -> boolean"]
    ),
    ("exec", "case_results", "bad_value"): (
        "SchemaViolation", ["exec: case_results: unknown categories ['speed']"]
    ),
    ("exec", "-", "unknown"): ("SchemaViolation", ["exec: unknown fields: ['extra']"]),
    ("exec", "-", "empty"): (
        "SchemaViolation",
        [
            "exec: instance_id: required",
            "exec: passed: expected a boolean",
            "exec: sample_index: expected an integer",
        ],
    ),
    ("exec", "-", "several"): (
        "SchemaViolation",
        [
            "exec: case_results: unknown categories ['made_up']",
            "exec: instance_id: expected a string",
            "exec: sample_index: must be >= 0",
        ],
    ),
}


def cases():
    for kind, (_, _, fields) in KINDS.items():
        for field in fields:
            for variant in ("missing", "none", "wrong_type", "bad_value"):
                yield kind, field, variant
        yield kind, "-", "unknown"
        yield kind, "-", "empty"
        if kind in SEVERAL:
            yield kind, "-", "several"
        if kind in UNCOMPILED:
            yield kind, "-", "uncompiled"


@pytest.mark.parametrize("kind, field, variant", list(cases()))
def test_decoder_outcome(kind, field, variant):
    assert outcome(kind, record_for(kind, field, variant)) == EXPECTED[(kind, field, variant)]


def test_table_covers_every_case():
    assert set(EXPECTED) == set(cases())


@pytest.mark.parametrize("value", ["2021-W48-3", "20211201", "2021-12-0١", "2021-12-01\n"])
def test_release_date_is_year_month_day_on_every_python(value):
    # date.fromisoformat takes the ISO basic and week forms on 3.11+ only
    assert outcome("vscc", {**VSCC, "release_date": value}) == (
        "SchemaViolation", [f"instance: release_date: expected a YYYY-MM-DD date, got {value!r}"]
    )
