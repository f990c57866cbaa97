import copy
import pickle
import random
import re
import sys
from datetime import date

import pytest
from hypothesis import given
from hypothesis import strategies as st

from vceval.core_model import (
    DataSource,
    Granularity,
    LifecycleTag,
    MetaInstance,
    TaskInstance,
    TaskKind,
    parse_version,
    version_sort_key,
)
from vceval.errors import NoNumericComponent, SchemaViolation

from helpers import random_version_string


class TestParseVersion:
    @pytest.mark.parametrize(
        "raw, components, suffix",
        [
            ("2.0.0", (2, 0, 0), ""),
            ("1.3", (1, 3), ""),
            ("2.1.0rc1", (2, 1), "0rc1"),
            ("3", (3,), ""),
            ("1.2.3rc1.4", (1, 2), "3rc1.4"),
            ("0.0.1", (0, 0, 1), ""),
        ],
    )
    def test_examples(self, raw, components, suffix):
        parsed = parse_version(raw)
        assert parsed.components == components
        assert parsed.suffix == suffix
        assert parsed.raw == raw

    def test_no_numeric_component(self):
        with pytest.raises(NoNumericComponent):
            parse_version("v1.2")
        with pytest.raises(NoNumericComponent):
            parse_version("")

    def test_canonical_round_trip(self):
        rc = parse_version("2.1.0rc1")
        assert (rc.components, rc.suffix, rc.raw) == ((2, 1), "0rc1", "2.1.0rc1")
        release = parse_version("2.0.0")
        assert (release.components, release.suffix, release.raw) == ((2, 0, 0), "", "2.0.0")
        # components are normalized integers, raw survives verbatim
        padded = parse_version("02.1")
        assert (padded.components, padded.suffix, padded.raw) == ((2, 1), "", "02.1")

    def test_underscored_segment_is_suffix_not_number(self):
        assert parse_version("1.1_0").components == (1,)


def _order(a, b) -> int:
    """-1, 0 or 1 as a sorts below, with or above b."""
    ka, kb = version_sort_key(a), version_sort_key(b)
    return (ka > kb) - (ka < kb)


class TestVersionSortKey:
    @pytest.mark.parametrize(
        "a, b, expected",
        [
            ("1.9.0", "1.10.0", -1),
            ("2.0", "2.0.0", 0),
            ("1.3.2", "2.1.3", -1),
            ("2.1.3", "1.3.2", 1),
            ("2.0.0", "2.0.0rc1", 1),  # release above pre-release
            ("1.2a", "1.2b", -1),
        ],
    )
    def test_examples(self, a, b, expected):
        assert _order(parse_version(a), parse_version(b)) == expected

    def test_reflexive_equal(self):
        rng = random.Random(7)
        for _ in range(200):
            v = parse_version(random_version_string(rng))
            assert _order(v, v) == 0

    @given(st.lists(st.integers(0, 40), min_size=1, max_size=4),
           st.sampled_from(["", "rc1", "a1", "dev0"]),
           st.lists(st.integers(0, 40), min_size=1, max_size=4),
           st.sampled_from(["", "rc1", "a1", "dev0"]))
    def test_antisymmetry(self, comps_a, suffix_a, comps_b, suffix_b):
        a = parse_version(".".join(map(str, comps_a)) + (f".{suffix_a}" if suffix_a else ""))
        b = parse_version(".".join(map(str, comps_b)) + (f".{suffix_b}" if suffix_b else ""))
        assert _order(b, a) == -_order(a, b)

    def test_transitivity_over_random_triples(self):
        rng = random.Random(11)
        versions = [parse_version(random_version_string(rng)) for _ in range(60)]
        for _ in range(2000):
            a, b, c = rng.sample(versions, 3)
            if _order(a, b) <= 0 and _order(b, c) <= 0:
                assert _order(a, c) <= 0


def make_vscc(**overrides) -> TaskInstance:
    fields = dict(
        id="inst-1",
        task=TaskKind.VSCC,
        granularity=Granularity.TOKEN,
        library="pandas",
        source_version=parse_version("1.3.5"),
        description="convert a frame to an array",
        reference="to_numpy",
        core_token="to_numpy",
        data_source=DataSource.LIBRARY_SOURCE,
        masked_code="arr = df.[token-mask]()",
        lifecycle_tag=LifecycleTag.GENERAL,
        release_date=date(2021, 12, 1),
    )
    fields.update(overrides)
    return TaskInstance(**fields)


def make_vacm(**overrides) -> TaskInstance:
    fields = dict(
        id="mig-1",
        task=TaskKind.VACM,
        granularity=Granularity.BLOCK,
        library="torch",
        source_version=parse_version("1.3.2"),
        target_version=parse_version("2.0.0"),
        description="mixed precision context",
        reference="ctx = torch.autocast('cuda')",
        core_token="autocast",
        data_source=DataSource.DOWNSTREAM_APPLICATION,
        source_code="ctx = torch.cuda.amp.autocast()",
    )
    fields.update(overrides)
    return TaskInstance(**fields)


def sentinel_count(sentinel: str, found: int) -> str:
    """A pattern matching the message of a wrong number of sentinels."""
    return re.escape(f"masked_code: expected exactly one {sentinel!r}, found {found}")


class TestValidateInstance:
    """Construction enforces every instance rule."""

    def test_accepts_token_instance_with_one_sentinel(self):
        instance = make_vscc()
        assert instance.masked_code.count("[token-mask]") == 1

    def test_idempotent_on_accepted_instances(self):
        instance = make_vscc()
        assert instance._replace() == instance

    def test_two_sentinels_rejected(self):
        with pytest.raises(SchemaViolation, match=sentinel_count("[token-mask]", 2)):
            make_vscc(masked_code="df.[token-mask]().[token-mask]")

    def test_zero_sentinels_rejected(self):
        with pytest.raises(SchemaViolation, match=sentinel_count("[token-mask]", 0)):
            make_vscc(masked_code="df.to_numpy()")

    def test_wrong_granularity_sentinel_rejected(self):
        with pytest.raises(SchemaViolation, match=sentinel_count("[token-mask]", 0)):
            make_vscc(masked_code="df.[line-mask]()")

    def test_foreign_sentinel_remaining_after_substitution_rejected(self):
        remain = re.escape("masked_code: sentinels ['[block-mask]'] remain after substituting")
        with pytest.raises(SchemaViolation, match=remain):
            make_vscc(masked_code="df.[token-mask]()\n[block-mask]")

    def test_substituted_code_contains_no_sentinel(self):
        instance = make_vscc()
        restored = instance.masked_code.replace("[token-mask]", instance.reference, 1)
        assert "[token-mask]" not in restored
        assert "[line-mask]" not in restored
        assert "[block-mask]" not in restored

    def test_vacm_accepted(self):
        instance = make_vacm()
        assert instance.target_version == parse_version("2.0.0")

    def test_vacm_equal_versions_rejected(self):
        with pytest.raises(SchemaViolation) as excinfo:
            make_vacm(target_version=parse_version("1.3.2"))
        assert any("target_version" in v for v in excinfo.value.violations)

    def test_vacm_zero_padded_equal_versions_rejected(self):
        with pytest.raises(SchemaViolation):
            make_vacm(source_version=parse_version("2.0"), target_version=parse_version("2.0.0"))

    def test_vacm_requires_block_granularity(self):
        with pytest.raises(SchemaViolation):
            make_vacm(granularity=Granularity.LINE)

    def test_vacm_missing_target_rejected(self):
        with pytest.raises(SchemaViolation):
            make_vacm(target_version=None)

    def test_all_violations_listed(self):
        with pytest.raises(SchemaViolation) as excinfo:
            make_vscc(id="", library="bad name", core_token="not an identifier")
        joined = " ".join(excinfo.value.violations)
        assert "id" in joined and "library" in joined and "core_token" in joined

    def test_core_token_must_not_start_with_digit(self):
        with pytest.raises(SchemaViolation):
            make_vscc(core_token="1abc")

    def test_unicode_core_token_accepted(self):
        instance = make_vscc(reference="café", core_token="café")
        assert instance.core_token == "café"

    @pytest.mark.parametrize("token", ["match", "case", "type", "_"])
    def test_soft_keyword_core_token_accepted(self, token):
        # only hard keywords leave the identifier stream
        assert make_vscc(reference=f"{token}(x)", core_token=token).core_token == token

    @pytest.mark.parametrize(
        "make, overrides, error, message",
        [
            (make_vscc, {"id": ""}, SchemaViolation, "id: must be non-empty"),
            (make_vscc, {"library": ""}, SchemaViolation,
             "library: must be non-empty and contain no whitespace"),
            (make_vscc, {"core_token": "a.b"}, SchemaViolation,
             "core_token: must be a single identifier"),
            (make_vscc, {"masked_code": None}, SchemaViolation,
             "masked_code: required for vscc instances"),
            (make_vscc, {"source_code": "x"}, SchemaViolation,
             "source_code: only migration instances carry source code"),
            (make_vscc, {"target_version": parse_version("2.0")}, SchemaViolation,
             "target_version: only migration instances carry a target version"),
            (make_vscc, {"masked_code": "df.to_numpy()"}, SchemaViolation,
             "masked_code: expected exactly one '[token-mask]', found 0"),
            (make_vscc, {"masked_code": "[token-mask] [line-mask]"}, SchemaViolation,
             "masked_code: sentinels ['[line-mask]'] remain after substituting the reference"),
            (make_vacm, {"source_code": None}, SchemaViolation,
             "source_code: required for vacm instances"),
            (make_vacm, {"masked_code": "[block-mask]"}, SchemaViolation,
             "masked_code: only completion instances carry masked code"),
            (make_vacm, {"target_version": None}, SchemaViolation,
             "target_version: required for vacm instances"),
            (make_vacm, {"target_version": parse_version("1.3.2.0")}, SchemaViolation,
             "target_version: must differ from source_version"),
            (make_vacm, {"granularity": Granularity.TOKEN}, SchemaViolation,
             "granularity: vacm instances are block-level"),
            (make_vscc, {"core_token": "return", "reference": "    return x"}, SchemaViolation,
             "core_token: must be a single identifier"),
        ],
    )
    def test_each_rule_names_itself(self, make, overrides, error, message):
        with pytest.raises(SchemaViolation) as excinfo:
            make(**overrides)
        assert type(excinfo.value) is error
        assert excinfo.value.violations == [message]

    def test_replace_revalidates(self):
        with pytest.raises(SchemaViolation, match=sentinel_count("[line-mask]", 0)):
            make_vscc()._replace(granularity=Granularity.LINE)


class TestRecordInvariants:
    def test_meta_instance_rejects_whitespace_library(self):
        with pytest.raises(SchemaViolation):
            MetaInstance(
                library="two words",
                version=parse_version("1.0"),
                description="d",
                code="x = 1",
                data_source=DataSource.STACK_OVERFLOW,
            )

    def test_meta_instance_rejects_empty_code(self):
        with pytest.raises(SchemaViolation):
            MetaInstance(
                library="lib",
                version=parse_version("1.0"),
                description="d",
                code="",
                data_source=DataSource.STACK_OVERFLOW,
            )


def make_meta(**overrides) -> MetaInstance:
    fields = dict(
        library="pandas",
        version=parse_version("1.3.5"),
        description="d",
        code="arr = df.to_numpy()",
        data_source=DataSource.STACK_OVERFLOW,
    )
    fields.update(overrides)
    return MetaInstance(**fields)


def unchecked(record, **changes):
    """record with changes, built by tuple.__new__, which runs no rule."""
    return tuple.__new__(type(record), {**record._asdict(), **changes}.values())


# Each way to build a record from a record and field changes; the ones that
# take no changes get an unchecked record that already carries them.
BUILDS = {
    "constructor": lambda record, changes: type(record)(**{**record._asdict(), **changes}),
    "_make": lambda record, changes: type(record)._make({**record._asdict(), **changes}.values()),
    "_replace": lambda record, changes: record._replace(**changes),
    **{
        f"pickle protocol {protocol}": (
            lambda record, changes, protocol=protocol:
            pickle.loads(pickle.dumps(unchecked(record, **changes), protocol))
        )
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
    },
    "copy.copy": lambda record, changes: copy.copy(unchecked(record, **changes)),
    "copy.deepcopy": lambda record, changes: copy.deepcopy(unchecked(record, **changes)),
}
if sys.version_info >= (3, 13):
    BUILDS["copy.replace"] = lambda record, changes: copy.replace(record, **changes)


class TestCheckedRecords:
    """An instance record is a named tuple, and every tuple path that builds
    one checks its rules, as its constructor does."""

    RECORDS = [
        (make_vscc, {"granularity": Granularity.LINE},
         "masked_code: expected exactly one '[line-mask]', found 0"),
        (make_vacm, {"target_version": parse_version("1.3.2")},
         "target_version: must differ from source_version"),
        (make_meta, {"library": "two words"},
         "library: must be non-empty and contain no whitespace"),
    ]

    @pytest.mark.parametrize("build", BUILDS.values(), ids=BUILDS.keys())
    @pytest.mark.parametrize("make, changes, message", RECORDS)
    def test_every_build_checks_the_rules(self, build, make, changes, message):
        record = make()
        rebuilt = build(record, {})
        assert type(rebuilt) is type(record)
        assert rebuilt == record
        with pytest.raises(SchemaViolation) as excinfo:
            build(record, changes)
        assert excinfo.value.violations == [message]

    @pytest.mark.parametrize("make", [make_vscc, make_meta])
    def test_fields_cannot_be_set(self, make):
        record = make()
        with pytest.raises(AttributeError):
            record.library = "numpy"
        with pytest.raises(AttributeError):
            record.extra = 1
        assert record == make()
