import dataclasses
import json
import logging
import os
import stat
import textwrap
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import vceval.harness
import vceval.syntax

from vceval import (
    EvaluationItem,
    ExecReport,
    Granularity,
    MetricName,
    TaskInstance,
    ingest,
    normalize_generation,
    run_scoring,
)
from vceval.errors import (
    EmptyAfterNormalization,
    EvalError,
    InvalidArgs,
    IoFailure,
    SchemaViolation,
)
from vceval.harness import (
    AggregateRow,
    decode_exec_report,
    decode_instance,
    decode_meta_record,
    emit_report,
    encode_instance,
    write_score_vectors,
    write_text,
)
from vceval.metrics import (
    block_line_average,
    cdc_check,
    em_block,
    em_token,
    ism_line,
    pm_line,
    significant_lines,
)

from helpers import build_fixture_corpus, raises_exactly, write_jsonl


class TestNormalizeGeneration:
    def test_fenced_token(self):
        assert normalize_generation("```\nto_numpy\n```", Granularity.TOKEN) == "to_numpy"

    def test_prose_token_reduction_warns(self, caplog):
        with caplog.at_level(logging.WARNING, logger="vceval.harness"):
            result = normalize_generation("The answer is to_numpy", Granularity.TOKEN)
        assert result == "The"
        assert any("token normalization" in message for message in caplog.messages)

    def test_block_trims_whitespace_only(self):
        assert normalize_generation("df.to_numpy()\n", Granularity.BLOCK) == "df.to_numpy()"

    def test_prose_outside_fence_dropped(self):
        raw = "Here you go:\n```python\nx = 1\n```\nenjoy"
        assert normalize_generation(raw, Granularity.BLOCK) == "x = 1"

    def test_unicode_token_kept_whole(self):
        assert normalize_generation("données.café(x)", Granularity.TOKEN) == "données"

    def test_empty_raises(self):
        with pytest.raises(EmptyAfterNormalization):
            normalize_generation("   \n", Granularity.BLOCK)
        with pytest.raises(EmptyAfterNormalization):
            normalize_generation("1234 !!", Granularity.TOKEN)


class TestDecodeInstance:
    def base_row(self):
        return {
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

    def test_round_trip(self):
        instance = decode_instance(self.base_row())
        assert decode_instance(encode_instance(instance)) == instance

    def test_unknown_field_rejected(self):
        row = self.base_row()
        row["masked_cod"] = "typo"
        with pytest.raises(SchemaViolation):
            decode_instance(row)

    def test_bad_enum_rejected(self):
        row = self.base_row()
        row["data_source"] = "githubb"
        with pytest.raises(SchemaViolation):
            decode_instance(row)

    def test_bad_date_rejected(self):
        row = self.base_row()
        row["release_date"] = "yesterday"
        with pytest.raises(SchemaViolation):
            decode_instance(row)

    def test_missing_required_field(self):
        row = self.base_row()
        del row["reference"]
        with pytest.raises(SchemaViolation) as excinfo:
            decode_instance(row)
        assert any("reference" in v for v in excinfo.value.violations)


class TestDecodeMetaRecord:
    def test_round_trip(self):
        row = {
            "id": "a",
            "core_token": "to_numpy",
            "library": "pandas",
            "version": "1.3.5",
            "description": "d",
            "code": "x = df.to_numpy()\n",
            "data_source": "stack_overflow",
            "lifecycle_tag": "addition",
            "release_date": "2021-12-01",
        }
        decoded = decode_meta_record(row)
        meta_id, core_token, meta = decoded
        encoded = {
            "id": meta_id,
            "core_token": core_token,
            "library": meta.library,
            "version": meta.version.raw,
            "description": meta.description,
            "code": meta.code,
            "data_source": meta.data_source.value,
            "lifecycle_tag": meta.lifecycle_tag.value,
            "release_date": meta.release_date.isoformat(),
        }
        assert decode_meta_record(encoded) == decoded


class TestDecodeExecReport:
    def test_round_trip(self):
        report = ExecReport("x1", 2, False, {"return_type": True, "functionality": False})
        assert decode_exec_report(dataclasses.asdict(report)) == report


class TestIngest:
    def write_corpus(self, tmp_path, count=3):
        instances, samples = build_fixture_corpus(count)
        return (
            write_jsonl(tmp_path / "instances.jsonl", instances),
            write_jsonl(tmp_path / "samples.jsonl", samples),
        )

    def test_joins_matching_sets(self, tmp_path):
        inst_path, samp_path = self.write_corpus(tmp_path, 3)
        items = ingest(inst_path, samp_path)
        assert len(items) == 3
        assert all(len(item.samples) == 6 for item in items)

    def test_unknown_sample_instance_id(self, tmp_path):
        inst_path, _ = self.write_corpus(tmp_path, 2)
        bad = write_jsonl(
            tmp_path / "bad_samples.jsonl",
            [{"instance_id": "ghost", "samples": ["x"]},
             {"instance_id": "inst-000", "samples": ["x"]},
             {"instance_id": "inst-001", "samples": ["x"]}],
        )
        with raises_exactly(EvalError, "sample sets reference unknown instance ids: ['ghost']"):
            ingest(inst_path, bad)

    def test_unknown_sample_instance_ids_are_named_once_in_input_order(self, tmp_path):
        inst_path, _ = self.write_corpus(tmp_path, 1)
        bad = write_jsonl(
            tmp_path / "bad_samples.jsonl",
            [{"instance_id": iid, "samples": ["x"]}
             for iid in ("ghost", "phantom", "ghost", "inst-000", "ghost")],
        )
        with raises_exactly(
            EvalError, "sample sets reference unknown instance ids: ['ghost', 'phantom']"
        ):
            ingest(inst_path, bad)

    def test_instance_without_samples(self, tmp_path):
        inst_path, _ = self.write_corpus(tmp_path, 2)
        partial = write_jsonl(
            tmp_path / "partial.jsonl", [{"instance_id": "inst-000", "samples": ["x"]}]
        )
        with raises_exactly(EvalError, "instances lack sample sets: ['inst-001']"):
            ingest(inst_path, partial)

    def test_duplicate_instance_id(self, tmp_path):
        instances, samples = build_fixture_corpus(1)
        inst_path = write_jsonl(tmp_path / "instances.jsonl", instances * 2)
        samp_path = write_jsonl(tmp_path / "samples.jsonl", samples)
        with pytest.raises(SchemaViolation):
            ingest(inst_path, samp_path)

    def test_empty_sample_list_rejected(self, tmp_path):
        inst_path, _ = self.write_corpus(tmp_path, 1)
        samp_path = write_jsonl(
            tmp_path / "samples.jsonl", [{"instance_id": "inst-000", "samples": []}]
        )
        with pytest.raises(SchemaViolation) as excinfo:
            ingest(inst_path, samp_path)
        assert excinfo.value.violations == [
            f"{samp_path}:1: samples: need at least one generated sample"
        ]

    def test_exec_reports_joined(self, tmp_path):
        inst_path, samp_path = self.write_corpus(tmp_path, 1)
        reports = [
            {"instance_id": "inst-000", "sample_index": j, "passed": j == 0}
            for j in range(6)
        ]
        exec_path = write_jsonl(tmp_path / "exec.jsonl", reports)
        (item,) = ingest(inst_path, samp_path, exec_path)
        assert item.exec_passed == (True, False, False, False, False, False)

    def test_exec_report_out_of_range_index(self, tmp_path):
        inst_path, samp_path = self.write_corpus(tmp_path, 1)
        exec_path = write_jsonl(
            tmp_path / "exec.jsonl",
            [{"instance_id": "inst-000", "sample_index": 6, "passed": True}],
        )
        with pytest.raises(SchemaViolation):
            ingest(inst_path, samp_path, exec_path)

    def test_exec_report_unknown_instance(self, tmp_path):
        inst_path, samp_path = self.write_corpus(tmp_path, 1)
        exec_path = write_jsonl(
            tmp_path / "exec.jsonl",
            [{"instance_id": "ghost", "sample_index": 0, "passed": True}],
        )
        with raises_exactly(EvalError, "exec reports reference unknown instance ids: ['ghost']"):
            ingest(inst_path, samp_path, exec_path)

    def test_unknown_exec_report_instance_ids_are_named_once_in_input_order(self, tmp_path):
        inst_path, samp_path = self.write_corpus(tmp_path, 1)
        exec_path = write_jsonl(
            tmp_path / "exec.jsonl",
            [{"instance_id": iid, "sample_index": index, "passed": True}
             for iid, index in (
                 ("phantom", 0), ("ghost", 0), ("inst-000", 0), ("phantom", 1), ("ghost", 0)
             )],
        )
        with raises_exactly(
            EvalError, "exec reports reference unknown instance ids: ['phantom', 'ghost']"
        ):
            ingest(inst_path, samp_path, exec_path)

    def test_missing_file_is_io_failure(self, tmp_path):
        inst_path, samp_path = self.write_corpus(tmp_path, 1)
        with pytest.raises(IoFailure):
            ingest(tmp_path / "nope.jsonl", samp_path)

    def test_line_separators_inside_json_strings(self, tmp_path):
        # U+2028 and U+0085 are line boundaries for str.splitlines() but
        # plain characters inside a JSON string
        instances, samples = build_fixture_corpus(2)
        samples[1]["samples"][0] = "result = df.explode('\u2028')\u0085"
        inst = write_jsonl(tmp_path / "instances.jsonl", instances)
        samp = tmp_path / "samples.jsonl"
        samp.write_text(
            "".join(json.dumps(row, ensure_ascii=False) + "\n" for row in samples),
            encoding="utf-8",
        )
        items = ingest(inst, samp)
        assert items[1].samples[0] == "result = df.explode('\u2028')\u0085"

    def test_crlf_file_loads(self, tmp_path):
        instances, samples = build_fixture_corpus(3)
        inst, samp = tmp_path / "instances.jsonl", tmp_path / "samples.jsonl"
        for path, rows in ((inst, instances), (samp, samples)):
            path.write_bytes("".join(json.dumps(row) + "\r\n" for row in rows).encode())
        items = ingest(inst, samp)
        assert [item.instance.id for item in items] == [row["id"] for row in instances]

    def test_invalid_json_is_schema_violation(self, tmp_path):
        inst_path, samp_path = self.write_corpus(tmp_path, 1)
        broken = tmp_path / "broken.jsonl"
        broken.write_text("{not json}\n")
        with pytest.raises(SchemaViolation):
            ingest(broken, samp_path)


def per_instance_rows(result):
    """The per-instance rows of a run_scoring(..., per_instance=True) result,
    decoded, in the order they are written."""
    return [json.loads(line) for text in result.per_instance for line in text.splitlines()]


def items_from_corpus(tmp_path, count, exec_rows=None):
    instances, samples = build_fixture_corpus(count)
    inst_path = write_jsonl(tmp_path / "instances.jsonl", instances)
    samp_path = write_jsonl(tmp_path / "samples.jsonl", samples)
    exec_path = None
    if exec_rows is not None:
        exec_path = write_jsonl(tmp_path / "exec.jsonl", exec_rows)
    return ingest(inst_path, samp_path, exec_path)


class TestRunScoring:
    def test_cdc_at_one_matches_estimator(self, tmp_path):
        # instance 3 of the fixture corpus has 3 correct samples out of 6
        items = items_from_corpus(tmp_path, 4)
        result = run_scoring(items[3:], ["cdc"], [1], per_instance=True)
        (row,) = per_instance_rows(result)
        assert row["at_k"] == {"1": pytest.approx(0.5)}

    def test_perfect_em_aggregates_to_one(self, tmp_path):
        items = items_from_corpus(tmp_path, 8)
        perfect = [
            EvaluationItem(
                item.instance,
                (_correct_sample(item.instance),) * 3,
                (None,) * 3,
            )
            for item in items
        ]
        result = run_scoring(perfect, ["em"], [1, 3])
        for row in result.aggregates:
            assert row.value == 1.0

    def test_group_mean_is_exactly_rounded(self):
        # ten instances with em@1 = 1/10 each: a plain left-to-right sum of
        # the ten means is 0.9999999999999999 before Python 3.12
        instance = _KINDS[0]
        samples = (instance.reference,) + ("something_else",) * 9
        items = [
            EvaluationItem(
                dataclasses.replace(instance, id=f"i{i}"),
                samples,
                (None,) * 10,
            )
            for i in range(10)
        ]
        (row,) = run_scoring(items, ["em"], [1]).aggregates
        assert (row.value, row.instance_count) == (0.1, 10)

    def test_group_partition(self, tmp_path):
        items = items_from_corpus(tmp_path, 12)
        result = run_scoring(items, ["em"], [1], group_by="lifecycle_tag")
        counts = {row.group_key: row.instance_count for row in result.aggregates}
        assert sum(counts.values()) == 12

    def test_pattern_grouping_mixed_corpus(self, tmp_path):
        items = items_from_corpus(tmp_path, 12)
        result = run_scoring(items, ["em"], [1], group_by="pattern")
        keys = {row.group_key for row in result.aggregates}
        assert any(key.startswith("pattern=minor_to_major") for key in keys)
        assert "pattern=unspecified" in keys
        assert sum(row.instance_count for row in result.aggregates) == 12

    def test_cdc_never_exceeds_em(self, tmp_path):
        items = items_from_corpus(tmp_path, 16)
        result = run_scoring(items, ["em", "cdc"], [1, 3])
        rows = {(row.group_key, row.metric, row.k): row.value for row in result.aggregates}
        for (group, metric, k), value in rows.items():
            if metric == "cdc":
                assert value <= rows[(group, "em", k)] + 1e-12

    def test_pass_metric_requires_reports(self, tmp_path):
        items = items_from_corpus(tmp_path, 2)
        with raises_exactly(
            InvalidArgs,
            "pass metric requested but 12 sample(s) lack execution verdicts,"
            " first: [('inst-000', 0), ('inst-000', 1), ('inst-000', 2)]",
        ):
            run_scoring(items, ["pass"], [1])

    def test_pass_metric_with_reports_and_pearson(self, tmp_path):
        exec_rows = []
        instances, samples = build_fixture_corpus(6)
        for row, sample_row in zip(instances, samples):
            for j, text in enumerate(sample_row["samples"]):
                # execution agrees with exactness of the sample
                passed = j < int(row["id"].split("-")[1]) % 7
                exec_rows.append(
                    {"instance_id": row["id"], "sample_index": j, "passed": passed}
                )
        items = items_from_corpus(tmp_path, 6, exec_rows)
        result = run_scoring(items, ["em", "pass"], [1])
        metrics = {row.metric for row in result.aggregates}
        assert "pass" in metrics
        assert "pearson_em_vs_pass" in metrics
        agreement = [row for row in result.aggregates if row.metric == "pearson_em_vs_pass"]
        assert agreement[0].value == pytest.approx(1.0)

    def test_year_groups_name_undated_instances_unspecified(self, tmp_path):
        items = items_from_corpus(tmp_path, 8)
        result = run_scoring(items, ["em"], [1], group_by="year")
        counts = {row.group_key: row.instance_count for row in result.aggregates}
        assert counts == {"year=2015": 2, "year=2018": 2, "year=2021": 2, "year=unspecified": 2}

    def test_constant_pass_series_skips_pearson_with_a_warning(self, tmp_path, caplog):
        exec_rows = [
            {"instance_id": f"inst-{i:03d}", "sample_index": j, "passed": True}
            for i in range(4)
            for j in range(6)
        ]
        items = items_from_corpus(tmp_path, 4, exec_rows)
        with caplog.at_level(logging.WARNING, logger="vceval.harness"):
            result = run_scoring(items, ["em", "pass"], [1])
        assert {row.metric for row in result.aggregates} == {"em", "pass"}
        assert caplog.messages == [
            "skipping em-vs-pass agreement at k=1: at least one of the inputs is constant"
        ]

    def test_k_exceeding_n_rejected(self, tmp_path):
        items = items_from_corpus(tmp_path, 2)
        with raises_exactly(InvalidArgs, "k=7 exceeds n=6 for instance 'inst-000'"):
            run_scoring(items, ["em"], [7])

    @pytest.mark.parametrize(
        "metrics, ks, group_by, message",
        [
            (["em"], [0], None, "k values must be positive integers, got 0"),
            (["em"], [], None, "need at least one k value"),
            ([], [1], None, "no metrics selected"),
            (
                ["em"], [1], "month",
                "unknown group-by 'month'; choose from"
                " ['data_source', 'lifecycle_tag', 'year', 'pattern', 'direction']",
            ),
        ],
        ids=["k-zero", "no-k", "no-metric", "unknown-group-by"],
    )
    def test_invalid_arguments_rejected(self, tmp_path, metrics, ks, group_by, message):
        items = items_from_corpus(tmp_path, 1)
        with pytest.raises(InvalidArgs) as caught:
            run_scoring(items, metrics, ks, group_by=group_by)
        assert str(caught.value) == message

    def test_unknown_metric_rejected(self, tmp_path):
        items = items_from_corpus(tmp_path, 1)
        with pytest.raises(InvalidArgs):
            run_scoring(items, ["bleu"], [1])

    def test_deterministic_across_runs(self, tmp_path):
        items = items_from_corpus(tmp_path, 10)
        first, second = (
            run_scoring(items, ["em", "cdc"], [1, 3], group_by="data_source", per_instance=True)
            for _ in range(2)
        )
        assert first.aggregates == second.aggregates
        assert first.per_instance == second.per_instance

    def test_a_run_without_rows_encodes_none_and_aggregates_the_same(self, tmp_path):
        exec_rows = [
            {"instance_id": f"inst-{i:03d}", "sample_index": j, "passed": j < i % 5}
            for i in range(8)
            for j in range(6)
        ]
        items = items_from_corpus(tmp_path, 8, exec_rows)
        metrics = ["em", "ism", "pm", "cdc", "pass"]
        with_rows = run_scoring(items, metrics, [1, 3], group_by="pattern", per_instance=True)
        without = run_scoring(items, metrics, [1, 3], group_by="pattern")
        assert without.per_instance == ()
        assert without.aggregates == with_rows.aggregates
        assert any(row.metric.startswith("pearson_") for row in without.aggregates)
        assert len(per_instance_rows(with_rows)) == 8 * len(metrics)


def _correct_sample(instance: TaskInstance) -> str:
    return instance.reference


# one fixture instance per kind: token, line, block, migration block
_KINDS = [decode_instance(row) for row in build_fixture_corpus(4)[0]]


def _sample_pool(instance: TaskInstance) -> list[str]:
    reference = instance.reference
    return [
        reference,
        f"```python\n{reference}\n```",
        f"The answer is {reference}",
        f"`{reference}`",
        "",
        "  \n",
        "```\n```",
        reference.replace(instance.core_token, "renamed"),
        reference + "\nextra = 1",
        "something_else = 1",
    ]


def _independent_score(metric: MetricName, instance: TaskInstance, raw: str) -> float:
    """Score one sample on its own, straight through the metric functions."""
    try:
        text = normalize_generation(raw, instance.granularity)
    except EmptyAfterNormalization:
        return 0.0
    reference, granularity = instance.reference, instance.granularity
    if metric is MetricName.EM:
        if granularity is Granularity.TOKEN:
            return float(em_token(text, reference))
        return float(em_block(text, instance.core_token))
    if metric is MetricName.CDC:
        return cdc_check(
            textwrap.dedent(text), textwrap.dedent(reference), instance.core_token
        ).score
    line_metric = ism_line if metric is MetricName.ISM else pm_line
    if granularity is Granularity.BLOCK:
        return block_line_average(text, reference, line_metric)
    return line_metric(text, reference)


class TestScoreDistinctTexts:
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        kind=st.integers(0, len(_KINDS) - 1),
        picks=st.lists(st.integers(0, len(_sample_pool(_KINDS[0])) - 1), min_size=1, max_size=15),
    )
    def test_equals_scoring_each_sample_alone(self, kind, picks):
        instance = _KINDS[kind]
        pool = _sample_pool(instance)
        samples = tuple(pool[i] for i in picks)
        item = EvaluationItem(instance, samples, (None,) * len(samples))
        result = run_scoring([item], ["em", "ism", "pm", "cdc"], [1], per_instance=True)
        rows = per_instance_rows(result)
        assert [row["metric"] for row in rows] == ["em", "ism", "pm", "cdc"]
        for row in rows:
            metric = MetricName(row["metric"])
            expected = [_independent_score(metric, instance, raw) for raw in samples]
            assert row["per_sample"] == expected

    def test_each_distinct_text_is_parsed_once(self, monkeypatch):
        instance = _KINDS[2]
        calls = []

        def counting_cdc(*args):
            calls.append(args)
            return cdc_check(*args)

        monkeypatch.setattr(vceval.harness, "cdc_check", counting_cdc)
        texts = (instance.reference, "result = unrelated(x)", "x = 1", "   ")
        samples = tuple(texts[i % 4] for i in range(100))
        item = EvaluationItem(instance, samples, (None,) * 100)
        (row,) = per_instance_rows(run_scoring([item], ["cdc"], [1], per_instance=True))
        assert len(calls) == 3
        assert row["per_sample"][:4] == [1.0, 0.0, 0.0, 0.0]
        assert row["correct_count"] == 25

    def test_correct_count_counts_only_exact_ones_of_a_graded_metric(self):
        instance = dataclasses.replace(_KINDS[0], reference="to_numpy")
        samples = ("to_numpy", "to_n", "to_numpy", "other")
        item = EvaluationItem(instance, samples, (None,) * 4)
        ism, pm = per_instance_rows(run_scoring([item], ["ism", "pm"], [1], per_instance=True))
        assert (pm["per_sample"], pm["correct_count"]) == ([1.0, 0.5, 1.0, 0.0], 2)
        assert (ism["per_sample"], ism["correct_count"]) == ([1.0, 0.0, 1.0, 0.0], 2)

    def test_each_distinct_text_is_parsed_and_lexed_once(self, monkeypatch):
        # cdc parses the reference for every sample and rule 1, block em and
        # ism lex the same texts and reference lines again; the syntax memos
        # leave one parse and one lex per distinct string
        instance = _KINDS[2]
        reference = instance.reference
        samples = (
            reference,
            "df = pd.DataFrame(data)\nresult = df.explode('B')",
            "df = pd.DataFrame(data)\nresult = df.explode('B')",
            "    out = df.explode('A')\n    total = 1",
            "result = df.explode('A'",
            "  \n",
        )
        vceval.syntax.extract_facts.cache_clear()
        vceval.syntax._identifier_names.cache_clear()
        parsed, lexed = [], []

        def counting(calls, original):
            def wrapper(code):
                calls.append(code)
                return original(code)

            return wrapper

        monkeypatch.setattr(
            vceval.syntax, "_parse_module", counting(parsed, vceval.syntax._parse_module)
        )
        monkeypatch.setattr(
            vceval.syntax, "identifier_spans", counting(lexed, vceval.syntax.identifier_spans)
        )
        item = EvaluationItem(instance, samples, (None,) * 6)
        run_scoring([item], ["em", "ism", "pm", "cdc"], [1])

        texts = {normalize_generation(raw, instance.granularity) for raw in samples[:5]}
        expected_parsed = {textwrap.dedent(text) for text in texts} | {textwrap.dedent(reference)}
        expected_lexed = set()
        ref_lines = significant_lines(reference)
        for text in texts:
            gen_lines = significant_lines(text)
            expected_lexed |= {text, textwrap.dedent(text), *ref_lines[: len(gen_lines)]}
            expected_lexed.update(gen_lines[: len(ref_lines)])
        assert len(expected_parsed) == 4
        assert sorted(parsed) == sorted(expected_parsed)
        assert sorted(lexed) == sorted(expected_lexed)

    def test_pass_follows_each_sample_verdict(self):
        instance = _KINDS[1]
        samples = (instance.reference, instance.reference)
        item = EvaluationItem(instance, samples, (True, False))
        result = run_scoring([item], ["em", "pass"], [1], per_instance=True)
        per_sample = {row["metric"]: row["per_sample"] for row in per_instance_rows(result)}
        assert per_sample == {"em": [1.0, 1.0], "pass": [1.0, 0.0]}

    def test_warnings_once_per_distinct_text(self, caplog):
        instance = _KINDS[0]
        samples = ("The answer is to_numpy", "   ", "to_numpy") * 30
        item = EvaluationItem(instance, samples, (None,) * len(samples))
        with caplog.at_level(logging.WARNING, logger="vceval.harness"):
            run_scoring([item], ["em"], [1])
        assert sum("token normalization" in m for m in caplog.messages) == 1
        assert sum("normalized to nothing" in m for m in caplog.messages) == 1


class TestEmitReport:
    def rows(self):
        return [
            AggregateRow("all", "em", 1, 0.5, 10),
            AggregateRow("all", "cdc", 1, 0.25, 10),
        ]

    def test_deterministic_json(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        emit_report(self.rows(), "json", a)
        emit_report(list(reversed(self.rows())), "json", b)
        assert a.read_bytes() == b.read_bytes()

    def test_csv_round_trips_values(self, tmp_path):
        out = tmp_path / "r.csv"
        emit_report(self.rows(), "csv", out)
        lines = out.read_text().splitlines()
        assert lines[0] == "group_key,metric,k,value,instance_count"
        assert len(lines) == 3

    def test_rows_sorted(self, tmp_path):
        out = tmp_path / "r.json"
        emit_report(self.rows(), "json", out)
        payload = json.loads(out.read_text())
        metrics = [row["metric"] for row in payload["rows"]]
        assert metrics == sorted(metrics)

    def test_empty_refused(self, tmp_path):
        with pytest.raises(InvalidArgs):
            emit_report([], "json", tmp_path / "r.json")

    def test_unknown_format_refused(self, tmp_path):
        with pytest.raises(InvalidArgs) as caught:
            emit_report(self.rows(), "xml", tmp_path / "r.xml")
        assert str(caught.value) == "unknown report format 'xml'"
        assert list(tmp_path.iterdir()) == []

    def test_pipe_is_written_not_replaced(self, tmp_path):
        fifo = tmp_path / "out.fifo"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_text()), daemon=True)
        reader.start()
        emit_report(self.rows(), "csv", fifo)
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert received[0].startswith("group_key,metric,k,value,instance_count\n")
        assert stat.S_ISFIFO(fifo.stat().st_mode)
        assert sorted(tmp_path.iterdir()) == [fifo]

    def test_symlink_is_written_through(self, tmp_path):
        target = tmp_path / "target.csv"
        target.write_text("old\n")
        link = tmp_path / "link.csv"
        link.symlink_to(target)
        emit_report(self.rows(), "csv", link)
        assert link.is_symlink()
        assert target.read_text().startswith("group_key,metric,k,value,instance_count\n")
        assert sorted(tmp_path.iterdir()) == [link, target]

    def test_existing_file_keeps_its_mode(self, tmp_path):
        out = tmp_path / "r.json"
        out.write_text("old\n")
        out.chmod(0o600)
        emit_report(self.rows(), "json", out)
        assert stat.S_IMODE(out.stat().st_mode) == 0o600
        assert json.loads(out.read_text())["rows"]

    def test_failure_names_the_target_not_the_temp_file(self, tmp_path):
        out = tmp_path / "missing" / "r.json"
        with pytest.raises(IoFailure) as info:
            emit_report(self.rows(), "json", out)
        assert str(info.value) == (
            f"cannot write report {out}: [Errno 2] No such file or directory: '{out}'"
        )

    @pytest.mark.parametrize("error", [ValueError("bad row"), OSError(28, "No space left")])
    def test_failing_chunks_keep_the_previous_file(self, tmp_path, error):
        out = tmp_path / "r.json"
        out.write_text("previous\n")

        def chunks():
            yield "partial"
            raise error

        expected = IoFailure if isinstance(error, OSError) else ValueError
        with pytest.raises(expected):
            write_text(out, chunks())
        assert out.read_text() == "previous\n"
        assert sorted(tmp_path.iterdir()) == [out]

    def test_chunks_are_concatenated(self, tmp_path):
        out = write_text(tmp_path / "r.txt", iter(["a", "", "bc\n", "é"]))
        assert out.read_bytes() == "abc\né".encode()

    def test_write_score_vectors(self, tmp_path):
        items = items_from_corpus(tmp_path, 2)
        result = run_scoring(items, ["em"], [1], per_instance=True)
        out = write_score_vectors(result, tmp_path / "vectors.jsonl")
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(rows) == 2
        assert set(rows[0]) == {"instance_id", "metric", "n", "correct_count", "per_sample", "at_k"}
