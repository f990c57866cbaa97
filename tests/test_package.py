"""The package's public surface, pinned: adding or removing a public name
means editing this list, so the change shows in review."""

import vceval

PUBLIC_NAMES = [
    "AggregateRow",
    "CallSiteInfo",
    "CdcVerdict",
    "CodeFacts",
    "DataSource",
    "EvaluationItem",
    "ExecReport",
    "FilterVerdict",
    "Granularity",
    "IDENTIFIER_RE",
    "LifecycleRecord",
    "LifecycleTag",
    "MASK_SENTINELS",
    "MaskSpec",
    "MetaInstance",
    "MetricName",
    "MigrationCategory",
    "MigrationDirection",
    "MigrationPattern",
    "Ordering",
    "RuleResult",
    "ScoringResult",
    "TaskInstance",
    "TaskKind",
    "VersionId",
    "VersionPattern",
    "VersionSurface",
    "block_line_average",
    "build_migration_pair",
    "categorize_migration",
    "cdc_check",
    "check_syntax",
    "classify_version_pattern",
    "collect_surfaces",
    "compare_versions",
    "contains_core_token",
    "em_block",
    "em_token",
    "emit_report",
    "errors",
    "estimate_at_k",
    "extract_facts",
    "extract_surface",
    "filter_corpus_file",
    "filter_tree",
    "identifier_spans",
    "identifier_tokens",
    "ingest",
    "ism_line",
    "mask_instance",
    "normalize_generation",
    "parse_version",
    "pearson",
    "pm_line",
    "run_scoring",
    "scan_api_definitions",
    "score_at_k",
    "strip_code_fences",
    "tag_lifecycle",
    "version_sort_key",
]


def test_public_names_are_unique_and_resolve():
    assert len(vceval.__all__) == len(set(vceval.__all__))
    for name in vceval.__all__:
        assert getattr(vceval, name) is not None, name


def test_public_names_are_pinned():
    assert sorted(vceval.__all__) == PUBLIC_NAMES
