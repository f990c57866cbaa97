"""Tests of the benchmark itself: seeded generation, span arithmetic,
wrapper restoration and the output oracles."""

from __future__ import annotations

import importlib
import json
from pathlib import Path

from perfbench import oracles, run, workloads
from perfbench.tracing import LAYERS, Span, Tracer, self_times

import vceval.cli


def _generated(work: Path, name: str, seed: int) -> dict[str, bytes]:
    work.mkdir(parents=True)
    prepare, _ = workloads.WORKLOADS[name]
    prepare(work, seed)
    return {p.relative_to(work).as_posix(): p.read_bytes() for p in sorted(work.rglob("*.jsonl"))}


def test_generator_is_deterministic_for_a_seed(tmp_path):
    for name in ("score-token", "score-block"):
        first = _generated(tmp_path / name / "a", name, 7)
        assert first == _generated(tmp_path / name / "b", name, 7)
        assert first != _generated(tmp_path / name / "c", name, 8)


def _fake_trees(tmp_path: Path) -> dict[str, Path]:
    trees = {}
    for minor in range(6, 14):
        lib = tmp_path / f"3.{minor}" / "lib"
        (lib / "asyncio").mkdir(parents=True)
        (lib / "asyncio" / "__init__.py").write_text("def run():\n    pass\n")
        for stem in ("alpha", "beta", "gamma", "delta", "eps", "zeta", "eta", "theta"):
            (lib / f"{stem}.py").write_text("x = 1\n" * 1_000)
        trees[f"3.{minor}"] = lib
    return trees


def test_module_subset_and_layout_are_seeded(tmp_path):
    trees = _fake_trees(tmp_path / "trees")
    subset = workloads.module_subset(trees, 3)
    assert subset == workloads.module_subset(trees, 3)
    assert subset[: len(workloads.REQUIRED_MODULES)] == workloads.REQUIRED_MODULES
    files, repeated = workloads.layout(trees, subset, tmp_path / "out")
    # one asyncio file plus four extras per version; all but the first
    # version's files repeat earlier bytes (and the extras share content)
    assert files == 8 * 5
    assert repeated == (files - 2) / files


def test_self_time_on_a_hand_built_span_tree():
    spans = [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 4.0, 0),
        Span("a.child", 2.0, 3.0, 1),
        Span("b", 3.0, 6.0, 0),  # overlaps a: the union [1, 6] is covered once
        Span("c", 8.0, 12.0, 0),  # runs past its parent: only [8, 10] is covered
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 3.0, 4.0]


def _attributes():
    out = {}
    for _, targets in LAYERS:
        for target in targets:
            module, _, attr = target.rpartition(".")
            out[target] = getattr(importlib.import_module(module), attr)
    return out


def _score_job(tmp_path: Path) -> list[str]:
    instance = {
        "id": "i1", "task": "vscc", "granularity": "block", "library": "pandas",
        "source_version": "1.3.5", "description": "demo", "data_source": "stack_overflow",
        "masked_code": "import pandas as pd\n[block-mask]\nprint(result)\n",
        "reference": "df = pd.DataFrame(data)\nresult = df.explode('A')", "core_token": "explode",
    }
    samples = {"instance_id": "i1", "samples": [instance["reference"], "result = other(x)"]}
    workloads.write_jsonl(tmp_path / "instances.jsonl", [instance])
    workloads.write_jsonl(tmp_path / "samples.jsonl", [samples])
    return [
        "score", "--instances", str(tmp_path / "instances.jsonl"),
        "--samples", str(tmp_path / "samples.jsonl"), "--metrics", "em,ism,pm,cdc",
        "--k", "1", "--out", str(tmp_path / "report.json"),
    ]


def test_every_wrapped_attribute_is_restored_after_a_traced_run(tmp_path):
    before = _attributes()
    with Tracer() as tracer:
        assert vceval.cli.main(_score_job(tmp_path)) == 0
    assert all(_attributes()[t] is fn for t, fn in before.items())
    summary = tracer.summary()
    assert summary["cli.main.calls"] == 1
    assert summary["metrics.cdc_check.calls"] == 2
    assert summary["syntax.extract_facts.calls"] == 2 * summary["metrics.cdc_check.calls"]
    assert not tracer.absent


def test_a_missing_wrapped_name_is_reported_absent(tmp_path):
    layers = LAYERS + (("harness.gone", ("vceval.harness.no_such_function",)),)
    with Tracer(layers) as tracer:
        assert vceval.cli.main(_score_job(tmp_path)) == 0
    assert tracer.absent == ["vceval.harness.no_such_function"]
    assert tracer.summary()["harness.gone.calls"] == 0


def _per_instance(iid: str, metric: str, per_sample, ks=(1,)) -> dict:
    correct = sum(1 for s in per_sample if s == 1.0)
    return {
        "instance_id": iid, "metric": metric, "n": len(per_sample), "correct_count": correct,
        "per_sample": per_sample,
        "at_k": {str(k): oracles.em_at_k(len(per_sample), correct, k) for k in ks},
    }


def test_token_oracle_flags_a_planted_wrong_count():
    plants = {"t1": ["right", "prose", "fenced", "empty"]}
    rows = {("t1", "em"): _per_instance("t1", "em", [1.0, 0.0, 1.0, 0.0], ks=(1, 3))}
    tally = oracles.Tally()
    oracles.check_token_em(tally, rows, plants, workloads.TOKEN_EM, (1, 3))
    assert (tally.checked, tally.wrong) == (3, 0)
    rows[("t1", "em")]["correct_count"] = 3
    tally = oracles.Tally()
    oracles.check_token_em(tally, rows, plants, workloads.TOKEN_EM, (1, 3))
    assert (tally.wrong, tally.unexplained) == (1, 1)


def test_reference_equal_oracle_flags_a_planted_wrong_score():
    rows = {("b1", m): _per_instance("b1", m, [1.0, 0.0]) for m in oracles.STATIC_METRICS}
    references = {"b1": "x = f(a)\ny = g(x)"}
    tally = oracles.Tally()
    oracles.check_reference_equal(tally, rows, {"b1": [0]}, references)
    assert (tally.checked, tally.wrong) == (4, 0)
    rows[("b1", "ism")]["per_sample"][0] = 0.5
    tally = oracles.Tally()
    oracles.check_reference_equal(tally, rows, {"b1": [0]}, references)
    assert (tally.wrong, tally.unexplained) == (1, 1)


def test_reference_equal_oracle_counts_the_indented_block_defect_as_known():
    rows = {("b1", m): _per_instance("b1", m, [1.0]) for m in oracles.STATIC_METRICS}
    rows[("b1", "cdc")]["per_sample"][0] = 0.0
    tally = oracles.Tally()
    oracles.check_reference_equal(tally, rows, {"b1": [0]}, {"b1": "    x = f(a)\n    y = g(x)"})
    assert (tally.wrong, tally.known, tally.unexplained) == (1, 1, 0)


def _lifecycle_report(path: Path, imp_tag: str) -> Path:
    versions = ["3.10", "3.11", "3.12", "3.13"]
    records = [
        {"api": "asyncio.coroutines.coroutine", "tags": {"3.10": "deprecation"}},
        {"api": "imp.reload", "tags": {"3.10": "general", "3.11": imp_tag}},
        {"api": "asyncore.loop", "tags": {"3.11": "deprecation"}},
        {"api": "distutils.core.setup", "tags": {"3.11": "deprecation"}},
        {"api": "cgi.parse", "tags": {"3.12": "deprecation"}},
        {"api": "imports.keep", "tags": {"3.11": "general", "3.12": "general"}},
    ]
    path.write_text(json.dumps({"versions": versions, "records": records}))
    return path


def test_lifecycle_oracle_flags_a_planted_wrong_tag(tmp_path):
    versions = ["3.10", "3.11", "3.12", "3.13"]
    good = oracles.check_lifecycle(_lifecycle_report(tmp_path / "good.json", "deprecation"), versions)
    assert (good.checked, good.wrong) == (11, 0)
    bad = oracles.check_lifecycle(_lifecycle_report(tmp_path / "bad.json", "general"), versions)
    assert (bad.wrong, bad.unexplained) == (1, 1)


def test_filter_oracle_agrees_with_the_rules_and_flags_a_planted_wrong_verdict(tmp_path):
    tree = tmp_path / "tree"
    tree.mkdir()
    files = {
        "ok.py": b"def f(x):\n    return x\n",
        "long.py": b"x = '" + b"a" * 1200 + b"'\n",
        "digits.py": b"x = 1234567890 + 1234567890\n",
        "broken.py": b"def f(:\n",
        "latin.py": b"s = '\xe9'\n",
    }
    for name, data in files.items():
        (tree / name).write_bytes(data)
    assert oracles.filter_verdict(files["long.py"]) == (False, ["avg_line_length", "max_line_length"])
    assert oracles.filter_verdict(files["digits.py"]) == (False, ["alphabetic_ratio"])
    assert oracles.filter_verdict(files["broken.py"]) == (False, ["syntax_error"])
    assert oracles.filter_verdict(files["latin.py"]) == (False, ["decode_error"])
    out = tmp_path / "verdicts.jsonl"
    assert vceval.cli.main(["filter", "--root", str(tree), "--out", str(out)]) == 0
    assert oracles.check_filter(out, tree).wrong == 0
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    rows[0]["keep"] = not rows[0]["keep"]
    out.write_text("".join(json.dumps(row) + "\n" for row in rows))
    tally = oracles.check_filter(out, tree)
    assert (tally.wrong, tally.unexplained) == (1, 1)


def test_report_identity_oracle_flags_differing_bytes():
    jobs = [{"hashes": {"report.json": "aa"}}, {"hashes": {"report.json": "aa"}}]
    assert oracles.reports_identical(jobs)
    jobs.append({"hashes": {"report.json": "ab"}})
    assert not oracles.reports_identical(jobs)


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_metrics(LAYERS)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
