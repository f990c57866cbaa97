import json
import os
import subprocess
import sys

import pytest

from vceval.cli import main

from helpers import build_fixture_corpus, write_jsonl


@pytest.fixture()
def corpus(tmp_path):
    instances, samples = build_fixture_corpus(8)
    inst = write_jsonl(tmp_path / "instances.jsonl", instances)
    samp = write_jsonl(tmp_path / "samples.jsonl", samples)
    return inst, samp


def run_score(corpus, tmp_path, *extra):
    inst, samp = corpus
    out = tmp_path / "report.json"
    code = main(
        [
            "score",
            "--instances", str(inst),
            "--samples", str(samp),
            "--metrics", "em,cdc",
            "--k", "1,3",
            "--out", str(out),
            *extra,
        ]
    )
    return code, out


class TestScoreCommand:
    def test_success(self, corpus, tmp_path):
        code, out = run_score(corpus, tmp_path)
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["rows"]
        assert {row["metric"] for row in payload["rows"]} == {"em", "cdc"}

    def test_group_by_and_per_instance(self, corpus, tmp_path):
        inst, samp = corpus
        out = tmp_path / "grouped.json"
        vectors = tmp_path / "vectors.jsonl"
        code = main(
            [
                "score",
                "--instances", str(inst),
                "--samples", str(samp),
                "--metrics", "em",
                "--k", "1",
                "--group-by", "data_source",
                "--per-instance", str(vectors),
                "--out", str(out),
            ]
        )
        assert code == 0
        rows = json.loads(out.read_text())["rows"]
        assert sum(row["instance_count"] for row in rows) == 8
        assert len(vectors.read_text().splitlines()) == 8

    def test_failed_write_keeps_previous_output(self, corpus, tmp_path, monkeypatch):
        out = tmp_path / "report.json"
        out.write_text("previous\n")
        before = sorted(tmp_path.iterdir())

        def failing_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", failing_replace)
        code, _ = run_score(corpus, tmp_path)
        assert code == 2
        assert out.read_text() == "previous\n"
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.skipif(not os.path.exists("/dev/fd/1"), reason="needs /dev/fd")
    @pytest.mark.parametrize("device", ["/dev/stdout", "/dev/fd/1"])
    def test_out_to_redirected_stdout(self, corpus, tmp_path, device):
        # /dev/stdout is a symlink to the redirected file; it must be written
        # through, never replaced
        inst, samp = corpus
        argv = [
            sys.executable,
            "-c",
            "import sys; from vceval.cli import main; sys.exit(main(sys.argv[1:]))",
            "score", "--instances", str(inst), "--samples", str(samp),
            "--metrics", "em", "--k", "1", "--out", device,
        ]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        redirected = tmp_path / "stdout.json"
        with redirected.open("w") as handle:
            done = subprocess.run(argv, stdout=handle, stderr=subprocess.PIPE, env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        assert json.loads(redirected.read_text())["rows"]
        assert os.path.islink(device)

    def test_missing_file_exits_2(self, corpus, tmp_path):
        _, samp = corpus
        code = main(
            [
                "score",
                "--instances", str(tmp_path / "ghost.jsonl"),
                "--samples", str(samp),
                "--out", str(tmp_path / "r.json"),
            ]
        )
        assert code == 2

    def test_schema_violation_exits_1(self, corpus, tmp_path):
        _, samp = corpus
        broken = tmp_path / "broken.jsonl"
        broken.write_text('{"id": "x"}\n')
        code = main(
            [
                "score",
                "--instances", str(broken),
                "--samples", str(samp),
                "--out", str(tmp_path / "r.json"),
            ]
        )
        assert code == 1

    def test_join_failure_exits_1(self, corpus, tmp_path):
        inst, _ = corpus
        orphan = write_jsonl(tmp_path / "orphan.jsonl", [{"instance_id": "ghost", "samples": ["x"]}])
        code = main(
            [
                "score",
                "--instances", str(inst),
                "--samples", str(orphan),
                "--out", str(tmp_path / "r.json"),
            ]
        )
        assert code == 1

    def test_unknown_metric_exits_3(self, corpus, tmp_path):
        inst, samp = corpus
        code = main(
            [
                "score",
                "--instances", str(inst),
                "--samples", str(samp),
                "--metrics", "bleu",
                "--out", str(tmp_path / "r.json"),
            ]
        )
        assert code == 3

    def test_k_exceeding_n_exits_3(self, corpus, tmp_path):
        inst, samp = corpus
        code = main(
            [
                "score",
                "--instances", str(inst),
                "--samples", str(samp),
                "--k", "10",
                "--out", str(tmp_path / "r.json"),
            ]
        )
        assert code == 3

    def test_unknown_flag_exits_3(self):
        assert main(["score", "--frobnicate"]) == 3

    def test_pass_without_reports_exits_3(self, corpus, tmp_path):
        inst, samp = corpus
        code = main(
            [
                "score",
                "--instances", str(inst),
                "--samples", str(samp),
                "--metrics", "pass",
                "--out", str(tmp_path / "r.json"),
            ]
        )
        assert code == 3

    def test_csv_format(self, corpus, tmp_path):
        inst, samp = corpus
        out = tmp_path / "report.csv"
        code = main(
            [
                "score",
                "--instances", str(inst),
                "--samples", str(samp),
                "--format", "csv",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert out.read_text().startswith("group_key,metric,k,value,instance_count")


class TestReportCommand:
    def test_json_to_csv(self, corpus, tmp_path):
        code, out = run_score(corpus, tmp_path)
        assert code == 0
        csv_out = tmp_path / "report.csv"
        assert main(["report", "--aggregates", str(out), "--format", "csv", "--out", str(csv_out)]) == 0
        assert csv_out.read_text().splitlines()[0] == "group_key,metric,k,value,instance_count"

    def test_missing_aggregates_exits_2(self, tmp_path):
        assert main(["report", "--aggregates", str(tmp_path / "none.json"),
                     "--out", str(tmp_path / "o.csv")]) == 2


class TestMaskCommand:
    def test_masks_instances(self, tmp_path):
        spec_rows = [
            {
                "instance_id": "m1",
                "core_token": "explode",
                "library": "pandas",
                "version": "1.3.5",
                "description": "demo",
                "code": "import pandas as pd\nresult = df.explode('A')\nprint(result)\n",
                "data_source": "library_source",
                "line_index": 1,
            }
        ]
        spec = write_jsonl(tmp_path / "spec.jsonl", spec_rows)
        out = tmp_path / "instances.jsonl"
        code = main(["mask", "--granularity", "line", "--spec", str(spec), "--out", str(out)])
        assert code == 0
        (row,) = [json.loads(line) for line in out.read_text().splitlines()]
        assert row["masked_code"] == "import pandas as pd\n[line-mask]\nprint(result)\n"
        assert row["reference"] == "result = df.explode('A')"

    def test_unresolvable_span_exits_1(self, tmp_path):
        spec_rows = [
            {
                "instance_id": "m1",
                "core_token": "missing",
                "library": "pandas",
                "version": "1.3.5",
                "description": "demo",
                "code": "x = 1\n",
                "data_source": "library_source",
            }
        ]
        spec = write_jsonl(tmp_path / "spec.jsonl", spec_rows)
        code = main(["mask", "--granularity", "token", "--spec", str(spec),
                     "--out", str(tmp_path / "out.jsonl")])
        assert code == 1


class TestPairCommand:
    def test_pairs_same_functionality_rows(self, tmp_path):
        meta_rows = [
            {
                "id": "a",
                "core_token": "old_call",
                "library": "torch",
                "version": "1.3.2",
                "description": "shared",
                "code": "old_call()",
                "data_source": "library_source",
            },
            {
                "id": "b",
                "core_token": "new_call",
                "library": "torch",
                "version": "2.0.0",
                "description": "shared",
                "code": "new_call()",
                "data_source": "library_source",
            },
            {
                "id": "c",
                "core_token": "other",
                "library": "torch",
                "version": "2.0.0",
                "description": "different purpose",
                "code": "other()",
                "data_source": "library_source",
            },
        ]
        meta = write_jsonl(tmp_path / "meta.jsonl", meta_rows)
        out = tmp_path / "pairs.jsonl"
        assert main(["pair", "--meta", str(meta), "--out", str(out)]) == 0
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert {row["id"] for row in rows} == {"a::b", "b::a"}
        forward = next(row for row in rows if row["id"] == "a::b")
        assert forward["source_version"] == "1.3.2"
        assert forward["target_version"] == "2.0.0"
        assert forward["core_token"] == "new_call"
        assert forward["reference"] == "new_call()"

    def test_duplicate_meta_id_exits_1(self, tmp_path):
        row = {
            "id": "a",
            "core_token": "f",
            "library": "torch",
            "version": "1.0",
            "description": "d",
            "code": "f()",
            "data_source": "library_source",
        }
        meta = write_jsonl(tmp_path / "meta.jsonl", [row, row])
        assert main(["pair", "--meta", str(meta), "--out", str(tmp_path / "o.jsonl")]) == 1


class TestFilterCommand:
    def test_reports_verdicts(self, tmp_path):
        root = tmp_path / "corpus"
        root.mkdir()
        (root / "keep.py").write_text("import os\n")
        (root / "drop.py").write_text("def f(:\n")
        out = tmp_path / "verdicts.jsonl"
        assert main(["filter", "--root", str(root), "--out", str(out)]) == 0
        rows = {row["path"]: row for row in map(json.loads, out.read_text().splitlines())}
        assert rows["keep.py"]["keep"] is True
        assert rows["drop.py"]["keep"] is False
        assert rows["drop.py"]["reasons"] == ["syntax_error"]

    def test_missing_root_exits_2(self, tmp_path):
        assert main(["filter", "--root", str(tmp_path / "none"),
                     "--out", str(tmp_path / "o.jsonl")]) == 2


class TestLifecycleCommand:
    def test_tags_synthetic_tree(self, tmp_path):
        root = tmp_path / "versions"
        for version, body in {
            "1.0": "def keep(): ...\n",
            "2.0": "def keep(): ...\ndef added(): ...\n",
        }.items():
            directory = root / version / "pkg"
            directory.mkdir(parents=True)
            (directory / "mod.py").write_text(body)
        out = tmp_path / "lifecycle.json"
        assert main(["lifecycle", "--versions-root", str(root), "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["versions"] == ["1.0", "2.0"]
        records = {record["api"]: record for record in payload["records"]}
        assert records["pkg.mod.keep"]["tags"] == {"1.0": "general", "2.0": "general"}
        assert records["pkg.mod.added"]["tags"] == {"2.0": "addition"}

    def test_single_version_exits_3(self, tmp_path):
        root = tmp_path / "versions"
        directory = root / "1.0"
        directory.mkdir(parents=True)
        (directory / "mod.py").write_text("def f(): ...\n")
        assert main(["lifecycle", "--versions-root", str(root),
                     "--out", str(tmp_path / "o.json")]) == 3


class TestMaskThenScore:
    def test_mask_output_feeds_score(self, tmp_path):
        spec_rows = [
            {
                "instance_id": "m1",
                "core_token": "explode",
                "library": "pandas",
                "version": "1.3.5",
                "description": "demo",
                "code": "result = df.explode('A')\nprint(result)\n",
                "data_source": "library_source",
                "occurrence": 0,
            }
        ]
        spec = write_jsonl(tmp_path / "spec.jsonl", spec_rows)
        instances = tmp_path / "instances.jsonl"
        assert main(["mask", "--granularity", "token", "--spec", str(spec),
                     "--out", str(instances)]) == 0
        samples = write_jsonl(
            tmp_path / "samples.jsonl",
            [{"instance_id": "m1", "samples": ["explode", "explode", "melt"]}],
        )
        out = tmp_path / "report.json"
        assert main(["score", "--instances", str(instances), "--samples", str(samples),
                     "--metrics", "em,cdc", "--k", "1,3", "--out", str(out)]) == 0
        rows = {(r["metric"], r["k"]): r["value"] for r in json.loads(out.read_text())["rows"]}
        assert rows[("em", 1)] == pytest.approx(2 / 3)
        assert rows[("em", 3)] == 1.0


class TestHelp:
    def test_help_exits_0(self):
        assert main(["--help"]) == 0
        assert main(["score", "--help"]) == 0
