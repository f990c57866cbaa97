import json
import os
import re
import subprocess
import sys
import textwrap

import pytest

from vceval import core_model
from vceval.cli import main
from vceval.harness import AggregateRow
from vceval.lifecycle import collect_surfaces

from helpers import build_fixture_corpus, write_jsonl, write_score_inputs


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

    @pytest.mark.parametrize(
        "out, per_instance, setup",
        [
            ("report.json", "report.json", None),
            ("report.json", "{tmp}/report.json", None),
            ("./sub/../report.json", "report.json", "dir"),
            ("link.json", "report.json", "link"),
            ("link.json", "report.json", "link-to-file"),
        ],
        ids=["same", "relative-and-absolute", "dot-dot", "dangling-symlink", "symlink"],
    )
    def test_out_and_per_instance_on_one_file_exit_3(
        self, tmp_path, monkeypatch, capsys, out, per_instance, setup
    ):
        # refused before any input is read: the instances file does not exist
        monkeypatch.chdir(tmp_path)
        if setup == "dir":
            (tmp_path / "sub").mkdir()
        if setup and setup.startswith("link"):
            (tmp_path / "link.json").symlink_to(tmp_path / "report.json")
        if setup == "link-to-file":
            (tmp_path / "report.json").write_text("previous\n")
        before = sorted(tmp_path.iterdir())
        per_instance = per_instance.format(tmp=tmp_path)
        code = main(
            [
                "score", "--instances", "missing.jsonl", "--samples", "missing.jsonl",
                "--out", out, "--per-instance", per_instance,
            ]
        )
        assert code == 3
        assert capsys.readouterr().err == (
            f"error: --out {out} and --per-instance {per_instance} name the same file\n"
        )
        assert sorted(tmp_path.iterdir()) == before

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

    @pytest.mark.parametrize("option", ["--instances", "--samples", "--exec-reports"])
    def test_non_utf8_input_exits_2_and_writes_nothing(self, corpus, tmp_path, capsys, option):
        inst, samp = corpus
        exec_reports = write_jsonl(
            tmp_path / "exec.jsonl", [{"instance_id": "inst-000", "sample_index": 0, "passed": True}]
        )
        broken = tmp_path / "broken.jsonl"
        broken.write_bytes(b"\xff\xfe{}\n")
        out = tmp_path / "r.json"
        argv = ["score", "--instances", str(inst), "--samples", str(samp),
                "--exec-reports", str(exec_reports), "--out", str(out)]
        argv[argv.index(option) + 1] = str(broken)
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(
            f"error: unreadable file {broken}: 'utf-8' codec can't decode byte 0xff"
        )
        assert not out.exists()

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

    @pytest.mark.parametrize(
        "samples, reason",
        [
            # json.loads raises ValueError here, not JSONDecodeError
            ("[" + "1" * 5000 + "]", "Exceeds the limit"),
            # and RecursionError here
            ("[" * 200_000 + "]" * 200_000, "maximum recursion depth exceeded"),
        ],
        ids=["long-integer", "deep-nesting"],
    )
    def test_json_that_does_not_decode_exits_1(self, corpus, tmp_path, capsys, samples, reason):
        inst, samp = corpus
        broken = tmp_path / "broken.jsonl"
        first = samp.read_text().splitlines()[0]
        broken.write_text(f'{first}\n{{"instance_id": "x", "samples": {samples}}}\n')
        argv = ["score", "--instances", str(inst), "--samples", str(broken), "--out", str(tmp_path / "r.json")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {broken}:2: invalid JSON: {reason}")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "name, line, message",
        [
            (
                "samples", '{"instance_id": "inst-000", "samples": ["x"]}',
                "duplicate sample set for instance 'inst-000'",
            ),
            ("samples", "[1, 2]", "expected a JSON object"),
            (
                "exec", '{"instance_id": "inst-000", "sample_index": 0, "passed": false}',
                "duplicate exec report for ('inst-000', 0)",
            ),
        ],
        ids=["duplicate-sample-set", "not-an-object", "duplicate-exec-report"],
    )
    def test_rejected_second_line_exits_1(self, corpus, tmp_path, capsys, name, line, message):
        inst, samp = corpus
        exec_reports = write_jsonl(
            tmp_path / "exec.jsonl", [{"instance_id": "inst-000", "sample_index": 0, "passed": True}]
        )
        bad = {"samples": samp, "exec": exec_reports}[name]
        bad.write_text(bad.read_text().splitlines()[0] + f"\n{line}\n")
        out = tmp_path / "r.json"
        argv = ["score", "--instances", str(inst), "--samples", str(samp),
                "--exec-reports", str(exec_reports), "--out", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {bad}:2: {message}\n"
        assert not out.exists()

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

    def test_csv_and_json_carry_the_same_table(self, corpus, tmp_path):
        inst, samp = corpus
        # pass verdicts that follow no static metric closely: the Pearson
        # rows take values of either sign
        exec_reports = write_jsonl(tmp_path / "exec.jsonl", [
            {"instance_id": f"inst-{i:03d}", "sample_index": j, "passed": j < i % 4}
            for i in range(8) for j in range(6)
        ])
        tables = {}
        for fmt in ("json", "csv"):
            out = tmp_path / f"report.{fmt}"
            argv = ["score", "--instances", str(inst), "--samples", str(samp),
                    "--exec-reports", str(exec_reports), "--metrics", "em,ism,pm,cdc,pass",
                    "--k", "1,3", "--group-by", "data_source", "--format", fmt, "--out", str(out)]
            assert main(argv) == 0
            tables[fmt] = out.read_text()
        columns = AggregateRow._fields
        header, *lines = tables["csv"].splitlines()
        assert header == ",".join(columns)
        rows = json.loads(tables["json"])["rows"]
        assert len(lines) == len(rows)
        assert any(row["metric"].startswith("pearson_") for row in rows)
        for line, row in zip(lines, rows):
            assert line.split(",") == [str(row[name]) for name in columns]

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


class TestNormalizationSummary:
    """score logs one line per kind of normalization loss, whatever the
    number of samples that it names."""

    def score(self, tmp_path, capsys, instances, samples):
        argv = [
            "score",
            "--instances", str(write_jsonl(tmp_path / "instances.jsonl", instances)),
            "--samples", str(write_jsonl(tmp_path / "samples.jsonl", samples)),
            "--out", str(tmp_path / "report.json"),
        ]
        assert main(argv) == 0
        return capsys.readouterr().err.splitlines()

    def test_ten_copies_write_the_same_lines_with_ten_times_the_counts(
        self, tmp_path, capsys, cli_log
    ):
        instances, samples = (
            [json.loads(line) for line in path.read_text().splitlines()]
            for path in write_score_inputs(tmp_path)
        )
        once = self.score(tmp_path, capsys, instances, samples)
        # the copies follow the originals, so the first examples are the same
        by_id = {row["instance_id"]: row for row in samples}
        copied_instances, copied_samples = list(instances), list(samples)
        for copy in range(1, 10):
            for instance in instances:
                copy_id = f"{instance['id']}-{copy}"
                copied_instances.append(dict(instance, id=copy_id))
                copied_samples.append(dict(by_id[instance["id"]], instance_id=copy_id))
        tenfold = self.score(tmp_path, capsys, copied_instances, copied_samples)
        assert len(once) == len(tenfold) == 3
        assert "token normalization reduced 10 sample(s) of 10 instance(s)" in once[0]
        assert "10 sample(s) of 10 instance(s) normalized to nothing" in once[1]
        counted = re.compile(r"(\d+)( (?:sample|instance)\(s\))")
        assert tenfold == [
            counted.sub(lambda m: f"{int(m.group(1)) * 10}{m.group(2)}", line) for line in once
        ]

    def test_nothing_lost_writes_only_the_status_line(self, tmp_path, capsys, cli_log):
        instances, samples = build_fixture_corpus(8)
        assert self.score(tmp_path, capsys, instances, samples) == [
            f"scored 8 instance(s) -> {tmp_path / 'report.json'}"
        ]

    def test_long_examples_are_shortened(self, tmp_path, capsys, cli_log):
        instances, samples = build_fixture_corpus(1)
        long_id = "i" * 70
        instances[0]["id"] = samples[0]["instance_id"] = long_id
        samples[0]["samples"][:2] = ["The answer is " + "x" * 70, "!!!"]
        reduced, emptied, _ = self.score(tmp_path, capsys, instances, samples)
        assert reduced.endswith(f"first: 'The answer is {'x' * 43}...' -> 'The'")
        assert emptied.endswith(f"first: '{'i' * 57}...'")


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

    @pytest.mark.parametrize(
        "code, span",
        [
            # the core token sits on the next line, outside the span
            ("x = 1\nout = df.explode('A')\n", "x = 1"),
            ("out = df.explode('A')\n\nprint(out)\n", ""),
            ("# explode the frame\nout = df.explode('A')\n", "# explode the frame"),
        ],
        ids=["token-outside", "blank", "comment-only"],
    )
    def test_line_span_without_the_core_token_exits_1(self, tmp_path, capsys, code, span):
        line_index = code.split("\n").index(span)
        spec_rows = [
            {
                "instance_id": "m1",
                "core_token": "explode",
                "library": "pandas",
                "version": "1.3.5",
                "description": "demo",
                "code": code,
                "data_source": "library_source",
                "line_index": line_index,
            }
        ]
        spec = write_jsonl(tmp_path / "spec.jsonl", spec_rows)
        out = tmp_path / "out.jsonl"
        assert main(["mask", "--granularity", "line", "--spec", str(spec),
                     "--out", str(out)]) == 1
        assert f"span {span!r} does not hold the core token 'explode'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"instance_id": ""}, "id: must be non-empty"),
            ({"line_index": 7}, "line 7 outside 0..1"),
            ({"code": "x = '[line-mask]'\n"},
             "code already contains the literal sentinel '[line-mask]'"),
            ({"code": "def (:\n"}, "code: must compile as a Python module"),
        ],
        ids=["empty-id", "line-outside", "sentinel-in-code", "invalid-code"],
    )
    def test_masking_errors_name_the_spec_line(self, tmp_path, capsys, change, message):
        good = {
            "instance_id": "m0",
            "core_token": "explode",
            "library": "pandas",
            "version": "1.3.5",
            "description": "demo",
            "code": "out = df.explode('A')\n",
            "data_source": "library_source",
            "line_index": 0,
        }
        spec = write_jsonl(tmp_path / "spec.jsonl", [good, {**good, **change}])
        out = tmp_path / "out.jsonl"
        assert main(["mask", "--granularity", "line", "--spec", str(spec),
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {spec}:2: {message}\n"
        assert not out.exists()

    def test_one_compile_per_run_of_specs_of_one_code(self, tmp_path, monkeypatch):
        # Decoding a record judges its rules twice, and masking adds no
        # compile of its own; the count is taken behind the rule's memo.
        compiled = []
        check_syntax = core_model.check_syntax

        def counting(code):
            compiled.append(code)
            return check_syntax(code)

        monkeypatch.setattr(core_model, "check_syntax", counting)
        core_model._compiles.cache_clear()
        codes = [
            "".join(f"out_{i} = df.explode({i})\n" for i in range(20)),
            "".join(f"res_{i} = df.explode({i})\n" for i in range(12)),
        ]
        spec_rows = [
            {"instance_id": f"m{n}-{i}", "core_token": "explode", "library": "pandas",
             "version": "1.3.5", "description": "demo", "code": code,
             "data_source": "library_source", "line_index": i}
            for n, code in enumerate(codes)
            for i in range(code.count("\n"))
        ]
        spec = write_jsonl(tmp_path / "spec.jsonl", spec_rows)
        out = tmp_path / "out.jsonl"
        assert main(["mask", "--granularity", "line", "--spec", str(spec),
                     "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 32
        assert compiled == codes


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

    def test_target_without_the_core_token_exits_1(self, tmp_path, capsys):
        meta_rows = [
            {
                "id": "m1",
                "core_token": "old_call",
                "library": "torch",
                "version": "1.3.2",
                "description": "shared",
                "code": "old_call()",
                "data_source": "library_source",
            },
            {
                "id": "m2",
                "core_token": "nothere",
                "library": "torch",
                "version": "2.0.0",
                "description": "shared",
                "code": "new_call()",
                "data_source": "library_source",
            },
        ]
        meta = write_jsonl(tmp_path / "meta.jsonl", meta_rows)
        out = tmp_path / "pairs.jsonl"
        assert main(["pair", "--meta", str(meta), "--out", str(out)]) == 1
        assert "instance 'm1::m2': target code does not hold the core token 'nothere'" in (
            capsys.readouterr().err
        )
        assert not out.exists()

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

    def test_groups_interleaved_rows_in_reading_order(self, tmp_path, capsys):
        row = {"core_token": "f", "library": "torch", "code": "f()",
               "data_source": "library_source"}
        meta_rows = [
            dict(row, id="a1", version="1.0", description="one"),
            dict(row, id="b1", version="1.0", description="two"),
            dict(row, id="a2", version="1.0.0", description="one"),
            dict(row, id="a3", version="2.0", description="one"),
            dict(row, id="b2", version="3.0", description="two"),
            dict(row, id="a4", version="2.1rc1", description="one"),
        ]
        meta = write_jsonl(tmp_path / "meta.jsonl", meta_rows)
        out = tmp_path / "pairs.jsonl"
        assert main(["pair", "--meta", str(meta), "--out", str(out)]) == 0
        ids = [json.loads(line)["id"] for line in out.read_text().splitlines()]
        assert ids == [
            "a1::a3", "a1::a4", "a2::a3", "a2::a4",
            "a3::a1", "a3::a2", "a3::a4", "a4::a1", "a4::a2", "a4::a3",
            "b1::b2", "b2::b1",
        ]
        # 1.0 and 1.0.0 are one version: paired with neither each other nor themselves
        assert not {"a1::a2", "a2::a1", "a1::a1", "a2::a2"} & set(ids)

        duplicated = write_jsonl(tmp_path / "dup.jsonl", [*meta_rows, meta_rows[2]])
        capsys.readouterr()
        assert main(["pair", "--meta", str(duplicated), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {duplicated}:7: duplicate meta id 'a2'\n"

    def test_meta_id_with_the_pair_separator_exits_1(self, tmp_path, capsys):
        # a::b with c and a with b::c would both be paired as a::b::c
        row = {
            "core_token": "f",
            "library": "torch",
            "description": "one",
            "code": "f()",
            "data_source": "library_source",
        }
        meta_rows = [
            dict(row, id="a::b", version="1.0"),
            dict(row, id="c", version="2.0"),
            dict(row, id="a", version="1.0", description="two"),
            dict(row, id="b::c", version="2.0", description="two"),
        ]
        meta = write_jsonl(tmp_path / "meta.jsonl", meta_rows)
        out = tmp_path / "pairs.jsonl"
        assert main(["pair", "--meta", str(meta), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: {meta}:1: id: 'a::b' holds '::', which joins the ids of a pair\n"
        )
        assert not out.exists()

    def test_an_all_indented_target_exits_1(self, tmp_path, capsys):
        # cdc would judge that reference as the whole program it is, which
        # does not compile, so the record rules refuse the record itself
        meta_rows = [
            {"id": id_, "core_token": token, "library": "torch", "version": version,
             "description": "shared", "code": code, "data_source": "library_source"}
            for id_, token, version, code in [
                ("a", "old_call", "1.3.2", "old_call()\n"),
                ("b", "new_call", "2.0.0", "    y = new_call()\n    print(y)\n"),
            ]
        ]
        meta = write_jsonl(tmp_path / "meta.jsonl", meta_rows)
        out = tmp_path / "pairs.jsonl"
        assert main(["pair", "--meta", str(meta), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: {meta}:2: code: must compile as a Python module\n"
        )
        assert not out.exists()

    PROGRAMS = [
        ("p1", "1.0", "import torch\ny = torch.old_call(x)\nprint(y)\n"),
        ("p2", "2.0", "import torch\n\ndef run(x):\n    y = torch.new_call(x)\n    return y\n"),
        ("p3", "3.0", "import torch\nwith torch.ctx() as x:\n    y = torch.new_call(x, dim=1)\n"),
    ]

    @pytest.mark.parametrize(
        "code",
        ["    y = torch.new_call(x)\n    return y\n", "y = torch.new_call(x,\n"],
        ids=["indented-body", "fragment"],
    )
    def test_only_programs_pair_and_every_pair_scores(self, tmp_path, capsys, code):
        def row(id_, version, text):
            token = "old_call" if "old_call" in text else "new_call"
            return {"id": id_, "core_token": token, "library": "torch", "version": version,
                    "description": "shared", "code": text, "data_source": "library_source"}

        programs = [row(*program) for program in self.PROGRAMS]
        out = tmp_path / "pairs.jsonl"
        for position in range(len(programs) + 1):
            meta_rows = [*programs]
            meta_rows.insert(position, row("bad", "4.0", code))
            meta = write_jsonl(tmp_path / "meta.jsonl", meta_rows)
            assert main(["pair", "--meta", str(meta), "--out", str(out)]) == 1
            assert capsys.readouterr().err == (
                f"error: {meta}:{position + 1}: code: must compile as a Python module\n"
            )
            assert not out.exists()

        meta = write_jsonl(tmp_path / "meta.jsonl", programs)
        assert main(["pair", "--meta", str(meta), "--out", str(out)]) == 0
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(rows) == 6
        samples = write_jsonl(
            tmp_path / "samples.jsonl",
            [{"instance_id": row["id"], "samples": [row["reference"]]} for row in rows],
        )
        per_instance = tmp_path / "rows.jsonl"
        assert main(["score", "--instances", str(out), "--samples", str(samples),
                     "--metrics", "em,ism,pm,cdc", "--k", "1",
                     "--out", str(tmp_path / "report.json"),
                     "--per-instance", str(per_instance)]) == 0
        scores = {
            (score["instance_id"], score["metric"]): score["per_sample"]
            for score in map(json.loads, per_instance.read_text().splitlines())
        }
        assert scores == {
            (row["id"], metric): [1.0] for row in rows for metric in ("em", "ism", "pm", "cdc")
        }


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

    def test_too_deeply_nested_file_rejected_not_fatal(self, tmp_path):
        root = tmp_path / "corpus"
        root.mkdir()
        (root / "deep.py").write_text("value = (\n" + "-\n" * 10000 + "1)\n")
        (root / "keep.py").write_text("import os\n")
        out = tmp_path / "verdicts.jsonl"
        assert main(["filter", "--root", str(root), "--out", str(out)]) == 0
        rows = {row["path"]: row for row in map(json.loads, out.read_text().splitlines())}
        assert rows["deep.py"]["reasons"] == ["alphabetic_ratio", "syntax_error"]
        assert rows["keep.py"]["keep"] is True

    def test_missing_root_exits_2(self, tmp_path):
        assert main(["filter", "--root", str(tmp_path / "none"),
                     "--out", str(tmp_path / "o.jsonl")]) == 2

    @pytest.mark.parametrize("warning_filter", ["default", "error"])
    def test_subject_syntax_warnings_stay_quiet(self, tmp_path, warning_filter):
        # `is` with a literal compiles with a SyntaxWarning: the verdict must
        # not depend on -W, and the warning must not reach stderr
        root = tmp_path / "corpus"
        root.mkdir()
        (root / "warns.py").write_text("value = 1\nif value is 1:\n    pass\n")
        out = tmp_path / "verdicts.jsonl"
        argv = [
            sys.executable, "-W", warning_filter,
            "-c", "import sys; from vceval.cli import main; sys.exit(main(sys.argv[1:]))",
            "filter", "--root", str(root), "--out", str(out),
        ]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        done = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        assert "Warning" not in done.stderr
        assert json.loads(out.read_text())["keep"] is True


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

    def test_stray_file_and_py_directory_are_not_read(self, tmp_path, capsys):
        root = tmp_path / "versions"
        for version in ("1.0", "2.0"):
            directory = root / version / "pkg"
            (directory / "x.py").mkdir(parents=True)  # a directory, not a module
            (directory / "mod.py").write_text(f"def f{version[0]}(): ...\n")
        (root / "3.0").write_text("def f3(): ...\n")  # a file, not a version tree
        out = tmp_path / "lifecycle.json"
        assert main(["lifecycle", "--versions-root", str(root), "--out", str(out)]) == 0
        assert capsys.readouterr().err == f"tagged 2 lifecycle record(s) -> {out}\n"
        payload = json.loads(out.read_text())
        assert payload["versions"] == ["1.0", "2.0"]
        assert [record["api"] for record in payload["records"]] == ["pkg.mod.f1", "pkg.mod.f2"]
        # the directory is passed over, not counted as a skipped file
        assert [(s.parsed_files, s.skipped_files) for s in collect_surfaces(root)] == [(1, 0)] * 2

    def test_relative_versions_root_writes_the_same_bytes(self, tmp_path, monkeypatch, capsys):
        root = tmp_path / "versions"
        for version, body in {"1.0": "def keep(): ...\n", "2.0": "def added(): ...\n"}.items():
            for relative in ("pkg/mod.py", "pkg/__init__.py", "top.py"):
                path = root / version / relative
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(body)
        absolute, relative = tmp_path / "absolute.json", tmp_path / "relative.json"
        assert main(["lifecycle", "--versions-root", str(root), "--out", str(absolute)]) == 0
        monkeypatch.chdir(root)
        assert main(["lifecycle", "--versions-root", ".", "--out", str(relative)]) == 0
        assert relative.read_bytes() == absolute.read_bytes()
        assert capsys.readouterr().err == (
            f"tagged 6 lifecycle record(s) -> {absolute}\n"
            f"tagged 6 lifecycle record(s) -> {relative}\n"
        )
        records = json.loads(absolute.read_text())["records"]
        assert [record["api"] for record in records] == [
            "pkg.added", "pkg.keep", "pkg.mod.added", "pkg.mod.keep", "top.added", "top.keep"
        ]

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

    def test_spans_that_are_no_program_alone_score_one(self, tmp_path):
        # the block of lines 4-5 and the lines 4 and 5 are this function's
        # body, and two of them hold its return; cdc judges each inside the
        # function.  So is the whole function after the import, and so are
        # spans of code whose lines end in CRLF, the masked line in blanks
        code = "import pandas as pd\n\n\ndef f(df):\n    out = df.explode('A')\n    return out\n"
        crlf = "import pandas as pd\r\n\r\nout = df.explode('A')  \r\nprint(out)\r\n"
        meta = {"library": "pandas", "version": "1.3.5", "description": "demo",
                "data_source": "library_source"}
        jobs = [("block", "b", "explode", code, {"line_start": 4, "line_end": 5}),
                ("line", "l", "out", code, {"line_index": 5}),
                ("line", "body", "explode", code, {"line_index": 4}),
                ("block", "def", "explode", code, {"line_start": 3, "line_end": 5}),
                ("line", "crlf-line", "explode", crlf, {"line_index": 2}),
                ("block", "crlf-block", "explode", crlf, {"line_start": 2, "line_end": 3})]
        rows = []
        for granularity, iid, token, text, target in jobs:
            spec = write_jsonl(tmp_path / f"{iid}.spec.jsonl",
                               [{"instance_id": iid, "core_token": token, "code": text,
                                 **meta, **target}])
            out = tmp_path / f"{iid}.jsonl"
            assert main(["mask", "--granularity", granularity, "--spec", str(spec),
                         "--out", str(out)]) == 0
            rows += map(json.loads, out.read_text().splitlines())
        instances = write_jsonl(tmp_path / "instances.jsonl", rows)
        samples = write_jsonl(
            tmp_path / "samples.jsonl",
            [{"instance_id": row["id"], "samples": [row["reference"]] * 6} for row in rows],
        )
        out, per_instance = tmp_path / "report.json", tmp_path / "rows.jsonl"
        assert main(["score", "--instances", str(instances), "--samples", str(samples),
                     "--metrics", "em,ism,pm,cdc", "--k", "1", "--out", str(out),
                     "--per-instance", str(per_instance)]) == 0
        report = json.loads(out.read_text())["rows"]
        metrics = ["em", "ism", "pm", "cdc"]
        assert {r["metric"]: r["value"] for r in report} == dict.fromkeys(metrics, 1.0)
        rows = [json.loads(line) for line in per_instance.read_text().splitlines()]
        assert [row["per_sample"] for row in rows] == [[1.0] * 6] * (4 * len(jobs))

    def test_a_sentinel_after_its_lines_indentation_takes_either_sample(self, tmp_path):
        instances = write_jsonl(
            tmp_path / "instances.jsonl",
            [
                {
                    "id": "x",
                    "task": "vscc",
                    "granularity": "line",
                    "library": "pandas",
                    "source_version": "1.3.5",
                    "description": "demo",
                    "masked_code": "def f(df):\n    [line-mask]\n    return out\n",
                    "reference": "out = df.explode('A')",
                    "core_token": "explode",
                    "data_source": "library_source",
                }
            ],
        )
        samples = write_jsonl(
            tmp_path / "samples.jsonl",
            [{"instance_id": "x",
              "samples": ["out = df.explode('A')", "    out = df.explode('A')"]}],
        )
        out, per_instance = tmp_path / "report.json", tmp_path / "rows.jsonl"
        assert main(["score", "--instances", str(instances), "--samples", str(samples),
                     "--metrics", "cdc", "--k", "1", "--out", str(out),
                     "--per-instance", str(per_instance)]) == 0
        (row,) = map(json.loads, per_instance.read_text().splitlines())
        assert row["per_sample"] == [1.0, 1.0]


class TestCdcFrame:
    """cdc derives each instance's context once and scores its samples in it."""

    MASKED = "import json\n\ndef load(paths):\n    for p in paths:\n[block-mask]\n    return out\n"
    REFERENCE = "        with open(p) as fh:\n            out = json.load(fh, parse_int=int)"

    def _row(self, iid, masked_code, reference, core_token):
        return {"id": iid, "task": "vscc", "granularity": "block", "library": "json",
                "source_version": "3.11", "description": "demo", "masked_code": masked_code,
                "reference": reference, "core_token": core_token,
                "data_source": "library_source"}

    def _score(self, tmp_path, rows, samples):
        instances = write_jsonl(tmp_path / "instances.jsonl", rows)
        sample_file = write_jsonl(
            tmp_path / "samples.jsonl",
            [{"instance_id": row["id"], "samples": samples[row["id"]]} for row in rows],
        )
        per_instance = tmp_path / "rows.jsonl"
        status = main(["score", "--instances", str(instances), "--samples", str(sample_file),
                       "--metrics", "cdc", "--k", "1", "--out", str(tmp_path / "report.json"),
                       "--per-instance", str(per_instance)])
        return status, per_instance

    def _instances(self, b_reference):
        return [
            self._row("a", self.MASKED, self.REFERENCE, "load"),
            self._row("b", "def f(df):\n[block-mask]\n", b_reference, "explode"),
            self._row("c", "import pandas as pd\n[block-mask]\n", "y = df.explode('A')", "explode"),
        ]

    def test_an_invalid_reference_names_its_instance(self, tmp_path, capsys):
        rows = self._instances("    out = df.explode('A'\n    return out")
        samples = {row["id"]: [row["reference"]] for row in rows}
        assert self._score(tmp_path, rows, samples)[0] == 1
        assert capsys.readouterr().err == (
            "error: instance 'b': reference code must be syntactically valid\n"
        )

    def test_a_nested_block_sample_takes_the_reference_margin(self, tmp_path):
        rows = self._instances("    out = df.explode('A')\n    return out")
        at_margin = self.REFERENCE
        column_0 = textwrap.dedent(at_margin)
        deeper = textwrap.indent(at_margin, "    ")
        wrong_keyword = column_0.replace("parse_int", "parse_float")
        samples = {row["id"]: [row["reference"]] for row in rows}
        samples["a"] = [column_0, at_margin, deeper, wrong_keyword]
        status, per_instance = self._score(tmp_path, rows, samples)
        assert status == 0
        per_sample = {
            row["instance_id"]: row["per_sample"]
            for row in map(json.loads, per_instance.read_text().splitlines())
        }
        assert per_sample == {"a": [1.0, 1.0, 1.0, 0.0], "b": [1.0], "c": [1.0]}


class TestDeepSample:
    def test_deep_expression_sample_scores(self, tmp_path):
        # Python compiles this sample; before 3.12 its tree is too deep to
        # build (cdc rule 2 fails), from 3.12 it has facts.  Either way the
        # run completes, and rule 1 fails it.
        reference = "result = df.explode('A')"
        instances = write_jsonl(
            tmp_path / "instances.jsonl",
            [
                {
                    "id": "deep",
                    "task": "vscc",
                    "granularity": "line",
                    "library": "pandas",
                    "source_version": "1.3.5",
                    "description": "demo",
                    "masked_code": "import pandas as pd\n[line-mask]\nprint(result)\n",
                    "reference": reference,
                    "core_token": "explode",
                    "data_source": "library_source",
                }
            ],
        )
        samples = write_jsonl(
            tmp_path / "samples.jsonl",
            [{"instance_id": "deep", "samples": ["-" * 1000 + "1", reference]}],
        )
        out = tmp_path / "report.json"
        assert main(["score", "--instances", str(instances), "--samples", str(samples),
                     "--metrics", "em,cdc", "--k", "1", "--out", str(out)]) == 0
        rows = {r["metric"]: r["value"] for r in json.loads(out.read_text())["rows"]}
        assert rows == {"em": 0.5, "cdc": 0.5}


class TestHelp:
    def test_help_exits_0(self):
        assert main(["--help"]) == 0
        assert main(["score", "--help"]) == 0

    def test_score_help_lists_every_option_with_its_default(self, capsys):
        assert main(["score", "--help"]) == 0
        text = " ".join(capsys.readouterr().out.split())
        for option in ["--instances", "--samples", "--exec-reports", "--metrics", "--k",
                       "--group-by", "--format", "--out", "--per-instance", "--help"]:
            assert f"{option} " in text
        for default in ["[default: em]", "[default: 1]", "[default: json]"]:
            assert default in text
        assert "{data_source,lifecycle_tag,year,pattern,direction}" in text

    def test_top_level_help_lists_every_command(self, capsys):
        assert main(["--help"]) == 0
        text = capsys.readouterr().out
        for command in ["score", "lifecycle", "mask", "pair", "filter"]:
            assert f"\n    {command}" in text
        assert "\n    report" not in text
        # score --format csv writes the table that report once re-emitted
        assert main(["report", "--aggregates", "report.json", "--format", "csv"]) == 3
        assert "invalid choice: 'report'" in capsys.readouterr().err


class TestUsage:
    def test_no_arguments_exits_3(self, capsys):
        assert main([]) == 3
        assert capsys.readouterr().err.startswith("error: ")

    def test_unknown_command_exits_3(self, capsys):
        assert main(["bogus"]) == 3
        assert "'bogus'" in capsys.readouterr().err

    def test_missing_required_option_exits_3(self, corpus, tmp_path, capsys):
        _, samp = corpus
        assert main(["score", "--samples", str(samp), "--out", str(tmp_path / "r.json")]) == 3
        assert "--instances" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--format", "xml"], "--format"),
            (["--group-by", "month"], "--group-by"),
            (["--inst", "instances.jsonl"], "--inst"),
            (["--k", "1,x"], "error: --k expects a comma list of integers, got '1,x'\n"),
            (["--k", "0"], "error: k values must be positive integers, got 0\n"),
            (["--k", ","], "error: need at least one k value\n"),
            (["--metrics", ","], "error: no metrics selected\n"),
        ],
        ids=["format", "group-by", "abbreviation", "k-not-integer", "k-zero", "no-k", "no-metric"],
    )
    def test_rejected_option_exits_3(self, corpus, tmp_path, capsys, extra, message):
        code, out = run_score(corpus, tmp_path, *extra)
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not out.exists()

    def test_option_value_after_equals(self, corpus, tmp_path):
        inst, samp = corpus
        out = tmp_path / "equals.json"
        assert main(["score", f"--instances={inst}", f"--samples={samp}", "--metrics=em,cdc",
                     "--k=1,3", f"--out={out}"]) == 0
        code, spaced = run_score(corpus, tmp_path)
        assert code == 0
        assert out.read_bytes() == spaced.read_bytes()
