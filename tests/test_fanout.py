import json
import logging
import operator
import os
import subprocess
import sys
import time

import pytest

from vceval._fanout import fan_out
from vceval.cli import main

from helpers import mixed_tree, write_jsonl, write_score_inputs, write_tree


@pytest.fixture
def cores(monkeypatch):
    """Set how many cores fan_out finds in this process's affinity mask."""

    def use(count):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)

    return use


def wait_for(path, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not path.exists() and time.monotonic() < deadline:
        time.sleep(0.001)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


MIXED_TREE = mixed_tree()


class StderrHandler(logging.StreamHandler):
    """Writes to sys.stderr as it is at each write: capfd puts a new stream
    there between a test's setup and its call, and closes the old one."""

    stream = property(lambda self: sys.stderr, lambda self, value: None)


@pytest.fixture
def cli_log():
    """Warnings to stderr in the CLI's format, which pytest's own log
    handlers would otherwise keep from basicConfig."""
    handler = StderrHandler()
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    logger = logging.getLogger("vceval")
    logger.addHandler(handler)
    yield
    logger.removeHandler(handler)


def loaded_by(statement):
    """The modules that statement loads in a fresh interpreter."""
    code = (
        f"import sys; before = set(sys.modules); {statement}; "
        "print(*sorted(set(sys.modules) - before))"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return set(done.stdout.split())


def test_importing_the_cli_does_not_load_it():
    # fan_out is imported where a command fans out, so that the others pay
    # neither its compile nor its imports; fractions (with decimal) and csv
    # are imported where they are used, and the CLI needs nothing beyond
    # the standard library
    loaded = loaded_by("import vceval.cli")
    assert {
        name for name in loaded
        if name.partition(".")[0] not in sys.stdlib_module_names | {"vceval"}
    } == set()
    unused = {"vceval._fanout", "pickle", "click", "uuid", "platform", "fractions", "decimal", "csv"}
    assert loaded & unused == set()


def test_importing_fan_out_loads_neither_pickle_nor_signal():
    # it takes dumps and loads from _pickle, and signal only to kill workers
    loaded = loaded_by("import vceval._fanout")
    assert "vceval._fanout" in loaded
    assert loaded & {"pickle", "signal"} == set()


def command_inputs(tmp_path, command, count=40):
    """(argv without --out, [the --out path, and any other output file])
    for a run of command on inputs written under tmp_path; the score
    inputs hold count token, line, block and migration instances, with
    exec reports that pass a sample when it is its reference, so that the
    report holds Pearson rows."""
    outs = [tmp_path / "out"]
    if command == "filter":
        write_tree(tmp_path / "corpus", MIXED_TREE)
        return ["filter", "--root", str(tmp_path / "corpus")], outs
    if command == "lifecycle":
        changed = {**MIXED_TREE, "pkg/mod3.py": b"def other(): ...\n"}
        write_tree(tmp_path / "versions" / "1.0", MIXED_TREE)
        write_tree(tmp_path / "versions" / "2.0", changed)
        # a directory that is not a version and a version with nothing to
        # parse, so that lifecycle logs a warning for each
        write_tree(tmp_path / "versions" / "notes", {"a.py": b""})
        write_tree(tmp_path / "versions" / "3.0", {"broken.py": b"def broken(:\n"})
        return ["lifecycle", "--versions-root", str(tmp_path / "versions")], outs
    instances, samples = write_score_inputs(tmp_path, count=count)
    references = {
        row["id"]: row["reference"] for row in map(json.loads, instances.read_text().splitlines())
    }
    exec_reports = write_jsonl(
        tmp_path / "exec.jsonl",
        (
            {"instance_id": row["instance_id"], "sample_index": index,
             "passed": text == references[row["instance_id"]]}
            for row in map(json.loads, samples.read_text().splitlines())
            for index, text in enumerate(row["samples"])
        ),
    )
    outs.append(tmp_path / "vectors.jsonl")
    args = [
        "score", "--instances", str(instances), "--samples", str(samples),
        "--exec-reports", str(exec_reports),
        "--metrics", "em,ism,pm,cdc,pass", "--k", "1,3", "--group-by", "data_source",
        "--per-instance", str(outs[1]),
    ]
    return args, outs


class PidLog(logging.Handler):
    """Appends one line per record that any process handles to a file
    opened by the test's process: the id of the process that created the
    record and of the one that handles it, so that records logged in a
    forked worker show up too."""

    def __init__(self, path):
        super().__init__()
        self.fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND)

    def emit(self, record):
        os.write(self.fd, f"{record.process} {os.getpid()}\n".encode())

    def close(self):
        os.close(self.fd)
        super().close()


class TestFanOut:
    def test_results_come_back_in_input_order(self, cores):
        cores(3)
        assert fan_out(lambda i: i * i, list(range(300))) == [i * i for i in range(300)]

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity")
    def test_the_caller_keeps_its_cores(self):
        # workers are bound to a core each; the caller's mask comes back
        before = os.sched_getaffinity(0)
        assert fan_out(operator.neg, list(range(100))) == [-i for i in range(100)]
        assert os.sched_getaffinity(0) == before

    def test_forked_children_take_items(self, cores, tmp_path):
        cores(3)
        parent = os.getpid()
        marker = tmp_path / "child-ran"

        def which(_):
            if os.getpid() == parent:
                wait_for(marker)  # hold the first item until a child has one
            else:
                marker.touch()
            return os.getpid()

        assert set(fan_out(which, list(range(10)))) - {parent}
        assert_no_child_left()

    def test_empty_and_single_inputs_do_not_fork(self, cores, monkeypatch):
        cores(3)

        def no_fork():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", no_fork)
        assert fan_out(operator.neg, []) == []
        assert fan_out(operator.neg, [4]) == [-4]
        cores(1)
        assert fan_out(operator.neg, [1, 2, 3]) == [-1, -2, -3]

    def test_more_items_than_one_pipe_holds(self, cores):
        # 20,000 items are far more than the queue's 256 runs, so each run
        # holds 78 or 79 of them; six workers are more than most test
        # machines have cores
        cores(6)
        items = list(range(20_000))
        assert fan_out(operator.neg, items) == [-i for i in items]
        assert_no_child_left()

    @pytest.mark.parametrize("count", [255, 256, 257, 20_000])
    def test_each_item_is_worked_once_and_comes_back_in_order(self, cores, tmp_path, count):
        # up to 256 items each run in the queue is one item; past that a run
        # holds several.  Every process appends the items it works on to
        # one file, as PidLog does
        cores(3)
        fd = os.open(tmp_path / "worked.txt", os.O_WRONLY | os.O_CREAT | os.O_APPEND)

        def work(item):
            os.write(fd, b"%d\n" % item)
            return -item

        try:
            assert fan_out(work, list(range(count))) == [-i for i in range(count)]
        finally:
            os.close(fd)
        worked = (tmp_path / "worked.txt").read_text().split()
        assert sorted(map(int, worked)) == list(range(count))
        assert_no_child_left()

    def test_any_raising_worker_fails_the_call(self, cores):
        cores(3)

        def fail(_):
            raise ValueError("bad item")

        with pytest.raises(ValueError, match="bad item"):
            fan_out(fail, list(range(50)))
        assert_no_child_left()

    def test_a_child_exception_reaches_the_caller(self, cores, tmp_path):
        cores(3)
        parent = os.getpid()
        marker = tmp_path / "child-ran"

        def fail_in_child(item):
            if os.getpid() == parent:
                wait_for(marker)
                return item
            marker.touch()
            raise ValueError(f"child failed on {item}")

        with pytest.raises(ValueError, match="child failed on"):
            fan_out(fail_in_child, list(range(10)))
        assert_no_child_left()

    def test_a_child_that_dies_fails_the_call(self, cores, tmp_path):
        cores(2)
        parent = os.getpid()
        marker = tmp_path / "child-ran"

        def die_in_child(item):
            if os.getpid() == parent:
                wait_for(marker)
                return item
            marker.touch()
            os._exit(3)

        with pytest.raises(ChildProcessError, match="status 3"):
            fan_out(die_in_child, list(range(10)))
        assert_no_child_left()

    def test_an_exception_in_the_caller_ends_the_call_at_once(self, cores, tmp_path):
        cores(3)
        parent = os.getpid()
        marker = tmp_path / "child-ran"

        def fail_in_caller(item):
            if os.getpid() == parent:
                wait_for(marker)
                raise ValueError(f"caller failed on {item}")
            marker.touch()
            time.sleep(0.02)
            return item

        start = time.monotonic()
        with pytest.raises(ValueError, match="caller failed on"):
            fan_out(fail_in_caller, list(range(2000)))
        # the children are killed, not left to drain 20 s of items first
        assert time.monotonic() - start < 10
        assert_no_child_left()

    def test_an_interrupt_reaps_every_child(self, cores, tmp_path):
        cores(3)
        parent = os.getpid()
        marker = tmp_path / "child-ran"

        def interrupted(item):
            if os.getpid() == parent:
                wait_for(marker)
                raise KeyboardInterrupt
            marker.touch()
            time.sleep(0.02)
            return item

        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            fan_out(interrupted, list(range(2000)))
        # the children are stopped, not left to work through 40 s of items
        assert time.monotonic() - start < 10
        assert_no_child_left()

    @pytest.mark.parametrize("command", ["filter", "lifecycle", "score"])
    def test_outputs_do_not_depend_on_the_core_count(
        self, cores, tmp_path, capfd, cli_log, command
    ):
        args, outs = command_inputs(tmp_path, command)
        outputs = set()
        for count in (1, 2, 3):
            cores(count)
            assert main([*args, "--out", str(outs[0])]) == 0
            outputs.add((*(out.read_bytes() for out in outs), capfd.readouterr().err))
        assert len(outputs) == 1
        if command == "score":
            (report, vectors, err), = outputs
            assert "token normalization reduced" in err
            assert "a sample normalized to nothing" in err
            assert b'"pearson_cdc_vs_pass"' in report
            instances = (tmp_path / "instances.jsonl").read_text().splitlines()
            kinds = {(row["task"], row["granularity"]) for row in map(json.loads, instances)}
            assert kinds == {
                ("vscc", "token"), ("vscc", "line"), ("vscc", "block"), ("vacm", "block")
            }
            assert len(vectors.splitlines()) == 40 * 5
        assert_no_child_left()

    def test_lifecycle_over_many_files_does_not_depend_on_the_core_count(
        self, cores, tmp_path, capfd, cli_log
    ):
        # 307 distinct contents over two versions, more than fan_out's 256
        # runs, so that runs hold several files; padded so that sizes do not
        # follow path order, and largest first is another order than the paths'
        many = {
            path: data + b"#" * (index * 89 % 300) + b"\n"
            for index, (path, data) in enumerate(mixed_tree(300).items())
        }
        changed = {path: data for path, data in many.items() if not path.endswith("7.py")}
        write_tree(tmp_path / "versions" / "1.0", many)
        write_tree(tmp_path / "versions" / "2.0", {**changed, "pkg/new.py": b"def new(): ...\n"})
        write_tree(tmp_path / "versions" / "notes", {"a.py": b""})
        write_tree(tmp_path / "versions" / "3.0", {"broken.py": b"def broken(:\n"})
        out = tmp_path / "out.json"
        args = ["lifecycle", "--versions-root", str(tmp_path / "versions"), "--out", str(out)]
        outputs = set()
        for count in (1, 2, 3):
            cores(count)
            assert main(args) == 0
            outputs.add((out.read_bytes(), capfd.readouterr().err))
        (report, err), = outputs
        assert "directory name is not a version" in err
        assert "dropping version 3.0" in err
        tags = {record["api"]: record["tags"] for record in json.loads(report)["records"]}
        assert tags["pkg.mod7.api7"] == {"1.0": "deprecation"}
        assert tags["pkg.mod299.api299"] == {"1.0": "general", "2.0": "general"}
        assert tags["pkg.new.new"] == {"2.0": "addition"}
        assert_no_child_left()

    @pytest.mark.parametrize("command", ["filter", "lifecycle", "score"])
    def test_only_the_calling_process_logs(self, cores, tmp_path, capfd, command):
        args, outs = command_inputs(tmp_path, command, count=400)
        handler = PidLog(tmp_path / "pids.txt")
        logger = logging.getLogger("vceval")
        logger.addHandler(handler)
        try:
            cores(3)
            assert main([*args, "--out", str(outs[0])]) == 0
        finally:
            logger.removeHandler(handler)
            handler.close()
        lines = (tmp_path / "pids.txt").read_text().splitlines()
        assert set(lines) <= {f"{os.getpid()} {os.getpid()}"}
        if command != "filter":  # filter logs nothing
            assert lines
        capfd.readouterr()
        assert_no_child_left()

    def test_an_aborting_score_logs_every_instance_warning_first(
        self, cores, tmp_path, capfd, cli_log
    ):
        # the bad reference comes first, before every instance whose samples
        # normalization reduces or empties
        def inputs(directory, bad_references):
            directory.mkdir()
            instances, samples = write_score_inputs(directory, bad_references=bad_references)
            lines = instances.read_text().splitlines(keepends=True)
            first = next(line for line in lines if '"inst-005"' in line)
            instances.write_text("".join([first] + [line for line in lines if line != first]))
            return [
                "score", "--instances", str(instances), "--samples", str(samples),
                "--metrics", "em,cdc", "--out", str(directory / "report.json"),
            ]

        good = inputs(tmp_path / "good", ())
        bad = inputs(tmp_path / "bad", (5,))
        cores(1)
        assert main(good) == 0
        *warnings, _ = capfd.readouterr().err.splitlines(keepends=True)
        assert sum("token normalization reduced" in line for line in warnings) == 10
        assert sum("normalized to nothing" in line for line in warnings) == 10
        outcomes = set()
        for count in (1, 2, 3):
            cores(count)
            outcomes.add((main(bad), capfd.readouterr().err))
        assert outcomes == {(
            1,
            "".join(warnings)
            + "error: instance 'inst-005': reference code must be syntactically valid\n",
        )}
        assert_no_child_left()

    def test_score_names_the_first_bad_reference_on_any_core_count(
        self, cores, tmp_path, capfd, cli_log
    ):
        instances, samples = write_score_inputs(tmp_path, bad_references=(5, 33))
        outcomes = set()
        for count in (1, 2, 3):
            cores(count)
            argv = [
                "score", "--instances", str(instances), "--samples", str(samples),
                "--metrics", "em,cdc", "--out", str(tmp_path / "report.json"),
            ]
            outcomes.add((main(argv), capfd.readouterr().err))
        assert len(outcomes) == 1
        (code, err), = outcomes
        assert code == 1
        assert err.endswith(
            "error: instance 'inst-005': reference code must be syntactically valid\n"
        )
        assert "normalized to nothing" in err
        assert not (tmp_path / "report.json").exists()
        assert_no_child_left()
