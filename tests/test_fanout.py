import operator
import os
import time

import pytest

from vceval._fanout import fan_out
from vceval.cli import main


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


# A tree for byte-identity across core counts: decode errors, syntax errors,
# CRLF line ends, byte-order marks, and enough plain files that forked
# workers get some of them.
MIXED_TREE = {
    "latin.py": "def caf\u00e9(): ...\n".encode("latin-1"),
    "broken.py": b"def broken(:\n",
    "crlf.py": b"def f():\r\n    return 1\r\n\r\nclass K:\r\n    def m(self): ...\r\n",
    "bom.py": b"\xef\xbb\xbfdef g(): ...\n",
    "bom_broken.py": b"\xef\xbb\xbfdef (:\n",
    "wide.py": b"x = " + b"1" * 1200 + b"\n",
    **{f"pkg/mod{i}.py": f"def api{i}(x):\n    return x + {i}\n".encode() for i in range(12)},
}


def write_tree(root, files):
    for relative, data in files.items():
        path = root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)


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
        # 20,000 4-byte indices are more than the 64 KiB a Linux pipe holds;
        # six workers are more than most test machines have cores
        cores(6)
        items = list(range(20_000))
        assert fan_out(operator.neg, items) == [-i for i in items]
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

    @pytest.mark.parametrize("command", ["filter", "lifecycle"])
    def test_outputs_do_not_depend_on_the_core_count(self, cores, tmp_path, command):
        if command == "filter":
            write_tree(tmp_path / "corpus", MIXED_TREE)
            args = ["filter", "--root", str(tmp_path / "corpus")]
        else:
            changed = {**MIXED_TREE, "pkg/mod3.py": b"def other(): ...\n"}
            write_tree(tmp_path / "versions" / "1.0", MIXED_TREE)
            write_tree(tmp_path / "versions" / "2.0", changed)
            args = ["lifecycle", "--versions-root", str(tmp_path / "versions")]
        outputs = set()
        for count in (1, 2, 3):
            cores(count)
            out = tmp_path / f"out-{count}"
            assert main([*args, "--out", str(out)]) == 0
            outputs.add(out.read_bytes())
        assert len(outputs) == 1
        assert_no_child_left()
