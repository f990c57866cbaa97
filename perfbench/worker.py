"""Run one CLI job in a fresh interpreter and write down what it measured.

    python3 perfbench/worker.py ROOT SPEC.json RESULT.json

ROOT is the checkout; SPEC holds the CLI argv (none: only time the import),
the files the job writes and whether to trace.  Each job gets its own
process so that nothing the program caches in one job can speed up the
next, as with real CLI invocations.  The cold import of ``vceval.cli`` is
timed first, before this module imports anything the CLI might need.

The speed of shared cores drifts, so the worker also times a fixed
reference task right after the import and right after the job; the runner
scales every time by it.
"""

import sys
import time


class LineCounter:
    """Stands in for stderr: counts the lines the job writes, keeps none."""

    encoding = "utf-8"
    errors = "strict"

    def __init__(self) -> None:
        self.lines = 0

    def write(self, text: str) -> int:
        self.lines += text.count("\n")
        return len(text)

    def flush(self) -> None:
        pass

    def isatty(self) -> bool:
        return False


_REFERENCE_SOURCE = "\n".join(
    f"def f{i}(x, y=1):\n    return [v * y for v in x if v % {i + 2}]\n" for i in range(80)
)


def _reference_task() -> None:
    # The kinds of work the program does: interpreted loops, dict and
    # string building, parsing and compiling, regex scanning.
    import ast
    import re

    total = 0
    for i in range(120_000):
        total += i * i % 7
    table = {}
    for i in range(30_000):
        table[f"w{i}"] = i
    compile(ast.parse(_REFERENCE_SOURCE), "<reference>", "exec")
    re.findall(r"[A-Za-z_][A-Za-z0-9_]*", _REFERENCE_SOURCE * 5)


def reference_s(repeats: int = 6) -> float:
    """Median of a few timings of the reference task.

    The speed swings within a second, and a job's time averages over them,
    so the reference takes the middle of several samples, not the fastest."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        _reference_task()
        times.append(time.perf_counter() - start)
    return sorted(times)[len(times) // 2]


def main() -> int:
    root, spec_path, result_path = sys.argv[1:4]
    sys.path[:0] = [f"{root}/src", root]
    start = time.perf_counter()
    import vceval.cli

    import_s = time.perf_counter() - start
    import json
    from pathlib import Path

    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    result = {"import_s": import_s, "import_ref_s": reference_s()}
    if spec.get("argv") is not None:
        result.update(run_job(vceval.cli, spec))
        result["ref_s"] = (result["import_ref_s"] + reference_s()) / 2
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


def run_job(cli_module, spec: dict) -> dict:
    import hashlib
    import resource
    import traceback
    from pathlib import Path

    from perfbench.tracing import Tracer

    tracer = Tracer() if spec["trace"] else None
    counter = LineCounter()
    real_stderr, sys.stderr = sys.stderr, counter
    if tracer is not None:
        tracer.install()
    start = time.perf_counter()
    try:
        # Looked up on the module so a traced run goes through the wrapper.
        code = cli_module.main(spec["argv"])
    except Exception:
        traceback.print_exc(file=real_stderr)
        code = -1
    finally:
        wall = time.perf_counter() - start
        if tracer is not None:
            tracer.restore()
        sys.stderr = real_stderr
    hashes = {}
    for out in spec["outputs"]:
        path = Path(out)
        hashes[path.name] = hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None
    return {
        "exit": code,
        "wall_s": wall,
        "stderr_lines": counter.lines,
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "hashes": hashes,
        "layers": tracer.summary() if tracer is not None else None,
        "absent": tracer.absent if tracer is not None else [],
    }


if __name__ == "__main__":
    sys.exit(main())
