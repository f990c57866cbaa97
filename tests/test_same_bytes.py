"""The outputs of mask, score, filter and lifecycle do not depend on where
they were computed: every file that a run of the commands writes, its
stderr and its exit statuses are the same bytes on each other installed
Python 3.10-3.13, and on one core, as on the running interpreter with
every core of its affinity mask.  Each command runs as `python -m
vceval.cli` in a subprocess, with src alone on PYTHONPATH, in a directory
of its leg's own beside the shared inputs, so that relative output paths
name the same files in every stderr.  The legs are the other interpreters
and the one-core run."""

import functools
import os
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import (
    DECLARED_CODECS,
    mixed_tree,
    write_exec_reports,
    write_score_inputs,
    write_span_inputs,
    write_tree,
    write_version_tree,
)

SRC = Path(__file__).resolve().parents[1] / "src"
VERSIONS = ("3.10", "3.11", "3.12", "3.13")
RUNNING = "%d.%d" % sys.version_info[:2]

SCORE = ("score", "--instances", "../inputs/instances.jsonl",
         "--samples", "../inputs/samples.jsonl", "--k", "1,3")
# run name -> the CLI's arguments; each run's stdout and stderr go to
# <name>.out and <name>.err.  The masks come first: score reads their
# outputs, joined as spans.jsonl.
MASKS = {
    "mask-lines": ("mask", "--granularity", "line", "--spec", "../inputs/span-lines.jsonl",
                   "--out", "span-lines.jsonl"),
    "mask-blocks": ("mask", "--granularity", "block", "--spec", "../inputs/span-blocks.jsonl",
                    "--out", "span-blocks.jsonl"),
}
RUNS = {
    # spans judged in the programs that they complete
    "score-spans": ("score", "--instances", "spans.jsonl",
                    "--samples", "../inputs/span-samples.jsonl", "--k", "1,3",
                    "--metrics", "em,ism,pm,cdc", "--out", "span-report.json",
                    "--per-instance", "span-vectors.jsonl"),
    "score": (*SCORE, "--metrics", "em,ism,pm,cdc", "--group-by", "data_source",
              "--out", "report.json", "--per-instance", "vectors.jsonl"),
    # without --per-instance the workers encode no rows
    "score-csv": (*SCORE, "--metrics", "em,ism,pm,cdc", "--group-by", "data_source",
                  "--format", "csv", "--out", "report.csv"),
    "score-pass": (*SCORE, "--exec-reports", "../inputs/exec.jsonl", "--metrics", "em,cdc,pass",
                   "--group-by", "year", "--out", "pass-report.json"),
    # the direction and pattern reports pin the migration labels
    "score-direction": (*SCORE, "--metrics", "em,cdc", "--group-by", "direction",
                        "--out", "direction-report.json"),
    "score-pattern": (*SCORE, "--metrics", "em,cdc", "--group-by", "pattern",
                      "--out", "pattern-report.json"),
    # two invalid references: exit 1, naming the first of them in input
    # order after the normalization summaries
    "score-abort": ("score", "--instances", "../inputs/abort/instances.jsonl",
                    "--samples", "../inputs/abort/samples.jsonl", "--metrics", "em,cdc",
                    "--out", "abort-report.json"),
    "filter": ("filter", "--root", str(SRC), "--out", "filter.jsonl"),
    # fan_out's queue holds at most 256 runs of items, so in a tree of 308
    # files runs hold several; two of the files declare their codec
    "filter-many": ("filter", "--root", "../inputs/many", "--out", "filter-many.jsonl"),
    "lifecycle": ("lifecycle", "--versions-root", "../inputs/versions", "--out", "lifecycle.json"),
    # beside the versions, a directory that is not one and a version with no
    # parseable file, so that lifecycle logs both of its warnings
    "lifecycle-many": ("lifecycle", "--versions-root", "../inputs/many-versions",
                       "--out", "lifecycle-many.json"),
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    inputs = tmp_path_factory.mktemp("same-bytes") / "inputs"
    (inputs / "abort").mkdir(parents=True)
    instances, samples = write_score_inputs(inputs, count=400)
    write_exec_reports(inputs / "exec.jsonl", instances, samples)
    write_score_inputs(inputs / "abort", count=400, bad_references=(5, 33))
    write_span_inputs(inputs)
    write_version_tree(inputs / "versions", SRC / "vceval")
    many = mixed_tree(300)
    write_tree(inputs / "many", {**many, **DECLARED_CODECS})
    write_tree(inputs / "many-versions" / "1.0", many)
    write_tree(
        inputs / "many-versions" / "2.0",
        {**many, "pkg/mod3.py": b"def other(): ...\n", **DECLARED_CODECS},
    )
    write_tree(inputs / "many-versions" / "notes", {"a.py": b""})
    write_tree(inputs / "many-versions" / "3.0", {"broken.py": b"def broken(:\n"})
    return inputs


def installed_python(version):
    """python3.N installed beside the running interpreter: in a pyenv
    versions directory, or in the Actions tool cache's Python/3.N.x/x64.
    Not from PATH, where the name may be a shim or another distribution."""
    base = Path(sys.base_prefix).parent
    found = [
        *base.glob(f"{version}.*/bin/python{version}"),
        *base.parent.glob(f"{version}.*/x64/bin/python{version}"),
    ]
    return min(found, default=None)


def legs():
    """leg -> (python, pin) of every leg that can run here, or why it cannot;
    pin, if given, runs in each child before the CLI.  "all-cores" is the
    leg that the others are compared with."""
    found = {"all-cores": (sys.executable, None)}
    for version in VERSIONS:
        if version != RUNNING:
            python = installed_python(version)
            found[version] = (
                (python, None) if python else f"no Python {version} installed beside {sys.base_prefix}"
            )
    cores = os.sched_getaffinity(0)
    found["one-core"] = (
        (sys.executable, functools.partial(os.sched_setaffinity, 0, {min(cores)}))
        if len(cores) > 1 else "the affinity mask holds one core, so every run is on one core"
    )
    return found


def run_side_by_side(legs, root: Path) -> dict:
    """leg -> (run name -> exit status, file name -> bytes) of every command,
    run by each leg's python in root/<leg>.  The legs run side by side: each
    command starts in every leg, and the next starts once all have exited."""
    statuses = {leg: {} for leg in legs}
    env = {**os.environ, "PYTHONPATH": str(SRC)}

    def run(name, argv):
        processes = {}
        try:
            for leg, (python, pin) in legs.items():
                directory = root / leg
                with open(directory / f"{name}.out", "wb") as out, open(directory / f"{name}.err", "wb") as err:
                    processes[leg] = subprocess.Popen(
                        [python, "-m", "vceval.cli", *argv], cwd=directory, env=env,
                        stdout=out, stderr=err, preexec_fn=pin,
                    )
            for leg, process in processes.items():
                statuses[leg][name] = process.wait(timeout=300)
        finally:  # after a failure, no process outlives the run
            for process in processes.values():
                process.kill()
                process.wait()

    for leg in legs:
        (root / leg).mkdir()
    for name, argv in MASKS.items():
        run(name, argv)
    for leg in legs:
        spans = [(root / leg / name).read_bytes() for name in ("span-lines.jsonl", "span-blocks.jsonl")]
        (root / leg / "spans.jsonl").write_bytes(b"".join(spans))
    for name, argv in RUNS.items():
        run(name, argv)
    return {
        leg: (statuses[leg], {path.name: path.read_bytes() for path in (root / leg).iterdir()})
        for leg in legs
    }


@pytest.fixture(scope="module")
def runs(inputs):
    """leg -> its run, or why it cannot run"""
    every = legs()
    runnable = {leg: how for leg, how in every.items() if not isinstance(how, str)}
    return {**every, **run_side_by_side(runnable, inputs.parent)}


def unavailable(reason):
    # GitHub's runners install every supported Python, so there a missing
    # one is a broken setup, not an absent interpreter
    if os.environ.get("GITHUB_ACTIONS") == "true":
        pytest.fail(reason)
    pytest.skip(reason)


def test_the_all_core_run_exits_and_logs_as_it_should(runs):
    statuses, files = runs["all-cores"]
    assert statuses == {name: 1 if name == "score-abort" else 0 for name in {**MASKS, **RUNS}}
    assert b'{"keep": true, "path": "pkg/latin1.py", "reasons": []}\n' in files["filter-many.jsonl"]
    err = files["lifecycle-many.err"].decode()
    assert "directory name is not a version" in err
    assert "dropping version 3.0: no parseable source files" in err
    assert b'"api": "pkg.latin1.caf\\u00e9"' in files["lifecycle-many.json"]
    # one summary line per kind of normalization loss, and the status line
    reduced, emptied, _ = files["score.err"].decode().splitlines()
    assert reduced.startswith(
        "WARNING vceval.harness: token normalization reduced 100 sample(s) of 100 instance(s); first: "
    )
    assert emptied.startswith(
        "WARNING vceval.harness: 100 sample(s) of 100 instance(s) normalized to nothing and score 0; first: "
    )
    assert "error: instance 'inst-005'" in files["score-abort.err"].decode()


@pytest.mark.parametrize("leg", [*(v for v in VERSIONS if v != RUNNING), "one-core"])
def test_each_leg_writes_the_same_bytes_as_all_cores(runs, leg):
    if isinstance(runs[leg], str):
        unavailable(runs[leg])
    (statuses, files), (all_statuses, all_files) = runs[leg], runs["all-cores"]
    assert statuses == all_statuses
    differ = sorted(name for name in files.keys() | all_files.keys()
                    if files.get(name) != all_files.get(name))
    assert differ == []
