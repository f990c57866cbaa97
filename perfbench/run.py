"""Seeded benchmark of the vceval CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of score-token, score-block, lifecycle-stdlib, filter-stdlib, or
``all``.  Inputs are generated from the seed under ``.perfbench_work/`` in
the checkout.  Each timed job is one ``vceval.cli.main(argv)`` call at the
CLI's default worker count, in a fresh interpreter (``perfbench/worker.py``);
jobs repeat until S seconds are used.  With ``--trace 0`` the last stdout
line reports the end-to-end metrics, with ``--trace 1`` the per-layer ones,
from a run that alternates untraced and traced jobs.

Times are reference-scaled.  On a shared 2-vCPU KVM guest the cores'
speed was seen to change by up to 2x within minutes, which no amount of
repetition averages out.  So every job and import time is multiplied by
REFERENCE_S / (the time a fixed reference task took in the same process,
right before and after).  The result reads as seconds on a machine where
the reference task takes REFERENCE_S; the raw times are printed as well.

Exit codes: 0 result printed; 1 the benchmark could not measure; 2 the
program is missing from the checkout; 3 the workload's inputs are not
available here (its reason is printed) and it was skipped.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

REFERENCE_S = 0.025
MIN_JOBS = 3
MIN_TRACED_JOBS = 2
SETUP_SAMPLES = 15
JOB_TIMEOUT_S = 45

END_TO_END = (
    ("items_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def per_layer_metrics(layers) -> list[tuple[str, str]]:
    """Names and units of the per-layer metrics, in report order."""
    out = []
    for layer, _ in layers:
        out += [(f"{layer}.calls", "count"), (f"{layer}.self_s", "s")]
    out += [
        ("metrics.cdc_check.distinct_ratio", "ratio"),
        ("syntax.extract_facts.valid_ratio", "ratio"),
        ("syntax.extract_facts.distinct_ratio", "ratio"),
        ("harness.normalize.reduced_ratio", "ratio"),
        ("harness.normalize.emptied_ratio", "ratio"),
        ("cli.stderr_lines", "count"),
        ("cli.probe_jobs", "count"),
        ("cli.probe_failed", "count"),
        ("lifecycle.parsed_files", "count"),
        ("lifecycle.skipped_files", "count"),
        ("lifecycle.repeat_file_share", "ratio"),
        ("trace.overhead_ratio", "ratio"),
        ("trace.absent_wrappers", "count"),
    ]
    return out


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def run_worker(spec: dict, work: Path, name: str) -> dict:
    spec_path = work / f"{name}.spec.json"
    result_path = work / f"{name}.result.json"
    result_path.unlink(missing_ok=True)
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), str(ROOT), str(spec_path), str(result_path)],
            cwd=ROOT,
            stdout=subprocess.DEVNULL,
            timeout=JOB_TIMEOUT_S,
            check=False,
        )
    except subprocess.TimeoutExpired:
        print(f"error: {name} took over {JOB_TIMEOUT_S} s and was killed", file=sys.stderr)
        return {"exit": -1}
    if proc.returncode != 0 or not result_path.exists():
        return {"exit": -1}
    return json.loads(result_path.read_text(encoding="utf-8"))


def _setup_sample(worker_result: dict) -> list[tuple[float, float]]:
    """(cold import time, reference time), if the worker got that far."""
    if "import_s" not in worker_result:
        return []
    return [(worker_result["import_s"], worker_result["import_ref_s"])]


def timed_jobs(prepared, work: Path, seconds: int, trace: bool):
    """Run jobs until the time is used; with trace, every other job is traced.

    After each job one more fresh interpreter only imports the CLI, so the
    set-up samples are spread over the whole run like the jobs are."""
    jobs, setup = [], []
    start = time.perf_counter()
    while True:
        traced = trace and len(jobs) % 2 == 1
        for out in prepared.outputs:
            out.unlink(missing_ok=True)
        spec = {"argv": prepared.argv, "trace": traced, "outputs": [str(p) for p in prepared.outputs]}
        job = run_worker(spec, work, f"job-{len(jobs)}")
        job["traced"] = traced
        if job["exit"] == 0:
            job["scale"] = REFERENCE_S / job["ref_s"]
        jobs.append(job)
        setup += _setup_sample(job) + _setup_sample(run_worker({}, work, "import"))
        elapsed = time.perf_counter() - start
        enough = len(jobs) >= (2 * MIN_TRACED_JOBS if trace else MIN_JOBS)
        if (enough and elapsed + elapsed / len(jobs) > seconds) or elapsed > 2 * seconds:
            break
    for _ in range(SETUP_SAMPLES - len(setup)):
        setup += _setup_sample(run_worker({}, work, "import"))
    return jobs, setup


def run_probes(prepared, tally) -> tuple[int, int]:
    """Score each self-built instance alone; a non-zero exit is a failed operation."""
    import vceval.cli
    from perfbench import oracles
    from perfbench.worker import LineCounter

    failed = 0
    real_stderr, sys.stderr = sys.stderr, LineCounter()
    try:
        for probe in prepared.probes:
            if vceval.cli.main(probe.argv) != 0:
                failed += 1
                continue
            rows = oracles.read_per_instance(probe.per_instance)
            (iid, _), *_ = rows
            oracles.check_reference_equal(tally, rows, {iid: [0]}, {iid: probe.reference})
    finally:
        sys.stderr = real_stderr
    return len(prepared.probes), failed


def environment() -> dict:
    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        if proc.returncode == 0:
            sha = proc.stdout.strip()
    return {"git_sha": sha, "python": platform.python_version(), "nproc": os.cpu_count()}


def _median_scaled(jobs, traced: bool) -> float:
    return statistics.median(j["wall_s"] * j["scale"] for j in jobs if j["traced"] is traced)


def layer_values(jobs, generation: dict, inputs: dict, absent: list[str], layers) -> dict:
    traced = [j for j in jobs if j["traced"]]
    first = traced[0]["layers"]
    values = {}
    for layer, _ in layers:
        own = statistics.median(j["layers"][f"{layer}.self_s"] * j["scale"] for j in traced)
        values[f"{layer}.calls"] = first[f"{layer}.calls"] + generation[f"{layer}.calls"]
        values[f"{layer}.self_s"] = own + generation[f"{layer}.self_s"]
    cdc_calls = first["metrics.cdc_check.calls"]
    facts_calls = first["syntax.extract_facts.calls"]
    normalized = first["harness.normalize_generation.calls"]
    values.update({
        "metrics.cdc_check.distinct_ratio": _ratio(first.get("metrics.cdc_check.distinct", 0), cdc_calls),
        "syntax.extract_facts.valid_ratio": _ratio(first.get("syntax.extract_facts.valid", 0), facts_calls),
        "syntax.extract_facts.distinct_ratio": _ratio(first.get("syntax.extract_facts.distinct", 0), facts_calls),
        "harness.normalize.reduced_ratio": _ratio(first.get("harness.normalize.reduced", 0), normalized),
        "harness.normalize.emptied_ratio": _ratio(first.get("harness.normalize.emptied", 0), normalized),
        "cli.stderr_lines": jobs[0]["stderr_lines"],
        "lifecycle.parsed_files": first.get("lifecycle.parsed_files", 0),
        "lifecycle.skipped_files": first.get("lifecycle.skipped_files", 0),
        "lifecycle.repeat_file_share": inputs["repeat_file_share"] if "versions" in inputs else 0.0,
        "trace.overhead_ratio": _median_scaled(jobs, True) / _median_scaled(jobs, False) - 1,
        "trace.absent_wrappers": len(absent),
    })
    return values


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> int:
    from perfbench import oracles, workloads
    from perfbench.tracing import LAYERS, Tracer
    from perfbench.worker import reference_s

    prepare, needs_stdlib = workloads.WORKLOADS[name]
    if needs_stdlib:
        _, reason = workloads.stdlib_trees()
        if reason is not None:
            print(f"skipped {name}: {reason}", file=sys.stderr)
            return 3
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    tracer = Tracer()
    if trace:
        tracer.install()  # times instance construction (mask, pair)
    try:
        prepared = prepare(work, seed)
    finally:
        tracer.restore()
    generation = tracer.summary()
    scale = REFERENCE_S / reference_s()
    for layer, _ in LAYERS:
        generation[f"{layer}.self_s"] *= scale

    tally = oracles.Tally()
    probes, probe_failures = run_probes(prepared, tally)
    jobs, setup = timed_jobs(prepared, work, seconds, trace)

    # The JSON's attempted and failed count the timed CLI jobs, the work
    # this run measures.  The probes exist to show a known abort of the
    # program, so they are counted apart: in failed_ops_ratio below and in
    # the per-layer cli.probe_* metrics.
    ok = [j for j in jobs if j["exit"] == 0]
    attempted, failed = len(jobs), len(jobs) - len(ok)
    if len({j["traced"] for j in ok}) < (2 if trace else 1):
        print(f"error: {name}: no successful job to measure ({failed} of {attempted} jobs failed)",
              file=sys.stderr)
        return 1
    deterministic = oracles.reports_identical(ok)
    if jobs[-1]["exit"] == 0:
        tally.add(prepared.check())
    else:
        tally.expect(False, "last job failed, its outputs were not checked")
    correct = deterministic and len(ok) == len(jobs) and tally.unexplained == 0

    raw_wall = statistics.median(j["wall_s"] for j in ok if not j["traced"])
    wall = _median_scaled(ok, False)
    throughput = prepared.items / wall
    setup_s = statistics.median(raw * REFERENCE_S / ref for raw, ref in setup)
    absent = sorted({a for j in ok for a in j["absent"]})
    print(f"{name} seed={seed} trace={int(trace)}: {len(jobs)} job(s), "
          f"{prepared.items} {prepared.item_unit} per job, median job {wall:.4f} s (raw {raw_wall:.4f} s)")
    per_kind = "samples_per_s" if prepared.item_unit == "samples" else "files_per_s"
    human = [
        (per_kind, throughput, "1/s",
         f"{prepared.items} {prepared.item_unit} / median untraced job time; raw {prepared.items / raw_wall:.6g}"),
        ("setup_s", setup_s, "s", f"median cold import of vceval.cli over {len(setup)} interpreters; "
         f"raw {statistics.median(raw for raw, _ in setup):.6g}"),
        ("peak_rss_mb", statistics.median(j["maxrss_mb"] for j in ok if not j["traced"]), "MB",
         "median peak RSS of the untraced job processes"),
        ("failed_ops_ratio", _ratio(failed + probe_failures, attempted + probes), "ratio",
         f"{failed + probe_failures} of {attempted + probes} operations ({failed} of {attempted} timed jobs; "
         f"{probe_failures} of {probes} self-built-instance probes)"),
        ("wrong_output_ratio", _ratio(tally.wrong, tally.checked), "ratio",
         f"{tally.wrong} of {tally.checked} values; {tally.known} explained by known defects"),
    ]
    for metric, value, unit, base in human:
        print(f"  {metric:<20} {value:<14.6g} {unit:<6} {base}")
    print("  untraced jobs, raw wall/reference (s): "
          + " ".join(f"{j['wall_s']:.4f}/{j['ref_s']:.4f}" for j in ok if not j["traced"]))
    print("  set-up samples, raw import/reference (s): " + " ".join(f"{raw:.4f}/{ref:.4f}" for raw, ref in setup))
    print(f"  report bytes identical across jobs: {deterministic}")
    for example in tally.examples:
        print(f"  wrong: {example}")
    for target in absent:
        print(f"  absent: {target}")
    print("  inputs " + json.dumps(prepared.inputs, sort_keys=True))
    print("  env " + json.dumps(environment(), sort_keys=True))

    if trace:
        values = layer_values(ok, generation, prepared.inputs, absent, LAYERS)
        values.update({"cli.probe_jobs": probes, "cli.probe_failed": probe_failures})
        metrics = {m: {"value": values[m], "unit": unit} for m, unit in per_layer_metrics(LAYERS)}
    else:
        values = {"items_per_s": throughput, "setup_s": setup_s, "peak_rss_mb": human[2][1]}
        metrics = {m: {"value": values[m], "unit": unit} for m, unit in END_TO_END}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "vceval" / "cli.py").is_file():
        print(f"error: the program is missing: no {SRC / 'vceval' / 'cli.py'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench.workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)} or all")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    codes = {n: run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    if len(names) == 1:
        return codes[names[0]]
    return 1 if 1 in codes.values() else 0


if __name__ == "__main__":
    sys.exit(main())
