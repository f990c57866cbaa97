"""Seeded inputs for the four workloads.

Every input is generated from the seed: score instances are built with the
toolkit's own ``mask_instance`` and ``build_migration_pair`` from seeded
programs, and the stdlib workloads lay out a seeded module subset of the
interpreters installed beside the running one.  Each ``prepare_*`` returns a
``Prepared`` job: the CLI argv, the files it writes, the oracle that checks
them, and the input properties later claims can cite.
"""

from __future__ import annotations

import hashlib
import json
import keyword
import random
import re
import sys
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

from vceval import datagen
from vceval.core_model import DataSource, Granularity, MetaInstance, parse_version

from perfbench import oracles

SCORE_METRICS = "em,ism,pm,cdc"
TOKEN_N = 100  # MetricConfig.n_token, the paper's token sampling default
BLOCK_N = 6  # MetricConfig.n_line / n_block
TOKEN_KS = (1, 3, 10)
BLOCK_KS = (1, 3)
TOKEN_INSTANCES = 80
BLOCK_UNITS = 20  # one unit is four placements x (line, block, migration)

STDLIB_VERSIONS = tuple(f"3.{minor}" for minor in range(6, 14))
REQUIRED_MODULES = ("asyncio", "imp", "asyncore", "distutils", "cgi")
EXTRA_MODULES = 4
# Extra modules come from a narrow size band so that every seed's subset
# costs about the same and throughput stays comparable across seeds.
EXTRA_MODULE_BYTES = (6_000, 12_000)


@dataclass
class Prepared:
    argv: list[str]
    outputs: list[Path]
    items: int  # samples scored, or .py files handled, per job
    item_unit: str
    inputs: dict
    check: Callable[[], oracles.Tally]
    probes: list[Probe] = field(default_factory=list)


@dataclass
class Probe:
    """One self-built instance scored alone with its reference as its only sample."""

    argv: list[str]
    per_instance: Path
    reference: str


# --- score inputs ------------------------------------------------------------

# (library, module alias, current API, outdated alternative, keyword names)
APIS = (
    ("pandas", "pd", "to_numpy", "as_matrix", ("dtype", "copy")),
    ("pandas", "pd", "explode", "stack", ("ignore_index", "column")),
    ("pandas", "pd", "melt", "unstack", ("id_vars", "value_name")),
    ("numpy", "np", "concatenate", "hstack", ("axis", "out")),
    ("numpy", "np", "linspace", "arange", ("num", "endpoint")),
    ("numpy", "np", "nanpercentile", "percentile", ("axis", "keepdims")),
    ("torch", "torch", "autocast", "enable_amp", ("dtype", "enabled")),
    ("torch", "torch", "softmax", "log_softmax", ("dim", "dtype")),
    ("torch", "torch", "inference_mode", "no_grad", ("mode",)),
    ("sklearn", "skl", "get_feature_names_out", "get_feature_names", ("input_features",)),
    ("scipy", "sp", "trapezoid", "trapz", ("dx", "axis")),
    ("tensorflow", "tf", "function", "defun", ("jit_compile", "autograph")),
)
VERSIONS = ("1.0", "1.5.2", "2.0.0", "2.3.1")
DATA_SOURCES = ("library_source", "downstream_application", "stack_overflow")

TOKEN_KINDS = ("right", "outdated", "prose", "backtick", "fenced", "empty")
TOKEN_WEIGHTS = (30, 20, 15, 15, 15, 5)
# What the documented normalization keeps of each planted answer: the first
# identifier after fence stripping, so prose "The answer is X" keeps "The".
TOKEN_EM = {"right": 1, "outdated": 0, "prose": 0, "backtick": 1, "fenced": 1, "empty": 0}
TOKEN_REDUCED = {"prose", "backtick"}


def token_text(kind: str, current: str, outdated: str) -> str:
    return {
        "right": current,
        "outdated": outdated,
        "prose": f"The answer is {current}",
        "backtick": f"`{current}()`",
        "fenced": f"```python\n{current}\n```",
        "empty": "...",
    }[kind]


def _meta(library, version, code, source_index):
    return MetaInstance(
        library=library,
        version=parse_version(version),
        description=f"demo use of {library}",
        code=code,
        data_source=DataSource(DATA_SOURCES[source_index % len(DATA_SOURCES)]),
    )


def instance_row(instance) -> dict:
    """The instance file schema, written here rather than by the toolkit."""
    row = {
        "id": instance.id,
        "task": instance.task.value,
        "granularity": instance.granularity.value,
        "library": instance.library,
        "source_version": instance.source_version.raw,
        "description": instance.description,
        "reference": instance.reference,
        "core_token": instance.core_token,
        "data_source": instance.data_source.value,
    }
    if instance.target_version is not None:
        row["target_version"] = instance.target_version.raw
    if instance.masked_code is not None:
        row["masked_code"] = instance.masked_code
    if instance.source_code is not None:
        row["source_code"] = instance.source_code
    return row


def write_jsonl(path: Path, rows) -> Path:
    path.write_text("".join(json.dumps(row, sort_keys=True) + "\n" for row in rows), encoding="utf-8")
    return path


def _score_argv(work: Path, ks, group_by: str) -> list[str]:
    return [
        "score",
        "--instances", str(work / "instances.jsonl"),
        "--samples", str(work / "samples.jsonl"),
        "--metrics", SCORE_METRICS,
        "--k", ",".join(map(str, ks)),
        "--group-by", group_by,
        "--format", "json",
        "--out", str(work / "report.json"),
        "--per-instance", str(work / "per_instance.jsonl"),
    ]


def _distinct_share(sample_rows) -> float:
    total = sum(len(row["samples"]) for row in sample_rows)
    return sum(len(set(row["samples"])) for row in sample_rows) / total


def prepare_score_token(work: Path, seed: int) -> Prepared:
    rng = random.Random(seed)
    instances, sample_rows, plants = [], [], {}
    for i in range(TOKEN_INSTANCES):
        library, alias, current, outdated, kws = rng.choice(APIS)
        var = f"out_{rng.randrange(10_000)}"
        args = f"x_{rng.randrange(100)}, {rng.choice(kws)}={rng.randrange(10)}"
        code = f"import {alias}\n{var} = {alias}.{current}({args})\n"
        iid = f"tok-{seed}-{i:04d}"
        spec = datagen.MaskSpec(Granularity.TOKEN, iid, current)
        instance = datagen.mask_instance(_meta(library, rng.choice(VERSIONS), code, i), spec)
        kinds = rng.choices(TOKEN_KINDS, TOKEN_WEIGHTS, k=TOKEN_N)
        instances.append(instance_row(instance))
        sample_rows.append(
            {"instance_id": iid, "samples": [token_text(k, current, outdated) for k in kinds]}
        )
        plants[iid] = kinds
    write_jsonl(work / "instances.jsonl", instances)
    write_jsonl(work / "samples.jsonl", sample_rows)
    samples = len(instances) * TOKEN_N
    all_kinds = [k for kinds in plants.values() for k in kinds]

    def check() -> oracles.Tally:
        rows = oracles.read_per_instance(work / "per_instance.jsonl")
        tally = oracles.Tally()
        oracles.check_token_em(tally, rows, plants, TOKEN_EM, TOKEN_KS)
        equal = {iid: [j for j, k in enumerate(kinds) if k == "right"] for iid, kinds in plants.items()}
        references = {row["id"]: row["reference"] for row in instances}
        oracles.check_reference_equal(tally, rows, equal, references)
        return tally

    return Prepared(
        argv=_score_argv(work, TOKEN_KS, "data_source"),
        outputs=[work / "report.json", work / "per_instance.jsonl"],
        items=samples,
        item_unit="samples",
        inputs={
            "instances": len(instances),
            "samples": samples,
            "n": TOKEN_N,
            "distinct_text_share": _distinct_share(sample_rows),
            "normalization_reduced_share": sum(k in TOKEN_REDUCED for k in all_kinds) / samples,
            "normalization_emptied_share": all_kinds.count("empty") / samples,
        },
        check=check,
    )


def block_program(placement: str, alias: str, callee: str, kw: str, val: int, tag: str):
    """(lines, prep, core, use) of a seeded program whose API snippet sits at
    module level or nested inside a def/for/with body."""
    data, res, src = f"data_{tag}", f"result_{tag}", f"src_{tag}"
    head = {
        "module": [],
        "def": [f"def run_{tag}({src}):"],
        "for": [f"for {src} in {alias}.sources():"],
        "with": [f"with open(path_{tag}) as {src}:"],
    }[placement]
    pad = "    " if head else ""
    body = [
        f"{pad}{data} = {alias}.load({src})",
        f"{pad}{res} = {alias}.{callee}({data}, {kw}={val})",
        f"{pad}print({res})",
    ]
    tail = [f"{pad}return {res}"] if placement == "def" else []
    lines = [f"import {alias}", *head, *body, *tail]
    prep = 1 + len(head)
    return lines, prep, prep + 1, prep + 2


def perturbations(reference: str, token: str, res: str, uid: str) -> list[str]:
    """Five degraded generations, each carrying a unique identifier so that
    only the reference repeats within an instance."""
    return [
        reference.replace(res, f"result_{uid}"),
        reference.replace(f"{token}(", f"{token}(extra_{uid}, ", 1),
        reference.replace(f"{token}(", f"{token}((extra_{uid}, ", 1),
        reference.replace(f".{token}(", f".alt_{uid}(", 1),
        f"```python\n# draft {uid}\n{reference}\n```",
    ]


PLACEMENTS = ("module", "def", "for", "with")


def prepare_score_block(work: Path, seed: int) -> Prepared:
    rng = random.Random(seed)
    instances, sample_rows = [], []
    serial = 0

    def add(instance, res: str) -> None:
        nonlocal serial
        uid = f"{seed}x{serial}"
        serial += 1
        texts = [instance.reference, *perturbations(instance.reference, instance.core_token, res, uid)]
        instances.append(instance_row(instance))
        sample_rows.append({"instance_id": instance.id, "samples": texts})

    for unit in range(BLOCK_UNITS):
        for p, placement in enumerate(PLACEMENTS):
            library, alias, current, outdated, kws = rng.choice(APIS)
            kw, val = rng.choice(kws), rng.randrange(10)
            tag = f"{unit}_{p}_{rng.randrange(1000)}"
            res = f"result_{tag}"
            lines, prep, core, use = block_program(placement, alias, current, kw, val, tag)
            version = rng.choice(VERSIONS)
            meta = _meta(library, version, "\n".join(lines) + "\n", unit + p)
            base = f"blk-{seed}-{unit}-{placement}"
            add(datagen.mask_instance(meta, datagen.MaskSpec(
                Granularity.LINE, f"{base}-line", current, line_index=core)), res)
            last = core if unit % 2 else use
            add(datagen.mask_instance(meta, datagen.MaskSpec(
                Granularity.BLOCK, f"{base}-block", current, line_span=(prep, last))), res)

            old_lines, *_ = block_program(placement, alias, outdated, kw, val, tag)
            other = rng.choice([v for v in VERSIONS if v != version])
            old_meta = _meta(library, other, "\n".join(old_lines) + "\n", unit + p)
            source, target = (old_meta, meta) if unit % 2 else (meta, old_meta)
            token = current if target is meta else outdated
            instance, _ = datagen.build_migration_pair(source, target, f"{base}-pair", token)
            add(instance, res)
    write_jsonl(work / "instances.jsonl", instances)
    write_jsonl(work / "samples.jsonl", sample_rows)
    probes = prepare_probes(work / "probes", seed)
    samples = len(instances) * BLOCK_N

    def check() -> oracles.Tally:
        rows = oracles.read_per_instance(work / "per_instance.jsonl")
        tally = oracles.Tally()
        references = {row["id"]: row["reference"] for row in instances}
        oracles.check_reference_equal(tally, rows, {iid: [0] for iid in references}, references)
        return tally

    return Prepared(
        argv=_score_argv(work, BLOCK_KS, "pattern"),
        outputs=[work / "report.json", work / "per_instance.jsonl"],
        items=samples,
        item_unit="samples",
        inputs={
            "instances": len(instances),
            "samples": samples,
            "n": BLOCK_N,
            "distinct_text_share": _distinct_share(sample_rows),
            "normalization_reduced_share": 0.0,
            "normalization_emptied_share": 0.0,
            "nested_block_instances": sum(
                1 for row in instances if row["granularity"] == "block" and oracles.indented_multiline(row["reference"])
            ),
            "probe_jobs": len(probes),
        },
        check=check,
        probes=probes,
    )


# Programs whose every line, and every block ending at a return/yield line,
# is masked and scored alone.  All were valid before masking.
PROBE_TEMPLATES = (
    (
        "import {alias}",
        "def {fn}({arg}):",
        "    {out} = {arg}.{callee}({kw}={val})",
        "    return {out}",
    ),
    (
        "import {alias}",
        "def {fn}({arg}):",
        "    for {item} in {arg}:",
        "        {out} = {alias}.{callee}({item})",
        "        yield {out}",
    ),
    (
        "import {alias}",
        "def {fn}({arg}):",
        "    with open({arg}) as {item}:",
        "        {out} = {alias}.{callee}({item}, {kw}={val})",
        "    return {out}",
    ),
)

_WORD_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def first_identifier(text: str) -> str:
    return next(w for w in _WORD_RE.findall(text) if not keyword.iskeyword(w))


def prepare_probes(work: Path, seed: int) -> list[Probe]:
    rng = random.Random(seed + 1)
    probes = []
    for t, template in enumerate(PROBE_TEMPLATES):
        library, alias, current, _, kws = rng.choice(APIS)
        names = {
            "alias": alias, "callee": current, "kw": rng.choice(kws), "val": rng.randrange(10),
            "fn": f"job_{rng.randrange(1000)}", "arg": f"arg_{rng.randrange(1000)}",
            "item": f"item_{rng.randrange(1000)}", "out": f"out_{rng.randrange(1000)}",
        }
        lines = [line.format(**names) for line in template]
        meta = _meta(library, rng.choice(VERSIONS), "\n".join(lines) + "\n", t)
        spans = [(Granularity.LINE, i, i) for i in range(len(lines))]
        spans += [
            (Granularity.BLOCK, i, j)
            for j, line in enumerate(lines)
            if line.split()[0] in ("return", "yield")
            for i in range(j)
        ]
        for granularity, first, last in spans:
            reference = "\n".join(lines[first:last + 1])
            core = current if current in _WORD_RE.findall(reference) else first_identifier(reference)
            iid = f"probe-{seed}-{t}-{granularity.value}-{first}-{last}"
            if granularity is Granularity.LINE:
                spec = datagen.MaskSpec(granularity, iid, core, line_index=first)
            else:
                spec = datagen.MaskSpec(granularity, iid, core, line_span=(first, last))
            instance = datagen.mask_instance(meta, spec)
            job = work / f"{len(probes):02d}"
            job.mkdir(parents=True)
            write_jsonl(job / "instances.jsonl", [instance_row(instance)])
            write_jsonl(job / "samples.jsonl", [{"instance_id": iid, "samples": [instance.reference]}])
            argv = [
                "score",
                "--instances", str(job / "instances.jsonl"),
                "--samples", str(job / "samples.jsonl"),
                "--metrics", SCORE_METRICS, "--k", "1",
                "--out", str(job / "report.json"),
                "--per-instance", str(job / "per_instance.jsonl"),
            ]
            probes.append(Probe(argv, job / "per_instance.jsonl", instance.reference))
    return probes


# --- stdlib inputs -----------------------------------------------------------


def stdlib_trees() -> tuple[dict[str, Path], str | None]:
    """The lib/python3.N trees of the interpreters installed beside the
    running one (a pyenv-style versions directory), and why they cannot be
    used, if they cannot."""
    base = Path(sys.base_prefix).parent
    trees = {}
    for version in STDLIB_VERSIONS:
        for candidate in sorted(base.glob(f"{version}*")):
            lib = candidate / "lib" / f"python{version}"
            if candidate.name.split(".")[:2] == version.split(".") and lib.is_dir():
                trees[version] = lib
                break
    missing = [v for v in STDLIB_VERSIONS if v not in trees]
    if missing:
        return trees, f"no stdlib tree for Python {', '.join(missing)} beside {sys.base_prefix}"
    return trees, None


def module_subset(trees: dict[str, Path], seed: int) -> tuple[str, ...]:
    """The required modules plus a seeded few single-file modules present in
    every version; the same subset is used in every version."""
    low, high = EXTRA_MODULE_BYTES
    candidates = []
    for path in sorted(trees[STDLIB_VERSIONS[0]].glob("*.py")):
        name = path.stem
        if name.startswith("_") or name in REQUIRED_MODULES:
            continue
        files = [tree / path.name for tree in trees.values()]
        if all(f.is_file() and low <= f.stat().st_size <= high for f in files):
            candidates.append(name)
    rng = random.Random(seed)
    return REQUIRED_MODULES + tuple(sorted(rng.sample(candidates, EXTRA_MODULES)))


def _module_files(lib: Path, module: str) -> list[Path]:
    single = lib / f"{module}.py"
    if single.is_file():
        return [single]
    if (lib / module).is_dir():
        return sorted(p for p in (lib / module).rglob("*.py") if "__pycache__" not in p.parts)
    return []


def layout(trees: dict[str, Path], modules, dest: Path) -> tuple[int, float]:
    """Copy each version's .py files of the module subset to dest/<version>/.

    Returns the file count and the share of files whose bytes appeared
    earlier in the layout, which a content-keyed cache could reuse."""
    seen: set[bytes] = set()
    files = repeated = 0
    for version, lib in trees.items():
        for module in modules:
            for src in _module_files(lib, module):
                data = src.read_bytes()
                out = dest / version / src.relative_to(lib)
                out.parent.mkdir(parents=True, exist_ok=True)
                out.write_bytes(data)
                digest = hashlib.sha256(data).digest()
                files += 1
                repeated += digest in seen
                seen.add(digest)
    return files, repeated / files


def prepare_lifecycle_stdlib(work: Path, seed: int) -> Prepared:
    trees, _ = stdlib_trees()
    modules = module_subset(trees, seed)
    root = work / "versions"
    files, repeat_share = layout(trees, modules, root)
    out = work / "lifecycle.json"
    return Prepared(
        argv=["lifecycle", "--versions-root", str(root), "--out", str(out)],
        outputs=[out],
        items=files,
        item_unit="files",
        inputs={
            "files": files,
            "versions": len(trees),
            "modules": list(modules),
            "repeat_file_share": repeat_share,
        },
        check=lambda: oracles.check_lifecycle(out, list(trees)),
    )


def prepare_filter_stdlib(work: Path, seed: int) -> Prepared:
    trees, _ = stdlib_trees()
    modules = module_subset(trees, seed)
    files, repeat_share = layout({"3.11": trees["3.11"]}, modules, work)
    tree = work / "3.11"
    out = work / "verdicts.jsonl"
    return Prepared(
        argv=["filter", "--root", str(tree), "--out", str(out)],
        outputs=[out],
        items=files,
        item_unit="files",
        inputs={"files": files, "modules": list(modules), "repeat_file_share": repeat_share},
        check=lambda: oracles.check_filter(out, tree),
    )


# name -> (prepare, needs the stdlib trees)
WORKLOADS = {
    "score-token": (prepare_score_token, False),
    "score-block": (prepare_score_block, False),
    "lifecycle-stdlib": (prepare_lifecycle_stdlib, True),
    "filter-stdlib": (prepare_filter_stdlib, True),
}
