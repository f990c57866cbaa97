"""Command-line interface: score, lifecycle, mask, pair, filter.

Exit codes: 0 success, 1 schema/join failure, 2 I/O failure, 3 invalid
arguments.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import logging
import os
import sys
import textwrap
from collections.abc import Callable, Sequence
from typing import NoReturn

from . import harness
from .core_model import Granularity, MetaInstance, Ordering, compare_versions
from .datagen import build_migration_pair, filter_tree, mask_instance
from .errors import EvalError, InvalidArgs, IoFailure, SchemaViolation
from .harness import (
    decode_mask_record,
    decode_meta_record,
    emit_report,
    ingest,
    run_scoring,
)
from .lifecycle import collect_surfaces, tag_lifecycle

EXIT_OK = 0
EXIT_DATA = 1
EXIT_IO = 2
EXIT_USAGE = 3


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that raises InvalidArgs where ArgumentParser would
    print its usage and exit 2 (exit_on_error=False alone does not cover a
    missing required option before Python 3.13), takes no abbreviated
    option, and has --help but no -h."""

    def __init__(self, **kwargs) -> None:
        super().__init__(
            add_help=False,
            allow_abbrev=False,
            formatter_class=argparse.RawDescriptionHelpFormatter,
            **kwargs,
        )
        self.add_argument("--help", action="help", help="Show this message and exit.")

    def error(self, message: str) -> NoReturn:
        raise InvalidArgs(message)


_PARSER = _Parser(
    prog="vceval",
    description="Evaluation toolkit for version-controllable code generation.",
)
_COMMANDS = _PARSER.add_subparsers(title="commands", metavar="COMMAND", required=True)


def _option(flag: str, dest: str | None = None, *, help: str = "", **kwargs) -> tuple[str, dict]:
    """An option for _command, a PATH unless it has choices or another
    metavar; its help ends in [required] or its default."""
    marks = ["[required]"] if kwargs.get("required") else []
    if kwargs.get("default") is not None:
        marks.append(f"[default: {kwargs['default']}]")
    if "choices" not in kwargs:
        kwargs.setdefault("metavar", "PATH")
    if dest:
        kwargs["dest"] = dest
    return flag, dict(kwargs, help=" ".join(filter(None, [help, *marks])) or None)


def _command(*options: tuple[str, dict], name: str | None = None) -> Callable:
    """Register the decorated function as a subcommand with these options,
    which it takes as keyword arguments; its docstring is the command's
    --help text, and the docstring's first paragraph its line in the
    top-level --help."""

    def register(run: Callable) -> Callable:
        first, _, rest = (run.__doc__ or "").partition("\n")  # None under python -OO
        doc = f"{first}\n{textwrap.dedent(rest)}".strip()
        parser = _COMMANDS.add_parser(
            name or run.__name__,
            help=" ".join(doc.split("\n\n")[0].split()),
            description=doc,
        )
        for flag, kwargs in options:
            parser.add_argument(flag, **kwargs)
        parser.set_defaults(run=run)
        return run

    return register


def _parse_list(raw: str) -> list[str]:
    return [part.strip() for part in raw.split(",") if part.strip()]


def _parse_ks(raw: str) -> list[int]:
    try:
        return [int(part) for part in _parse_list(raw)]
    except ValueError:
        raise InvalidArgs(f"--k expects a comma list of integers, got {raw!r}") from None


def _same_file(first: str, second: str) -> bool:
    """Whether two paths name one file: os.path.samefile when both exist,
    otherwise the same path once symlinks and relative parts are resolved."""
    with contextlib.suppress(OSError):
        return os.path.samefile(first, second)
    return os.path.realpath(first) == os.path.realpath(second)


@_command(
    _option("--instances", "instances_path", required=True),
    _option("--samples", "samples_path", required=True),
    _option("--exec-reports", "exec_reports_path"),
    _option("--metrics", default="em", metavar="TEXT", help="Comma list: em,ism,pm,cdc,pass."),
    _option("--k", "k_spec", default="1", metavar="TEXT", help="Comma list of k values."),
    _option("--group-by", choices=harness.GROUP_DIMENSIONS),
    _option("--format", "fmt", choices=["csv", "json"], default="json"),
    _option("--out", "out_path", required=True),
    _option("--per-instance", "per_instance_path",
            help="Also dump per-instance score vectors as JSONL."),
)
def score(instances_path, samples_path, exec_reports_path, metrics, k_spec, group_by,
          fmt, out_path, per_instance_path) -> None:
    """Score generated samples against instances and write aggregate rows."""
    if per_instance_path and _same_file(out_path, per_instance_path):
        raise InvalidArgs(
            f"--out {out_path} and --per-instance {per_instance_path} name the same file"
        )
    items = ingest(instances_path, samples_path, exec_reports_path)
    result = run_scoring(
        items, _parse_list(metrics), _parse_ks(k_spec), group_by=group_by,
        per_instance=bool(per_instance_path),
    )
    if per_instance_path:
        harness.write_score_vectors(result, per_instance_path)
    emit_report(result.aggregates, fmt, out_path)
    print(f"scored {len(items)} instance(s) -> {out_path}", file=sys.stderr)


@_command(
    _option("--versions-root", required=True),
    _option("--out", "out_path", required=True),
)
def lifecycle(versions_root, out_path) -> None:
    """Diff per-version API surfaces under --versions-root and write lifecycle records."""
    surfaces = collect_surfaces(versions_root)
    if len(surfaces) < 2:
        raise InvalidArgs("need at least two usable version trees under --versions-root")
    records = tag_lifecycle(surfaces)
    versions = [s.version.raw for s in surfaces]
    payload = {
        "versions": versions,
        "records": [
            {
                "api": record.api,
                "start_index": record.start_index,
                "end_index": record.end_index,
                "first_version": versions[record.start_index],
                "removed_in_version": (
                    None if record.end_index is None else versions[record.end_index]
                ),
                "tags": {v: tag.value for v, tag in record.per_version_tag.items()},
            }
            for record in records
        ],
    }
    # streamed: the encoded text is never held whole
    encoded = json.JSONEncoder(indent=2, sort_keys=True).iterencode(payload)
    harness.write_text(out_path, itertools.chain(encoded, ("\n",)))
    print(f"tagged {len(records)} lifecycle record(s) -> {out_path}", file=sys.stderr)


@_command(
    _option("--granularity", required=True, choices=["token", "line", "block"]),
    _option("--spec", "spec_path", required=True),
    _option("--out", "out_path", required=True),
)
def mask(granularity, spec_path, out_path) -> None:
    """Mask spans in meta-instance code per --spec and write completion instances."""
    gran = Granularity(granularity)
    rows = []
    for lineno, obj in harness.read_jsonl(spec_path):
        where = f"{spec_path}:{lineno}"
        meta, spec = decode_mask_record(obj, gran, where)
        try:
            instance = mask_instance(meta, spec)
        except EvalError as exc:  # a bad spec record, whatever mask_instance calls it
            violations = getattr(exc, "violations", [str(exc)])
            raise SchemaViolation([f"{where}: {v}" for v in violations]) from None
        rows.append(harness.encode_instance(instance))
    harness.write_jsonl(out_path, rows)
    print(f"masked {len(rows)} instance(s) -> {out_path}", file=sys.stderr)


@_command(
    _option("--meta", "meta_path", required=True),
    _option("--out", "out_path", required=True),
)
def pair(meta_path, out_path) -> None:
    """Pair meta-instances sharing (library, description) across versions into
    migration instances.

    Both directions are emitted per unordered pair; the produced instance id
    joins the two caller-supplied meta ids as "<source_id>::<target_id>", so
    a meta id may not contain "::", and the core token is the target side's.
    """
    entries: dict[str, tuple[str, MetaInstance]] = {}
    for lineno, obj in harness.read_jsonl(meta_path):
        where = f"{meta_path}:{lineno}"
        meta_id, core_token, meta = decode_meta_record(obj, where)
        if meta_id in entries:
            raise SchemaViolation([f"{where}: duplicate meta id {meta_id!r}"])
        entries[meta_id] = (core_token, meta)

    groups: dict[tuple[str, str], list[tuple[str, str, MetaInstance]]] = {}
    for meta_id, (core_token, meta) in entries.items():
        groups.setdefault((meta.library, meta.description), []).append((meta_id, core_token, meta))

    rows = []
    for members in groups.values():
        for source_id, _, m_i in members:
            for target_id, target_token, m_j in members:
                # equal versions; this also skips an entry paired with itself
                if compare_versions(m_i.version, m_j.version) is Ordering.EQUAL:
                    continue
                instance, _ = build_migration_pair(
                    m_i, m_j, instance_id=f"{source_id}::{target_id}", core_token=target_token
                )
                rows.append(harness.encode_instance(instance))
    harness.write_jsonl(out_path, rows)
    print(f"paired {len(rows)} migration instance(s) -> {out_path}", file=sys.stderr)


@_command(
    _option("--root", "root_path", required=True),
    _option("--out", "out_path", required=True),
    name="filter",
)
def filter_cmd(root_path, out_path) -> None:
    """Judge every .py file under --root against the corpus quality rules."""
    results = filter_tree(root_path)
    rows = [
        {"path": rel, "keep": verdict.keep, "reasons": list(verdict.reasons)}
        for rel, verdict in results
    ]
    harness.write_jsonl(out_path, rows)
    kept = sum(1 for _, verdict in results if verdict.keep)
    print(f"kept {kept}/{len(results)} file(s) -> {out_path}", file=sys.stderr)


def main(argv: Sequence[str] | None = None) -> int:
    """Run the CLI, returning an exit code instead of raising SystemExit."""
    try:
        args = vars(_PARSER.parse_args(argv))
        run = args.pop("run")
        logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
        run(**args)
    except SystemExit as exc:  # raised by --help once it has printed the help
        return exc.code
    except InvalidArgs as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (IoFailure, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except EvalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    return EXIT_OK


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
