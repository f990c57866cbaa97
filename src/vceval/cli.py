"""Command-line interface: score, lifecycle, mask, pair, filter, report.

Exit codes: 0 success, 1 schema/join failure, 2 I/O failure, 3 invalid
arguments.
"""

from __future__ import annotations

import json
import logging
import sys
from collections.abc import Sequence

import click

from . import harness
from .core_model import Granularity, MetaInstance, Ordering, compare_versions
from .datagen import build_migration_pair, filter_tree, mask_instance
from .errors import EvalError, InvalidArgs, IoFailure, SchemaViolation
from .harness import (
    decode_mask_record,
    decode_meta_record,
    emit_report,
    ingest,
    load_aggregates,
    run_scoring,
)
from .lifecycle import collect_surfaces, tag_lifecycle

EXIT_OK = 0
EXIT_DATA = 1
EXIT_IO = 2
EXIT_USAGE = 3


@click.group()
def cli() -> None:
    """Evaluation toolkit for version-controllable code generation."""
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")


def _parse_list(raw: str) -> list[str]:
    return [part.strip() for part in raw.split(",") if part.strip()]


def _parse_ks(raw: str) -> list[int]:
    try:
        return [int(part) for part in _parse_list(raw)]
    except ValueError:
        raise InvalidArgs(f"--k expects a comma list of integers, got {raw!r}") from None


@cli.command()
@click.option("--instances", "instances_path", required=True, type=click.Path())
@click.option("--samples", "samples_path", required=True, type=click.Path())
@click.option("--exec-reports", "exec_reports_path", type=click.Path(), default=None)
@click.option("--metrics", default="em", show_default=True, help="Comma list: em,ism,pm,cdc,pass.")
@click.option("--k", "k_spec", default="1", show_default=True, help="Comma list of k values.")
@click.option("--group-by", type=click.Choice(harness.GROUP_DIMENSIONS), default=None)
@click.option("--workers", type=int, default=1, show_default=True)
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="json", show_default=True)
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--per-instance", "per_instance_path", type=click.Path(), default=None,
              help="Also dump per-instance score vectors as JSONL.")
def score(instances_path, samples_path, exec_reports_path, metrics, k_spec, group_by,
          workers, fmt, out_path, per_instance_path) -> None:
    """Score generated samples against instances and write aggregate rows."""
    items = ingest(instances_path, samples_path, exec_reports_path)
    result = run_scoring(
        items, _parse_list(metrics), _parse_ks(k_spec), group_by=group_by, workers=workers
    )
    if per_instance_path:
        harness.write_score_vectors(result, per_instance_path)
    emit_report(result.aggregates, fmt, out_path)
    click.echo(f"scored {len(items)} instance(s) -> {out_path}", err=True)


@cli.command()
@click.option("--versions-root", "versions_root", required=True, type=click.Path())
@click.option("--out", "out_path", required=True, type=click.Path())
def lifecycle(versions_root, out_path) -> None:
    """Diff per-version API surfaces under --versions-root and write lifecycle records."""
    surfaces = collect_surfaces(versions_root)
    if len(surfaces) < 2:
        raise InvalidArgs("need at least two usable version trees under --versions-root")
    records = tag_lifecycle(surfaces)
    payload = {
        "versions": [s.version.raw for s in surfaces],
        "records": [
            {
                "api": record.api,
                "start_index": record.start_index,
                "end_index": record.end_index,
                "first_version": surfaces[record.start_index].version.raw,
                "removed_in_version": (
                    surfaces[record.end_index].version.raw
                    if record.end_index is not None
                    else None
                ),
                "tags": {v: tag.value for v, tag in record.per_version_tag.items()},
            }
            for record in sorted(records, key=lambda r: (r.api, r.start_index))
        ],
    }
    harness.write_text(out_path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    click.echo(f"tagged {len(records)} lifecycle record(s) -> {out_path}", err=True)


@cli.command()
@click.option("--granularity", required=True, type=click.Choice(["token", "line", "block"]))
@click.option("--spec", "spec_path", required=True, type=click.Path())
@click.option("--out", "out_path", required=True, type=click.Path())
def mask(granularity, spec_path, out_path) -> None:
    """Mask spans in meta-instance code per --spec and write completion instances."""
    gran = Granularity(granularity)
    rows = []
    for lineno, obj in harness.read_jsonl(spec_path):
        meta, spec = decode_mask_record(obj, gran, where=f"{spec_path}:{lineno}")
        rows.append(harness.encode_instance(mask_instance(meta, spec)))
    harness.write_jsonl(out_path, rows)
    click.echo(f"masked {len(rows)} instance(s) -> {out_path}", err=True)


@cli.command()
@click.option("--meta", "meta_path", required=True, type=click.Path())
@click.option("--out", "out_path", required=True, type=click.Path())
def pair(meta_path, out_path) -> None:
    """Pair meta-instances sharing (library, description) across versions into
    migration instances.

    Both directions are emitted per unordered pair; the produced instance id
    joins the two caller-supplied meta ids as "<source_id>::<target_id>" and
    the core token is the target side's.
    """
    entries: list[tuple[str, str, MetaInstance]] = []
    seen_ids = set()
    for lineno, obj in harness.read_jsonl(meta_path):
        where = f"{meta_path}:{lineno}"
        meta_id, core_token, meta = decode_meta_record(obj, where)
        if meta_id in seen_ids:
            raise SchemaViolation([f"{where}: duplicate meta id {meta_id!r}"])
        seen_ids.add(meta_id)
        entries.append((meta_id, core_token, meta))

    groups: dict[tuple[str, str], list[tuple[str, str, MetaInstance]]] = {}
    for entry in entries:
        groups.setdefault((entry[2].library, entry[2].description), []).append(entry)

    rows = []
    for members in groups.values():
        for source_id, _, m_i in members:
            for target_id, target_token, m_j in members:
                if source_id == target_id:
                    continue
                if compare_versions(m_i.version, m_j.version) is Ordering.EQUAL:
                    continue
                instance, _ = build_migration_pair(
                    m_i, m_j, instance_id=f"{source_id}::{target_id}", core_token=target_token
                )
                rows.append(harness.encode_instance(instance))
    harness.write_jsonl(out_path, rows)
    click.echo(f"paired {len(rows)} migration instance(s) -> {out_path}", err=True)


@cli.command("filter")
@click.option("--root", "root_path", required=True, type=click.Path())
@click.option("--out", "out_path", required=True, type=click.Path())
def filter_cmd(root_path, out_path) -> None:
    """Judge every .py file under --root against the corpus quality rules."""
    results = filter_tree(root_path)
    rows = [
        {"path": rel, "keep": verdict.keep, "reasons": list(verdict.reasons)}
        for rel, verdict in results
    ]
    harness.write_jsonl(out_path, rows)
    kept = sum(1 for _, verdict in results if verdict.keep)
    click.echo(f"kept {kept}/{len(results)} file(s) -> {out_path}", err=True)


@cli.command()
@click.option("--aggregates", "aggregates_path", required=True, type=click.Path())
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="json", show_default=True)
@click.option("--out", "out_path", required=True, type=click.Path())
def report(aggregates_path, fmt, out_path) -> None:
    """Re-emit a scoring aggregates file in the chosen format."""
    emit_report(load_aggregates(aggregates_path), fmt, out_path)
    click.echo(f"report -> {out_path}", err=True)


def main(argv: Sequence[str] | None = None) -> int:
    """Run the CLI, returning an exit code instead of raising SystemExit."""
    try:
        cli.main(args=list(argv) if argv is not None else None, standalone_mode=False)
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.UsageError as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        return EXIT_USAGE
    except click.ClickException as exc:
        exc.show()
        return EXIT_DATA
    except InvalidArgs as exc:
        click.echo(f"error: {exc}", err=True)
        return EXIT_USAGE
    except IoFailure as exc:
        click.echo(f"error: {exc}", err=True)
        return EXIT_IO
    except OSError as exc:
        click.echo(f"error: {exc}", err=True)
        return EXIT_IO
    except EvalError as exc:
        click.echo(f"error: {exc}", err=True)
        return EXIT_DATA
    return EXIT_OK


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
