"""API lifecycle analysis: per-version public API surfaces, consecutive-version
diffs, and addition/deprecation/general tagging over presence runs."""

from __future__ import annotations

import logging
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from pathlib import Path

from .core_model import (
    LifecycleTag,
    Ordering,
    VersionId,
    compare_versions,
    parse_version,
    version_sort_key,
)
from .errors import (
    InvalidArgs,
    IoFailure,
    NoNumericComponent,
    UnsortedVersions,
    VersionOrderError,
)
from .syntax import scan_api_definitions

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class VersionSurface:
    """The public API names observed in one version's source tree."""

    version: VersionId
    apis: frozenset[str]
    parsed_files: int = 0
    skipped_files: int = 0


@dataclass(frozen=True)
class SurfaceDiff:
    """added/removed/retained partition prev union curr."""

    added: frozenset[str]
    removed: frozenset[str]
    retained: frozenset[str]


@dataclass(frozen=True)
class LifecycleRecord:
    """One maximal contiguous presence run of an API over the version sequence.

    The interval is [start_index, end_index) over the surface list; end_index
    is None when the API is still present in the last observed version.
    per_version_tag is keyed by the raw version string.
    """

    api: str
    start_index: int
    end_index: int | None
    per_version_tag: Mapping[str, LifecycleTag]


def extract_surface(
    version: VersionId,
    tree_root: str | Path,
    *,
    memo: dict[bytes, frozenset[str] | None] | None = None,
) -> VersionSurface:
    """Scan one version tree for its public API names.

    memo is passed on to scan_api_definitions; share one across the versions
    of a run so that files repeated between versions are parsed once.
    """
    scan = scan_api_definitions(tree_root, memo=memo)
    return VersionSurface(version, scan.names, scan.parsed_files, scan.skipped_files)


def diff_consecutive(prev: VersionSurface, curr: VersionSurface) -> SurfaceDiff:
    """Set-diff two consecutive surfaces; prev must order strictly before curr."""
    if compare_versions(prev.version, curr.version) is not Ordering.LESS:
        raise VersionOrderError(
            f"{prev.version.raw!r} must order strictly before {curr.version.raw!r}"
        )
    return SurfaceDiff(
        added=frozenset(curr.apis - prev.apis),
        removed=frozenset(prev.apis - curr.apis),
        retained=frozenset(prev.apis & curr.apis),
    )


def tag_lifecycle(surfaces: Sequence[VersionSurface]) -> list[LifecycleRecord]:
    """Emit one record per maximal contiguous presence run of every API.

    Boundary rules: a run beginning at the first observed version is never
    tagged addition (the window is left-censored, so presence in an earlier
    unobserved version cannot be ruled out) and the last observed version is
    never tagged deprecation (right-censored).  A run's final version is
    deprecation exactly when a later surface lacks the API; for
    single-version closed runs deprecation wins over addition, since the
    successor's absence is observed fact while addition would claim continued
    availability.
    """
    if len(surfaces) < 2:
        raise InvalidArgs("need at least two version surfaces")
    for prev, curr in zip(surfaces, surfaces[1:]):
        if compare_versions(prev.version, curr.version) is not Ordering.LESS:
            raise UnsortedVersions(
                f"surfaces not strictly ascending at {prev.version.raw!r} -> {curr.version.raw!r}"
            )

    count = len(surfaces)
    records: list[LifecycleRecord] = []
    for api in sorted(set().union(*(s.apis for s in surfaces))):
        present = [api in s.apis for s in surfaces]
        idx = 0
        while idx < count:
            if not present[idx]:
                idx += 1
                continue
            start = idx
            while idx < count and present[idx]:
                idx += 1
            end = idx
            closed = end < count
            tags: dict[str, LifecycleTag] = {}
            for pos in range(start, end):
                raw = surfaces[pos].version.raw
                if closed and pos == end - 1:
                    tags[raw] = LifecycleTag.DEPRECATION
                elif pos == start and start > 0:
                    tags[raw] = LifecycleTag.ADDITION
                else:
                    tags[raw] = LifecycleTag.GENERAL
            records.append(LifecycleRecord(api, start, end if closed else None, tags))
    return records


def collect_surfaces(versions_root: str | Path) -> list[VersionSurface]:
    """Build ascending surfaces from a "<root>/<version>/..." directory layout.

    Subdirectories whose names do not parse as versions are skipped with a
    warning, as are versions contributing zero parseable files (dropping them
    beats reporting a mass deprecation for a broken source drop).  Each
    distinct file content is parsed once across all versions.
    """
    root = Path(versions_root)
    if not root.is_dir():
        raise IoFailure(f"not a readable directory: {root}")
    entries: list[tuple[VersionId, Path]] = []
    for child in sorted(root.iterdir()):
        if not child.is_dir():
            continue
        try:
            version = parse_version(child.name)
        except NoNumericComponent:
            log.warning("skipping %s: directory name is not a version", child)
            continue
        entries.append((version, child))
    entries.sort(key=lambda pair: version_sort_key(pair[0]))

    surfaces = []
    memo: dict[bytes, frozenset[str] | None] = {}
    for version, child in entries:
        surface = extract_surface(version, child, memo=memo)
        if surface.parsed_files == 0:
            log.warning("dropping version %s: no parseable source files", version.raw)
            continue
        surfaces.append(surface)
    return surfaces
