"""API lifecycle analysis: per-version public API surfaces scanned from source
trees, and addition/deprecation/general tagging over presence runs."""

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
from .errors import InvalidArgs, IoFailure, NoNumericComponent, UnsortedVersions
from .syntax import definition_names

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class VersionSurface:
    """The public API names observed in one version's source tree."""

    version: VersionId
    apis: frozenset[str]
    parsed_files: int = 0
    skipped_files: int = 0


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


def scan_api_definitions(
    tree_root: str | Path, *, memo: dict[bytes, frozenset[str] | None] | None = None
) -> tuple[frozenset[str], int, int]:
    """Collect public qualified definition names from every .py file under
    tree_root; returns (names, parsed_files, skipped_files).

    Files that cannot be decoded or parsed are skipped and counted.  Names
    whose terminal segment starts with an underscore are excluded; a file
    pkg/a.py defining f contributes "pkg.a.f", and __init__.py maps to its
    package.

    memo maps a digest of a file's bytes to that file's local definition
    names (None for a skipped file), and a file whose bytes are already in
    it is not parsed again.  Scans of several versions that share one memo
    parse each distinct file content once; without one, the memo lasts for
    this call.  The contents not in memo are parsed on every usable core
    (see _fanout.fan_out).
    """
    # hashlib.blake2b is _blake2.blake2b on CPython 3.10-3.13, but importing
    # it through hashlib also loads OpenSSL's _hashlib: ~3 ms and ~4 MB of
    # resident memory.  Imported here, so that no other command loads it.
    from _blake2 import blake2b

    from ._fanout import fan_out  # see its module docstring

    root = Path(tree_root)
    if not root.is_dir():
        raise IoFailure(f"not a readable directory: {root}")
    if memo is None:
        memo = {}
    files: list[tuple[Path, bytes]] = []
    unseen: dict[bytes, bytes] = {}  # digest -> bytes of a content not in memo
    skipped = 0
    for path in sorted(root.rglob("*.py")):
        if not path.is_file():
            continue
        try:
            data = path.read_bytes()
        except OSError:
            skipped += 1
            continue
        key = blake2b(data).digest()
        if key not in memo:
            unseen[key] = data
        files.append((path, key))
    memo.update(zip(unseen, fan_out(_file_definitions, list(unseen.values()))))

    names: set[str] = set()
    parsed = 0
    for path, key in files:
        local = memo[key]
        if local is None:
            skipped += 1
            continue
        parsed += 1
        parts = list(path.relative_to(root).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        module = ".".join(parts)
        for name in local:
            qualified = f"{module}.{name}" if module else name
            if not qualified.rsplit(".", 1)[-1].startswith("_"):
                names.add(qualified)
    return frozenset(names), parsed, skipped


def _file_definitions(data: bytes) -> frozenset[str] | None:
    """Local definition names of one file's bytes; None when they are not
    UTF-8 or do not parse and compile.  A leading byte-order mark is dropped,
    as Python's own import does."""
    try:
        source = data.decode("utf-8-sig")
    except UnicodeDecodeError:
        return None
    # the universal-newline translation of a text-mode read
    return definition_names(source.replace("\r\n", "\n").replace("\r", "\n"))


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
    return VersionSurface(version, *scan_api_definitions(tree_root, memo=memo))


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
