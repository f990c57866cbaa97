"""API lifecycle analysis: per-version public API surfaces scanned from source
trees, and addition/deprecation/general tagging over presence runs."""

from __future__ import annotations

import itertools
import logging
from collections.abc import Mapping, Sequence
from pathlib import Path
from typing import NamedTuple

from .core_model import LifecycleTag, VersionId, parse_version, version_sort_key
from .errors import EvalError, InvalidArgs, IoFailure, NoNumericComponent
from .syntax import definition_names

log = logging.getLogger(__name__)


class VersionSurface(NamedTuple):
    """The public API names observed in one version's source tree."""

    version: VersionId
    apis: frozenset[str]
    parsed_files: int = 0
    skipped_files: int = 0


class LifecycleRecord(NamedTuple):
    """One maximal contiguous presence run of an API over the version sequence.

    The interval is [start_index, end_index) over the surface list; end_index
    is None when the API is still present in the last observed version.
    per_version_tag is keyed by the raw version string.
    """

    api: str
    start_index: int
    end_index: int | None
    per_version_tag: Mapping[str, LifecycleTag]


def scan_api_definitions(tree_root: str | Path) -> tuple[frozenset[str], int, int]:
    """Collect public qualified definition names from every .py file under
    tree_root; returns (names, parsed_files, skipped_files).

    Files that cannot be decoded or parsed are skipped and counted.  Names
    whose terminal segment starts with an underscore are excluded; a file
    pkg/a.py defining f contributes "pkg.a.f", and __init__.py maps to its
    package.  Each distinct file content is parsed once, on every usable
    core; collect_surfaces scans the trees of all its versions in one such
    pass (see _scan_trees).
    """
    root = Path(tree_root)
    if not root.is_dir():
        raise IoFailure(f"not a readable directory: {root}")
    return _scan_trees([root])[0]


def _scan_trees(roots: Sequence[Path]) -> list[tuple[frozenset[str], int, int]]:
    """scan_api_definitions of each root, in one fan_out over the distinct
    file contents of them all.

    This process reads each file to take its digest and keeps the digest
    and size, not the bytes.  One path per distinct digest is compiled in a
    worker, largest file first, so that no core ends on a large file alone.
    The worker reads the file again; one that lost its digest or can no
    longer be read stops the run with IoFailure, so names always come from
    the digested bytes."""
    # hashlib.blake2b is _blake2.blake2b on CPython 3.10-3.13, but importing
    # it through hashlib also loads OpenSSL's _hashlib: ~3 ms and ~4 MB of
    # resident memory.  Imported here, so that no other command loads it.
    from _blake2 import blake2b

    from ._fanout import fan_out  # see its module docstring

    trees: list[list[tuple[Path, bytes | None]]] = []  # None: a file not read
    distinct: dict[bytes, tuple[int, Path]] = {}  # digest -> (size, first path)
    for root in roots:
        files = []
        for path in sorted(root.rglob("*.py")):
            if not path.is_file():
                continue
            try:
                data = path.read_bytes()
            except OSError:
                files.append((path, None))
                continue
            key = blake2b(data).digest()
            distinct.setdefault(key, (len(data), path))
            files.append((path, key))
        trees.append(files)
    # sorted is stable: files of one size stay in first-seen order
    order = sorted(distinct.items(), key=lambda item: -item[1][0])
    local_names = dict(zip((key for key, _ in order), fan_out(_path_definitions, order)))

    scans = []
    for root, files in zip(roots, trees):
        names: set[str] = set()
        parsed = skipped = 0
        for path, key in files:
            local = local_names.get(key)
            if isinstance(local, IoFailure):
                raise local
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
        scans.append((frozenset(names), parsed, skipped))
    return scans


def _path_definitions(item: tuple[bytes, tuple[int, Path]]) -> frozenset[str] | IoFailure | None:
    """Local definition names of the bytes at item's path (None if they do not
    compile) if they still have its digest, else an IoFailure for the caller
    to raise in its own order.  The bytes go to compile() undecoded, which
    reads them as the interpreter reads a module (see syntax's docstring)."""
    from _blake2 import blake2b

    key, (_, path) = item
    try:
        data = path.read_bytes()
    except OSError as exc:
        return IoFailure(f"unreadable file {path}: {exc}")
    if blake2b(data).digest() != key:
        return IoFailure(f"file changed during the run: {path}")
    return definition_names(data)


def extract_surface(version: VersionId, tree_root: str | Path) -> VersionSurface:
    """Scan one version tree for its public API names (see
    scan_api_definitions); collect_surfaces scans all its versions at once."""
    return VersionSurface(version, *scan_api_definitions(tree_root))


def tag_lifecycle(surfaces: Sequence[VersionSurface]) -> list[LifecycleRecord]:
    """Emit one record per maximal contiguous presence run of every API, in
    (api, start_index) order.

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
        if version_sort_key(prev.version) >= version_sort_key(curr.version):
            raise EvalError(
                f"surfaces not strictly ascending at {prev.version.raw!r} -> {curr.version.raw!r}"
            )

    versions = [s.version.raw for s in surfaces]
    records: list[LifecycleRecord] = []
    for api in sorted(set().union(*(s.apis for s in surfaces))):
        presence = [api in s.apis for s in surfaces]
        for present, run in itertools.groupby(range(len(versions)), presence.__getitem__):
            if not present:
                continue
            run = list(run)
            start, end = run[0], run[-1] + 1
            tags = dict.fromkeys(versions[start:end], LifecycleTag.GENERAL)
            if start > 0:
                tags[versions[start]] = LifecycleTag.ADDITION
            closed = end < len(versions)
            if closed:  # written last, so that it wins on a one-version run
                tags[versions[end - 1]] = LifecycleTag.DEPRECATION
            records.append(LifecycleRecord(api, start, end if closed else None, tags))
    return records


def collect_surfaces(versions_root: str | Path) -> list[VersionSurface]:
    """Build ascending surfaces from a "<root>/<version>/..." directory layout.

    Subdirectories whose names do not parse as versions are skipped with a
    warning, as are versions contributing zero parseable files (dropping them
    beats reporting a mass deprecation for a broken source drop).  Two
    directories that name the same version, such as 1.0 and 1.0.0, raise
    EvalError before any tree is scanned.  The trees of all versions
    are scanned in one pass: each distinct file content is parsed once, on
    every usable core, and a file that changes during the run stops it with
    IoFailure (see _scan_trees).
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
    for (prev, prev_dir), (curr, curr_dir) in zip(entries, entries[1:]):
        if version_sort_key(prev) == version_sort_key(curr):
            raise EvalError(f"{prev_dir} and {curr_dir} name the same version")

    surfaces = []
    for (version, _), scan in zip(entries, _scan_trees([child for _, child in entries])):
        surface = VersionSurface(version, *scan)
        if surface.parsed_files == 0:
            log.warning("dropping version %s: no parseable source files", version.raw)
            continue
        surfaces.append(surface)
    return surfaces
