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
from .syntax import definition_names, python_files

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

    Files that cannot be read, decoded or parsed are skipped and counted.
    Each file is read once; one that changes during the scan is named from
    the bytes that read gave.  Names whose terminal segment starts with an
    underscore are excluded; a file pkg/a.py defining f contributes
    "pkg.a.f", and __init__.py maps to its package.  The module path is the
    file's path below tree_root, so a relative tree_root such as "." names
    its modules as an absolute one does.  Each distinct file content is
    parsed once, on every usable core; collect_surfaces scans the trees of
    all its versions in one such pass (see _scan_trees).
    """
    root = Path(tree_root)
    if not root.is_dir():
        raise IoFailure(f"not a readable directory: {root}")
    return _scan_trees([root])[0]


def _scan_trees(roots: Sequence[Path]) -> list[tuple[frozenset[str], int, int]]:
    """scan_api_definitions of each root, in one fan_out with one item per
    file size: the paths, across all roots, of the files of that size.

    This process only walks the trees (syntax.python_files, which gives
    every file's size) and names modules; it reads no file.  Each worker
    reads each path of its item once and parses each distinct content of
    them once.  Files with equal bytes have equal sizes, so no content is
    parsed twice across items.  A file that cannot be stat'ed, read or
    parsed is skipped and counted; one that changes after the walk is named
    from the bytes its worker read.  Items go largest size first, so that no
    core ends on a large file alone, and each lists its paths in the order
    the walk found them."""
    from ._fanout import fan_out  # see its module docstring

    groups: dict[int, list[str]] = {}  # size -> paths of that size
    trees = []  # per root: (module, size, index in its group) of each file
    for root in roots:
        files: list[tuple[str, int | None, int]] = []
        for entry, parts in python_files(root):
            try:
                size = entry.stat().st_size
            except OSError:  # skipped and counted, as a file that cannot be read
                files.append(("", None, 0))
                continue
            group = groups.setdefault(size, [])
            files.append((_module_name(parts), size, len(group)))
            group.append(entry.path)
        trees.append(files)
    order = sorted(groups, reverse=True)
    local_names = dict(zip(order, fan_out(_group_definitions, [groups[size] for size in order])))

    scans = []
    for files in trees:
        names: set[str] = set()
        parsed = skipped = 0
        for module, size, index in files:
            local = None if size is None else local_names[size][index]
            if local is None:
                skipped += 1
                continue
            parsed += 1
            names.update(map(f"{module}.".__add__, local) if module else local)
        scans.append((frozenset(names), parsed, skipped))
    return scans


def _module_name(parts: tuple[str, ...]) -> str:
    """The dotted module of the .py file at parts below a tree's root:
    pkg/a.py is "pkg.a", pkg/__init__.py "pkg", a root __init__.py ""."""
    *package, name = parts
    stem = name.removesuffix(".py") or name  # ".py" is its own stem, as for pathlib
    if stem != "__init__":
        package.append(stem)
    return ".".join(package)


def _group_definitions(paths: Sequence[str]) -> list[frozenset[str] | None]:
    """The public local definition names (no terminal segment starting with
    an underscore) of the bytes at each of paths, read once each; None for a
    file that cannot be read or does not parse.  Each distinct content is
    parsed once.  The bytes go to definition_names undecoded, whose parser
    reads them as the interpreter reads a module (see syntax's docstring)."""
    by_content: dict[bytes, frozenset[str] | None] = {}
    results = []
    for path in paths:
        try:
            data = Path(path).read_bytes()
        except OSError:
            results.append(None)
            continue
        if data not in by_content:
            local = definition_names(data)
            if local is not None:
                local = frozenset(n for n in local if not n.rpartition(".")[2].startswith("_"))
            by_content[data] = local
        results.append(by_content[data])
    return results


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
    are scanned in one pass, as scan_api_definitions scans one: each file is
    read once and each distinct file content parsed once, on every usable
    core (see _scan_trees).
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
