import json
import os
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vceval._fanout
import vceval.lifecycle
from vceval.cli import _lifecycle_json, main
from vceval.core_model import LifecycleTag, parse_version
from vceval.errors import EvalError, InvalidArgs, IoFailure
from vceval.lifecycle import (
    VersionSurface,
    collect_surfaces,
    extract_surface,
    scan_api_definitions,
    tag_lifecycle,
)

from helpers import (
    COMPILER_ONLY_DECLARATIONS,
    DECLARED_CODECS,
    REFUSED_DECLARATIONS,
    raises_exactly,
)

ADD = LifecycleTag.ADDITION
DEP = LifecycleTag.DEPRECATION
GEN = LifecycleTag.GENERAL


def surface(raw: str, apis) -> VersionSurface:
    return VersionSurface(parse_version(raw), frozenset(apis), parsed_files=1)


def surfaces_from_presence(presence: dict[str, list[bool]], versions: list[str]):
    return [
        surface(v, {api for api, row in presence.items() if row[i]})
        for i, v in enumerate(versions)
    ]


class TestExtractSurface:
    def test_wraps_definition_scan(self, tmp_path):
        target = tmp_path / "pkg" / "a.py"
        target.parent.mkdir()
        target.write_text("def f(): ...\n")
        result = extract_surface(parse_version("1.0"), tmp_path)
        assert result.apis == frozenset({"pkg.a.f"})
        assert result.version.raw == "1.0"
        assert result.skipped_files == 0

    def test_empty_tree(self, tmp_path):
        result = extract_surface(parse_version("1.0"), tmp_path)
        assert result.apis == frozenset()
        assert result.parsed_files == 0

    def test_unparseable_file_counted(self, tmp_path):
        (tmp_path / "ok.py").write_text("def g(): ...\n")
        (tmp_path / "broken.py").write_text("def broken(:\n")
        result = extract_surface(parse_version("1.0"), tmp_path)
        assert result.apis == frozenset({"ok.g"})
        assert result.skipped_files == 1


class TestExtractApiDefinitions:
    def test_single_function(self, tmp_path):
        target = tmp_path / "pkg" / "a.py"
        target.parent.mkdir()
        target.write_text("def f(): ...\n")
        assert scan_api_definitions(tmp_path)[0] == frozenset({"pkg.a.f"})

    def test_class_and_method(self, tmp_path):
        target = tmp_path / "pkg" / "a.py"
        target.parent.mkdir()
        target.write_text("def f(): ...\n\nclass C:\n    def m(self): ...\n")
        expected = frozenset({"pkg.a.f", "pkg.a.C", "pkg.a.C.m"})
        assert scan_api_definitions(tmp_path)[0] == expected

    def test_underscore_terminal_excluded(self, tmp_path):
        (tmp_path / "mod.py").write_text("def _helper(): ...\n")
        assert scan_api_definitions(tmp_path)[0] == frozenset()

    def test_dunder_methods_excluded(self, tmp_path):
        (tmp_path / "mod.py").write_text("class C:\n    def __init__(self): ...\n")
        assert scan_api_definitions(tmp_path)[0] == frozenset({"mod.C"})

    def test_init_file_maps_to_package(self, tmp_path):
        target = tmp_path / "pkg" / "__init__.py"
        target.parent.mkdir()
        target.write_text("def top(): ...\n")
        assert scan_api_definitions(tmp_path)[0] == frozenset({"pkg.top"})

    def test_unparseable_files_skipped_and_counted(self, tmp_path):
        (tmp_path / "good.py").write_text("def g(): ...\n")
        (tmp_path / "bad.py").write_text("def broken(:\n")
        assert scan_api_definitions(tmp_path) == (frozenset({"good.g"}), 1, 1)

    def test_unreadable_file_skipped_and_counted(self, tmp_path, monkeypatch):
        # a.py cannot be read; the scan goes on past it
        unreadable = tmp_path / "a.py"
        unreadable.write_text("def lost(): ...\n")
        (tmp_path / "b.py").write_text("def g(): ...\n")
        read_bytes = Path.read_bytes

        def failing(path):
            if path == unreadable:
                raise PermissionError(13, "Permission denied", str(path))
            return read_bytes(path)

        monkeypatch.setattr(Path, "read_bytes", failing)
        # one usable core: fan_out compiles in this process
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert scan_api_definitions(tmp_path) == (frozenset({"b.g"}), 1, 1)

    def test_deterministic(self, tmp_path):
        (tmp_path / "a.py").write_text("def one(): ...\nclass Two: ...\n")
        (tmp_path / "b.py").write_text("def three(): ...\n")
        assert scan_api_definitions(tmp_path)[0] == scan_api_definitions(tmp_path)[0]

    def test_missing_root_raises(self, tmp_path):
        with pytest.raises(IoFailure):
            scan_api_definitions(tmp_path / "nope")

    def test_relative_root_names_modules_as_an_absolute_one(self, tmp_path, monkeypatch):
        for relative in ("pkg/a.py", "pkg/__init__.py", "top.py", "a.b/c.py"):
            path = tmp_path / relative
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text("def f(): ...\n")
        expected = frozenset({"pkg.a.f", "pkg.f", "top.f", "a.b.c.f"})
        assert scan_api_definitions(tmp_path) == (expected, 4, 0)
        monkeypatch.chdir(tmp_path)
        assert scan_api_definitions(".") == (expected, 4, 0)
        monkeypatch.chdir(tmp_path / "pkg")
        assert scan_api_definitions("..") == (expected, 4, 0)


VERSIONS4 = ["1.0", "1.1", "2.0", "2.1"]


class TestTagLifecycle:
    def test_added_then_removed(self):
        # present in v2 and v3 only, final version observed without it
        surfaces = surfaces_from_presence({"g": [False, True, True, False]}, VERSIONS4)
        (record,) = tag_lifecycle(surfaces)
        assert record.start_index == 1
        assert record.end_index == 3
        assert record.per_version_tag == {"1.1": ADD, "2.0": DEP}

    def test_always_present_is_general_everywhere(self):
        surfaces = surfaces_from_presence({"f": [True, True, True, True]}, VERSIONS4)
        (record,) = tag_lifecycle(surfaces)
        assert record.end_index is None
        assert record.per_version_tag == {"1.0": GEN, "1.1": GEN, "2.0": GEN, "2.1": GEN}

    def test_present_only_in_final_version(self):
        surfaces = surfaces_from_presence({"h": [False, False, False, True]}, VERSIONS4)
        (record,) = tag_lifecycle(surfaces)
        assert record.start_index == 3
        assert record.end_index is None
        assert record.per_version_tag == {"2.1": ADD}

    def test_single_interior_version_is_deprecation(self):
        # deprecation (observed successor absence) wins over addition
        surfaces = surfaces_from_presence({"s": [False, True, False, False]}, VERSIONS4)
        (record,) = tag_lifecycle(surfaces)
        assert record.per_version_tag == {"1.1": DEP}
        assert (record.start_index, record.end_index) == (1, 2)

    def test_gap_yields_two_records(self):
        surfaces = surfaces_from_presence({"r": [True, False, True, True]}, VERSIONS4)
        first, second = tag_lifecycle(surfaces)
        assert first.per_version_tag == {"1.0": DEP}
        assert (first.start_index, first.end_index) == (0, 1)
        assert second.per_version_tag == {"2.0": ADD, "2.1": GEN}
        assert (second.start_index, second.end_index) == (2, None)

    def test_unsorted_versions_rejected(self):
        with raises_exactly(EvalError, "surfaces not strictly ascending at '2.0' -> '1.0'"):
            tag_lifecycle([surface("2.0", {"f"}), surface("1.0", {"f"})])

    def test_needs_two_surfaces(self):
        with pytest.raises(InvalidArgs):
            tag_lifecycle([surface("1.0", {"f"})])

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(2, 6).flatmap(
            lambda n: st.dictionaries(
                st.sampled_from(["a", "b", "c", "d", "e"]),
                st.lists(st.booleans(), min_size=n, max_size=n),
                min_size=1,
                max_size=5,
            )
        )
    )
    def test_round_trip_and_tag_rules(self, presence):
        n = len(next(iter(presence.values())))
        versions = [f"{i + 1}.0" for i in range(n)]
        surfaces = surfaces_from_presence(presence, versions)
        records = tag_lifecycle(surfaces)
        # the order the lifecycle command writes them in
        assert records == sorted(records, key=lambda r: (r.api, r.start_index))

        # reconstruct presence from the emitted runs
        rebuilt = {api: [False] * n for api in presence}
        tag_count = {api: 0 for api in presence}
        for record in records:
            end = record.end_index if record.end_index is not None else n
            for pos in range(record.start_index, end):
                assert not rebuilt[record.api][pos], "runs must not overlap"
                rebuilt[record.api][pos] = True
            tag_count[record.api] += len(record.per_version_tag)
        for api, row in presence.items():
            assert rebuilt[api] == row
            # exactly one tag per present (api, version) pair
            assert tag_count[api] == sum(row)

        # a deprecation always has an observed successor lacking the API
        for record in records:
            for raw, tag in record.per_version_tag.items():
                idx = versions.index(raw)
                if tag is DEP:
                    assert idx + 1 < n
                    assert not presence[record.api][idx + 1]
                if tag is ADD:
                    assert idx > 0
                    assert not presence[record.api][idx - 1]


def payload_of(surfaces, records) -> dict:
    """The lifecycle report's JSON value, as the command built it before it
    wrote its records with json.encoder.encode_basestring_ascii itself."""
    versions = [s.version.raw for s in surfaces]
    return {
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


# ascending versions whose strings sort otherwise: "3.10" < "3.9"
VERSION_POOL = ["1.0", "2.0", "3.9", "3.10", "3.11", "10.0", "10.0.1"]
# non-ASCII letters, one outside the BMP, and characters that JSON escapes
API_CHARACTERS = "aZ_.\u00e9\u043c\u4e16\U0001f600\"\\\n\x7f"


class TestReportEncoding:
    @settings(max_examples=200, deadline=None)
    @given(
        st.sets(st.sampled_from(range(len(VERSION_POOL))), min_size=2).flatmap(
            lambda picked: st.tuples(
                st.just([VERSION_POOL[i] for i in sorted(picked)]),
                st.dictionaries(
                    st.text(st.sampled_from(API_CHARACTERS), min_size=1),
                    st.lists(st.booleans(), min_size=len(picked), max_size=len(picked)),
                    max_size=6,
                ),
            )
        )
    )
    def test_written_as_json_dumps_writes_it(self, case):
        versions, presence = case
        surfaces = surfaces_from_presence(presence, versions)
        records = tag_lifecycle(surfaces)
        text = "".join(_lifecycle_json(versions, records))
        assert text == json.dumps(payload_of(surfaces, records), indent=2, sort_keys=True) + "\n"

    def test_no_records(self):
        surfaces = surfaces_from_presence({"gone": [False, False]}, ["3.9", "3.10"])
        assert tag_lifecycle(surfaces) == []
        text = "".join(_lifecycle_json(["3.9", "3.10"], []))
        assert text == '{\n  "records": [],\n  "versions": [\n    "3.9",\n    "3.10"\n  ]\n}\n'
        assert text == json.dumps(payload_of(surfaces, []), indent=2, sort_keys=True) + "\n"


class TestCollectSurfaces:
    def _make_version(self, root, name, files):
        directory = root / name / "pkg"
        directory.mkdir(parents=True)
        for filename, content in files.items():
            (directory / filename).write_text(content)

    def test_sorted_by_version_not_name(self, tmp_path):
        self._make_version(tmp_path, "1.10", {"a.py": "def f(): ...\n"})
        self._make_version(tmp_path, "1.9", {"a.py": "def f(): ...\n"})
        result = collect_surfaces(tmp_path)
        assert [s.version.raw for s in result] == ["1.9", "1.10"]

    def test_non_version_directories_skipped(self, tmp_path):
        self._make_version(tmp_path, "1.0", {"a.py": "def f(): ...\n"})
        self._make_version(tmp_path, "docs", {"a.py": "def g(): ...\n"})
        result = collect_surfaces(tmp_path)
        assert [s.version.raw for s in result] == ["1.0"]

    def test_zero_parseable_versions_dropped(self, tmp_path):
        self._make_version(tmp_path, "1.0", {"a.py": "def f(): ...\n"})
        self._make_version(tmp_path, "2.0", {"a.py": "def broken(:\n"})
        result = collect_surfaces(tmp_path)
        assert [s.version.raw for s in result] == ["1.0"]

    def test_missing_root(self, tmp_path):
        with pytest.raises(IoFailure):
            collect_surfaces(tmp_path / "nope")

    def test_two_directories_naming_one_version_stop_before_any_scan(self, tmp_path, monkeypatch):
        for version in ("1.0", "1.0.0", "2.0"):
            self._make_version(tmp_path, version, {"a.py": "def f(): ...\n"})

        def scan(roots):
            raise AssertionError("scanned")

        monkeypatch.setattr(vceval.lifecycle, "_scan_trees", scan)
        same = f"{tmp_path / '1.0'} and {tmp_path / '1.0.0'} name the same version"
        with raises_exactly(EvalError, same):
            collect_surfaces(tmp_path)

    def test_file_that_only_the_bytecode_compiler_rejects_is_parsed(self, tmp_path):
        # names come from the symbol table, which builds no bytecode: a
        # module-level return or a late __future__ import costs no file its
        # names, and a def under "if False:" counts on every Python
        files = {
            "a.py": "def f(): ...\n",
            "early.py": "def e(): ...\nreturn\n",
            "future.py": "def g(): ...\nfrom __future__ import annotations\n",
            "dead.py": "if False:\n    def d(): ...\n",
        }
        for version in ("1.0", "2.0"):
            self._make_version(tmp_path, version, files)
        for surface in collect_surfaces(tmp_path):
            assert surface.apis == frozenset({"pkg.a.f", "pkg.early.e", "pkg.future.g", "pkg.dead.d"})
            assert (surface.parsed_files, surface.skipped_files) == (4, 0)

    def test_too_deeply_nested_file_is_skipped(self, tmp_path):
        # the parser raises MemoryError on this file; it is skipped, not fatal
        deep = "def h(): ...\n" + "-" * 10000 + "1\n"
        for version in ("1.0", "2.0"):
            self._make_version(tmp_path, version, {"a.py": "def f(): ...\n", "deep.py": deep})
        for surface in collect_surfaces(tmp_path):
            assert surface.apis == frozenset({"pkg.a.f"})
            assert (surface.parsed_files, surface.skipped_files) == (1, 1)


    def test_deep_expression_file_is_parsed(self, tmp_path):
        # Python compiles this file; building its syntax tree hits the
        # recursion limit before 3.12, so it must not need one
        deep = "def h(): ...\nx = " + "-" * 1000 + "1\n"
        for version in ("1.0", "2.0"):
            self._make_version(tmp_path, version, {"a.py": "def f(): ...\n", "deep.py": deep})
        for surface in collect_surfaces(tmp_path):
            assert surface.apis == frozenset({"pkg.a.f", "pkg.deep.h"})
            assert (surface.parsed_files, surface.skipped_files) == (2, 0)

def write_versions(root, versions: dict[str, dict[str, bytes]]):
    """Lay out <root>/<version>/<relative path> files with the given bytes."""
    for version, files in versions.items():
        for relative, data in files.items():
            path = root / version / relative
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(data)


class TestParseOncePerContent:
    CODE = b"def f(): ...\n\nclass C:\n    def m(self): ...\n    def _p(self): ...\n"

    def test_same_bytes_at_two_paths_named_per_module(self, tmp_path):
        write_versions(tmp_path, {"1.0": {"a/x.py": self.CODE}, "2.0": {"b/y.py": self.CODE}})
        first, second = collect_surfaces(tmp_path)
        assert first.apis == frozenset({"a.x.f", "a.x.C", "a.x.C.m"})
        assert second.apis == frozenset({"b.y.f", "b.y.C", "b.y.C.m"})

    def test_skipped_files_count_in_every_version(self, tmp_path):
        files = {
            "ok.py": b"def g(): ...\n",
            "latin.py": "def caf\u00e9(): ...\n".encode("latin-1"),
            "broken.py": b"def broken(:\n",
        }
        write_versions(tmp_path, {v: files for v in ("1.0", "2.0", "3.0")})
        surfaces = collect_surfaces(tmp_path)
        assert [s.version.raw for s in surfaces] == ["1.0", "2.0", "3.0"]
        for surface in surfaces:
            assert surface.apis == frozenset({"ok.g"})
            assert (surface.parsed_files, surface.skipped_files) == (1, 2)

    def test_crlf_and_bom_parse(self, tmp_path):
        # CRLF line ends are translated as a text-mode read does, and a UTF-8
        # byte-order mark is dropped, as Python's own import does
        files = {
            "crlf.py": b"def f():\r\n    return 1\r\n\r\nclass K:\r\n    def m(self): ...\r\n",
            "bom.py": b"\xef\xbb\xbfdef g(): ...\n",
        }
        write_versions(tmp_path, {"1.0": files, "2.0": files})
        for surface in collect_surfaces(tmp_path):
            assert surface.apis == frozenset({"bom.g", "crlf.f", "crlf.K", "crlf.K.m"})
            assert (surface.parsed_files, surface.skipped_files) == (2, 0)

    def test_files_are_read_in_their_declared_codec(self, tmp_path):
        # the bytes go to the symbol table's parser, which decodes them as
        # compile() does and so also reads the two files that tokenize
        # refuses (filter gives them decode_error)
        files = {**DECLARED_CODECS, **REFUSED_DECLARATIONS, **COMPILER_ONLY_DECLARATIONS}
        write_versions(tmp_path, {"1.0": files, "2.0": files})
        for surface in collect_surfaces(tmp_path):
            assert surface.apis == frozenset(
                {"pkg.latin1.caf\u00e9", "pkg.koi8_r.\u043c\u0438\u0440", "pkg.shebang.f", "pkg.cr.g"}
            )
            assert (surface.parsed_files, surface.skipped_files) == (4, 2)

    def test_parses_each_distinct_content_once(self, tmp_path, monkeypatch):
        shared, changed = b"def s(): ...\n", b"def c(): ...\n"
        write_versions(
            tmp_path / "versions",
            {
                "1.0": {"pkg/s.py": shared, "pkg/c.py": changed, "pkg/bad.py": b"def (:\n"},
                "2.0": {"pkg/s.py": shared, "pkg/c.py": changed + b"def d(): ...\n"},
                "3.0": {"pkg/s.py": shared, "pkg/t.py": shared, "pkg/bad.py": b"def (:\n"},
            },
        )
        # Files may be compiled in forked workers, so each call appends one
        # line to a file that every process writes to.
        log = tmp_path / "calls.log"
        original = vceval.lifecycle.definition_names

        def counting(code):
            with open(log, "a", encoding="utf-8") as out:
                out.write(repr(code) + "\n")
            return original(code)

        monkeypatch.setattr(vceval.lifecycle, "definition_names", counting)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        surfaces = collect_surfaces(tmp_path / "versions")
        calls = log.read_text(encoding="utf-8").splitlines()
        assert sorted(calls) == sorted(
            repr(code) for code in (shared, changed, b"def (:\n", changed + b"def d(): ...\n")
        )
        assert [s.apis for s in surfaces] == [
            frozenset({"pkg.s.s", "pkg.c.c"}),
            frozenset({"pkg.s.s", "pkg.c.c", "pkg.c.d"}),
            frozenset({"pkg.s.s", "pkg.t.s"}),
        ]
        assert [(s.parsed_files, s.skipped_files) for s in surfaces] == [(2, 1), (2, 0), (2, 1)]

    def test_identical_files_in_one_tree_are_compiled_once(self, tmp_path, monkeypatch):
        write_versions(
            tmp_path,
            {"1.0": {"pkg/a.py": self.CODE, "pkg/b.py": self.CODE, "pkg/bad.py": b"def (:\n"}},
        )
        compiled = []
        original = vceval.lifecycle.definition_names

        def counting(code):
            compiled.append(code)
            return original(code)

        monkeypatch.setattr(vceval.lifecycle, "definition_names", counting)
        # one core: every file is compiled in this process, where it is counted
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert scan_api_definitions(tmp_path / "1.0") == (
            frozenset({"pkg.a.f", "pkg.a.C", "pkg.a.C.m", "pkg.b.f", "pkg.b.C", "pkg.b.C.m"}),
            2,
            1,
        )
        assert sorted(compiled) == sorted([self.CODE, b"def (:\n"])


class TestOnePass:
    """collect_surfaces scans every version in one fan_out, one item per
    file size, and each file is read once, by its worker."""

    VERSIONS = {
        version: {"pkg/a.py": b"def f(): ...\n", "pkg/b.py": f"def g{i}(): ...\n".encode()}
        for i, version in enumerate(("1.0", "2.0", "3.0"))
    }

    def test_a_run_forks_once_whatever_its_version_count(self, tmp_path, monkeypatch):
        write_versions(tmp_path, self.VERSIONS)
        calls = []
        original = vceval._fanout.fan_out

        def recording(fn, items):
            calls.append(items)
            return original(fn, items)

        monkeypatch.setattr(vceval._fanout, "fan_out", recording)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        surfaces = collect_surfaces(tmp_path)
        assert [s.apis for s in surfaces] == [
            frozenset({"pkg.a.f", f"pkg.b.g{i}"}) for i in range(3)
        ]
        # one call, with an item per size: b.py's files are a byte longer than a.py's
        assert calls == [
            [
                [str(tmp_path / version / "pkg" / name) for version in self.VERSIONS]
                for name in ("b.py", "a.py")
            ]
        ]

    def test_files_are_compiled_largest_first_ties_in_first_seen_order(self, tmp_path, monkeypatch):
        files = {
            "a.py": b"x = 1\n", "b.py": b"x = 1234\n", "c.py": b"x = 12\n", "d.py": b"y = 12\n"
        }
        write_versions(tmp_path, {"1.0": files, "2.0": {**files, "e.py": b"z = 123\n"}})
        compiled = []
        original = vceval.lifecycle.definition_names

        def recording(code):
            compiled.append(code)
            return original(code)

        monkeypatch.setattr(vceval.lifecycle, "definition_names", recording)
        # one core: every file is compiled in this process, in queue order
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        collect_surfaces(tmp_path)
        assert compiled == [b"x = 1234\n", b"z = 123\n", b"x = 12\n", b"y = 12\n", b"x = 1\n"]

    @staticmethod
    def logged_reads(monkeypatch, log, cores, fail=None):
        """Path.read_bytes appends each path it reads to log (reads may
        happen in forked workers) and raises PermissionError on fail;
        cores usable cores."""
        read_bytes = Path.read_bytes

        def logging_read(path):
            with open(log, "a", encoding="utf-8") as out:
                out.write(f"{path}\n")
            if path == fail:
                raise PermissionError(13, "Permission denied", str(path))
            return read_bytes(path)

        monkeypatch.setattr(Path, "read_bytes", logging_read)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)

    @staticmethod
    def after_the_walk(monkeypatch, action):
        """Run action when the scan calls fan_out, once every tree is walked."""
        original = vceval._fanout.fan_out

        def acting(fn, items):
            action()
            return original(fn, items)

        monkeypatch.setattr(vceval._fanout, "fan_out", acting)

    @pytest.mark.parametrize("cores", [1, 3])
    def test_the_caller_reads_no_file_and_every_file_is_read_once(
        self, tmp_path, monkeypatch, cores
    ):
        versions = tmp_path / "versions"
        write_versions(versions, self.VERSIONS)
        unique = versions / "3.0" / "pkg" / "c.py"
        unique.write_bytes(b"def only_here(): ...\n")
        log = tmp_path / "reads.log"
        log.touch()
        self.logged_reads(monkeypatch, log, cores)
        before_fork = []
        self.after_the_walk(monkeypatch, lambda: before_fork.append(log.read_text("utf-8")))
        surfaces = collect_surfaces(versions)
        assert before_fork == [""]
        assert sorted(log.read_text("utf-8").splitlines()) == sorted(
            str(path) for path in versions.rglob("*.py")
        )
        assert surfaces[2].apis == frozenset({"pkg.a.f", "pkg.b.g2", "pkg.c.only_here"})
        assert [(s.parsed_files, s.skipped_files) for s in surfaces] == [(2, 0), (2, 0), (3, 0)]

    @pytest.mark.parametrize("cores", [1, 3])
    @pytest.mark.parametrize(
        "rewrite, name",
        [
            (b"def rewritten(): ...\n", "pkg.b.rewritten"),
            # the bytes of 1.0's b.py, of the size the walk saw
            (b"def g0(): ...\n", "pkg.b.g0"),
        ],
        ids=["new-bytes", "bytes-of-1.0"],
    )
    def test_a_file_rewritten_after_the_walk_is_named_by_the_bytes_its_worker_read(
        self, tmp_path, monkeypatch, cores, rewrite, name
    ):
        write_versions(tmp_path, self.VERSIONS)
        target = tmp_path / "2.0" / "pkg" / "b.py"
        self.after_the_walk(monkeypatch, lambda: target.write_bytes(rewrite))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)
        surfaces = collect_surfaces(tmp_path)
        assert [s.apis for s in surfaces] == [
            frozenset({"pkg.a.f", "pkg.b.g0"}),
            frozenset({"pkg.a.f", name}),
            frozenset({"pkg.a.f", "pkg.b.g2"}),
        ]
        assert [(s.parsed_files, s.skipped_files) for s in surfaces] == [(2, 0)] * 3

    @pytest.mark.parametrize("cores", [1, 3])
    def test_a_file_deleted_after_the_walk_is_skipped_and_counted(
        self, tmp_path, monkeypatch, capsys, cores
    ):
        versions = tmp_path / "versions"
        write_versions(versions, self.VERSIONS)
        target = versions / "2.0" / "pkg" / "b.py"
        self.after_the_walk(monkeypatch, target.unlink)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)
        surfaces = collect_surfaces(versions)
        assert [s.apis for s in surfaces] == [
            frozenset({"pkg.a.f", "pkg.b.g0"}),
            frozenset({"pkg.a.f"}),
            frozenset({"pkg.a.f", "pkg.b.g2"}),
        ]
        assert [(s.parsed_files, s.skipped_files) for s in surfaces] == [(2, 0), (1, 1), (2, 0)]
        write_versions(versions, self.VERSIONS)
        out = tmp_path / "out.json"
        assert main(["lifecycle", "--versions-root", str(versions), "--out", str(out)]) == 0
        records = json.loads(out.read_text("utf-8"))["records"]
        assert [(r["api"], r["start_index"], r["end_index"]) for r in records] == [
            ("pkg.a.f", 0, None), ("pkg.b.g0", 0, 1), ("pkg.b.g2", 2, None)
        ]
        assert capsys.readouterr().err == f"tagged 3 lifecycle record(s) -> {out}\n"

    @pytest.mark.parametrize("cores", [1, 3])
    @pytest.mark.parametrize(
        "relative, lost",
        [("2.0/pkg/c.py", "pkg.c.only_here"), ("2.0/pkg/b.py", "pkg.b.g1")],
        ids=["unique-size", "shared-size"],
    )
    def test_a_file_whose_only_read_fails_is_skipped_and_counted(
        self, tmp_path, monkeypatch, cores, relative, lost
    ):
        versions = tmp_path / "versions"
        write_versions(versions, self.VERSIONS)
        (versions / "2.0" / "pkg" / "c.py").write_bytes(b"def only_here(): ...\n")
        unreadable = versions / relative
        log = tmp_path / "reads.log"
        self.logged_reads(monkeypatch, log, cores, fail=unreadable)
        surfaces = collect_surfaces(versions)
        # read once, by its worker
        assert log.read_text("utf-8").splitlines().count(str(unreadable)) == 1
        assert [s.apis for s in surfaces] == [
            frozenset({"pkg.a.f", "pkg.b.g0"}),
            frozenset({"pkg.a.f", "pkg.b.g1", "pkg.c.only_here"}) - {lost},
            frozenset({"pkg.a.f", "pkg.b.g2"}),
        ]
        assert [(s.parsed_files, s.skipped_files) for s in surfaces] == [(2, 0), (2, 1), (2, 0)]
