"""The package's public surface, pinned: adding or removing a public name
means editing this list, so the change shows in review; and the README's
library quick start, which uses those names, runs as written.  Also pinned:
which module spells how Python source is read, which modules a cold start
of the CLI does not load, that syntax depends on no other module of the
package but errors, and that the test helpers import without pytest."""

import ast
import json
import re
import subprocess
import sys
from pathlib import Path

import vceval
from vceval.harness import AggregateRow
from vceval.metrics import RuleResult

from helpers import write_score_inputs

ROOT = Path(__file__).resolve().parents[1]

PUBLIC_NAMES = ["cdc_check", "estimate_at_k", "ingest", "run_scoring"]


def test_public_names_are_unique_and_resolve():
    assert len(vceval.__all__) == len(set(vceval.__all__))
    for name in vceval.__all__:
        assert getattr(vceval, name) is not None, name


def test_public_names_are_pinned():
    assert sorted(vceval.__all__) == PUBLIC_NAMES


def quick_start_block() -> str:
    """The first python block under the README's "Quick start (library)"."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Quick start (library)\n", 1)[1].split("\n## ", 1)[0]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_library_quick_start_runs_as_its_comments_say(tmp_path, monkeypatch):
    write_score_inputs(tmp_path, count=8)  # 6 samples each, as ks=[1, 3] needs
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    shown = []  # the value of each bare expression, whose comment says what it is
    for statement in ast.parse(quick_start_block()).body:
        if isinstance(statement, ast.Expr):
            expression = compile(ast.Expression(statement.value), "README.md", "eval")
            shown.append(eval(expression, namespace))
        else:
            exec(compile(ast.Module([statement], type_ignores=[]), "README.md", "exec"), namespace)
    at_1, at_3, rule3, rule5, overall, span_overall, aggregates, first_rows = shown
    assert (at_1, at_3) == (0.5, 0.95)
    assert (rule3, rule5, overall) == (RuleResult.FAIL, RuleResult.FAIL, False)
    assert span_overall is True
    assert isinstance(aggregates, tuple) and aggregates
    assert all(isinstance(row, AggregateRow) for row in aggregates)
    assert isinstance(first_rows, str) and first_rows.endswith("\n")
    rows = [json.loads(line) for line in first_rows.splitlines()]
    assert [row["metric"] for row in rows] == ["em", "cdc"]
    assert {row["instance_id"] for row in rows} == {"inst-000"}


def test_only_syntax_spells_how_source_is_read():
    # How a .py file decodes and where its lines end is syntax.py's to say,
    # so no other module writes a CR escape or the BOM-dropping codec.
    modules = sorted((ROOT / "src" / "vceval").glob("*.py"))
    assert "syntax.py" in [path.name for path in modules]
    spelled = re.compile(r"\\r|utf[-_]?8[-_]sig", re.IGNORECASE)
    offenders = [
        f"{path.name}:{lineno}: {line.strip()}"
        for path in modules
        if path.name != "syntax.py"
        for lineno, line in enumerate(path.read_text(encoding="utf-8").split("\n"), start=1)
        if spelled.search(line)
    ]
    assert offenders == []


def test_cold_start_loads_no_dataclasses_or_inspect():
    # Every run of the CLI pays for its import.  The records are named
    # tuples, so no module generates dataclass methods or loads inspect,
    # which dataclasses imports along with dis.  symtable is imported by
    # lifecycle alone, when it reads definitions.
    code = (
        f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import vceval.cli; "
        "print(sorted({'dataclasses', 'inspect', 'dis', 'symtable'} & sys.modules.keys()))"
    )
    run = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True)
    assert (run.returncode, run.stderr, run.stdout) == (0, "", "[]\n")


def test_syntax_imports_no_module_of_the_package_but_errors():
    # core_model judges its records with syntax, so syntax may not import
    # it back.  The package's own __init__, which imports the whole
    # toolkit, is replaced by an empty package so that only what syntax
    # imports is loaded.
    code = (
        "import sys, types; package = types.ModuleType('vceval'); "
        f"package.__path__ = [{str(ROOT / 'src' / 'vceval')!r}]; "
        "sys.modules['vceval'] = package; import vceval.syntax; "
        "print(sorted(name for name in sys.modules if name.startswith('vceval.')))"
    )
    run = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True)
    assert (run.returncode, run.stderr, run.stdout) == (
        0, "", "['vceval.errors', 'vceval.syntax']\n"
    )


def test_the_test_helpers_import_without_pytest():
    # A bare install of the package has no pytest, and writes its inputs
    # with helpers
    paths = [str(ROOT / "tests"), str(ROOT / "src")]
    code = f"import sys; sys.path[:0] = {paths!r}; import helpers; print('pytest' in sys.modules)"
    run = subprocess.run([sys.executable, "-S", "-E", "-c", code], capture_output=True, text=True)
    assert (run.returncode, run.stderr, run.stdout) == (0, "", "False\n")
