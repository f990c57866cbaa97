"""Shared test utilities: independent brute-force oracles and synthetic
corpus generators."""

from __future__ import annotations

import ast
import contextlib
import json
import random
import shutil
import sys
import warnings
from itertools import combinations
from pathlib import Path

import pytest


@contextlib.contextmanager
def raises_exactly(error: type[BaseException], message: str):
    """pytest.raises for an error of exactly this class, not a subclass (the
    CLI maps EvalError's subclasses onto other exit codes), and exactly this
    message."""
    with pytest.raises(error) as caught:
        yield caught
    assert type(caught.value) is error
    assert str(caught.value) == message


def brute_force_at_k(n: int, correct: int, k: int) -> float:
    """Mean over all C(n, k) index subsets of 'subset contains a correct sample',
    with the first `correct` indexes marked correct."""
    subsets = list(combinations(range(n), k))
    hits = sum(1 for subset in subsets if any(i < correct for i in subset))
    return hits / len(subsets)


def brute_force_subset_max(scores, k: int) -> float:
    """Mean of max(scores over subset) across all C(n, k) index subsets."""
    subsets = list(combinations(range(len(scores)), k))
    return sum(max(scores[i] for i in subset) for subset in subsets) / len(subsets)


# Function-like definitions: a 3.12+ "type X = ..." compiles like "def X()".
_FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef) + (
    (ast.TypeAlias,) if sys.version_info >= (3, 12) else ()
)


def _statements(body):
    """Every statement of body and of the if/try/with/for/while/match blocks
    in it, but none inside a def or class."""
    stack = list(body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            # handlers and cases hold the except and case bodies
            for field in ("body", "orelse", "finalbody", "handlers", "cases"):
                stack.extend(getattr(node, field, ()))


def _node_name(node) -> str:
    return node.name.id if isinstance(node.name, ast.Name) else node.name  # TypeAlias: a Name


def reference_definition_names(code: str):
    """definition_names by a syntax-tree walk: parse, compile the tree, and
    collect defs and classes from the module body and defs from class bodies,
    descending into compound statements, dead "if False:" branches included.
    Unlike definition_names it gives None for a text that only the bytecode
    compiler rejects, such as one with a module-level return."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            tree = ast.parse(code)
            compile(tree, "<subject>", "exec", dont_inherit=True, optimize=0)
    except (SyntaxError, ValueError, RecursionError, MemoryError):
        return None
    names = set()
    for node in _statements(tree.body):
        if isinstance(node, ast.ClassDef):
            names.add(node.name)
            names.update(
                f"{node.name}.{_node_name(item)}"
                for item in _statements(node.body)
                if isinstance(item, _FUNCTION_NODES)
            )
        elif isinstance(node, _FUNCTION_NODES):
            names.add(_node_name(node))
    return frozenset(names)


_SUFFIXES = ("", "", "", "rc1", "a1", "b2", "dev0", "post1")


def random_version_string(rng: random.Random) -> str:
    parts = [str(rng.randint(0, 30)) for _ in range(rng.randint(1, 4))]
    suffix = rng.choice(_SUFFIXES)
    return ".".join(parts) + (f".{suffix}" if suffix else "")


def write_jsonl(path: Path, rows) -> Path:
    path.write_text("".join(json.dumps(row, sort_keys=True) + "\n" for row in rows), encoding="utf-8")
    return path


# --- synthetic snippets for masking and CDC-dominance corpora ---------------

_CALLEES = ("explode", "to_numpy", "melt", "arange", "linspace", "softmax", "stack")
_MODULES = ("df", "np", "pd", "torch", "data")
_KWARGS = ("axis", "dtype", "indent", "dim", "inplace")


def make_reference_snippet(rng: random.Random) -> tuple[str, str]:
    """(code, core_token) for a small valid snippet that calls the core token."""
    token = rng.choice(_CALLEES)
    module = rng.choice(_MODULES)
    positional = ", ".join("arg%d" % i for i in range(rng.randint(0, 2)))
    keywords = ""
    if rng.random() < 0.5:
        keywords = ", ".join(f"{kw}={rng.randint(0, 9)}" for kw in rng.sample(_KWARGS, rng.randint(1, 2)))
    args = ", ".join(part for part in (positional, keywords) if part)
    call = f"{module}.{token}({args})"
    lines = [f"import {module}"] if rng.random() < 0.7 else []
    if rng.random() < 0.3:
        lines.append(f"with open(path_{rng.randint(0, 9)}) as handle:")
        lines.append(f"    result = {call}")
    else:
        lines.append(f"result = {call}")
    if rng.random() < 0.5:
        lines.append("print(result)")
    return "\n".join(lines) + "\n", token


def perturb_generation(rng: random.Random, reference: str, token: str) -> str:
    """A randomly degraded (or intact) generation for the reference snippet."""
    kind = rng.randrange(8)
    if kind == 0:
        return reference
    if kind == 1:  # rename the core token everywhere
        return reference.replace(token, "rewritten_call")
    if kind == 2:  # break the syntax
        return reference.replace("(", "((", 1)
    if kind == 3:  # drop one argument list entirely
        return reference.replace(f"{token}(", f"{token}(extra_one, extra_two, extra_three, ", 1)
    if kind == 4:  # strip keyword arguments
        head, _, _ = reference.partition("(")
        return head + "()\n"
    if kind == 5:  # remove a with statement if present
        return "\n".join(
            line.lstrip() for line in reference.splitlines() if not line.strip().startswith("with ")
        ) + "\n"
    if kind == 6:  # token only inside a string
        return f's = "{token}"\n'
    return "something_else = 1\n"


# --- deterministic mixed-granularity corpus for end-to-end runs -------------

_SOURCES = ("library_source", "downstream_application", "stack_overflow")
_TAGS = ("addition", "deprecation", "general", None)
_DATES = ("2015-03-01", "2018-06-15", "2021-12-01", None)


def build_fixture_corpus(count: int = 50, n: int = 6) -> tuple[list[dict], list[dict]]:
    """(instance_rows, sample_rows) with a known per-sample correctness pattern:
    instance i has i % (n + 1) exactly-correct samples, the rest degraded."""
    instances, samples = [], []
    for i in range(count):
        iid = f"inst-{i:03d}"
        base = {
            "id": iid,
            "library": "pandas",
            "source_version": "1.3.5",
            "description": "demo functionality",
            "data_source": _SOURCES[i % 3],
        }
        if _TAGS[i % 4] is not None:
            base["lifecycle_tag"] = _TAGS[i % 4]
        if _DATES[i % 4] is not None:
            base["release_date"] = _DATES[i % 4]

        kind = i % 4
        if kind == 0:
            row = dict(
                base,
                task="vscc",
                granularity="token",
                masked_code="arr = df.[token-mask]()",
                reference="to_numpy",
                core_token="to_numpy",
            )
            correct, wrong = "to_numpy", "as_matrix"
        elif kind == 1:
            row = dict(
                base,
                task="vscc",
                granularity="line",
                masked_code="import pandas as pd\n[line-mask]\nprint(result)\n",
                reference="result = df.explode('A')",
                core_token="explode",
            )
            correct, wrong = "result = df.explode('A')", "value = transform(x)"
        elif kind == 2:
            row = dict(
                base,
                task="vscc",
                granularity="block",
                masked_code="import pandas as pd\n[block-mask]\nprint(result)\n",
                reference="df = pd.DataFrame(data)\nresult = df.explode('A')",
                core_token="explode",
            )
            correct = "df = pd.DataFrame(data)\nresult = df.explode('A')"
            wrong = "result = unrelated(x)\n"
        else:
            forward = (i // 4) % 2 == 0
            row = dict(
                base,
                library="torch",
                task="vacm",
                granularity="block",
                source_version="1.3.2" if forward else "2.0.0",
                target_version="2.0.0" if forward else "1.3.2",
                source_code="ctx = torch.cuda.amp.autocast()",
                reference="ctx = torch.autocast('cuda')",
                core_token="autocast",
            )
            correct, wrong = "ctx = torch.autocast('cuda')", "ctx = enable_amp()"
        instances.append(row)
        correct_count = i % (n + 1)
        samples.append(
            {"instance_id": iid, "samples": [correct if j < correct_count else wrong for j in range(n)]}
        )
    return instances, samples


def write_score_inputs(directory: Path, count: int = 40, bad_references=()) -> tuple[Path, Path]:
    """instances.jsonl and samples.jsonl in directory, from the fixture
    corpus: every token instance gets a prose sample that normalization
    reduces and one that it empties, so score logs both warnings; the line
    instances at the indexes in bad_references get a reference that does
    not parse.  The token instances come first, one after another, so that
    workers scoring them side by side would log out of input order."""
    instances, samples = build_fixture_corpus(count)
    for index, (instance, row) in enumerate(zip(instances, samples)):
        if instance["granularity"] == "token":
            row["samples"][:2] = [f"The answer is {instance['reference']} {index}", "!!!"]
        if index in bad_references:
            instance["reference"] = row["samples"][0] = "return df.explode('A')"
    instances.sort(key=lambda instance: instance["granularity"] != "token")
    return (
        write_jsonl(directory / "instances.jsonl", instances),
        write_jsonl(directory / "samples.jsonl", samples),
    )


def write_version_tree(root: Path, package: Path) -> Path:
    """A lifecycle input under root: versions 1.0 and 2.0 of the package
    directory, each beside a file with CRLF line ends, one with a byte-order
    mark, one that does not parse, one in Latin-1, one whose only definition
    sits under "if False:", one whose def a module-level return follows,
    which only the bytecode compiler rejects, and a twin.py of one size in
    both versions but other bytes, so that a worker parses two contents of
    one size; 2.0 adds a module to the package and drops its errors.py."""
    for version in ("1.0", "2.0"):
        base = root / version
        shutil.copytree(package, base / package.name, ignore=shutil.ignore_patterns("__pycache__"))
        (base / "crlf.py").write_bytes(b"def f():\r\n    return 1\r\n")
        (base / "bom.py").write_bytes(b"\xef\xbb\xbfdef g(): ...\n")
        (base / "broken.py").write_bytes(b"def broken(:\n")
        (base / "latin.py").write_bytes(b"def caf\xe9(): ...\n")
        (base / "dead.py").write_bytes(b"if False:\n    def dead(): ...\n")
        (base / "early.py").write_bytes(b"def early(): ...\nreturn\n")
        (base / "twin.py").write_bytes(f"def twin{version[0]}(): ...\n".encode())
    (root / "2.0" / package.name / "added.py").write_bytes(b"def added(): ...\n")
    (root / "2.0" / package.name / "errors.py").unlink()
    return root


def mixed_tree(modules: int = 12) -> dict[str, bytes]:
    """relative path -> bytes of a corpus for byte-identity across core
    counts: a Latin-1 file, files that do not parse, CRLF line ends,
    byte-order marks, a long line, and as many plain modules of distinct
    content as modules says."""
    return {
        "latin.py": "def caf\u00e9(): ...\n".encode("latin-1"),
        "broken.py": b"def broken(:\n",
        "crlf.py": b"def f():\r\n    return 1\r\n\r\nclass K:\r\n    def m(self): ...\r\n",
        "bom.py": b"\xef\xbb\xbfdef g(): ...\n",
        "bom_broken.py": b"\xef\xbb\xbfdef (:\n",
        "wide.py": b"x = " + b"1" * 1200 + b"\n",
        **{f"pkg/mod{i}.py": f"def api{i}(x):\n    return x + {i}\n".encode() for i in range(modules)},
    }


# relative path -> bytes of .py files that name their codec in a coding
# declaration (PEP 263), on line 1 or below a comment, and use a letter
# outside ASCII in it
DECLARED_CODECS = {
    "pkg/latin1.py": "# -*- coding: latin-1 -*-\ndef caf\u00e9(): ...\n".encode("latin-1"),
    "pkg/koi8_r.py": "#!/bin/python\n# coding: koi8-r\ndef \u043c\u0438\u0440(): ...\n".encode("koi8-r"),
}
# ... and of two whose declaration tokenize refuses: a codec other than UTF-8
# after a byte-order mark, and an unknown codec
REFUSED_DECLARATIONS = {
    "pkg/bom_latin1.py": b"\xef\xbb\xbf" + DECLARED_CODECS["pkg/latin1.py"],
    "pkg/nosuch.py": b"# coding: nosuch\ndef nosuch(): ...\n",
}
# ... and of two that compile() reads in their declared codec but tokenize
# refuses: a line 1 that is not UTF-8, and lines that end in CR alone
COMPILER_ONLY_DECLARATIONS = {
    "pkg/shebang.py": b"#!/bin/python \xe9\n# coding: latin-1\ndef f(): pass\n",
    "pkg/cr.py": b"# a\r# coding: latin-1\rx='\xe9'\rdef g(): pass\r",
}


def write_tree(root: Path, files: dict[str, bytes]) -> Path:
    for relative, data in files.items():
        path = root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
    return root
