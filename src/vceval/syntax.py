"""Syntax facade over subject Python source.

Structural facts (call sites, with-statements, definitions) come from the
stdlib ast parser, which is the full grammar of the subject language.  The
identifier stream comes from a lexical scanner that skips string literals
and comments, so it works on unparseable text too; f-string interiors count
as string content.  Identifiers are ASCII ([A-Za-z_][A-Za-z0-9_]*) and hard
keywords are dropped from the stream.
"""

from __future__ import annotations

import ast
import keyword
import re
import warnings
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path
from typing import TypeVar

from .core_model import IDENTIFIER_RE
from .errors import InvalidArgs, IoFailure

_T = TypeVar("_T")

_STRING_PREFIX = r"[rRbBuUfF]{0,3}"

# Unterminated strings are consumed to end of line (single quotes) or end of
# input (triple quotes) so their contents stay out of the identifier stream
# whenever the opening boundary is recognizable.
_LEX_RE = re.compile(
    r"(?P<comment>\#[^\n]*)"
    r"|(?P<string>" + _STRING_PREFIX + r"(?:"
    r"'''(?:[^'\\]|\\.|'(?!''))*(?:'''|\Z)"
    r'|"""(?:[^"\\]|\\.|"(?!""))*(?:"""|\Z)'
    r"|'(?:[^'\\\n]|\\.)*(?:'|(?=\n)|\Z)"
    r'|"(?:[^"\\\n]|\\.)*(?:"|(?=\n)|\Z)'
    r"))"
    r"|(?P<name>" + IDENTIFIER_RE.pattern + r")",
    re.DOTALL,
)


def identifier_spans(code: str) -> list[tuple[str, int, int]]:
    """(name, start, end) character spans of identifier tokens, in source order."""
    spans = []
    for match in _LEX_RE.finditer(code):
        name = match.group("name")
        if name is not None and not keyword.iskeyword(name):
            spans.append((name, match.start(), match.end()))
    return spans


def identifier_tokens(code: str) -> list[str]:
    """Identifier tokens in source order; strings and comments contribute none."""
    return [name for name, _, _ in identifier_spans(code)]


def _compiled(build: Callable[[], _T]) -> _T | None:
    """build()'s result, or None when the subject code that build compiles is invalid.

    Compiler warnings about the subject code (SyntaxWarning; before 3.12,
    DeprecationWarning for invalid escapes) are silenced so that a "-W
    error" filter cannot turn them into failures and none reach stderr.
    catch_warnings swaps the process-wide filter list, which is safe only
    because nothing parses on another thread.  Both callers compile with
    dont_inherit=True, so that this module's own __future__ imports do not
    change what the subject code may contain.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return build()
    # The 3.10+ parser raises a bare MemoryError ("too complex to parse") on
    # deeply nested input such as "-" * 10000 + "1", and the ast module a
    # RecursionError on a tree too deep to build or compile.
    except (SyntaxError, ValueError, RecursionError, MemoryError):
        return None


def _parse_module(code: str) -> ast.Module | None:
    # ast.parse alone accepts contextually invalid statements (e.g. a
    # module-level return); compiling the tree applies the remaining checks.
    def parse() -> ast.Module:
        tree = ast.parse(code)
        compile(tree, "<subject>", "exec", dont_inherit=True)
        return tree

    return _compiled(parse)


def check_syntax(code: str) -> bool:
    """True iff the text compiles as a complete module under the full grammar."""
    # compiled from the text, so no syntax tree is built
    return _compiled(lambda: compile(code, "<subject>", "exec", dont_inherit=True)) is not None


@dataclass(frozen=True)
class CallSiteInfo:
    """Syntactic facts about one function call.

    callee_name is the terminal identifier of the called expression ("dump"
    for json.dump); positional, keyword, and star arguments each count once.
    """

    callee_name: str
    total_arg_count: int
    keyword_names: frozenset[str]
    line_index: int


@dataclass(frozen=True)
class CodeFacts:
    is_valid: bool
    call_sites: tuple[CallSiteInfo, ...]
    has_with: bool


def _callee_name(func: ast.expr) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _definition_names(tree: ast.Module) -> set[str]:
    # module-level functions and classes; methods one level down as Class.method
    names: set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(node.name)
        elif isinstance(node, ast.ClassDef):
            names.add(node.name)
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names.add(f"{node.name}.{item.name}")
    return names


def extract_facts(code: str) -> CodeFacts:
    """Structural facts when the text parses; is_valid False and no facts otherwise."""
    tree = _parse_module(code)
    if tree is None:
        return CodeFacts(False, (), False)

    sites: list[CallSiteInfo] = []
    saw_with = False
    # ast.walk is iterative, so no tree that parsed is too deep to visit;
    # call sites come in breadth-first order
    for node in ast.walk(tree):
        if isinstance(node, (ast.With, ast.AsyncWith)):
            saw_with = True
        elif isinstance(node, ast.Call):
            callee = _callee_name(node.func)
            if callee is not None:
                sites.append(
                    CallSiteInfo(
                        callee_name=callee,
                        total_arg_count=len(node.args) + len(node.keywords),
                        keyword_names=frozenset(
                            kw.arg for kw in node.keywords if kw.arg is not None
                        ),
                        line_index=node.lineno - 1,
                    )
                )
    return CodeFacts(True, tuple(sites), saw_with)


def contains_core_token(code: str, token: str) -> bool:
    """True iff token occurs as a whole identifier in the lexical stream of code.

    Occurrences inside longer identifiers, string literals, or comments do
    not count; unparseable code is judged via the lexical fallback.
    """
    if not IDENTIFIER_RE.fullmatch(token):
        raise InvalidArgs(f"core token {token!r} is not a single identifier")
    return token in identifier_tokens(code)


@dataclass(frozen=True)
class DefinitionScan:
    names: frozenset[str]
    parsed_files: int
    skipped_files: int


def scan_api_definitions(
    tree_root: str | Path, *, memo: dict[bytes, frozenset[str] | None] | None = None
) -> DefinitionScan:
    """Collect public qualified definition names from every .py file under tree_root.

    Files that cannot be decoded or parsed are skipped and counted.  Names
    whose terminal segment starts with an underscore are excluded; a file
    pkg/a.py defining f contributes "pkg.a.f", and __init__.py maps to its
    package.

    memo maps a digest of a file's bytes to that file's local definition
    names (None for a skipped file), and a file whose bytes are already in
    it is not parsed again.  Scans of several versions that share one memo
    parse each distinct file content once; without one, the memo lasts for
    this call.
    """
    # hashlib.blake2b is _blake2.blake2b on CPython 3.10-3.13, but importing
    # it through hashlib also loads OpenSSL's _hashlib: ~3 ms and ~4 MB of
    # resident memory.  Imported here, so that no other command loads it.
    from _blake2 import blake2b

    root = Path(tree_root)
    if not root.is_dir():
        raise IoFailure(f"not a readable directory: {root}")
    if memo is None:
        memo = {}
    names: set[str] = set()
    parsed = skipped = 0
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
            memo[key] = _file_definitions(data)
        local = memo[key]
        if local is None:
            skipped += 1
            continue
        parsed += 1
        module = _module_name(path.relative_to(root))
        for name in local:
            qualified = f"{module}.{name}" if module else name
            if not qualified.rsplit(".", 1)[-1].startswith("_"):
                names.add(qualified)
    return DefinitionScan(frozenset(names), parsed, skipped)


def _file_definitions(data: bytes) -> frozenset[str] | None:
    """Local definition names of one file's bytes; None when they are not
    UTF-8 or do not parse and compile.  A leading byte-order mark is dropped,
    as Python's own import does."""
    try:
        source = data.decode("utf-8-sig")
    except UnicodeDecodeError:
        return None
    # the universal-newline translation of a text-mode read
    tree = _parse_module(source.replace("\r\n", "\n").replace("\r", "\n"))
    return None if tree is None else frozenset(_definition_names(tree))


def _module_name(relative: Path) -> str:
    parts = list(relative.with_suffix("").parts)
    if parts and parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)
