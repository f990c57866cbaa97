"""Syntax facade over subject Python source.

Structural facts (call sites, with-statements) come from the stdlib ast
parser, which is the full grammar of the subject language; definition names
come from the code objects that compiling the text yields.  The
identifier stream comes from a lexical scanner that skips string literals
and comments, so it works on unparseable text too; f-string interiors count
as string content.  Identifiers are Unicode (a letter or underscore, then
word characters) and hard keywords are dropped from the stream.

Facts and identifier streams are memoized by text in bounded per-process
caches.  Scoring takes each distinct sample text once per metric, yet asks
about the reference (each line of a block's) once per such text, and lexes a
text for em, ism and cdc alike: without the identifier memo, scoring a seeded
block input took 20% longer (2-vCPU guest, Python 3.11.7).
"""

from __future__ import annotations

import ast
import functools
import keyword
import re
import warnings
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from types import CodeType
from typing import TypeVar

from .core_model import IDENTIFIER_RE
from .errors import InvalidArgs

_T = TypeVar("_T")

_STRING_PREFIX = r"[rRbBuUfF]{0,3}"

# Unterminated strings are consumed to end of line (single quotes) or end of
# input (triple quotes) so their contents stay out of the identifier stream
# whenever the opening boundary is recognizable.  A line ends at LF, CRLF or
# CR, as Python ends one.
_LEX_RE = re.compile(
    r"(?P<comment>\#[^\r\n]*)"
    r"|(?P<string>" + _STRING_PREFIX + r"(?:"
    r"'''(?:[^'\\]|\\.|'(?!''))*(?:'''|\Z)"
    r'|"""(?:[^"\\]|\\.|"(?!""))*(?:"""|\Z)'
    r"|'(?:[^'\\\r\n]|\\\r\n|\\.)*(?:'|(?=[\r\n])|\Z)"
    r'|"(?:[^"\\\r\n]|\\\r\n|\\.)*(?:"|(?=[\r\n])|\Z)'
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


# Scoring revisits a text only within one instance (its reference, the
# reference lines, a sample across metrics), so the memos hold a few
# instances' worth of texts.
_FACTS_CACHE_SIZE = 64
_NAMES_CACHE_SIZE = 256


@functools.lru_cache(maxsize=_NAMES_CACHE_SIZE)
def _identifier_names(code: str) -> tuple[str, ...]:
    return tuple(name for name, _, _ in identifier_spans(code))


def identifier_tokens(code: str) -> list[str]:
    """Identifier tokens in source order; strings and comments contribute none."""
    return list(_identifier_names(code))


def _compiled(build: Callable[[], _T]) -> _T | None:
    """build()'s result, or None when the subject code that build compiles is invalid.

    Compiler warnings about the subject code (SyntaxWarning; before 3.12,
    DeprecationWarning for invalid escapes) are silenced so that a "-W
    error" filter cannot turn them into failures and none reach stderr.
    catch_warnings swaps the process-wide filter list, which is safe only
    because nothing parses on another thread: filter, lifecycle and score's
    critical-diff check compile in forked worker processes (_fanout), each
    with its own filter list.  Both callers compile with dont_inherit=True,
    so that this module's own __future__ imports do not change what the
    subject code may contain.
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


def _compile(code: str) -> CodeType | None:
    # Compiled from the text, so no syntax tree is built.  optimize=0 keeps
    # the subject's "if __debug__:" blocks under "python -O", whose level
    # compile() would otherwise inherit.
    return _compiled(
        lambda: compile(code, "<subject>", "exec", dont_inherit=True, optimize=0)
    )


def _parse_module(code: str) -> ast.Module | None:
    # ast.parse alone accepts contextually invalid statements (e.g. a
    # module-level return); compiling the tree applies the remaining checks.
    def parse() -> ast.Module:
        tree = ast.parse(code)
        compile(tree, "<subject>", "exec", dont_inherit=True, optimize=0)
        return tree

    return _compiled(parse)


def check_syntax(code: str) -> bool:
    """True iff the text compiles as a complete module under the full grammar."""
    return _compile(code) is not None


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


# co_flags bits that every function body has and a class body lacks
# (inspect.CO_OPTIMIZED, inspect.CO_NEWLOCALS); inspect itself is not
# imported, since every command would pay for its import.
_FUNCTION_FLAGS = 0x1 | 0x2

# 3.12+ compiles a generic "def f[T]" or "class C[T]" inside a scope of this
# name; its child "f" is the definition, while its other children are the
# lazily evaluated bounds of the type parameters, named "T", "U", ...
_GENERIC_SCOPE = "<generic parameters of "


def _definitions(body: CodeType) -> Iterator[CodeType]:
    """Code objects of the named definitions compiled into one body."""
    for const in body.co_consts:
        if not isinstance(const, CodeType):
            continue
        name = const.co_name
        if name.startswith(_GENERIC_SCOPE):
            inner = name[len(_GENERIC_SCOPE):-1]
            yield from (
                child
                for child in const.co_consts
                if isinstance(child, CodeType) and child.co_name == inner
            )
        elif not name.startswith("<"):  # not <lambda>, <genexpr>, <listcomp>, ...
            yield const


def definition_names(code: str) -> frozenset[str] | None:
    """Local names of the definitions in a module's text; None when the
    text does not compile.

    Counted are the functions and classes defined in the module body and
    the functions defined in each such class body, as "Class.method",
    including those under if/elif/else, try/except/else/finally, with, for,
    while and match blocks, since each compiles into its enclosing body.
    Nested classes, lambdas and comprehensions are not counted.  On 3.12+ a
    generic "def f[T]" counts as "f" (not "T"), "type X = ..." counts as
    the definition "X", and a definition that the compiler drops as
    unreachable (under "if False:") is not counted.  The text is compiled
    once and no syntax tree is built.
    """
    module = _compile(code)
    if module is None:
        return None
    names: set[str] = set()
    for definition in _definitions(module):
        names.add(definition.co_name)
        if definition.co_flags & _FUNCTION_FLAGS:
            continue
        # a class body: its functions are its methods
        names.update(
            f"{definition.co_name}.{member.co_name}"
            for member in _definitions(definition)
            if member.co_flags & _FUNCTION_FLAGS
        )
    return frozenset(names)


@functools.lru_cache(maxsize=_FACTS_CACHE_SIZE)
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
