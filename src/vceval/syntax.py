"""Syntax facade over subject Python source.

Structural facts (call sites, with-statements) come from the stdlib ast
parser, which is the full grammar of the subject language; definition names
come from the symbol table that the parser and scope analysis build, with
no syntax tree objects or bytecode.  The identifier stream comes from a
lexical scanner that skips string literals and comments, so it works on
unparseable text too; f-string interiors count as string content.
Identifiers are Unicode (a letter or underscore, then word characters) and
hard keywords are dropped from the stream.  Every module reads source by
Python's rules, spelled here once: a line ends at LF, CRLF or CR, and a .py
file that must become text (filter's) decodes as tokenize decodes it.
lifecycle hands a file's bytes to the symbol table instead, whose parser
decodes them as compile() does, also by PEP 263, but accepts two files that
tokenize refuses: a line 1 that is not UTF-8 above a line-2 coding
declaration, and CR-only line ends before the declaration; filter gives
those decode_error.  Both find a tree's .py files with python_files.

Facts and identifier streams are memoized by text alone in bounded
per-process caches.  Scoring takes each distinct sample text once per
metric, yet asks about the reference (each line of a block's) once per such
text, and lexes a text for em, ism and cdc alike: without the identifier
memo, scoring a seeded block input took 20% longer (2-vCPU guest, Python
3.11.7).  cdc parses the program that a sample completes, and the line and
block instances masked from one snippet complete to the same program: a
facts key that also held the span's lines parsed 1,520 programs of that
input instead of 1,400.
"""

from __future__ import annotations

import ast
import functools
import io
import keyword
import os
import re
# loaded already on 3.10-3.12, where logging imports traceback, which
# imports linecache, which imports it; 3.13's linecache does not
import tokenize
import warnings
from collections.abc import Callable, Iterator
from typing import TYPE_CHECKING, NamedTuple, TypeVar

from .errors import InvalidArgs

if TYPE_CHECKING:
    from symtable import SymbolTable

_T = TypeVar("_T")

# Python identifiers may be non-ASCII: a letter or underscore, then word characters
IDENTIFIER_RE = re.compile(r"[^\W\d]\w*")


def universal_newlines(text: str) -> str:
    """text with its CRLF and CR line ends turned into LF, as Python reads source."""
    if "\r" not in text:  # ~1% of the cost of a replace that finds nothing
        return text
    return text.replace("\r\n", "\n").replace("\r", "\n")


def line_offsets(text: str) -> list[tuple[int, int]]:
    """(start, end) character offsets of each line of text, lines ended as
    universal_newlines ends them; end excludes the line end."""
    ends = list(re.finditer(r"\r\n|\r|\n", text))
    starts = [0] + [end.end() for end in ends]
    stops = [end.start() for end in ends] + [len(text)]
    return list(zip(starts, stops))


def decode_source(data: bytes) -> str | None:
    """A .py file's text as tokenize.detect_encoding decodes it (PEP 263: the
    declared codec, else UTF-8 less a byte-order mark), with universal
    newlines; None if tokenize refuses the file or the bytes do not decode."""
    try:
        codec, _ = tokenize.detect_encoding(io.BytesIO(data).readline)
        return universal_newlines(data.decode(codec))
    except (SyntaxError, LookupError, ValueError):  # LookupError: not a text codec
        return None


_SourceFile = tuple[os.DirEntry[str], tuple[str, ...]]  # python_files' (entry, parts)


def python_files(root: str | os.PathLike[str]) -> Iterator[_SourceFile]:
    """(entry, parts) of each .py file under root, where entry is its
    os.DirEntry and parts its path relative to root: the files of
    [p for p in sorted(Path(root).rglob("*.py")) if p.is_file()], in that
    order, from one os.scandir listing per directory.

    As rglob does, the walk keeps a symlink to a file but does not descend
    into a symlinked directory, and skips a directory it cannot list; a
    directory named x.py is descended into, not listed.  Each directory's
    entries go in name order, a subdirectory's files at its name's place,
    which is the order of the paths' parts that sorted(paths) compares.
    """
    return _python_files(root, ())


def _python_files(
    directory: str | os.PathLike[str], parts: tuple[str, ...]
) -> Iterator[_SourceFile]:
    try:
        with os.scandir(directory) as listing:
            entries = sorted(listing, key=lambda entry: entry.name)
    except OSError:
        return
    for entry in entries:
        if entry.is_dir(follow_symlinks=False):
            yield from _python_files(entry.path, (*parts, entry.name))
        elif entry.name.endswith(".py") and entry.is_file():
            yield entry, (*parts, entry.name)


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
    """build()'s result, or None when the subject code that build parses is invalid.

    Parser and compiler warnings about the subject code (SyntaxWarning;
    before 3.12, DeprecationWarning for invalid escapes) are silenced so
    that a "-W error" filter cannot turn them into failures and none reach
    stderr.  catch_warnings swaps the process-wide filter list, which is
    safe only because nothing parses on another thread: filter, lifecycle
    and score's critical-diff check parse in forked worker processes
    (_fanout), each with its own filter list.  compile() is called with
    dont_inherit=True, and symtable inherits no __future__ flags either, so
    that this module's own __future__ imports do not change what the
    subject code may contain.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return build()
    # The 3.10+ parser raises a bare MemoryError ("too complex to parse") on
    # deeply nested input such as "-" * 10000 + "1", and the ast module, the
    # symbol table and the compiler a RecursionError on a tree too deep to
    # build, analyse or compile.
    except (SyntaxError, ValueError, RecursionError, MemoryError):
        return None


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
    # Compiled from the source, so no syntax tree is built.  optimize=0 keeps
    # the subject's "if __debug__:" blocks under "python -O", whose level
    # compile() would otherwise inherit.
    compiled = _compiled(
        lambda: compile(code, "<subject>", "exec", dont_inherit=True, optimize=0)
    )
    return compiled is not None


class CallSiteInfo(NamedTuple):
    """Syntactic facts about one function call.

    callee_name is the terminal identifier of the called expression ("dump"
    for json.dump); positional, keyword, and star arguments each count once.
    """

    callee_name: str
    total_arg_count: int
    keyword_names: frozenset[str]
    line_index: int


class CodeFacts(NamedTuple):
    """with_lines holds the line_index of each with-statement's header."""

    is_valid: bool
    call_sites: tuple[CallSiteInfo, ...]
    with_lines: frozenset[int]


def _callee_name(func: ast.expr) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


# The symbol table kinds of the definitions that count: at module level,
# functions, classes and 3.12+ "type X = ..." aliases; in a class body, its
# methods and aliases.  3.13 reports a kind as a StrEnum, which equals and
# hashes as its string.
_MODULE_KINDS = frozenset({"function", "class", "type alias"})
_MEMBER_KINDS = frozenset({"function", "type alias"})

# 3.12+ puts a generic "def f[T]", "class C[T]" or "type X[T] = ..." inside a
# scope of this kind (3.12's spelling, then 3.13's) and name; the scope's
# other children are the lazily evaluated bounds of the type parameters,
# named "T", "U", ...
_GENERIC_SCOPES = frozenset({"type parameter", "type parameters"})


def _named_tables(body: SymbolTable, kinds: frozenset[str]) -> Iterator[SymbolTable]:
    """The tables of body's named definitions of these kinds."""
    for table in body.get_children():
        kind = table.get_type()
        if kind in _GENERIC_SCOPES:
            name = table.get_name()
            yield from (
                child
                for child in table.get_children()
                if child.get_name() == name and child.get_type() in kinds
            )
        # A lambda's table is named "lambda", and a comprehension's
        # ("genexpr", "listcomp", ...) holds its iterator ".0", which no
        # def's can: "def listcomp()" is a definition.  A table's name is
        # the unmangled one; body's symbol for a "__private" method is not.
        elif kind in kinds and table.get_name() != "lambda" and ".0" not in table.get_identifiers():
            yield table


def definition_names(code: str | bytes) -> frozenset[str] | None:
    """Local names of the definitions in a module's source; None when it
    does not parse or its scopes are invalid.  Bytes are decoded by the
    parser itself (PEP 263), as compile() decodes them.

    Counted are the functions and classes defined in the module body and
    the functions defined in each such class body, as "Class.method",
    including those under if/elif/else, try/except/else/finally, with, for,
    while and match blocks, and under a constant-false "if False:" branch.
    Nested classes, lambdas and comprehensions are not counted.  On 3.12+ a
    generic "def f[T]" counts as "f" (not "T"), and "type X = ..." counts as
    the definition "X".  The names come from the symbol table, which the
    parser and scope analysis build without Python tree objects or bytecode;
    so a text that only the bytecode compiler rejects, such as one with a
    module-level return or a misplaced __future__ import, has its names.
    """
    import symtable  # ~0.6 ms that only lifecycle, which calls this, pays

    module = _compiled(lambda: symtable.symtable(code, "<subject>", "exec"))
    if module is None:
        return None
    names: set[str] = set()
    for definition in _named_tables(module, _MODULE_KINDS):
        names.add(definition.get_name())
        if definition.get_type() == "class":
            names.update(
                f"{definition.get_name()}.{member.get_name()}"
                for member in _named_tables(definition, _MEMBER_KINDS)
            )
    return frozenset(names)


# Nodes that can hold no call or with-statement: names, constants, and the
# expression contexts and operators (Load(), Add(), ...)
_OPERATORS = (ast.expr_context, ast.boolop, ast.operator, ast.unaryop, ast.cmpop)
_LEAVES = frozenset({ast.Name, ast.Constant}).union(*(op.__subclasses__() for op in _OPERATORS))


@functools.lru_cache(maxsize=_FACTS_CACHE_SIZE)
def extract_facts(code: str) -> CodeFacts:
    """Structural facts when the text parses; is_valid False and no facts otherwise."""
    tree = _parse_module(code)
    if tree is None:
        return CodeFacts(False, (), frozenset())

    sites: list[CallSiteInfo] = []
    with_lines = set()
    # ast.walk's breadth-first order, from a list that grows as it is read,
    # so no tree that parsed is too deep to visit and call sites come in
    # ast.walk's order; _LEAVES are never queued, which more than halves its time
    nodes: list[ast.AST] = [tree]
    for node in nodes:
        for field in node._fields:
            child = getattr(node, field, None)
            if type(child) is list:
                nodes += [c for c in child if isinstance(c, ast.AST) and type(c) not in _LEAVES]
            elif isinstance(child, ast.AST) and type(child) not in _LEAVES:
                nodes.append(child)
        if isinstance(node, (ast.With, ast.AsyncWith)):
            with_lines.add(node.lineno - 1)
        elif isinstance(node, ast.Call):
            callee = _callee_name(node.func)
            if callee is not None:
                count = len(node.args) + len(node.keywords)
                keywords = frozenset(kw.arg for kw in node.keywords if kw.arg is not None)
                sites.append(CallSiteInfo(callee, count, keywords, node.lineno - 1))
    return CodeFacts(True, tuple(sites), frozenset(with_lines))


def contains_core_token(code: str, token: str) -> bool:
    """True iff token occurs as a whole identifier in the lexical stream of code.

    Occurrences inside longer identifiers, string literals, or comments do
    not count; unparseable code is judged via the lexical fallback.
    """
    if not IDENTIFIER_RE.fullmatch(token):
        raise InvalidArgs(f"core token {token!r} is not a single identifier")
    return token in identifier_tokens(code)
