"""Scoring: @k estimation, exact/identifier/prefix matching, the five-rule
critical-diff check, and correlation between metric series.

Every operation is a pure function of its arguments.
"""

from __future__ import annotations

import functools
import math
import operator
import re
from collections.abc import Callable, Sequence
from enum import Enum
from itertools import repeat
from typing import TYPE_CHECKING, NamedTuple

from .errors import DegenerateSeries, InvalidArgs, InvalidReference
from .syntax import contains_core_token, extract_facts, identifier_tokens, universal_newlines

if TYPE_CHECKING:
    from fractions import Fraction


def estimate_at_k(n: int, correct: int, k: int) -> float:
    """Probability that a uniformly random k-subset of n samples contains a
    correct one: 1 - C(n-correct, k) / C(n, k).

    Binomials are exact integers built multiplicatively (no factorials); the
    single final division is the only rounding step, so estimate_at_k(n, c, 1)
    is exactly c/n.
    """
    if k > n:
        raise InvalidArgs(f"k={k} exceeds sample count n={n}")
    if n < 1 or k < 1 or not 0 <= correct <= n:
        raise InvalidArgs(
            f"need 1 <= k <= n and 0 <= correct <= n, got n={n} correct={correct} k={k}"
        )
    total = math.comb(n, k)
    all_incorrect = math.comb(n - correct, k)
    return (total - all_incorrect) / total


def score_at_k(per_sample: Sequence[float], k: int) -> float:
    """Expected maximum score over a uniformly random k-subset of the samples.

    With scores sorted ascending, the i-th smallest is the subset maximum with
    probability C(i-1, k-1) / C(n, k).  On {0,1} scores this reduces exactly
    to estimate_at_k with correct = number of ones.
    """
    n = len(per_sample)
    if k > n:
        raise InvalidArgs(f"k={k} exceeds sample count n={n}")
    if n < 1 or k < 1:
        raise InvalidArgs(f"need 1 <= k <= n, got n={n} k={k}")
    # all in [0, 1]; a NaN hashes by identity, so each NaN stays in the set and fails
    distinct = set(per_sample)
    if not all(map(operator.le, repeat(0.0), distinct)) or max(distinct) > 1.0:
        raise InvalidArgs("scores must lie in [0, 1]")
    ordered = sorted(per_sample)
    try:
        # the products and the sum run in C; fsum rounds once
        weighted = math.fsum(map(operator.mul, ordered, _rank_weights(n, k)))
        return weighted / math.comb(n, k)
    except OverflowError:
        # A binomial past the float range (first at n=1050, k=n/2): the same
        # sum in exact arithmetic, rounded once.  fractions (with decimal) is
        # imported only here and in _centred, as it takes ~4 ms to load.
        from fractions import Fraction

        exact = sum(Fraction(s) * math.comb(i, k - 1) for i, s in enumerate(ordered))
        return float(exact / math.comb(n, k))


@functools.lru_cache(maxsize=32)
def _rank_weights(n: int, k: int) -> tuple[float, ...]:
    """C(i, k-1) for i in 0..n-1 as floats, which score_at_k multiplies by
    the scores; float * int rounds the int just as float() does, so the
    products are unchanged.  Raises OverflowError when one is past the float
    range, and lru_cache keeps no exception."""
    return tuple(map(float, map(math.comb, range(n), repeat(k - 1))))


_LANG_TAG_RE = re.compile(r"[A-Za-z0-9_+-]*")


def strip_code_fences(text: str) -> str:
    """Body of the first fenced code block, or the text unchanged when no fence
    exists.  A language tag on the opening fence line is dropped."""
    start = text.find("```")
    if start == -1:
        return text
    rest = text[start + 3 :]
    end = rest.find("```")
    body = rest if end == -1 else rest[:end]
    newline = body.find("\n")
    if newline != -1 and _LANG_TAG_RE.fullmatch(body[:newline].strip()):
        body = body[newline + 1 :]
    return body


def em_token(generated: str, reference: str) -> int:
    """1 iff the texts agree exactly after trimming whitespace and code fences;
    comparison is case-sensitive."""
    return int(strip_code_fences(generated).strip() == strip_code_fences(reference).strip())


def em_block(generated: str, core_token: str) -> int:
    """1 iff the targeted API identifier occurs in the generated code."""
    return int(contains_core_token(generated, core_token))


def _prefix_share(generated: Sequence[object], reference: Sequence[object]) -> float:
    """Length of the common prefix over the reference length; an empty
    reference scores 1 only against an empty generated sequence."""
    if not reference:
        return 1.0 if not generated else 0.0
    prefix = 0
    for g, r in zip(generated, reference):
        if g != r:
            break
        prefix += 1
    return prefix / len(reference)


def ism_line(generated_line: str, reference_line: str) -> float:
    """Longest common prefix of the two identifier sequences over the reference
    identifier count.  String literals contribute no identifiers; an empty
    reference sequence scores 1 only against an empty generated sequence."""
    return _prefix_share(identifier_tokens(generated_line), identifier_tokens(reference_line))


def pm_line(generated_line: str, reference_line: str) -> float:
    """Common character prefix over the reference length, both sides stripped
    of surrounding whitespace (indentation, trailing blanks, a line
    terminator); empty reference handled as in ism_line."""
    return _prefix_share(generated_line.strip(), reference_line.strip())


def significant_lines(text: str) -> list[str]:
    """Non-blank, non-comment lines, ended at LF, CRLF or CR only, as Python ends them."""
    lines = universal_newlines(text).split("\n")
    return [line for line in lines if line.strip() and not line.strip().startswith("#")]


def block_line_average(
    generated: str, reference: str, line_metric: Callable[[str, str], float]
) -> float:
    """Mean line_metric over reference significant lines paired positionally
    with generated significant lines.  Missing generated lines score 0,
    surplus generated lines are ignored; an empty reference scores 1 only
    against an empty generation."""
    ref_lines = significant_lines(reference)
    gen_lines = significant_lines(generated)
    if not ref_lines:
        return 1.0 if not gen_lines else 0.0
    # a missing generated line adds 0 to the sum
    return math.fsum(map(line_metric, gen_lines, ref_lines)) / len(ref_lines)


class RuleResult(str, Enum):
    PASS = "pass"
    FAIL = "fail"
    NOT_APPLICABLE = "not_applicable"


class CdcVerdict(NamedTuple):
    """Per-rule outcomes of the critical-diff check."""

    rule1_core_token: RuleResult
    rule2_valid: RuleResult
    rule3_arg_count: RuleResult
    rule4_with: RuleResult
    rule5_keywords: RuleResult

    @property
    def overall(self) -> bool:
        """True iff no rule failed; not_applicable counts as satisfied."""
        return RuleResult.FAIL not in self


def cdc_check(generated: str, reference: str, core_token: str) -> CdcVerdict:
    """Apply the five critical-diff rules to generated code against a reference.

    Rule 1: the core token occurs in the generated code.
    Rule 2: the generated code parses.
    Rule 3: some generated core-token call matches a reference core-token
            call's argument count (judged only when the reference calls the
            core token).
    Rule 4: a with-statement appears in the generated code when one appears in
            the reference.
    Rule 5: each reference core-token call's keyword argument names are all
            used by some generated core-token call (judged only when a
            reference core-token call uses any).
    """
    ref_facts = extract_facts(reference)
    if not ref_facts.is_valid:
        raise InvalidReference("reference code must be syntactically valid")

    ref_sites = [s for s in ref_facts.call_sites if s.callee_name == core_token]
    ref_counts = {s.total_arg_count for s in ref_sites}
    ref_keywords = [s.keyword_names for s in ref_sites if s.keyword_names]

    rule1 = RuleResult.PASS if contains_core_token(generated, core_token) else RuleResult.FAIL
    # Code that does not parse has no call sites and no with-statement, so
    # rules 3-5 fail wherever they apply.
    gen_facts = extract_facts(generated)
    rule2 = RuleResult.PASS if gen_facts.is_valid else RuleResult.FAIL
    gen_sites = [s for s in gen_facts.call_sites if s.callee_name == core_token]
    rule3 = _judge(bool(ref_sites), any(s.total_arg_count in ref_counts for s in gen_sites))
    rule4 = _judge(ref_facts.has_with, gen_facts.has_with)
    covered = all(any(g.keyword_names >= r for g in gen_sites) for r in ref_keywords)
    rule5 = _judge(bool(ref_keywords), covered)
    return CdcVerdict(rule1, rule2, rule3, rule4, rule5)


def _judge(applicable: bool, holds: bool) -> RuleResult:
    if not applicable:
        return RuleResult.NOT_APPLICABLE
    return RuleResult.PASS if holds else RuleResult.FAIL


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Sample Pearson correlation coefficient of two equal-length series.

    The sums of centred products are exact rationals and the coefficient is
    rounded once, through a correctly rounded float and square root, so the
    result has the same bits on every Python version (statistics.correlation's
    rounding changed between releases).
    """
    if len(xs) != len(ys):
        raise InvalidArgs(f"series lengths differ: {len(xs)} vs {len(ys)}")
    if len(xs) < 2:
        raise DegenerateSeries("correlation needs at least two points")
    if not all(map(math.isfinite, [*xs, *ys])):
        raise InvalidArgs("series values must be finite")
    dx = _centred(xs)
    dy = _centred(ys)
    sxy = sum(a * b for a, b in zip(dx, dy))
    sxx = sum(a * a for a in dx)
    syy = sum(b * b for b in dy)
    if not sxx or not syy:
        raise DegenerateSeries("at least one of the inputs is constant")
    r = math.sqrt(float(sxy * sxy / (sxx * syy)))
    return -r if sxy < 0 else r


def _centred(values: Sequence[float]) -> list[Fraction]:
    from fractions import Fraction  # see score_at_k

    exact = [Fraction(v) for v in values]
    mean = sum(exact) / len(exact)
    return [v - mean for v in exact]
