"""Output oracles, written independently of the toolkit.

Each check adds one value to a ``Tally``.  A disagreement that matches a
documented known defect is counted as wrong *and* as known, so it stays in
``wrong_output_ratio``; the run is marked incorrect only by disagreements no
known defect explains.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path

STATIC_METRICS = ("em", "ism", "pm", "cdc")


@dataclass
class Tally:
    checked: int = 0
    wrong: int = 0
    known: int = 0  # wrong values explained by a documented known defect
    examples: list[str] = field(default_factory=list)

    def expect(self, ok: bool, what: str, known_defect: bool = False) -> None:
        self.checked += 1
        if ok:
            return
        self.wrong += 1
        if known_defect:
            self.known += 1
        elif len(self.examples) < 5:
            self.examples.append(what)

    def add(self, other: "Tally") -> None:
        self.checked += other.checked
        self.wrong += other.wrong
        self.known += other.known
        self.examples.extend(other.examples[: 5 - len(self.examples)])

    @property
    def unexplained(self) -> int:
        return self.wrong - self.known


def indented_multiline(reference: str) -> bool:
    """The known indented-block defect: a multi-line span whose first line is
    indented loses that indent in normalization, so the critical-diff check
    cannot dedent it and judges a sample equal to its reference invalid."""
    lines = reference.splitlines()
    return len(lines) > 1 and lines[0][:1] in (" ", "\t")


def reports_identical(jobs) -> bool:
    """Every job of one seed wrote the same bytes to every output."""
    return len({json.dumps(job["hashes"], sort_keys=True) for job in jobs}) == 1


def read_per_instance(path: Path) -> dict[tuple[str, str], dict]:
    rows = {}
    with path.open(encoding="utf-8") as handle:
        for line in handle:
            row = json.loads(line)
            rows[(row["instance_id"], row["metric"])] = row
    return rows


def em_at_k(n: int, correct: int, k: int) -> float:
    return 1.0 - math.comb(n - correct, k) / math.comb(n, k)


def check_token_em(tally: Tally, rows, plants: dict[str, list[str]], em_of: dict[str, int], ks) -> None:
    """em counts follow from the planted answers; em@k is recomputed here."""
    for iid, kinds in plants.items():
        row = rows.get((iid, "em"))
        if row is None:
            tally.expect(False, f"{iid}: no em row")
            continue
        correct = sum(em_of[k] for k in kinds)
        tally.expect(row["correct_count"] == correct, f"{iid}: em correct_count {row['correct_count']} != {correct}")
        for k in ks:
            got = row["at_k"].get(str(k))
            want = em_at_k(len(kinds), correct, k)
            tally.expect(
                got is not None and math.isclose(got, want, rel_tol=0, abs_tol=1e-12),
                f"{iid}: em@{k} {got} != {want}",
            )


def check_reference_equal(tally: Tally, rows, equal: dict[str, list[int]], references: dict[str, str]) -> None:
    """Every sample equal to its reference scores 1 on every static metric."""
    for iid, indexes in equal.items():
        for metric in STATIC_METRICS:
            row = rows.get((iid, metric))
            for j in indexes:
                ok = row is not None and row["per_sample"][j] == 1.0
                known = metric == "cdc" and indented_multiline(references[iid])
                tally.expect(ok, f"{iid}: {metric} of the reference-equal sample {j} is not 1", known)


def _tags_at(records, prefixes, version) -> list[tuple[str, str]]:
    return [
        (r["api"], r["tags"][version])
        for r in records
        if version in r["tags"] and any(r["api"] == p or r["api"].startswith(p + ".") for p in prefixes)
    ]


def check_lifecycle(report: Path, versions: list[str]) -> Tally:
    """Removals known from the Python release history: the last version
    before each removal must be tagged deprecation."""
    payload = json.loads(report.read_text(encoding="utf-8"))
    records = payload["records"]
    tally = Tally()
    tally.expect(payload["versions"] == versions, f"versions {payload['versions']} != {versions}")
    facts = (
        (("asyncio.coroutines.coroutine",), "3.10"),  # gone in 3.11
        (("imp", "asyncore", "distutils"), "3.11"),  # gone in 3.12
        (("cgi",), "3.12"),  # gone in 3.13
    )
    for prefixes, version in facts:
        for prefix in prefixes:
            tagged = _tags_at(records, (prefix,), version)
            tally.expect(bool(tagged), f"no {prefix} names present at {version}")
            for api, tag in tagged:
                tally.expect(tag == "deprecation", f"{api} at {version} tagged {tag}")
    return tally


def filter_verdict(data: bytes) -> tuple[bool, list[str]]:
    """The four documented corpus rules plus the decode rule."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        return False, ["decode_error"]
    text = text.replace("\r\n", "\n").replace("\r", "\n")  # as text-mode reading does
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    reasons = []
    if lines:
        if sum(map(len, lines)) / len(lines) > 100:
            reasons.append("avg_line_length")
        if max(map(len, lines)) > 1000:
            reasons.append("max_line_length")
    body = text.replace("\n", "")
    if body and sum(ch.isalpha() for ch in body) / len(body) < 0.25:
        reasons.append("alphabetic_ratio")
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            compile(text, "<corpus file>", "exec", dont_inherit=True)
    except (SyntaxError, ValueError):
        reasons.append("syntax_error")
    return not reasons, reasons


def check_filter(verdicts: Path, tree: Path) -> Tally:
    tally = Tally()
    rows = [json.loads(line) for line in verdicts.read_text(encoding="utf-8").splitlines()]
    expected = sorted(p.relative_to(tree).as_posix() for p in tree.rglob("*.py"))
    tally.expect([row["path"] for row in rows] == expected, "verdict paths differ from the tree's .py files")
    for row in rows:
        keep, reasons = filter_verdict((tree / row["path"]).read_bytes())
        tally.expect(
            (row["keep"], row["reasons"]) == (keep, reasons),
            f"{row['path']}: {row['keep']} {row['reasons']} != {keep} {reasons}",
        )
    return tally
