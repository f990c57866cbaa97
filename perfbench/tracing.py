"""Span tracing from outside the program.

Each layer is timed by replacing the function at the module attribute the
layer is called through (``vceval.harness.cdc_check`` is how the harness
reaches the metrics layer's ``cdc_check``) with a wrapper that records a
span.  The program itself is not edited.  Spans carry a name, start, end
and parent; a layer's self time is its span's duration minus the part of
that interval its child spans cover.  Execution is single-threaded (the CLI
runs at its default worker count), so one stack of open spans suffices.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from dataclasses import dataclass

# (layer name, module attributes the layer is called through).  The layer
# name is the defining module plus the function; the attributes are where
# the callers look the function up at call time.
LAYERS = (
    ("cli.main", ("vceval.cli.main",)),
    ("harness.ingest", ("vceval.cli.ingest",)),
    ("harness.read_jsonl", ("vceval.harness.read_jsonl",)),
    ("harness.decode_instance", ("vceval.harness.decode_instance",)),
    ("harness.run_scoring", ("vceval.cli.run_scoring",)),
    ("harness.normalize_generation", ("vceval.harness.normalize_generation",)),
    ("harness.emit_report", ("vceval.cli.emit_report",)),
    ("harness.write_score_vectors", ("vceval.harness.write_score_vectors",)),
    ("metrics.em_token", ("vceval.harness.em_token",)),
    ("metrics.em_block", ("vceval.harness.em_block",)),
    ("metrics.ism_line", ("vceval.harness.ism_line",)),
    ("metrics.pm_line", ("vceval.harness.pm_line",)),
    ("metrics.block_line_average", ("vceval.harness.block_line_average",)),
    ("metrics.cdc_check", ("vceval.harness.cdc_check",)),
    ("metrics.estimate_at_k", ("vceval.harness.estimate_at_k",)),
    ("metrics.score_at_k", ("vceval.harness.score_at_k",)),
    ("datagen.categorize_migration", ("vceval.harness.categorize_migration",)),
    ("syntax.contains_core_token", ("vceval.metrics.contains_core_token",)),
    (
        "syntax.identifier_tokens",
        ("vceval.metrics.identifier_tokens", "vceval.syntax.identifier_tokens"),
    ),
    ("syntax.extract_facts", ("vceval.metrics.extract_facts",)),
    ("syntax.check_syntax", ("vceval.datagen.check_syntax",)),
    ("syntax.scan_api_definitions", ("vceval.lifecycle.scan_api_definitions",)),
    ("datagen.mask_instance", ("vceval.datagen.mask_instance",)),
    ("datagen.build_migration_pair", ("vceval.datagen.build_migration_pair",)),
    ("datagen.filter_tree", ("vceval.cli.filter_tree",)),
    ("datagen.filter_corpus_file", ("vceval.datagen.filter_corpus_file",)),
    ("lifecycle.collect_surfaces", ("vceval.cli.collect_surfaces",)),
    ("lifecycle.extract_surface", ("vceval.lifecycle.extract_surface",)),
    ("lifecycle.tag_lifecycle", ("vceval.cli.tag_lifecycle",)),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root span


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals,
    clipped to the span itself."""
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append(span)
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(index, ()), key=lambda s: s.start):
            lo = max(child.start, cursor)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(span.end - span.start - covered)
    return out


class Counters:
    """Observations taken at layer boundaries from arguments and results, so
    the ratios are measured where the work happens.  Recording is kept
    cheap; the ratios are worked out in ``totals`` after the job."""

    def __init__(self) -> None:
        self.values: dict[str, int] = defaultdict(int)
        self.distinct: dict[str, set] = defaultdict(set)
        self.token_normalized: list[tuple[str, str]] = []

    def observe(self, layer: str, args: tuple, result, error: BaseException | None) -> None:
        if layer == "metrics.cdc_check":
            self.distinct[layer].add(tuple(args[:3]))
        elif layer == "syntax.extract_facts":
            self.distinct[layer].add(args[0])
            if error is None and result.is_valid:
                self.values["syntax.extract_facts.valid"] += 1
        elif layer == "harness.normalize_generation":
            if error is not None:
                if type(error).__name__ == "EmptyAfterNormalization":
                    self.values["harness.normalize.emptied"] += 1
            elif getattr(args[1], "value", args[1]) == "token":
                self.token_normalized.append((args[0], result))
        elif layer == "lifecycle.extract_surface" and error is None:
            self.values["lifecycle.parsed_files"] += result.parsed_files
            self.values["lifecycle.skipped_files"] += result.skipped_files

    def totals(self) -> dict[str, float]:
        out = dict(self.values)
        for layer, keys in self.distinct.items():
            out[f"{layer}.distinct"] = len(keys)
        if self.token_normalized:
            # A reduction is what the harness warns about: the token kept is
            # not the whole fence-stripped answer.
            from vceval.metrics import strip_code_fences

            out["harness.normalize.reduced"] = sum(
                1 for raw, kept in self.token_normalized
                if kept != strip_code_fences(raw).strip()
            )
        return out


class Tracer:
    """Wraps every attribute in ``layers``; ``restore`` puts the originals back.

    Attributes that no longer exist are listed in ``absent`` and skipped.
    """

    def __init__(self, layers=LAYERS) -> None:
        self.layers = layers
        self.spans: list[Span] = []
        self.counters = Counters()
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for layer, targets in self.layers:
            for target in targets:
                module_name, _, attr = target.rpartition(".")
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    self.absent.append(target)
                    continue
                original = getattr(module, attr, None)
                if not callable(original):
                    self.absent.append(target)
                    continue
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrap(layer, original))

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def _wrap(self, layer: str, original):
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = Span(layer, clock(), 0.0, stack[-1] if stack else -1)
            stack.append(len(self.spans))
            self.spans.append(span)
            result = error = None
            try:
                result = original(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                span.end = clock()
                stack.pop()
                self.counters.observe(layer, args, result, error)

        return wrapper

    def summary(self) -> dict[str, float]:
        """Per-layer calls and self time plus the boundary counters, all
        keyed by per-layer metric name."""
        out: dict[str, float] = {}
        for layer, _ in self.layers:
            out[f"{layer}.calls"] = 0
            out[f"{layer}.self_s"] = 0.0
        for span, own in zip(self.spans, self_times(self.spans)):
            out[f"{span.name}.calls"] += 1
            out[f"{span.name}.self_s"] += own
        out.update(self.counters.totals())
        return out
