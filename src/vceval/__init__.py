"""Evaluation toolkit for version-controllable code generation.

Scores model outputs with exact-match, identifier/prefix-match, and
critical-diff-check metrics under unbiased @k estimation, and builds
benchmark instances via API lifecycle diffing, multi-granularity masking,
migration pairing, and corpus filtering.

The root exports the four names of the README's library quick start; every
other name is imported from the module that defines it.
"""

from .harness import ingest, run_scoring
from .metrics import cdc_check, estimate_at_k

__version__ = "0.1.0"

__all__ = ["cdc_check", "estimate_at_k", "ingest", "run_scoring"]
