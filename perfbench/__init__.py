"""Seeded benchmark of the vceval CLI; run it with ``python3 perfbench/run.py``."""
