"""Fixtures shared by the test modules."""

import logging
import sys

import pytest


class StderrHandler(logging.StreamHandler):
    """Writes to sys.stderr as it is at each write: capfd puts a new stream
    there between a test's setup and its call, and closes the old one."""

    stream = property(lambda self: sys.stderr, lambda self, value: None)


@pytest.fixture
def cli_log():
    """Warnings to stderr in the CLI's format, which pytest's own log
    handlers would otherwise keep from basicConfig."""
    handler = StderrHandler()
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    logger = logging.getLogger("vceval")
    logger.addHandler(handler)
    yield
    logger.removeHandler(handler)
