"""Pytest configuration; keeps the tests directory importable for oracles.py."""

import tracemalloc

import pytest


def _heap_peak(fn, *args, **kwargs):
    """(fn(*args, **kwargs), the tracemalloc peak of that call in bytes)."""
    tracemalloc.start()
    try:
        return fn(*args, **kwargs), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def heap_peak():
    """The heap peak of one call: heap_peak(fn, *args) -> (result, peak bytes)."""
    return _heap_peak
