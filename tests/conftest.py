import sys
import tracemalloc
from pathlib import Path

import pytest

from dflow import tensor

# make oracles.py importable regardless of how pytest is invoked
sys.path.insert(0, str(Path(__file__).parent))


def _traced_memory(fn, *args):
    """(held, peak) bytes that tracemalloc sees over ``fn(*args)``: held is
    what is still allocated when it returns, its result included, and peak
    the most allocated at any moment during the call."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn(*args)  # noqa: F841 - alive while held is read
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return held - base, peak - base


@pytest.fixture
def traced_memory():
    """The shared traced-memory helper: ``held, peak = traced_memory(fn, *args)``."""
    return _traced_memory


@pytest.fixture
def no_pool(monkeypatch):
    """Take the branch pool away for the test, so ``tensor._run_all`` runs
    every call on the calling thread; returns the pool it took away."""
    pool = tensor._POOL
    monkeypatch.setattr(tensor, "_POOL", None)
    return pool
