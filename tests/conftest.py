import sys
import tracemalloc
from pathlib import Path

import pytest

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
