import ctypes
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from dflow import tensor

# make oracles.py importable regardless of how pytest is invoked
sys.path.insert(0, str(Path(__file__).parent))


def _openblas_core():
    """The kernel numpy's bundled OpenBLAS chose for this CPU, or "unknown"."""
    for lib in sorted(Path(np.__file__).parent.parent.glob("numpy.libs/*openblas*")):
        try:
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return "unknown"


def _src_lines():
    """Lines of the program's sources, counted as ``wc -l src/dflow/*.py`` does."""
    src = Path(__file__).parent.parent / "src" / "dflow"
    return sum(path.read_bytes().count(b"\n") for path in src.glob("*.py"))


def _desk_window_records():
    """Tape records of one desk training window: the small preset's rgb+yuv
    model at k=4 and its BCE loss. The count does not depend on the frame
    size, so 4x4 frames stand in for 32x32 ones."""
    from dflow import color, losses, network

    model = network.build_dflow(network.DFlowConfig(
        channels=network.PRESET_CHANNELS["small"]), seed=0)
    frames = [color.ColorImage(np.full((3, 4, 4), 0.5)) for _ in range(model.config.k + 1)]
    with tensor.GradTape() as tape:
        losses.bce_loss(model.forward_window(frames), np.zeros((1, 4, 4)))
    return len(tape)


def pytest_report_header(config):
    """Name the numpy and BLAS kernel a run checked the pinned bits on, the
    usable CPUs and branch pool (with one CPU there is no pool, the pool tests
    skip and the memory and thread figures read differently), the size of
    ``src/`` and the tape records of one desk training window."""
    pool = "on" if tensor._POOL is not None else "off"
    return (f"numpy {np.__version__}, OpenBLAS core {_openblas_core()}, "
            f"{tensor._CPUS} usable CPUs, branch pool {pool}, src/ {_src_lines()} lines, "
            f"{_desk_window_records()} tape records per desk window")


def pytest_terminal_summary(terminalreporter, config):
    """-q drops the header, so a quiet run ends with its line instead."""
    if config.get_verbosity() < 0:
        terminalreporter.write_line(pytest_report_header(config))


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
