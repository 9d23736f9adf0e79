"""Hypothesis strategies for the fuzz tests of the files the program reads:
each damages a valid file by cutting it short or flipping one byte."""

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

# the fuzz tests write each example into one function-scoped tmp_path
fuzz_settings = settings(max_examples=200, deadline=None,
                         suppress_health_check=[HealthCheck.function_scoped_fixture])


def flipped(blob, index, mask):
    """``blob`` with the byte at ``index`` XORed with ``mask``."""
    out = bytearray(blob)
    out[index] ^= mask
    return bytes(out)


def damaged(blob, index=None):
    """``blob`` truncated to a random length, or with one byte (at a position
    drawn from ``index``, by default anywhere) XORed with a non-zero mask."""
    index = st.integers(0, len(blob) - 1) if index is None else index
    return st.one_of(
        st.integers(0, len(blob) - 1).map(lambda n: blob[:n]),
        st.tuples(index, st.integers(1, 255)).map(lambda flip: flipped(blob, *flip)))
