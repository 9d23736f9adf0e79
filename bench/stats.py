"""Order statistics shared by the runner and the compare mode.

Quartiles are those of ``statistics.quantiles(values, n=4)`` (the exclusive
method), so the spreads printed here match the ones a reader recomputes
from the per-run values.
"""

from __future__ import annotations

import statistics


def quartiles(values):
    """(q1, median, q3) of a non-empty sequence."""
    vals = list(values)
    if not vals:
        raise ValueError("no samples")
    if len(vals) == 1:
        return vals[0], vals[0], vals[0]
    q1, med, q3 = statistics.quantiles(vals, n=4)
    return q1, med, q3


def percentile90(values):
    vals = list(values)
    if len(vals) == 1:
        return vals[0]
    return statistics.quantiles(vals, n=10)[8]


def summary(values, unit, better):
    """One figure as the runner reports it: median, quartiles, p90, count."""
    q1, med, q3 = quartiles(values)
    return {"unit": unit, "better": better, "n": len(values),
            "median": med, "q1": q1, "q3": q3, "p90": percentile90(values)}


def single(value, unit, better, n=1):
    """A figure that is one number per run (n counts the samples behind it)."""
    return {"unit": unit, "better": better, "n": n,
            "median": value, "q1": value, "q3": value, "p90": value}


def rate_summary(times_ms):
    """Items per second, one sample per item (1000 / its time in ms)."""
    return summary([1000.0 / t for t in times_ms], "1/s", "higher")
