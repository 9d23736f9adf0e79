#!/usr/bin/env python3
"""Compare benchmark results of a parent commit and a change.

    python3 bench/compare.py PARENT_RESULTS CHANGE_RESULTS

Each file holds the concatenated stdout of ``bench/run.py`` runs, any
workloads, in the order they ran. Run i of a workload on one side is paired
with run i of the same workload on the other; make the runs alternately
(parent, change, change, parent, ...) so that drift hits both sides.

One row per workload and metric: each side's median and quartiles over its
runs, the share of pairs the change won (ties count for neither) and a
verdict:

- ``improved``: the change won at least 9/10 of the pairs and the medians
  differ, in the better direction, by more than the parent's quartile spread;
- ``unresolved``: the spread of either side, as a share of its median, is
  wider than the metric's bound, and not every change run beats every
  parent run;
- ``regressed``: the change's median is worse than the parent's by more than
  the bound (a share of the parent's median);
- ``within bound`` otherwise. Figures without a bound in BENCHMARK.json
  are never ``regressed``; they read ``no bound`` instead.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from stats import quartiles

ROOT = Path(__file__).resolve().parent.parent


def parse_runs(text):
    """[(workload, failed, {metric: value}, {figure: better})] for every
    complete run in ``text``."""
    runs, detail = [], None
    for line in text.splitlines():
        if not line.startswith("{"):
            continue
        doc = json.loads(line)
        if "bench_detail" in doc:
            detail = doc["bench_detail"]
        elif "metrics" in doc and detail is not None:
            figures = detail["figures"]
            values = {name: fig["median"] for name, fig in figures.items()}
            values.update({name: m["value"] for name, m in doc["metrics"].items()})
            betters = {name: fig["better"] for name, fig in figures.items()}
            runs.append((detail["workload"], doc["failed"], values, betters))
            detail = None
    return runs


def verdict(parent, change, better, bound):
    """(share of pairs won, verdict) for one metric's per-run values."""
    sign = 1.0 if better == "lower" else -1.0
    pairs = list(zip(parent, change))
    won = sum(1 for p, c in pairs if sign * (p - c) > 0) / len(pairs)
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    worse = sign * (cm - pm) / abs(pm) if pm else 0.0
    spread = max((p3 - p1) / abs(pm) if pm else 0.0, (c3 - c1) / abs(cm) if cm else 0.0)
    all_better = all(sign * (p - c) > 0 for p in parent for c in change)
    if won >= 0.9 and worse < 0 and abs(cm - pm) > p3 - p1:
        return won, "improved"
    if bound is None:
        return won, "no bound"
    if spread > bound and not all_better:
        return won, "unresolved"
    if worse > bound:
        return won, "regressed"
    return won, "within bound"


def _fmt(values):
    q1, med, q3 = quartiles(values)
    return f"{med:.4g} [{q1:.4g}, {q3:.4g}]"


def compare(parent_text, change_text, spec):
    """Report lines comparing two result files under BENCHMARK.json ``spec``."""
    metas = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    parent, change = parse_runs(parent_text), parse_runs(change_text)
    lines = [f"{'workload':<18} {'metric':<28} {'parent median [q1, q3]':<30} "
             f"{'change median [q1, q3]':<30} {'won':>5}  verdict"]
    for workload in dict.fromkeys(r[0] for r in parent):
        p_runs = [r for r in parent if r[0] == workload]
        c_runs = [r for r in change if r[0] == workload]
        n = min(len(p_runs), len(c_runs))
        if n == 0:
            continue
        p_runs, c_runs = p_runs[:n], c_runs[:n]
        lines.append(f"{workload:<18} {'failed ops':<28} {sum(r[1] for r in p_runs):<30} "
                     f"{sum(r[1] for r in c_runs):<30} {n:>5}  pairs")
        for name in p_runs[0][2]:
            if not all(name in r[2] for r in p_runs + c_runs):
                continue
            p_vals = [r[2][name] for r in p_runs]
            c_vals = [r[2][name] for r in c_runs]
            meta = metas.get(name, {})
            better = meta.get("better") or p_runs[0][3][name]
            won, word = verdict(p_vals, c_vals, better, meta.get("bound"))
            lines.append(f"{workload:<18} {name:<28} {_fmt(p_vals):<30} {_fmt(c_vals):<30} "
                         f"{won:>5.0%}  {word}")
    return lines


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    texts = [Path(a).read_text() for a in args]
    print("\n".join(compare(texts[0], texts[1], spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
