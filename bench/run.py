#!/usr/bin/env python3
"""Run one dflow benchmark workload and print its metrics.

    python3 bench/run.py --workload desk-train --seed 1 --seconds 15 --trace 0

Workloads: desk-train, base-block-train, desk-infer (see bench/README.md).
With ``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` every other operation runs under span wrappers and the last
line holds the per-layer metrics plus the tracing overhead. Before it, the
run prints a table and one ``{"bench_detail": ...}`` line with every figure's
median, quartiles and sample count and the conditions of the run;
``bench/compare.py`` reads those lines. Scratch files go to ``.bench_work/``
and span dumps to ``.bench_out/`` at the root of the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import sys
import tempfile
from pathlib import Path

from stats import percentile90, quartiles, rate_summary, single, summary
from tracing import Tracer, summarize

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("desk-train", "base-block-train", "desk-infer")
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# name -> (unit, better); must match BENCHMARK.json
END_TO_END = {
    "op_ms": ("ms", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

LAYER_METRICS = {
    "tensor.conv2d_fwd_ms": ("ms", "lower"),
    "tensor.conv2d_calls": ("count", "lower"),
    "tensor.conv2d_gflop": ("GFLOP", "lower"),
    "tensor.conv2d_gflops": ("GFLOP/s", "higher"),
    "tensor.conv3d_fwd_ms": ("ms", "lower"),
    "tensor.elementwise_fwd_ms": ("ms", "lower"),
    "tensor.elementwise_calls": ("count", "lower"),
    "tensor.backward_ms": ("ms", "lower"),
    "tensor.tape_records": ("count", "lower"),
    "recurrent.flow_a.layer1_ms": ("ms", "lower"),
    "recurrent.flow_a.layer2_ms": ("ms", "lower"),
    "recurrent.flow_b.layer1_ms": ("ms", "lower"),
    "recurrent.flow_b.layer2_ms": ("ms", "lower"),
    "recurrent.shortcut_ms": ("ms", "lower"),
    "network.forward_ms": ("ms", "lower"),
    "network.decoder_ms": ("ms", "lower"),
    "color.render_ms": ("ms", "lower"),
    "losses.bce_ms": ("ms", "lower"),
    "losses.focal_ms": ("ms", "lower"),
    "losses.dice_ms": ("ms", "lower"),
    "losses.silhouette_ms": ("ms", "lower"),
    "baselines.mean_ms": ("ms", "lower"),
    "baselines.gaussian_ms": ("ms", "lower"),
    "baselines.dtransform_ms": ("ms", "lower"),
    "training.update_ms": ("ms", "lower"),
    "training.val_pass_ms": ("ms", "lower"),
    "training.steps_to_dice90": ("count", "lower"),
    "training.checkpoint_save_ms": ("ms", "lower"),
    "training.checkpoint_load_ms": ("ms", "lower"),
    "training.checkpoint_bytes": ("bytes", "lower"),
    "data.synth_s": ("s", "lower"),
    "data.load_windows_s": ("s", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}


def _per(x, n):
    return x / n if n else 0.0


def layer_metrics(spans, counters, rec):
    """Per-layer values from a traced run's spans.

    ``tensor.*`` times are self times, module times inclusive. Forward-path
    figures are per window forwarded (one ``network.forward`` span),
    ``backward`` and ``update`` per optimiser step, scoring figures per call
    (one call per scored window), the rest per call.
    """
    rows = summarize(spans)

    def pick(key, *names):
        return sum(rows[name][key] for name in names if name in rows)

    def prefixed(key, prefix):
        return sum(row[key] for name, row in rows.items() if name.startswith(prefix))

    def count(name):
        return pick("count", name)

    n_fwd, n_steps = count("network.forward"), count("training.step")

    def per_fwd_ms(key, *names):
        return _per(pick(key, *names) * 1e3, n_fwd)

    def per_call(name, scale=1e3):
        return _per(pick("total_s", name) * scale, count(name))

    blocks = ("recurrent.flow_a.block", "recurrent.flow_b.block")
    stacks = ("recurrent.flow_a.stack", "recurrent.flow_b.stack")
    flop = counters["tensor.conv2d_flop"]
    traced, untraced = rec.traced_scaled_ms, rec.op_scaled_ms
    overhead = (quartiles(traced)[1] / quartiles(untraced)[1] - 1.0) * 100.0 \
        if traced and untraced else 0.0
    values = {
        "tensor.conv2d_fwd_ms": per_fwd_ms("self_s", "tensor.conv2d"),
        "tensor.conv2d_calls": _per(count("tensor.conv2d"), n_fwd),
        "tensor.conv2d_gflop": _per(flop / 1e9, n_fwd),
        "tensor.conv2d_gflops": _per(flop / 1e9, pick("self_s", "tensor.conv2d")),
        "tensor.conv3d_fwd_ms": per_fwd_ms("self_s", "tensor.conv3d"),
        "tensor.elementwise_fwd_ms": _per(prefixed("self_s", "tensor.elementwise.") * 1e3, n_fwd),
        "tensor.elementwise_calls": _per(prefixed("count", "tensor.elementwise."), n_fwd),
        "tensor.backward_ms": _per(pick("self_s", "tensor.backward") * 1e3, n_steps),
        "tensor.tape_records": _per(counters["tensor.tape_records"],
                                    n_steps * rec.scalars.get("batch_size", 1)),
        "recurrent.shortcut_ms": per_fwd_ms("total_s", *blocks) - per_fwd_ms("total_s", *stacks),
        "network.forward_ms": per_fwd_ms("total_s", "network.forward"),
        "network.decoder_ms": per_fwd_ms("total_s", "network.decoder"),
        "color.render_ms": per_fwd_ms("total_s", "color.render"),
        "losses.bce_ms": per_fwd_ms("total_s", "losses.bce"),
        "losses.focal_ms": per_fwd_ms("total_s", "losses.focal"),
        "losses.dice_ms": per_call("losses.dice"),
        "losses.silhouette_ms": per_call("losses.silhouette"),
        "baselines.mean_ms": per_call("baselines.mean"),
        "baselines.gaussian_ms": per_call("baselines.gaussian"),
        "baselines.dtransform_ms": per_call("baselines.dtransform"),
        "training.update_ms": _per(pick("self_s", "training.step") * 1e3, n_steps),
        "training.val_pass_ms": per_call("training.val_pass"),
        "training.steps_to_dice90": rec.scalars.get("steps_to_dice90", 0),
        "training.checkpoint_save_ms": per_call("training.checkpoint_save"),
        "training.checkpoint_load_ms": per_call("training.checkpoint_load"),
        "training.checkpoint_bytes": rec.scalars.get("checkpoint_bytes", 0),
        "data.synth_s": per_call("data.synth", scale=1.0),
        "data.load_windows_s": per_call("data.load_windows", scale=1.0),
        "trace.overhead_pct": overhead,
    }
    for flow in ("flow_a", "flow_b"):
        for layer in ("layer1", "layer2"):
            name = f"recurrent.{flow}.{layer}"
            values[f"{name}_ms"] = per_fwd_ms("total_s", name)
    return {name: values[name] for name in LAYER_METRICS}


def figures(workload, rec, peak_rss_mb, reference_ms):
    """Every end-to-end figure of the run, named as in bench/README.md."""
    ops = rec.op_ms
    setup_speed = quartiles(rec.setup_probe_ms)[1] / reference_ms
    out = {
        "op_ms": summary(rec.op_scaled_ms, "ms", "lower"),
        "setup_s": summary([s / setup_speed for s in rec.setup_s], "s", "lower"),
        "peak_rss_mb": single(peak_rss_mb, "MB", "lower"),
        "op_wall_ms": summary(ops, "ms", "lower"),
        "setup_wall_s": summary(rec.setup_s, "s", "lower"),
        "probe_ms": summary(rec.probe_ms, "ms", "lower"),
    }
    if workload == "desk-infer":
        predict = rec.timings["predict_ms"]
        out["infer_windows_per_s"] = rate_summary(predict)
        out["infer_window_ms_p90"] = single(percentile90(predict), "ms", "lower", len(predict))
        out["score_windows_per_s"] = rate_summary(rec.timings["score_ms"])
    else:
        out["train_step_ms"] = out["op_wall_ms"]
        out["train_step_ms_p90"] = single(percentile90(ops), "ms", "lower", len(ops))
    for name, unit, better in (("time_to_dice90_s", "s", "lower"),
                               ("val_dice_final", "dice", "higher"),
                               ("model_dice", "dice", "higher")):
        if name in rec.scalars:
            out[name] = single(rec.scalars[name], unit, better)
    return out


def src_facts():
    """Line count and SHA-256 of the program's sources."""
    h, lines = hashlib.sha256(), 0
    for path in sorted((ROOT / "src").rglob("*.py")):
        blob = path.read_bytes()
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + blob)
        lines += blob.count(b"\n")
    return lines, h.hexdigest()


def git_commit():
    """HEAD's commit when the checkout is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def conditions(np, rec):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    lines, digest = src_facts()
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "thread_pins": {k: os.environ.get(k) for k in THREAD_PINS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "src_sha256": digest,
        "src_lines": lines,
        "tape_records_per_window": rec.scalars.get("tape_records_per_window"),
    }


def _fmt(x):
    return f"{x:.4g}" if isinstance(x, float) else str(x)


def print_table(workload, seed, figs, layers):
    print(f"# {workload} seed {seed}")
    print(f"{'figure':<28} {'unit':<8} {'n':>5} {'median':>10} {'q1':>10} {'q3':>10} {'p90':>10}")
    for name, f in figs.items():
        print(f"{name:<28} {f['unit']:<8} {f['n']:>5} {_fmt(f['median']):>10} "
              f"{_fmt(f['q1']):>10} {_fmt(f['q3']):>10} {_fmt(f['p90']):>10}")
    for name, value in (layers or {}).items():
        print(f"{name:<28} {LAYER_METRICS[name][0]:<8} {_fmt(value):>10}")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "dflow" / "__init__.py").is_file():
        print(f"error: no dflow package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_PINS)  # before numpy loads its BLAS
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    import workloads

    tracer = Tracer() if args.trace else None
    work = ROOT / ".bench_work"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        rec = workloads.WORKLOADS[args.workload](args.seed, args.seconds, tmp, tracer)
    try:
        work.rmdir()
    except OSError:  # another run still holds files there
        pass
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    figs = figures(args.workload, rec, peak_rss_mb, workloads.SpeedProbe.REFERENCE_MS)
    layers = None
    if tracer is not None:
        layers = layer_metrics(tracer.spans, tracer.counters, rec)
        out = ROOT / ".bench_out"
        out.mkdir(exist_ok=True)
        tracer.write(out / f"spans-{args.workload}-seed{args.seed}.jsonl")
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, (unit, _) in LAYER_METRICS.items()}
    else:
        metrics = {name: {"value": figs[name]["median"], "unit": unit}
                   for name, (unit, _) in END_TO_END.items()}

    attempted = max(rec.attempted, 1)
    failed = min(len(rec.failures), attempted)  # a set-up failure counts as one
    print_table(args.workload, args.seed, figs, layers)
    for op, message in rec.failures.items():
        print(f"FAILED op {op}: {message}")
    print(json.dumps({"bench_detail": {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "figures": figs, "layers": layers,
        "scalars": rec.scalars, "failures": {str(k): v for k, v in rec.failures.items()},
        "conditions": conditions(np, rec),
    }}))
    print(json.dumps({"correct": not rec.failures, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
