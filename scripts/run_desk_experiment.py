#!/usr/bin/env python3
"""End-to-end desk-scale experiment: synthesise data, train the dual-flow
model, evaluate it, and run the handcrafted baselines on the same frames.

Usage: python3 scripts/run_desk_experiment.py [workdir] [--steps N] [--seed S]
"""

import argparse
import json
import sys
from pathlib import Path

from dflow.cli import main as dflow


def run(argv):
    print("$ dflow " + " ".join(argv), file=sys.stderr)
    rc = dflow(argv)
    if rc != 0:
        sys.exit(rc)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("workdir", nargs="?", default="desk_experiment")
    ap.add_argument("--steps", type=int, default=600)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    work = Path(args.workdir)
    dataset = work / "dataset"
    seed = str(args.seed)

    run(["synth", "--out", str(dataset), "--seed", seed])
    run(["train", "--dataset", str(dataset), "--out", str(work / "run"),
         "--seed", seed, "--channels", "16", "--steps", str(args.steps)])
    run(["eval", "--checkpoint", str(work / "run" / "checkpoint.dflw"),
         "--dataset", str(dataset), "--out", str(work / "eval"),
         "--split", "val"])
    run(["infer", "--checkpoint", str(work / "run" / "checkpoint.dflw"),
         "--dataset", str(dataset), "--out", str(work / "infer"),
         "--split", "val"])
    for method in ("mean", "gaussian", "dtransform"):
        run(["baseline", method, "--dataset", str(dataset),
             "--out", str(work / f"baseline_{method}")])

    metrics = json.loads((work / "eval" / "metrics.json").read_text())
    print(f"\nvalidation dice {metrics['dice']:.4f}, "
          f"silhouette {metrics['silhouette']:.4f} "
          f"over {metrics['n_windows']} windows")
    print(f"artifacts under {work.resolve()}")


if __name__ == "__main__":
    main()
