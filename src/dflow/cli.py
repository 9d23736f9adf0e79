"""Command-line entry point.

Subcommands: synth, train, infer, eval, baseline, params, gradcheck, ablate.
A JSON config file (``--config``) supplies defaults, explicit flags override
it, and the fully resolved configuration is echoed into the output directory
for provenance. Exit codes: 0 success, 1 flag/config validation error,
2 runtime failure. All messages go to stderr; results go to files (and JSON
on stdout for ``eval``/``params``).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import baselines, data, network, recurrent, training
from .color import ColorImage, extract_y, rgb_to_yuv

__all__ = ["main"]

ABLATION_CONFIGS = ["rgb", "hsv", "yuv", "rgb+yuv", "rgb+hsv", "hsv+yuv", "rgb+y"]


class CliError(Exception):
    """Validation failure (bad flags, bad config): exit code 1."""


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        self.flags = {}  # dest -> action, checked against --config values
        super().__init__(*args, **kwargs)

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        self.flags[action.dest] = action
        return action

    def error(self, message):
        raise CliError(message)


def _build_parser():
    parser = _Parser(prog="dflow", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, out_required=True):
        p.set_defaults(flags=p.flags)
        p.add_argument("--config", help="JSON file with default flag values")
        p.add_argument("--out", required=out_required, help="output directory")

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    common(p)
    p.add_argument("--seed", type=int)
    p.add_argument("--train", type=int, help="number of training sequences")
    p.add_argument("--val", type=int, help="number of validation sequences")
    p.add_argument("--test", type=int, help="number of test sequences")
    p.add_argument("--frames", type=int, help="frames per sequence")
    p.add_argument("--width", type=int)
    p.add_argument("--height", type=int)
    p.add_argument("--noise", type=float, help="Gaussian pixel noise sigma")
    p.add_argument("--drift", type=float, help="brightness drift amplitude")
    p.add_argument("--distractors", type=int, help="flickering patches per frame")
    p.add_argument("--flicker", type=float, help="distractor visibility rate")

    p = sub.add_parser("train", help="train a model on a dataset")
    common(p)
    p.add_argument("--seed", type=int)
    p.add_argument("--dataset", required=True, help="dataset root or manifest path")
    p.add_argument("--k", type=int, help="history frames before the current one")
    p.add_argument("--channels", type=int, help="feature maps per flow")
    p.add_argument("--colors", help="one colour space per flow, e.g. rgb+yuv or yuv")
    p.add_argument("--loss", choices=["bce", "focal"])
    p.add_argument("--steps", type=int,
                   help="total step budget (default 500; on resume, the checkpoint's)")
    p.add_argument("--lr", type=float)
    p.add_argument("--preset", choices=sorted(network.PRESET_CHANNELS))
    p.add_argument("--use-block", action="store_true", default=None,
                   help="residual blocks instead of plain stacks")
    p.add_argument("--checkpoint",
                   help="resume from this checkpoint; its model, k and training "
                        "settings are kept")

    p = sub.add_parser("infer", help="write probability maps for a split")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--split", choices=data.SPLITS)

    p = sub.add_parser("eval", help="dice/silhouette metrics for a split")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--split", choices=data.SPLITS)

    p = sub.add_parser("baseline", help="run a handcrafted method over frames")
    p.add_argument("method", choices=["mean", "gaussian", "dtransform"])
    common(p)
    p.add_argument("--dataset", required=True)
    p.add_argument("--window", type=int)
    p.add_argument("--offset-c", type=float, dest="offset_c")
    p.add_argument("--sigma", type=float)
    p.add_argument("--dt-fraction", type=float, dest="dt_fraction")

    p = sub.add_parser("params", help="parameter-count formulas vs constructed sizes")
    common(p, out_required=False)
    p.add_argument("--m", type=int, help="conv kernel size")
    p.add_argument("--gamma", type=int, help="input channels")
    p.add_argument("--kappa", type=int, help="feature maps")
    p.add_argument("--n", type=int, help="output channels")
    p.add_argument("--f", type=int, help="3d conv kernel size")

    p = sub.add_parser("gradcheck", help="finite-difference check of the backward pass")
    common(p, out_required=False)
    p.add_argument("--seed", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--channels", type=int)
    p.add_argument("--size", type=int, help="spatial side of the test frames")
    p.add_argument("--loss", choices=["bce", "focal"])
    p.add_argument("--tolerance", type=float)

    p = sub.add_parser("ablate", help="run the seven colour-space configurations")
    common(p)
    p.add_argument("--seed", type=int)
    p.add_argument("--dataset", required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--channels", type=int)
    p.add_argument("--preset", choices=sorted(network.PRESET_CHANNELS))
    p.add_argument("--loss", choices=["bce", "focal"])
    p.add_argument("--steps", type=int)
    p.add_argument("--lr", type=float)
    return parser


def _check_config_value(key, value, action):
    """A --config value must have the type its flag parses to (a bool is not
    an int, an int is a valid float, null is never valid) and be one of the
    flag's choices."""
    if action.nargs == 0:
        ok, kind = isinstance(value, bool), "true or false"
    elif action.type is int:
        ok, kind = isinstance(value, int) and not isinstance(value, bool), "an integer"
    elif action.type is float:
        ok, kind = isinstance(value, (int, float)) and not isinstance(value, bool), "a number"
    else:
        ok, kind = isinstance(value, str), "a string"
    if not ok:
        raise CliError(f"config key {key!r} must be {kind}, got {json.dumps(value)}")
    if action.choices is not None and value not in action.choices:
        raise CliError(f"config key {key!r} must be one of {sorted(action.choices)}, "
                       f"got {json.dumps(value)}")


def _resolve(args, defaults):
    """defaults <- config file <- explicit flags; unknown config keys and
    values their flag would not accept are rejected."""
    cfg = dict(defaults)
    config_path = getattr(args, "config", None)
    if config_path:
        try:
            overlay = json.loads(Path(config_path).read_text())
        except FileNotFoundError:
            raise CliError(f"config file not found: {config_path}")
        except json.JSONDecodeError as exc:
            raise CliError(f"config file does not parse: {exc}")
        if not isinstance(overlay, dict):
            raise CliError(f"config file {config_path} is not a JSON object")
        unknown = set(overlay) - set(cfg)
        if unknown:
            raise CliError(f"unknown config keys: {sorted(unknown)}")
        for key, value in overlay.items():
            _check_config_value(key, value, args.flags[key])
        cfg.update(overlay)
    for key in cfg:
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = value
    return cfg


def _echo_config(cfg, out_dir):
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    echoed = {k: v for k, v in cfg.items() if k != "out"}
    (out_dir / "resolved_config.json").write_text(
        json.dumps(echoed, indent=2, sort_keys=True) + "\n")
    return out_dir


def _parse_colors(colors):
    """Flow colour spaces from ``colors``: one part per flow, at most two."""
    parts = colors.split("+")
    if any(part not in network.SPACE_CHANNELS for part in parts):
        raise CliError(f"unknown colour space in {colors!r} "
                       f"(choose from {sorted(network.SPACE_CHANNELS)})")
    if len(parts) > 2:
        raise CliError(f"at most two flows, like rgb+yuv; got {colors!r}")
    return parts[0], parts[1] if len(parts) == 2 else None


def _model_channels(cfg):
    if cfg.get("preset"):
        return network.PRESET_CHANNELS[cfg["preset"]]
    return cfg["channels"]


def _load_dataset(path, k):
    manifest = data.load_manifest(path)
    return data.load_split_windows(manifest, k)


# --- subcommands ---------------------------------------------------------------


def _cmd_synth(args):
    cfg = _resolve(args, {
        "seed": 0, "train": 20, "val": 4, "test": 0, "frames": 8,
        "width": 32, "height": 32, "noise": 0.02, "drift": 0.1,
        "distractors": 2, "flicker": 0.5, "out": args.out,
    })
    out_dir = _echo_config(cfg, cfg["out"])
    params = data.SynthSceneParams(
        width=cfg["width"], height=cfg["height"], seed=cfg["seed"],
        brightness_drift=cfg["drift"], distractor_count=cfg["distractors"],
        flicker_rate=cfg["flicker"], noise_level=cfg["noise"])
    splits = (["train"] * cfg["train"] + ["val"] * cfg["val"] + ["test"] * cfg["test"])
    manifest = data.synth_generate(params, len(splits), cfg["frames"], out_dir, splits)
    print(f"wrote {len(manifest.sources)} sequences under {out_dir}", file=sys.stderr)
    return 0


def _train_one(dataset, model_config, train_config, build_seed):
    model = network.build_dflow(model_config, seed=build_seed)
    return training.train(model, dataset, train_config)


def _cmd_train(args):
    cfg = _resolve(args, {
        "seed": 0, "k": 4, "channels": 40, "colors": "rgb+yuv",
        "loss": "bce", "steps": None, "lr": 1e-3, "preset": None, "use_block": None,
        "dataset": args.dataset, "out": args.out, "checkpoint": None,
    })
    run = training.load_checkpoint(cfg["checkpoint"]) if cfg["checkpoint"] else None
    if cfg["steps"] is None:
        cfg["steps"] = 500 if run is None else run.config.steps
    if run is not None and cfg["steps"] < run.step:
        raise CliError(f"steps {cfg['steps']} is below the checkpoint's step {run.step}")
    out_dir = _echo_config(cfg, cfg["out"])
    if run is not None:
        run.config = dataclasses.replace(run.config, steps=cfg["steps"])
        run = training.resume(run, _load_dataset(cfg["dataset"], run.model.config.k))
    else:
        dataset = _load_dataset(cfg["dataset"], cfg["k"])
        flow_a, flow_b = _parse_colors(cfg["colors"])
        model_config = network.DFlowConfig(
            flow_a_space=flow_a, flow_b_space=flow_b,
            channels=_model_channels(cfg), k=cfg["k"],
            use_block=bool(cfg["use_block"]))
        train_config = training.TrainConfig(
            loss=cfg["loss"], lr=cfg["lr"], steps=cfg["steps"], seed=cfg["seed"])
        run = _train_one(dataset, model_config, train_config, cfg["seed"])
    training.save_checkpoint(run, out_dir / "checkpoint.dflw")
    training.write_curve_csv(run.curve, out_dir / "curve.csv")
    print(f"trained {run.step} steps; model has {run.model.n_params()} parameters; "
          f"artifacts in {out_dir}", file=sys.stderr)
    return 0


def _cmd_infer(args):
    cfg = _resolve(args, {
        "split": "val",
        "checkpoint": args.checkpoint, "dataset": args.dataset, "out": args.out,
    })
    out_dir = _echo_config(cfg, cfg["out"])
    run = training.load_checkpoint(cfg["checkpoint"])
    dataset = _load_dataset(cfg["dataset"], run.model.config.k)
    windows = dataset[cfg["split"]]
    if not windows:
        raise CliError(f"split {cfg['split']!r} is empty")
    for seq in windows:
        probs = run.model.predict(seq.frames)
        stem = f"{seq.source_id}_{seq.frame_indices[-1]:05d}"
        data.write_pgm16(out_dir / f"prob_{stem}.pgm", probs)
        data.write_pgm(out_dir / f"mask_{stem}.pgm", (probs > 0.5).astype(np.float64))
    print(f"wrote {len(windows)} probability/mask pairs to {out_dir}", file=sys.stderr)
    return 0


def _cmd_eval(args):
    cfg = _resolve(args, {
        "split": "val",
        "checkpoint": args.checkpoint, "dataset": args.dataset, "out": args.out,
    })
    out_dir = _echo_config(cfg, cfg["out"])
    run = training.load_checkpoint(cfg["checkpoint"])
    dataset = _load_dataset(cfg["dataset"], run.model.config.k)
    report = training.evaluate(run.model, dataset, cfg["split"])
    doc = {"dice": report.mean_dice, "silhouette": report.mean_silhouette,
           "n_windows": report.n_windows}
    text = json.dumps(doc, indent=2, sort_keys=True)
    (out_dir / "metrics.json").write_text(text + "\n")
    print(text)
    return 0


def _cmd_baseline(args):
    cfg = _resolve(args, {
        "window": 11, "offset_c": 2.0 / 255.0, "sigma": None,
        "dt_fraction": 0.5, "dataset": args.dataset, "out": args.out,
    })
    out_dir = _echo_config(cfg, cfg["out"])
    params = baselines.ThresholdParams(
        window=cfg["window"], c=cfg["offset_c"],
        gaussian_sigma=cfg["sigma"], dt_fraction=cfg["dt_fraction"])
    method = {
        "mean": baselines.adaptive_threshold_mean,
        "gaussian": baselines.adaptive_threshold_gaussian,
        "dtransform": baselines.distance_transform_threshold,
    }[args.method]
    manifest = data.load_manifest(cfg["dataset"])
    count = 0
    for src in manifest.sources:
        for rel in src.frames:
            img = ColorImage(data.read_ppm(manifest.root / rel), "rgb")
            gray = extract_y(rgb_to_yuv(img))
            mask = method(gray, params)
            data.write_pgm(out_dir / f"{args.method}_{Path(rel).stem}_{src.id}.pgm", mask)
            count += 1
    print(f"wrote {count} masks to {out_dir}", file=sys.stderr)
    return 0


def _cmd_params(args):
    cfg = _resolve(args, {
        "m": 3, "gamma": 3, "kappa": 40, "n": 40, "f": 3, "out": args.out,
    })
    hp = recurrent.UnitHyperparams(m=cfg["m"], gamma=cfg["gamma"], kappa=cfg["kappa"],
                                   n=cfg["n"], f=cfg["f"])
    counts = {kind: recurrent.param_count(kind, hp)
              for kind in ("convlstm2", "mgu_block", "mgu_stack2")}
    reduction = 1.0 - counts["mgu_block"] / counts["convlstm2"]

    rng = np.random.default_rng(0)
    cell = recurrent.ConvMguCell(hp.gamma, hp.n, hp.m, rng)
    stack = recurrent.ConvMguStack2(hp.gamma, hp.n, hp.m, rng)
    block = recurrent.ConvMguBlock(hp.gamma, hp.n, hp.m, hp.f, rng)
    doc = {
        "formula": {**counts, "block_vs_convlstm2_reduction": reduction},
        "constructed": {
            "cell": recurrent.count_actual_params(cell),
            "stack2": recurrent.count_actual_params(stack),
            "block": recurrent.count_actual_params(block),
        },
    }
    text = json.dumps(doc, indent=2, sort_keys=True)
    if getattr(args, "out", None):
        out_dir = _echo_config(cfg, args.out)
        (out_dir / "params.json").write_text(text + "\n")
    print(text)
    return 0


def _cmd_gradcheck(args):
    cfg = _resolve(args, {
        "seed": 0, "k": 2, "channels": 2, "size": 6, "loss": "bce",
        "tolerance": 1e-4, "out": args.out,
    })
    model = network.build_dflow(
        network.DFlowConfig(channels=cfg["channels"], k=cfg["k"]), seed=cfg["seed"])
    rng = np.random.default_rng(cfg["seed"])
    side = cfg["size"]
    frames = [ColorImage(rng.uniform(0.0, 1.0, size=(3, side, side)), "rgb")
              for _ in range(cfg["k"] + 1)]
    label = (rng.uniform(size=(1, side, side)) > 0.5).astype(np.float64)
    sample = data.FrameSequence(frames=frames, label=label)
    report = training.gradcheck(model, sample, loss=cfg["loss"],
                                tolerance=cfg["tolerance"])
    print(report)
    return 0 if report.passed else 2


def _cmd_ablate(args):
    cfg = _resolve(args, {
        "seed": 0, "k": 4, "channels": 16, "preset": None, "loss": "bce",
        "steps": 200, "lr": 1e-3, "dataset": args.dataset, "out": args.out,
    })
    out_dir = _echo_config(cfg, cfg["out"])
    dataset = _load_dataset(cfg["dataset"], cfg["k"])
    train_config = training.TrainConfig(
        loss=cfg["loss"], lr=cfg["lr"], steps=cfg["steps"], seed=cfg["seed"])
    for name in ABLATION_CONFIGS:
        flow_a, flow_b = _parse_colors(name)
        model_config = network.DFlowConfig(
            flow_a_space=flow_a, flow_b_space=flow_b,
            channels=_model_channels(cfg), k=cfg["k"])
        run = _train_one(dataset, model_config, train_config, cfg["seed"])
        training.write_curve_csv(run.curve, out_dir / f"{name}.csv")
        print(f"{name}: final train loss {run.curve[-1].train_loss:.4f}",
              file=sys.stderr)
    return 0


_COMMANDS = {
    "synth": _cmd_synth,
    "train": _cmd_train,
    "infer": _cmd_infer,
    "eval": _cmd_eval,
    "baseline": _cmd_baseline,
    "params": _cmd_params,
    "gradcheck": _cmd_gradcheck,
    "ablate": _cmd_ablate,
}


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, training.DivergenceError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
