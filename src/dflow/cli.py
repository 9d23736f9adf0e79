"""Command-line entry point.

Subcommands: synth, train, infer, eval, baseline, params, gradcheck, ablate.
Each flag is declared once, with its default, in the argument parser
(``dflow <command> --help`` lists them). A JSON config file (``--config``)
replaces those defaults, explicit flags override it, and the resolved flag
values are echoed into the output directory for provenance. Numbers must be
finite; a value a library config rejects writes nothing. Exit codes: 0 success,
1 flag/config validation error, 2 runtime failure. All messages go to
stderr; results go to files (and JSON on stdout for ``eval``/``params``).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import warnings
from pathlib import Path

import numpy as np

from . import baselines, data, network, recurrent, training
from ._fields import check_value
from .color import ColorImage, extract_y, rgb_to_yuv

__all__ = ["main"]

ABLATION_CONFIGS = ["rgb", "hsv", "yuv", "rgb+yuv", "rgb+hsv", "hsv+yuv", "rgb+y"]
BASELINES = {"mean": baselines.adaptive_threshold_mean,
             "gaussian": baselines.adaptive_threshold_gaussian,
             "dtransform": baselines.distance_transform_threshold}
# a frame's output file: prefix, source id and the frame's position in its source
FRAME_FILE = "{}_{}_{:05d}.pgm"


class _CliError(Exception):
    """Validation failure (bad flags, bad config): exit code 1."""


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        self.flags = {}  # dest -> action of each option a --config file may set
        kwargs.setdefault("formatter_class", argparse.ArgumentDefaultsHelpFormatter)
        super().__init__(*args, **kwargs)

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        if action.option_strings and action.dest not in ("help", "config"):
            self.flags[action.dest] = action
        return action

    def error(self, message):
        raise _CliError(message)


def _number(text):
    """The argparse type of every float flag: a finite number."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _build_parser():
    parser = _Parser(prog="dflow", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, run, *, out_required=True):
        """``run`` handles the subcommand; --config on every subcommand, and
        --out unless out_required is None."""
        p.set_defaults(parser=p, run=run)
        p.add_argument("--config", help="JSON file with default flag values")
        if out_required is not None:
            p.add_argument("--out", required=out_required, help="output directory")

    def training_flags(p, *, channels):
        """The flags ``train`` and ``ablate`` share."""
        p.add_argument("--seed", type=int, default=0, help="weight and window-order seed")
        p.add_argument("--dataset", required=True, help="dataset root or manifest path")
        p.add_argument("--k", type=int, default=4,
                       help="history frames before the current one")
        p.add_argument("--channels", type=int, default=channels, help="feature maps per flow")
        p.add_argument("--loss", choices=["bce", "focal"], default="bce",
                       help="training loss")
        p.add_argument("--lr", type=_number, default=1e-3, help="Adam learning rate")

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    common(p, _cmd_synth)
    p.add_argument("--seed", type=int, default=0, help="scene generator seed")
    p.add_argument("--train", type=int, default=20, help="number of training sequences")
    p.add_argument("--val", type=int, default=4, help="number of validation sequences")
    p.add_argument("--test", type=int, default=0, help="number of test sequences")
    p.add_argument("--frames", type=int, default=8, help="frames per sequence")
    p.add_argument("--width", type=int, default=32, help="frame width in pixels")
    p.add_argument("--height", type=int, default=32, help="frame height in pixels")
    p.add_argument("--noise", type=_number, default=0.02, help="Gaussian pixel noise sigma")
    p.add_argument("--drift", type=_number, default=0.1, help="brightness drift amplitude")
    p.add_argument("--distractors", type=int, default=2, help="flickering patches per frame")
    p.add_argument("--flicker", type=_number, default=0.5, help="distractor visibility rate")

    p = sub.add_parser("train", help="train a model on a dataset")
    common(p, _cmd_train)
    training_flags(p, channels=40)
    p.add_argument("--colors", default="rgb+yuv",
                   help="one colour space per flow, e.g. rgb+yuv or yuv")
    p.add_argument("--steps", type=int,
                   help="total step budget; unset means 500, or on resume the checkpoint's")
    p.add_argument("--use-block", action="store_true",
                   help="residual blocks instead of plain stacks")
    p.add_argument("--checkpoint",
                   help="resume from this checkpoint; its model, k and training "
                        "settings are kept")

    for name, run, text in (("infer", _cmd_infer, "write probability maps for a split"),
                            ("eval", _cmd_eval, "dice/silhouette metrics for a split")):
        p = sub.add_parser(name, help=text)
        common(p, run)
        p.add_argument("--checkpoint", required=True, help="trained checkpoint")
        p.add_argument("--dataset", required=True, help="dataset root or manifest path")
        p.add_argument("--split", choices=data.SPLITS, default="val", help="split to run on")

    p = sub.add_parser("baseline", help="run a handcrafted method over frames")
    p.add_argument("method", choices=BASELINES)
    common(p, _cmd_baseline)
    p.add_argument("--dataset", required=True, help="dataset root or manifest path")
    p.add_argument("--window", type=int, default=11, help="odd side of the local window")
    p.add_argument("--offset-c", type=_number, dest="offset_c", default=2.0 / 255.0,
                   help="offset subtracted from the local mean")
    p.add_argument("--sigma", type=_number, help="Gaussian sigma; unset means window / 6")
    p.add_argument("--dt-fraction", type=_number, dest="dt_fraction", default=0.5,
                   help="threshold as a fraction of the largest distance")

    p = sub.add_parser("params", help="parameter-count formulas vs constructed sizes")
    common(p, _cmd_params, out_required=False)
    p.add_argument("--m", type=int, default=3, help="conv kernel size")
    p.add_argument("--gamma", type=int, default=3, help="input channels")
    p.add_argument("--kappa", type=int, default=40, help="feature maps")
    p.add_argument("--n", type=int, default=40, help="output channels")
    p.add_argument("--f", type=int, default=3, help="3d conv kernel size")

    p = sub.add_parser("gradcheck", help="finite-difference check of the backward pass")
    common(p, _cmd_gradcheck, out_required=None)
    p.add_argument("--seed", type=int, default=0, help="weight and frame seed")
    p.add_argument("--k", type=int, default=2, help="history frames before the current one")
    p.add_argument("--channels", type=int, default=2, help="feature maps per flow")
    p.add_argument("--size", type=int, default=6, help="spatial side of the test frames")
    p.add_argument("--loss", choices=["bce", "focal"], default="bce", help="loss to check")
    p.add_argument("--tolerance", type=_number, default=1e-4,
                   help="largest relative error that passes")

    p = sub.add_parser("ablate", help="run the seven colour-space configurations")
    common(p, _cmd_ablate)
    training_flags(p, channels=16)
    p.add_argument("--steps", type=int, default=200, help="training steps per configuration")
    return parser


def _check_config_value(key, value, action):
    """A --config value must fit the type its flag parses to, by the one type
    rule of every config (null is never valid), and be one of its choices."""
    kind = "bool" if action.nargs == 0 else {int: "int", _number: "float"}.get(action.type, "str")
    try:
        check_value(f"config key {key!r}", value, kind)
    except ValueError as exc:
        raise _CliError(str(exc))
    if action.choices is not None and value not in action.choices:
        raise _CliError(f"config key {key!r} must be one of {sorted(action.choices)}, "
                        f"got {json.dumps(value)}")


def _parse(argv):
    """Parse argv. A --config file's values become the sub-parser's defaults
    and argv is parsed again, so explicit flags still win; unknown config keys
    and values their flag would not accept are rejected."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.config:
        try:
            overlay = json.loads(Path(args.config).read_text())
        except FileNotFoundError:
            raise _CliError(f"config file not found: {args.config}")
        except OSError as exc:
            raise _CliError(f"config file {args.config} cannot be read: {exc.strerror}")
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise _CliError(f"config file does not parse: {exc}")
        if not isinstance(overlay, dict):
            raise _CliError(f"config file {args.config} is not a JSON object")
        flags = args.parser.flags
        unknown = set(overlay) - set(flags)
        if unknown:
            raise _CliError(f"unknown config keys: {sorted(unknown)}")
        for key, value in overlay.items():
            _check_config_value(key, value, flags[key])
        args.parser.set_defaults(**overlay)
        args = parser.parse_args(argv)
    return args


def _echo_config(args):
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    echoed = {key: getattr(args, key) for key in args.parser.flags if key != "out"}
    (out_dir / "resolved_config.json").write_text(
        json.dumps(echoed, indent=2, sort_keys=True) + "\n")
    return out_dir


def _valid(make, **values):
    """``make(**values)`` with the ValueError of its checks as a _CliError; call
    it before ``_echo_config``, so that a rejected value writes nothing."""
    try:
        return make(**values)
    except ValueError as exc:
        raise _CliError(str(exc))


def _model_config(args, colors, **extra):
    """One flow per part of ``colors`` (at most two), each ``--channels`` wide."""
    parts = colors.split("+")
    if len(parts) > 2:
        raise _CliError(f"at most two flows, like rgb+yuv; got {colors!r}")
    return _valid(
        network.DFlowConfig,
        flow_a_space=parts[0], flow_b_space=parts[1] if len(parts) == 2 else None,
        channels=args.channels, k=args.k, **extra)


def _load_run(args):
    """The checkpoint's run and the ``--split`` windows at the checkpoint's k."""
    run = training.load_checkpoint(args.checkpoint)
    manifest = data.load_manifest(args.dataset)
    windows = list(data.window_sequences(manifest, run.model.config.k, args.split))
    if not windows:
        raise ValueError(f"split {args.split!r} is empty")
    return run, windows


# --- subcommands ---------------------------------------------------------------


def _cmd_synth(args):
    counts = {split: getattr(args, split) for split in data.SPLITS}
    for split, count in counts.items():
        if count < 0:
            raise _CliError(f"--{split} must not be negative, got {count}")
    if sum(counts.values()) < 1 or args.frames < 1:
        raise _CliError("need at least one sequence (--train, --val, --test) "
                        "of at least one frame (--frames)")
    params = _valid(data.SynthSceneParams,
                    width=args.width, height=args.height, seed=args.seed,
                    brightness_drift=args.drift, distractor_count=args.distractors,
                    flicker_rate=args.flicker, noise_level=args.noise)
    out_dir = _echo_config(args)
    splits = [split for split, count in counts.items() for _ in range(count)]
    manifest = data.synth_generate(params, len(splits), args.frames, out_dir, splits)
    print(f"wrote {len(manifest.sources)} sequences under {out_dir}", file=sys.stderr)
    return 0


def _cmd_train(args):
    run = training.load_checkpoint(args.checkpoint) if args.checkpoint else None
    if args.steps is None:
        args.steps = 500 if run is None else run.config.steps
    if run is None:
        model_config = _model_config(args, args.colors, use_block=args.use_block)
        config = _valid(training.TrainConfig, loss=args.loss, lr=args.lr,
                        steps=args.steps, seed=args.seed)
        run = training.TrainRun(network.build_dflow(model_config, seed=args.seed), config)
    elif args.steps < run.step:
        raise _CliError(f"steps {args.steps} is below the checkpoint's step {run.step}")
    else:
        run.config = _valid(training.TrainConfig,
                            **{**dataclasses.asdict(run.config), "steps": args.steps})
        mc = run.model.config  # echo the settings the run keeps, not the flags
        vars(args).update(k=mc.k, channels=mc.channels, use_block=mc.use_block,
                          colors="+".join(filter(None, (mc.flow_a_space, mc.flow_b_space))),
                          loss=run.config.loss, lr=run.config.lr, seed=run.config.seed)
    out_dir = _echo_config(args)
    windows = data.load_split_windows(data.load_manifest(args.dataset), run.model.config.k)
    run = training.resume(run, windows)
    training.predict_window(run.model, windows["train"][0])  # a diverged model saves nothing
    training.save_checkpoint(run, out_dir / "checkpoint.dflw")
    training.write_curve_csv(run.curve, out_dir / "curve.csv")
    print(f"trained {run.step} steps; model has {recurrent.count_actual_params(run.model)} "
          f"parameters; artifacts in {out_dir}", file=sys.stderr)
    return 0


def _cmd_infer(args):
    out_dir = _echo_config(args)
    run, windows = _load_run(args)
    for seq in windows:
        probs = training.predict_window(run.model, seq)
        frame = (seq.source_id, seq.frame_indices[-1])
        data.write_pgm16(out_dir / FRAME_FILE.format("prob", *frame), probs)
        data.write_pgm(out_dir / FRAME_FILE.format("mask", *frame), probs > 0.5)
    print(f"wrote {len(windows)} probability/mask pairs to {out_dir}", file=sys.stderr)
    return 0


def _cmd_eval(args):
    out_dir = _echo_config(args)
    run, windows = _load_run(args)
    report = training.evaluate(run.model, {args.split: windows}, args.split)
    doc = {"dice": report.mean_dice, "silhouette": report.mean_silhouette,
           "n_windows": report.n_windows}
    text = json.dumps(doc, indent=2, sort_keys=True)
    (out_dir / "metrics.json").write_text(text + "\n")
    print(text)
    return 0


def _cmd_baseline(args):
    params = _valid(baselines.ThresholdParams, window=args.window, c=args.offset_c,
                    gaussian_sigma=args.sigma, dt_fraction=args.dt_fraction)
    out_dir = _echo_config(args)
    method = BASELINES[args.method]
    manifest = data.load_manifest(args.dataset)
    # every frame is read before the first mask is written, so a bad one writes none
    frames = [(src.id, index, data.read_frame(manifest.root / rel))
              for src in manifest.sources for index, rel in enumerate(src.frames)]
    for source_id, index, img in frames:
        mask = method(extract_y(rgb_to_yuv(img)), params)
        data.write_pgm(out_dir / FRAME_FILE.format(args.method, source_id, index), mask)
    print(f"wrote {len(frames)} masks to {out_dir}", file=sys.stderr)
    return 0


def _cmd_params(args):
    hp = _valid(recurrent.UnitHyperparams, m=args.m, gamma=args.gamma, kappa=args.kappa,
                n=args.n, f=args.f)
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
    if args.out:
        out_dir = _echo_config(args)
        (out_dir / "params.json").write_text(text + "\n")
    print(text)
    return 0


def _cmd_gradcheck(args):
    if args.seed < 0:
        raise _CliError(f"--seed must be >= 0, got {args.seed}")
    if args.size < 1:
        raise _CliError(f"--size must be >= 1, got {args.size}")
    model = network.build_dflow(
        _valid(network.DFlowConfig, channels=args.channels, k=args.k), seed=args.seed)
    rng = np.random.default_rng(args.seed)
    frames = [ColorImage(rng.uniform(0.0, 1.0, size=(3, args.size, args.size)))
              for _ in range(args.k + 1)]
    label = (rng.uniform(size=(1, args.size, args.size)) > 0.5).astype(np.float64)
    sample = data.FrameSequence(frames=frames, label=label)
    report = _valid(training.gradcheck, model=model, sample=sample, loss=args.loss,
                    tolerance=args.tolerance)
    print(report)
    return 0 if report.passed else 2


def _cmd_ablate(args):
    model_configs = {name: _model_config(args, name) for name in ABLATION_CONFIGS}
    train_config = _valid(training.TrainConfig, loss=args.loss, lr=args.lr,
                          steps=args.steps, seed=args.seed)
    out_dir = _echo_config(args)
    dataset = data.load_split_windows(data.load_manifest(args.dataset), args.k)
    for name, model_config in model_configs.items():
        model = network.build_dflow(model_config, seed=args.seed)
        run = training.train(model, dataset, train_config)
        training.write_curve_csv(run.curve, out_dir / f"{name}.csv")
        print(f"{name}: final train loss {run.curve[-1].train_loss:.4f}",
              file=sys.stderr)
    return 0


def main(argv=None):
    with warnings.catch_warnings():  # restores the caller's showwarning on exit
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        try:
            args = _parse(argv)
            return args.run(args)
        except _CliError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        except (ValueError, OSError, MemoryError, training.DivergenceError,
                Warning) as exc:  # a Warning is raised when the caller's filters say so
            print(f"runtime error: {exc}", file=sys.stderr)
            return 2


if __name__ == "__main__":
    sys.exit(main())
