"""Optimisation loop, gradient checking, evaluation, and checkpointing.

Training is deterministic end to end: the window order for epoch ``e`` is a
fresh permutation seeded by (seed, e), so resuming from a checkpoint replays
exactly the schedule an uninterrupted run would have used. Divergence (a
non-finite loss or prediction) aborts with a diagnostic rather than going on.

Checkpoint format: magic ``DFLW``, little-endian u32 version, u64 header
length, a JSON header (configs, step counter, curve records, tensor
directory), then the tensors as raw little-endian float64 in directory order.
A file loads only if its header is byte for byte the one ``save_checkpoint``
writes for the run it describes and the tensors fill the rest of it exactly.
"""

from __future__ import annotations

import json
import math
import operator
import os
import struct
from dataclasses import dataclass, field, asdict
from functools import reduce
from itertools import accumulate, zip_longest

import numpy as np

from ._fields import check_fields
from .losses import bce_loss, dice_coefficient, focal_loss, silhouette_score
from .network import DFlowConfig, build_dflow
from .tensor import GradTape, backward

__all__ = [
    "TrainConfig",
    "CurveRecord",
    "TrainRun",
    "EvalReport",
    "GradCheckReport",
    "DivergenceError",
    "CheckpointError",
    "train",
    "resume",
    "evaluate",
    "predict_window",
    "gradcheck",
    "save_checkpoint",
    "load_checkpoint",
    "write_curve_csv",
]

CHECKPOINT_MAGIC = b"DFLW"
CHECKPOINT_VERSION = 1


class DivergenceError(RuntimeError):
    pass


class CheckpointError(ValueError):
    pass


@dataclass(frozen=True)
class TrainConfig:
    """Training settings, each written into the checkpoint header. Adam is the
    one optimiser: ``optimizer`` must be "adam", as every v1 header names it."""

    loss: str = "bce"            # "bce" | "focal"
    focal_alpha: float = 0.25
    focal_gamma: float = 2.0
    optimizer: str = "adam"
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    steps: int = 500
    batch_size: int = 1
    seed: int = 0
    eval_interval: int = 50

    def __post_init__(self):
        check_fields(self)
        if self.loss not in ("bce", "focal"):
            raise ValueError(f"unknown loss {self.loss!r}")
        if self.optimizer != "adam":
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.lr < 0.0:
            raise ValueError("lr must be >= 0")
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {getattr(self, name)}")
        if self.adam_eps <= 0.0:
            raise ValueError(f"adam_eps must be > 0, got {self.adam_eps}")
        if not 0.0 < self.focal_alpha <= 1.0:
            raise ValueError(f"focal_alpha must be in (0, 1], got {self.focal_alpha}")
        if self.focal_gamma < 0.0:
            raise ValueError(f"focal_gamma must be >= 0, got {self.focal_gamma}")
        if self.steps < 1 or self.batch_size < 1 or self.eval_interval < 1:
            raise ValueError("steps, batch_size and eval_interval must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass
class CurveRecord:
    step: int
    train_loss: float
    val_loss: float | None
    val_dice: float | None

    def __post_init__(self):
        check_fields(self)


@dataclass
class TrainRun:
    model: object
    config: TrainConfig
    step: int = 0
    adam_m: dict = field(default_factory=dict)
    adam_v: dict = field(default_factory=dict)
    curve: list = field(default_factory=list)


@dataclass
class EvalReport:
    mean_dice: float
    mean_silhouette: float
    n_windows: int
    rows: list  # (source_id, final_frame_index, dice, silhouette)


def _loss_fn(config):
    if config.loss == "bce":
        return bce_loss
    return lambda p, y: focal_loss(p, y, alpha=config.focal_alpha,
                                   gamma=config.focal_gamma)


def _window_at(windows, seed, position):
    n = len(windows)
    rng = np.random.default_rng(np.random.SeedSequence([seed, position // n]))
    return windows[rng.permutation(n)[position % n]]


def _val_metrics(model, val_windows, loss_fn):
    losses, dices = [], []
    for seq in val_windows:
        p = model.forward_window(seq.frames)
        losses.append(loss_fn(p, seq.label).item())
        dices.append(dice_coefficient((p.data > 0.5).astype(np.float64), seq.label))
    return float(np.mean(losses)), float(np.mean(dices))


def resume(run, data):
    """Continue a TrainRun, fresh or loaded, until its configured step budget.

    A step records one window of its batch at a time, last window first, and
    replays that window's tape into the parameters' ``.grad`` sums before the
    next window's forward, so it holds one window's tape whatever the batch
    size; the replay starts from the weight 1/batch_size, so the tape is the
    same at every batch size. Its results are bit-identical to replaying one
    tape over the whole batch. A non-finite loss raises DivergenceError before
    any parameter or Adam moment changes, and no backward pass runs through its
    window (a validation loss: after the update, before the step counts)."""
    config = run.config
    windows = data.get("train", [])
    if not windows:
        raise ValueError("training requires a non-empty train split")
    val_windows = data.get("val", [])
    loss_fn = _loss_fn(config)
    params = run.model.parameters()
    for name, p in params.items():
        run.adam_m.setdefault(name, np.zeros_like(p.data))
        run.adam_v.setdefault(name, np.zeros_like(p.data))

    while run.step < config.steps:
        step = run.step + 1
        base = (step - 1) * config.batch_size
        batch = [_window_at(windows, config.seed, base + i)
                 for i in range(config.batch_size)]
        for p in params.values():
            p.grad = None
        # last window first: one tape over the batch would replay them in
        # that order, so every gradient sum is added up in the same order
        terms = []
        for seq in reversed(batch):
            with GradTape() as tape:
                term = loss_fn(run.model.forward_window(seq.frames), seq.label)
            if np.isfinite(term.data):
                backward(tape, term, params.values(), accumulate=True,
                         weight=1.0 / config.batch_size)
            terms.append(term.item())
        del tape  # the last window's, before the update and validation
        # not sum(): from Python 3.12 it sums floats with compensation
        loss_value = reduce(operator.add, reversed(terms)) * (1.0 / config.batch_size)
        if not np.isfinite(loss_value):
            raise DivergenceError(
                f"non-finite training loss {loss_value!r} at step {step} "
                f"(seed {config.seed}, lr {config.lr})")

        b1, b2, eps = config.beta1, config.beta2, config.adam_eps
        for name, p in params.items():
            m = run.adam_m[name] = b1 * run.adam_m[name] + (1 - b1) * p.grad
            v = run.adam_v[name] = b2 * run.adam_v[name] + (1 - b2) * p.grad ** 2
            m_hat = m / (1.0 - b1 ** step)
            v_hat = v / (1.0 - b2 ** step)
            p.data -= config.lr * m_hat / (np.sqrt(v_hat) + eps)

        val_loss = val_dice = None
        if val_windows and (step % config.eval_interval == 0 or step == config.steps):
            val_loss, val_dice = _val_metrics(run.model, val_windows, loss_fn)
            if not np.isfinite(val_loss):
                raise DivergenceError(
                    f"non-finite validation loss {val_loss!r} at step {step} "
                    f"(seed {config.seed}, lr {config.lr})")
        run.curve.append(CurveRecord(step, loss_value, val_loss, val_dice))
        run.step = step
    return run


def train(model, data, config):
    """Run ``config.steps`` optimiser updates over the train split of ``data``
    (a dict split -> list[FrameSequence]); returns the TrainRun with its
    learning curve."""
    return resume(TrainRun(model=model, config=config), data)


def predict_window(model, seq):
    """``model.predict`` on a window; a non-finite one is a DivergenceError naming it."""
    probs = model.predict(seq.frames)
    if not np.isfinite(probs).all():
        raise DivergenceError(f"non-finite probabilities for source {seq.source_id!r} "
                              f"frame {seq.frame_indices[-1] if seq.frame_indices else -1}")
    return probs


def evaluate(model, data, split):
    """Mean Dice and silhouette over every window of a split (side-effect
    free; the silhouette uses each window's final RGB frame as features)."""
    windows = data.get(split, [])
    if not windows:
        raise ValueError(f"split {split!r} is empty")
    rows = []
    for seq in windows:
        binary = (predict_window(model, seq) > 0.5).astype(np.float64)
        d = dice_coefficient(binary, seq.label)
        s = silhouette_score(binary, seq.frames[-1].pixels, seed=0)
        rows.append((seq.source_id, seq.frame_indices[-1] if seq.frame_indices else -1, d, s))
    return EvalReport(
        mean_dice=float(np.mean([r[2] for r in rows])),
        mean_silhouette=float(np.mean([r[3] for r in rows])),
        n_windows=len(rows),
        rows=rows,
    )


# --- gradient checking ---------------------------------------------------------


@dataclass
class GradCheckReport:
    per_tensor: dict       # name -> max relative error
    tolerance: float
    passed: bool

    def __str__(self):
        lines = [f"{'tensor':<24} max_rel_err"]
        for name, err in self.per_tensor.items():
            lines.append(f"{name:<24} {err:.3e}")
        lines.append(f"tolerance {self.tolerance:.1e}: "
                     f"{'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def _relative_error(a, f):
    return abs(a - f) / max(abs(a), abs(f), 1e-5)


def gradcheck(model, sample, loss="bce", tolerance=1e-4):
    """Compare every parameter's analytic gradient against central finite
    differences, with a fixed step of 1e-6, on one sample window.
    Restricted to small models (<= 5000 parameters) since each entry costs
    two forward passes. ``loss`` is "bce" or "focal"."""
    if not 0.0 < tolerance < math.inf:
        raise ValueError(f"tolerance must be finite and > 0, got {tolerance}")
    params = model.parameters()
    total = sum(p.data.size for p in params.values())
    if total > 5000:
        raise ValueError(f"model has {total} parameters; gradcheck is capped at 5000")
    loss_fn = _loss_fn(TrainConfig(loss=loss))
    h = 1e-6

    def forward_loss():
        return loss_fn(model.forward_window(sample.frames), sample.label).item()

    with GradTape() as tape:
        loss_t = loss_fn(model.forward_window(sample.frames), sample.label)
    backward(tape, loss_t, params.values())

    report = {}
    for name, p in params.items():
        grad = p.grad
        if not np.all(np.isfinite(grad)):
            raise DivergenceError(f"non-finite analytic gradient for {name}")
        flat = p.data.reshape(-1)
        worst = 0.0
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + h
            up = forward_loss()
            flat[idx] = orig - h
            down = forward_loss()
            flat[idx] = orig
            fd = (up - down) / (2.0 * h)
            worst = max(worst, _relative_error(grad.reshape(-1)[idx], fd))
        report[name] = worst
    passed = all(err < tolerance for err in report.values())
    return GradCheckReport(per_tensor=report, tolerance=tolerance, passed=passed)


# --- persistence -----------------------------------------------------------------


def _header(run):
    """The checkpoint header bytes and the (name, array) tensors in file order:
    parameters sorted by name, then Adam moments. ``save_checkpoint`` writes
    exactly these and ``load_checkpoint`` accepts only these."""
    params = run.model.parameters()
    tensors = [(f"param.{name}", params[name].data) for name in sorted(params)]
    tensors += [(f"adam.m.{name}", run.adam_m[name]) for name in sorted(run.adam_m)]
    tensors += [(f"adam.v.{name}", run.adam_v[name]) for name in sorted(run.adam_v)]
    offsets = accumulate((arr.size * 8 for _, arr in tensors), initial=0)
    directory = [{"name": name, "shape": list(arr.shape), "offset": offset}
                 for (name, arr), offset in zip(tensors, offsets)]
    header = {
        "model_config": asdict(run.model.config),
        "train_config": asdict(run.config),
        "step": run.step,
        "curve": [[r.step, r.train_loss, r.val_loss, r.val_dice] for r in run.curve],
        "tensors": directory,
    }
    return json.dumps(header, sort_keys=True).encode("utf-8"), tensors


def save_checkpoint(run, path):
    """Serialise a TrainRun; the round trip is bit-exact for every tensor,
    counter, and curve record. The file is written to ``<path>.tmp`` and
    renamed over ``path``, so a failed write leaves any previous checkpoint
    there intact."""
    blob, tensors = _header(run)
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(CHECKPOINT_MAGIC)
            fh.write(struct.pack("<I", CHECKPOINT_VERSION))
            fh.write(struct.pack("<Q", len(blob)))
            fh.write(blob)
            for _, arr in tensors:
                fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise
    return path


def load_checkpoint(path):
    """Rebuild a TrainRun (model, optimiser state, curve) from disk. A file
    that ``save_checkpoint`` could not have written is a CheckpointError: the
    header is rebuilt from the run it describes and must match byte for byte,
    and the tensors must fill the rest of the file exactly."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"bad magic {blob[:4]!r}; not a checkpoint file")
    if len(blob) < 16:
        raise CheckpointError(f"truncated checkpoint: {len(blob)} bytes")
    version, hlen = struct.unpack_from("<IQ", blob, 4)
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    stored = blob[16:16 + hlen]
    try:
        header = json.loads(stored.decode("utf-8"))
    except ValueError as exc:  # also UnicodeDecodeError and JSONDecodeError
        raise CheckpointError(f"corrupt checkpoint header: {exc}")
    if not isinstance(header, dict):
        raise CheckpointError("checkpoint header is not a JSON object")
    for key in ("model_config", "train_config", "step", "curve", "tensors"):
        if key not in header:
            raise CheckpointError(f"checkpoint header lacks key {key!r}")
    step, curve, directory = header["step"], header["curve"], header["tensors"]
    if type(step) is not int or step < 0:
        raise CheckpointError(f"checkpoint step must be an integer >= 0, got {step!r}")
    entries = directory if isinstance(directory, list) else [directory]

    model = build_dflow(_config_from(DFlowConfig, header, "model_config"), seed=0)
    config = _config_from(TrainConfig, header, "train_config")
    run = TrainRun(model=model, config=config, step=step)
    try:
        run.curve = [CurveRecord(*record) for record in curve]
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"checkpoint curve is invalid: {exc}")
    if any(isinstance(e, dict) and str(e.get("name")).startswith("adam.") for e in entries):
        run.adam_m = {name: np.zeros_like(p.data) for name, p in model.parameters().items()}
        run.adam_v = {name: np.zeros_like(m) for name, m in run.adam_m.items()}

    expected, tensors = _header(run)
    if stored != expected:
        raise _header_mismatch(entries, json.loads(expected)["tensors"])
    end = 16 + hlen + sum(arr.size * 8 for _, arr in tensors)
    if len(blob) != end:
        raise CheckpointError(f"{'truncated' if len(blob) < end else 'oversized'} "
                              f"checkpoint: {len(blob)} bytes, {end} expected")
    for (name, arr), entry in zip(tensors, directory):
        arr[...] = np.frombuffer(blob, dtype="<f8", count=arr.size,
                                 offset=16 + hlen + entry["offset"]).reshape(arr.shape)
        if not np.all(np.isfinite(arr)):
            raise CheckpointError(f"checkpoint tensor {name} holds non-finite values")
    return run


def _entry_text(entry):
    if not isinstance(entry, dict):
        return repr(entry)
    return f"{entry.get('name')} shape {entry.get('shape')} offset {entry.get('offset')}"


def _header_mismatch(stored, expected):
    """The CheckpointError for a header that is not the one ``save_checkpoint``
    writes: it names the first tensor directory entry that differs."""
    pairs = zip_longest(map(_entry_text, stored), map(_entry_text, expected),
                        fillvalue="no entry")
    for index, (found, wanted) in enumerate(pairs):
        if found != wanted:
            return CheckpointError(f"checkpoint tensors[{index}] is {found} in the file, "
                                   f"but save_checkpoint writes {wanted}")
    return CheckpointError("checkpoint header differs from what save_checkpoint "
                           "writes outside the tensor directory")


def _config_from(cls, header, key):
    try:
        return cls(**header[key])
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"checkpoint {key} is invalid: {exc}")


def write_curve_csv(curve, path):
    """Learning curve CSV: ``step,train_loss,val_loss,val_dice`` with empty
    validation fields on non-eval steps."""
    lines = ["step,train_loss,val_loss,val_dice"]
    for r in curve:
        val_loss = "" if r.val_loss is None else repr(r.val_loss)
        val_dice = "" if r.val_dice is None else repr(r.val_dice)
        lines.append(f"{r.step},{r.train_loss!r},{val_loss},{val_dice}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return path
