"""Version-1 checkpoint fixtures: tiny rgb+yuv models and their outputs.

``v1_tiny.dflw`` holds a channels=2, k=2 dual-flow model after three Adam
steps on :func:`fixture_window`; ``v1_tiny_predict.npy`` holds its
``predict`` output on that window. Both were written by the code that first
defined checkpoint version 1 (header fields ``flow_a_space``/``flow_b_space``,
tensors ``flow_a.*``/``flow_b.*``), and the tests check that later code loads
them bit for bit.

``block_tiny.dflw`` holds the same shape of model built from residual blocks
(``use_block=True``, so the 3D-conv shortcut runs), trained for three Adam
steps with focal loss at batch size 2 on :func:`block_windows`;
``block_tiny_predict.npy`` is its ``predict`` output on
:func:`fixture_window`, and ``block_tiny_resumed.npz`` holds every parameter
after two more ``resume`` steps. The tests rebuild all three and compare bit
for bit, which pins the conv2d and conv3d forward passes and both conv vjps.

:func:`corrupt_copy` writes the v1 checkpoint with one defect, for the tests
of the checkpoint loader's errors.

Do not regenerate these files unless the format version changes or a change
is meant to alter results. Each set is written separately, because the two
were made by different versions of the code:

    PYTHONPATH=src python tests/fixtures/v1_checkpoint.py v1
    PYTHONPATH=src python tests/fixtures/v1_checkpoint.py block
"""

import json
import struct
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from dflow.color import ColorImage
from dflow.data import FrameSequence

HERE = Path(__file__).parent
CHECKPOINT = HERE / "v1_tiny.dflw"
PREDICTION = HERE / "v1_tiny_predict.npy"
BLOCK_CHECKPOINT = HERE / "block_tiny.dflw"
BLOCK_PREDICTION = HERE / "block_tiny_predict.npy"
BLOCK_RESUMED = HERE / "block_tiny_resumed.npz"


def fixture_window(seed=7, side=6, k=2):
    rng = np.random.default_rng(seed)
    frames = [ColorImage(rng.uniform(0.0, 1.0, (3, side, side)))
              for _ in range(k + 1)]
    label = (rng.uniform(size=(1, side, side)) > 0.5).astype(np.float64)
    return FrameSequence(frames=frames, label=label)


def block_windows():
    """The block fixture's train split: two seeded windows."""
    return {"train": [fixture_window(seed=11), fixture_window(seed=12)]}


def train_block():
    """The block fixture's model after three Adam steps."""
    from dflow.network import DFlowConfig, build_dflow
    from dflow.training import TrainConfig, train

    model = build_dflow(DFlowConfig(flow_a_space="rgb", flow_b_space="yuv",
                                    channels=2, k=2, use_block=True), seed=5)
    config = TrainConfig(loss="focal", steps=3, lr=1e-2, batch_size=2, seed=1)
    return train(model, block_windows(), config)


def resume_block(run):
    """Two more steps on ``run``; returns its parameters as arrays."""
    from dflow.training import resume

    run.config = replace(run.config, steps=run.step + 2)
    resume(run, block_windows())
    return {name: t.data for name, t in run.model.parameters().items()}


def corrupt_copy(path, defect):
    """Write the v1 checkpoint to ``path`` with one defect: ``missing_tensor``,
    ``missing_step``, ``unknown_config_key``, ``entry_without_offset``,
    ``list_header``, ``nan_payload``, ``short_file``, ``curve_not_list``,
    ``tensors_not_list``, ``three_item_curve_record``, ``string_step``,
    ``string_shape``, ``float_offset``, ``negative_offset``,
    ``float_channels``, ``bool_k``, ``float_batch_size``, ``fractional_seed``,
    ``string_focal_alpha``, ``bool_eval_interval``, ``bool_lr``,
    ``beta2_above_one``, ``sgd_optimizer``, ``string_curve_loss``,
    ``fractional_curve_step``, ``missing_adam_moment``, ``duplicate_entry``,
    ``reordered_entries``, ``extra_header_key``, ``trailing_bytes`` or
    ``future_version``. The last six keep the directory's offsets consistent
    with the payload."""
    blob = CHECKPOINT.read_bytes()
    if defect == "short_file":
        path.write_bytes(blob[:10])
        return path
    (hlen,) = struct.unpack_from("<Q", blob, 8)
    header = json.loads(blob[16:16 + hlen])
    payload = bytearray(blob[16 + hlen:])
    if defect == "missing_tensor":
        header["tensors"] = [e for e in header["tensors"] if e["name"] != "param.decoder.w"]
    elif defect == "missing_step":
        del header["step"]
    elif defect == "unknown_config_key":
        header["model_config"]["colour"] = "rgb"
    elif defect == "entry_without_offset":
        del header["tensors"][0]["offset"]
    elif defect == "list_header":
        header = [header]
    elif defect == "nan_payload":
        entry = next(e for e in header["tensors"] if e["name"] == "adam.m.decoder.b")
        payload[entry["offset"]:entry["offset"] + 8] = struct.pack("<d", float("nan"))
    elif defect == "curve_not_list":
        header["curve"] = 5
    elif defect == "tensors_not_list":
        header["tensors"] = 5
    elif defect == "three_item_curve_record":
        header["curve"][0] = header["curve"][0][:3]
    elif defect == "string_step":
        header["step"] = "x"
    elif defect == "string_shape":
        header["tensors"][1]["shape"] = [str(n) for n in header["tensors"][1]["shape"]]
    elif defect == "float_offset":
        header["tensors"][1]["offset"] = float(header["tensors"][1]["offset"])
    elif defect == "float_channels":
        header["model_config"]["channels"] = 2.0
    elif defect == "bool_k":
        header["model_config"]["k"] = True
    elif defect == "float_batch_size":
        header["train_config"]["batch_size"] = 1.0
    elif defect == "fractional_seed":
        header["train_config"]["seed"] = 0.5
    elif defect == "string_focal_alpha":
        header["train_config"].update(loss="focal", focal_alpha="x")
    elif defect == "bool_eval_interval":
        header["train_config"]["eval_interval"] = True
    elif defect == "bool_lr":
        header["train_config"]["lr"] = True
    elif defect == "beta2_above_one":
        header["train_config"]["beta2"] = 2.0
    elif defect == "sgd_optimizer":
        header["train_config"]["optimizer"] = "sgd"
    elif defect == "string_curve_loss":
        header["curve"][0] = [1, "x", None, None]
    elif defect == "fractional_curve_step":
        header["curve"][0][0] = 1.5
    elif defect == "negative_offset":
        header["tensors"][0]["offset"] = -8  # param.decoder.b
    elif defect in ("missing_adam_moment", "duplicate_entry", "reordered_entries"):
        chunks = [(e, payload[e["offset"]:e["offset"] + 8 * int(np.prod(e["shape"]))])
                  for e in header["tensors"]]
        if defect == "missing_adam_moment":
            chunks = [(e, b) for e, b in chunks if e["name"] != "adam.m.decoder.b"]
        elif defect == "duplicate_entry":
            chunks.append((chunks[0][0], struct.pack("<d", 123.0)))  # param.decoder.b
        else:
            chunks[0], chunks[1] = chunks[1], chunks[0]
        header["tensors"], payload = [], bytearray()
        for entry, chunk in chunks:
            header["tensors"].append({**entry, "offset": len(payload)})
            payload += chunk
    elif defect == "extra_header_key":
        header["note"] = "x"
    elif defect == "trailing_bytes":
        payload += bytes(8)
    elif defect == "future_version":
        blob = blob[:4] + struct.pack("<I", 2) + blob[8:]
    else:
        raise ValueError(defect)
    text = json.dumps(header, sort_keys=True).encode("utf-8")
    path.write_bytes(blob[:8] + struct.pack("<Q", len(text)) + text + bytes(payload))
    return path


def write_v1():
    from dflow.network import DFlowConfig, build_dflow
    from dflow.training import TrainConfig, save_checkpoint, train

    window = fixture_window()
    model = build_dflow(DFlowConfig(flow_a_space="rgb", flow_b_space="yuv",
                                    channels=2, k=2), seed=3)
    run = train(model, {"train": [window]}, TrainConfig(steps=3, lr=1e-2, seed=0))
    save_checkpoint(run, CHECKPOINT)
    np.save(PREDICTION, run.model.predict(window.frames))


def write_block():
    from dflow.training import load_checkpoint, save_checkpoint

    save_checkpoint(train_block(), BLOCK_CHECKPOINT)
    run = load_checkpoint(BLOCK_CHECKPOINT)
    np.save(BLOCK_PREDICTION, run.model.predict(fixture_window().frames))
    np.savez(BLOCK_RESUMED, **resume_block(run))


if __name__ == "__main__":
    {"v1": write_v1, "block": write_block}[sys.argv[1]]()
