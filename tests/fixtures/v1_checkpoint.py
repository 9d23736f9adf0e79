"""Version-1 checkpoint fixture: a tiny rgb+yuv model and its prediction.

``v1_tiny.dflw`` holds a channels=2, k=2 dual-flow model after three Adam
steps on :func:`fixture_window`; ``v1_tiny_predict.npy`` holds its
``predict`` output on that window. Both were written by the code that first
defined checkpoint version 1 (header fields ``flow_a_space``/``flow_b_space``,
tensors ``flow_a.*``/``flow_b.*``), and the tests check that later code loads
them bit for bit. Do not regenerate them unless the format version changes:

    PYTHONPATH=src python tests/fixtures/v1_checkpoint.py
"""

from pathlib import Path

import numpy as np

from dflow.color import ColorImage
from dflow.data import FrameSequence

HERE = Path(__file__).parent
CHECKPOINT = HERE / "v1_tiny.dflw"
PREDICTION = HERE / "v1_tiny_predict.npy"


def fixture_window(seed=7, side=6, k=2):
    rng = np.random.default_rng(seed)
    frames = [ColorImage(rng.uniform(0.0, 1.0, (3, side, side)), "rgb")
              for _ in range(k + 1)]
    label = (rng.uniform(size=(1, side, side)) > 0.5).astype(np.float64)
    return FrameSequence(frames=frames, label=label)


def main():
    from dflow.network import DFlowConfig, build_dflow
    from dflow.training import TrainConfig, save_checkpoint, train

    window = fixture_window()
    model = build_dflow(DFlowConfig(flow_a_space="rgb", flow_b_space="yuv",
                                    channels=2, k=2), seed=3)
    run = train(model, {"train": [window]}, TrainConfig(steps=3, lr=1e-2, seed=0))
    save_checkpoint(run, CHECKPOINT)
    np.save(PREDICTION, run.model.predict(window.frames))


if __name__ == "__main__":
    main()
