"""Dual-flow network assembly: two recurrent flows, additive fusion, conv decoder.

Each flow runs a two-layer recurrent stack (or residual block) over its own
colour rendering of the same frames; the flows' final feature maps are summed
elementwise and a single biased convolution plus sigmoid decodes them into a
per-pixel target probability for the final frame. A single-flow model is the
same path with one flow. The flows share nothing until the sum, so they run
concurrently through :func:`dflow.tensor.branches` (one worker per spare CPU),
forward and backward, with bits that do not depend on the number of CPUs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from ._fields import check_fields
from .color import extract_y, rgb_to_hsv, rgb_to_yuv
from .recurrent import ConvMguBlock, ConvMguStack2, _uniform
from .tensor import Tensor, add, branches, conv2d_same, sigmoid

__all__ = [
    "SPACES",
    "PRESET_CHANNELS",
    "DFlowConfig",
    "DFlowModel",
    "build_dflow",
    "frames_for_flow",
]

# colour space -> (input channels, render of one RGB frame as a (channels, H, W) array)
SPACES = {"rgb": (3, lambda frame: frame.pixels), "yuv": (3, rgb_to_yuv),
          "hsv": (3, rgb_to_hsv), "y": (1, lambda frame: extract_y(rgb_to_yuv(frame)))}

# feature-map widths of the two shipped presets
PRESET_CHANNELS = {"small": 16, "base": 40}


def _space(name):
    """The (channels, render) entry of colour space ``name``."""
    if name not in SPACES:
        raise ValueError(f"unknown colour space {name!r} (choose from {sorted(SPACES)})")
    return SPACES[name]


@dataclass(frozen=True)
class DFlowConfig:
    flow_a_space: str = "rgb"
    flow_b_space: str | None = "yuv"
    channels: int = 40
    kernel_size: int = 3
    k: int = 4
    use_block: bool = False
    shortcut_kernel_size: int = 3
    decoder_kernel_size: int = 3

    def __post_init__(self):
        check_fields(self)
        for space in [self.flow_a_space] + ([self.flow_b_space] if self.dual_flow else []):
            _space(space)
        if self.channels < 1 or self.k < 1:
            raise ValueError("channels and k must be >= 1")
        for name in ("kernel_size", "shortcut_kernel_size", "decoder_kernel_size"):
            val = getattr(self, name)
            if val < 1 or val % 2 == 0:
                raise ValueError(f"{name} must be odd and positive, got {val}")

    @property
    def dual_flow(self):
        return self.flow_b_space is not None


def frames_for_flow(frames_rgb, space):
    """Render a list of RGB ColorImages into one flow's input tensors."""
    _, render = _space(space)
    return [Tensor(render(img)) for img in frames_rgb]


class DFlowModel:
    """Built network: flows plus decoder. Immutable during inference."""

    def __init__(self, config, flow_a, flow_b, decoder_w, decoder_b):
        self.config = config
        self.flow_a = flow_a
        self.flow_b = flow_b
        self.decoder_w = decoder_w
        self.decoder_b = decoder_b

    def _flows(self):
        """(tag, colour space, flow) for each built flow. The tag names the
        attribute and the checkpoint tensor prefix."""
        config = self.config
        for tag, space, flow in (("flow_a", config.flow_a_space, self.flow_a),
                                 ("flow_b", config.flow_b_space, self.flow_b)):
            if flow is not None:
                yield tag, space, flow

    def parameters(self):
        out = {}
        for tag, _, flow in self._flows():
            for name, t in flow.parameters().items():
                out[f"{tag}.{name}"] = t
        out["decoder.w"] = self.decoder_w
        out["decoder.b"] = self.decoder_b
        return out

    def _decode(self, features):
        return sigmoid(conv2d_same(features, self.decoder_w, self.decoder_b))

    def forward_window(self, frames_rgb):
        """(1, H, W) probability map for the final frame of k+1 RGB frames.

        Each flow runs on its own colour rendering of the frames, all flows
        at the same time; their final features are summed in flow order and
        decoded."""
        expected = self.config.k + 1
        if len(frames_rgb) != expected:
            raise ValueError(f"model needs {expected} frames, got {len(frames_rgb)}")
        fused, *rest = branches(
            partial(_run_flow, flow, frames_rgb, space) for _, space, flow in self._flows())
        for features in rest:
            fused = add(fused, features)
        return self._decode(fused)

    def predict(self, frames_rgb):
        """Inference-only probabilities as a plain (1, H, W) array."""
        return self.forward_window(frames_rgb).data


def _run_flow(flow, frames_rgb, space):
    return flow.forward(frames_for_flow(frames_rgb, space))


def _build_flow(config, space, rng):
    cin, _ = _space(space)
    if config.use_block:
        return ConvMguBlock(cin, config.channels, config.kernel_size,
                            config.shortcut_kernel_size, rng)
    return ConvMguStack2(cin, config.channels, config.kernel_size, rng)


def build_dflow(config, seed):
    """Deterministically initialise a model from ``seed``.

    The same (config, seed) pair always yields bit-identical parameters."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    flow_a = _build_flow(config, config.flow_a_space, rng)
    flow_b = _build_flow(config, config.flow_b_space, rng) if config.dual_flow else None
    d = config.decoder_kernel_size
    decoder_w = _uniform(rng, (1, config.channels, d, d), config.channels * d * d)
    decoder_b = Tensor(np.zeros((1,)), requires_grad=True)
    return DFlowModel(config, flow_a, flow_b, decoder_w, decoder_b)
