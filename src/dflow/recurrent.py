"""Convolutional minimal-gated recurrent cells, stacks, residual blocks.

The cell keeps a single forget gate and swaps every internal matrix product
for a same-size 2D convolution:

    f_t = sigmoid(W_f * x_t + U_f * h_{t-1} + b_f)
    h_t = (1 - f_t) o h_{t-1} + f_t o tanh(W_h * x_t + U_h * (f_t o h_{t-1}) + b_h)

with * the padded cross-correlation and o the elementwise product. The block
stacks two cells and adds a 3D-conv shortcut from the raw input frames to
the final step's output. Parameter-count formulas for the two-layer ConvLSTM,
the block, and the plain two-layer stack are implemented exactly as printed
(they charge (gamma + kappa) input channels to both layers, which overstates
layer 2); ``count_actual_params`` reports the true constructed sizes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import (
    Tensor,
    add,
    conv2d_same,
    conv3d_same,
    hadamard,
    sigmoid,
    sub_from_one,
    tanh,
    time_slice,
    zeros,
)

__all__ = [
    "UnitHyperparams",
    "ConvMguCell",
    "ConvMguStack2",
    "ConvMguBlock",
    "param_count",
    "count_actual_params",
]


@dataclass(frozen=True)
class UnitHyperparams:
    """Topology knobs: m conv kernel size, gamma input channels, kappa feature
    maps, n output channels, f 3D-conv kernel size, k history length."""

    m: int = 3
    gamma: int = 3
    kappa: int = 40
    n: int = 40
    f: int = 3
    k: int = 4

    def __post_init__(self):
        for field in ("m", "gamma", "kappa", "n", "f", "k"):
            value = getattr(self, field)
            if not isinstance(value, int) or value <= 0:
                raise ValueError(f"{field} must be a positive integer, got {value!r}")
        if self.m % 2 == 0 or self.f % 2 == 0:
            raise ValueError("kernel sizes m and f must be odd")


def param_count(kind, hp):
    """Closed-form parameter counts, exactly as the printed estimates.

    convlstm2  = 2 * 4 * (m^2 (gamma + kappa) + 1) * n
    mgu_block  = 2 * (m^2 (gamma + kappa) + 1) * n + (f^3 gamma + 1) * n
    mgu_stack2 = 2 * (m^2 (gamma + kappa) + 1) * n
    """
    base = (hp.m ** 2 * (hp.gamma + hp.kappa) + 1) * hp.n
    if kind == "convlstm2":
        return 2 * 4 * base
    if kind == "mgu_stack2":
        return 2 * base
    if kind == "mgu_block":
        return 2 * base + (hp.f ** 3 * hp.gamma + 1) * hp.n
    raise ValueError(f"unknown kind {kind!r}")


def count_actual_params(unit):
    """Sum of element counts over all weight and bias tensors of a constructed
    cell, stack, block, or model (anything exposing ``parameters()``)."""
    return sum(t.data.size for t in unit.parameters().values())


def _uniform(rng, shape, fan_in):
    bound = 1.0 / np.sqrt(fan_in)
    return Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True)


class ConvMguCell:
    """One convolutional minimal-gated cell (single forget gate)."""

    def __init__(self, in_channels, hidden_channels, kernel_size, rng,
                 gate_activation=sigmoid, candidate_activation=tanh):
        if kernel_size % 2 == 0:
            raise ValueError("kernel size must be odd")
        cin, n, m = in_channels, hidden_channels, kernel_size
        self.in_channels = cin
        self.hidden_channels = n
        self.kernel_size = m
        self.gate_activation = gate_activation
        self.candidate_activation = candidate_activation
        self.w_f = _uniform(rng, (n, cin, m, m), cin * m * m)
        self.u_f = _uniform(rng, (n, n, m, m), n * m * m)
        self.b_f = zeros((n,), requires_grad=True)
        self.w_h = _uniform(rng, (n, cin, m, m), cin * m * m)
        self.u_h = _uniform(rng, (n, n, m, m), n * m * m)
        self.b_h = zeros((n,), requires_grad=True)

    def parameters(self):
        return {
            "w_f": self.w_f, "u_f": self.u_f, "b_f": self.b_f,
            "w_h": self.w_h, "u_h": self.u_h, "b_h": self.b_h,
        }

    def initial_state(self, height, width):
        return zeros((self.hidden_channels, height, width))

    def step_with_gate(self, x, h_prev):
        """One recurrence step; returns (h_t, f_t)."""
        if x.data.ndim != 3 or h_prev.data.ndim != 3:
            raise ValueError("cell inputs must be rank 3 (C, H, W)")
        if x.data.shape[1:] != h_prev.data.shape[1:]:
            raise ValueError(
                f"spatial mismatch: x {x.data.shape[1:]} vs h {h_prev.data.shape[1:]}")
        if x.data.shape[0] != self.in_channels:
            raise ValueError(
                f"x has {x.data.shape[0]} channels, cell expects {self.in_channels}")
        if h_prev.data.shape[0] != self.hidden_channels:
            raise ValueError(
                f"h has {h_prev.data.shape[0]} channels, cell expects {self.hidden_channels}")
        f = self.gate_activation(
            add(conv2d_same(x, self.w_f, self.b_f), conv2d_same(h_prev, self.u_f)))
        gated_prev = hadamard(f, h_prev)
        candidate = self.candidate_activation(
            add(conv2d_same(x, self.w_h, self.b_h), conv2d_same(gated_prev, self.u_h)))
        h = add(hadamard(sub_from_one(f), h_prev), hadamard(f, candidate))
        return h, f

    def step(self, x, h_prev):
        return self.step_with_gate(x, h_prev)[0]


class ConvMguStack2:
    """Two stacked cells unrolled over a frame sequence, zero initial state."""

    def __init__(self, in_channels, hidden_channels, kernel_size, rng):
        self.layer1 = ConvMguCell(in_channels, hidden_channels, kernel_size, rng)
        self.layer2 = ConvMguCell(hidden_channels, hidden_channels, kernel_size, rng)

    @property
    def in_channels(self):
        return self.layer1.in_channels

    @property
    def hidden_channels(self):
        return self.layer2.hidden_channels

    def parameters(self):
        out = {}
        for tag, cell in (("layer1", self.layer1), ("layer2", self.layer2)):
            for name, t in cell.parameters().items():
                out[f"{tag}.{name}"] = t
        return out

    def forward_all(self, frames):
        """Per-step layer-2 states over all frames (list of (n, H, W) tensors)."""
        if not frames:
            raise ValueError("empty frame sequence")
        h, w = frames[0].data.shape[1:]
        h1 = self.layer1.initial_state(h, w)
        h2 = self.layer2.initial_state(h, w)
        states = []
        for x in frames:
            h1 = self.layer1.step(x, h1)
            h2 = self.layer2.step(h1, h2)
            states.append(h2)
        return states

    def forward(self, frames):
        """Layer-2 state after the final frame."""
        return self.forward_all(frames)[-1]


class ConvMguBlock:
    """Two stacked cells plus a 3D-conv shortcut from the raw frames.

    The shortcut projects the (gamma, T, H, W) stacked input to n channels
    with one biased f*f*f convolution, padded same in time; its final time
    slice is added to the stack's final state."""

    def __init__(self, in_channels, hidden_channels, kernel_size, shortcut_kernel_size, rng):
        if shortcut_kernel_size % 2 == 0:
            raise ValueError("shortcut kernel size must be odd")
        self.stack = ConvMguStack2(in_channels, hidden_channels, kernel_size, rng)
        f = shortcut_kernel_size
        self.shortcut_kernel_size = f
        self.shortcut_w = _uniform(
            rng, (hidden_channels, in_channels, f, f, f), in_channels * f ** 3)
        self.shortcut_b = zeros((hidden_channels,), requires_grad=True)

    @property
    def in_channels(self):
        return self.stack.in_channels

    @property
    def hidden_channels(self):
        return self.stack.hidden_channels

    @property
    def layer1(self):
        return self.stack.layer1

    @property
    def layer2(self):
        return self.stack.layer2

    def parameters(self):
        out = dict(self.stack.parameters())
        out["shortcut.w"] = self.shortcut_w
        out["shortcut.b"] = self.shortcut_b
        return out

    def _residual(self, frames):
        stacked = Tensor(np.stack([fr.data for fr in frames], axis=1))  # (cin, T, H, W)
        return conv3d_same(stacked, self.shortcut_w, self.shortcut_b)

    def forward(self, frames):
        """Final-step output: stack state plus the last residual slice."""
        if not frames:
            raise ValueError("empty frame sequence")
        if frames[0].data.shape[0] != self.in_channels:
            raise ValueError(
                f"frames have {frames[0].data.shape[0]} channels, "
                f"block expects {self.in_channels}")
        h2 = self.stack.forward(frames)
        residual = self._residual(frames)
        return add(h2, time_slice(residual, len(frames) - 1))
