"""Convolutional minimal-gated recurrent cells, stacks, residual blocks.

The cell keeps a single forget gate and swaps every internal matrix product
for a same-size 2D convolution:

    f_t = sigmoid(W_f * x_t + U_f * h_{t-1} + b_f)
    h_t = (1 - f_t) o h_{t-1} + f_t o tanh(W_h * x_t + U_h * (f_t o h_{t-1}) + b_h)

with * the padded cross-correlation and o the elementwise product. A step
records the input convs W_f * x_t + b_f and W_h * x_t + b_h, which depend on
x_t only, and the recurrence (``tensor.mgu_step``): 3 tape records. The zero
``initial_state`` takes the first input's frame size and dtype; from it the
recurrence skips U_f, U_h and the gated state. The block stacks two cells
and adds a 3D-conv shortcut from the raw frames to the final step's output.
Parameter-count formulas for the two-layer ConvLSTM, the block and the plain
stack are implemented exactly as printed (they charge (gamma + kappa) input
channels to both layers, which overstates layer 2); ``count_actual_params``
reports the true constructed sizes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._fields import check_fields
from .tensor import Tensor, Zero, add, conv2d_same, conv3d_same, mgu_step, time_slice

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
    maps, n output channels, f 3D-conv kernel size."""

    m: int = 3
    gamma: int = 3
    kappa: int = 40
    n: int = 40
    f: int = 3

    def __post_init__(self):
        check_fields(self)
        for field in ("m", "gamma", "kappa", "n", "f"):
            value = getattr(self, field)
            if value <= 0:
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

    def __init__(self, in_channels, hidden_channels, kernel_size, rng):
        if kernel_size % 2 == 0:
            raise ValueError("kernel size must be odd")
        cin, n, m = in_channels, hidden_channels, kernel_size
        self.hidden_channels = n
        self.w_f = _uniform(rng, (n, cin, m, m), cin * m * m)
        self.u_f = _uniform(rng, (n, n, m, m), n * m * m)
        self.b_f = Tensor(np.zeros((n,)), requires_grad=True)
        self.w_h = _uniform(rng, (n, cin, m, m), cin * m * m)
        self.u_h = _uniform(rng, (n, n, m, m), n * m * m)
        self.b_h = Tensor(np.zeros((n,)), requires_grad=True)

    def parameters(self):
        return {
            "w_f": self.w_f, "u_f": self.u_f, "b_f": self.b_f,
            "w_h": self.w_h, "u_h": self.u_h, "b_h": self.b_h,
        }

    def initial_state(self, x):
        """The zero state for a sequence whose first input is ``x``: its
        (H, W) frame size and its dtype."""
        return Zero((self.hidden_channels, *x.data.shape[1:]), x.data.dtype)

    def step_with_gate(self, x, h_prev):
        """One recurrence step; returns (h_t, f_t), f_t untracked. The convs and
        ``mgu_step`` reject mismatched input shapes with a ValueError."""
        return mgu_step(conv2d_same(x, self.w_f, self.b_f), conv2d_same(x, self.w_h, self.b_h),
                        h_prev, self.u_f, self.u_h)

    def step(self, x, h_prev):
        return self.step_with_gate(x, h_prev)[0]


class ConvMguStack2:
    """Two stacked cells unrolled over a frame sequence, zero initial state."""

    def __init__(self, in_channels, hidden_channels, kernel_size, rng):
        self.layer1 = ConvMguCell(in_channels, hidden_channels, kernel_size, rng)
        self.layer2 = ConvMguCell(hidden_channels, hidden_channels, kernel_size, rng)

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
        h1 = self.layer1.initial_state(frames[0])
        h2 = self.layer2.initial_state(frames[0])
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
        self.shortcut_w = _uniform(
            rng, (hidden_channels, in_channels, f, f, f), in_channels * f ** 3)
        self.shortcut_b = Tensor(np.zeros((hidden_channels,)), requires_grad=True)

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
        h2 = self.stack.forward(frames)
        residual = self._residual(frames)
        return add(h2, time_slice(residual, len(frames) - 1))
