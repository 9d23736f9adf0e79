"""Dense tensors with hand-written conv kernels and a reverse-mode gradient tape.

Shapes follow channel-first conventions: images are (C, H, W), frame
sequences (T, C, H, W), and a batch would add one leading extent (rank 5
is the ceiling). Training math runs in float64 so finite-difference checks
are meaningful; float32 is accepted for inference-only use.

Ops are pure functions: they never mutate their inputs and only append to
the innermost active :class:`GradTape` (one per training context, tracked
per thread). Gradients accumulate additively when a tensor feeds several
consumers, in tape order, so replaying the same tape is bit-reproducible.
"""

from __future__ import annotations

import threading

import numpy as np

__all__ = [
    "Tensor",
    "GradTape",
    "backward",
    "zeros",
    "sigmoid",
    "tanh",
    "add",
    "sub_from_one",
    "hadamard",
    "scale",
    "log",
    "clamp",
    "power",
    "sum_all",
    "mean_all",
    "time_slice",
    "conv2d_same",
    "conv3d_same",
]

_MAX_RANK = 5


class Tensor:
    """A dense real array of rank 0..5 with an optional gradient slot.

    ``requires_grad`` marks the tensor as a trainable parameter: after
    :func:`backward` it will carry a gradient of identical shape in
    ``.grad``. Ordinary data (frames, labels) stays untracked and never
    receives a gradient. Non-float input is converted to float64; float32
    arrays are kept as-is (an inference-only option), and every op
    preserves its input dtype.
    """

    __slots__ = ("data", "requires_grad", "grad", "name", "_track")

    def __init__(self, data, requires_grad=False, name=None, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if not np.issubdtype(arr.dtype, np.floating):
            arr = arr.astype(np.float64)
        if arr.ndim > _MAX_RANK:
            raise ValueError(f"rank {arr.ndim} exceeds the supported maximum of {_MAX_RANK}")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self.name = name
        self._track = self.requires_grad

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def is_finite(self):
        """True when every stored value is finite (no NaN/Inf)."""
        return bool(np.all(np.isfinite(self.data)))

    def item(self):
        return float(self.data)

    def detach(self):
        """Copy of the values with no grad tracking (no tape entry will follow it)."""
        return Tensor(self.data.copy(), requires_grad=False, name=self.name, dtype=self.data.dtype)

    def __repr__(self):
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}{tag}, requires_grad={self.requires_grad})"


def zeros(shape, requires_grad=False, name=None):
    return Tensor(np.zeros(shape), requires_grad=requires_grad, name=name)


# --- tape ------------------------------------------------------------------

_TLS = threading.local()


def _tape_stack():
    stack = getattr(_TLS, "stack", None)
    if stack is None:
        stack = []
        _TLS.stack = stack
    return stack


class GradTape:
    """Ordered record of executed primitives, replayed in reverse by :func:`backward`.

    Use as a context manager around the forward computation::

        with GradTape() as tape:
            loss = ...
        backward(tape, loss)
    """

    def __init__(self):
        self._records = []

    def __enter__(self):
        _tape_stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _tape_stack().pop()
        if popped is not self:  # pragma: no cover - misuse guard
            raise RuntimeError("GradTape exited out of order")
        return False

    def __len__(self):
        return len(self._records)


def _record(out, inputs, vjp):
    stack = _tape_stack()
    if not stack:
        return
    if any(t._track for t in inputs):
        out._track = True
        stack[-1]._records.append((out, inputs, vjp))


def backward(tape, loss):
    """Populate ``.grad`` on every trainable tensor recorded on ``tape``.

    ``loss`` must be a rank-0 tensor produced under the tape. Trainable
    tensors that were recorded but do not influence the loss receive an
    all-zero gradient; untracked tensors are left untouched.
    """
    if loss.data.shape != ():
        raise ValueError(f"loss must be a scalar tensor, got shape {loss.data.shape}")
    if not tape._records:
        raise ValueError("cannot backpropagate through an empty tape")
    if not any(out is loss for out, _, _ in tape._records):
        raise ValueError("loss was not produced under this tape")
    grads = {id(loss): np.ones((), dtype=loss.data.dtype)}
    trainable = {}
    for out, inputs, vjp in reversed(tape._records):
        for t in inputs:
            if t.requires_grad and id(t) not in trainable:
                trainable[id(t)] = t
        g = grads.pop(id(out), None)
        if g is None:
            continue
        for t, ig in zip(inputs, vjp(g)):
            if ig is None:
                continue
            acc = grads.get(id(t))
            grads[id(t)] = ig if acc is None else acc + ig
    for t in trainable.values():
        g = grads.get(id(t))
        t.grad = np.array(g) if g is not None else np.zeros_like(t.data)


# --- elementwise primitives -------------------------------------------------


def _require_same_shape(a, b, op):
    if a.data.shape != b.data.shape:
        raise ValueError(f"{op}: shape mismatch {a.data.shape} vs {b.data.shape}")


def _sigmoid_values(x):
    # exp of a non-positive argument only, so no overflow at either tail
    z = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + z), z / (1.0 + z))


def _d_sigmoid(y):
    return y * (1.0 - y)


def _d_tanh(y):
    return 1.0 - y * y


def sigmoid(a):
    """Logistic sigmoid 1/(1+e^-x), elementwise; maps into (0, 1)."""
    y = _sigmoid_values(a.data)
    out = Tensor(y)

    def vjp(g):
        return (g * _d_sigmoid(y),)

    _record(out, (a,), vjp)
    return out


def tanh(a):
    """Hyperbolic tangent, elementwise; maps into (-1, 1)."""
    y = np.tanh(a.data)
    out = Tensor(y)

    def vjp(g):
        return (g * _d_tanh(y),)

    _record(out, (a,), vjp)
    return out


def add(a, b):
    """Elementwise sum; shapes must match exactly (no broadcasting)."""
    _require_same_shape(a, b, "add")
    out = Tensor(a.data + b.data)

    def vjp(g):
        return (g, g)

    _record(out, (a, b), vjp)
    return out


def sub_from_one(a):
    """1 - x elementwise (the gate complement in a convex combination)."""
    out = Tensor(1.0 - a.data)

    def vjp(g):
        return (-g,)

    _record(out, (a,), vjp)
    return out


def hadamard(a, b):
    """Elementwise product; shapes must match exactly."""
    _require_same_shape(a, b, "hadamard")
    ad, bd = a.data, b.data
    out = Tensor(ad * bd)

    def vjp(g):
        return (g * bd, g * ad)

    _record(out, (a, b), vjp)
    return out


def scale(a, c):
    """Multiply by a Python scalar constant."""
    c = float(c)
    out = Tensor(a.data * c)

    def vjp(g):
        return (g * c,)

    _record(out, (a,), vjp)
    return out


def log(a):
    """Natural logarithm; caller is responsible for keeping values positive."""
    ad = a.data
    out = Tensor(np.log(ad))

    def vjp(g):
        return (g / ad,)

    _record(out, (a,), vjp)
    return out


def clamp(a, lo, hi):
    """Clip into [lo, hi]; gradient is zero where the clip is active."""
    ad = a.data
    out = Tensor(np.clip(ad, lo, hi))
    interior = (ad > lo) & (ad < hi)

    def vjp(g):
        return (g * interior,)

    _record(out, (a,), vjp)
    return out


def power(a, exponent):
    """x**p for a constant real exponent p >= 0 (values must be non-negative
    when p is fractional)."""
    p = float(exponent)
    if p < 0:
        raise ValueError("exponent must be non-negative")
    ad = a.data
    out = Tensor(ad ** p)

    def vjp(g):
        if p == 0.0:
            return (np.zeros_like(ad),)
        return (g * p * ad ** (p - 1.0),)

    _record(out, (a,), vjp)
    return out


def sum_all(a):
    """Sum of all entries, as a rank-0 tensor."""
    out = Tensor(a.data.sum())

    def vjp(g):
        return (np.full_like(a.data, float(g)),)

    _record(out, (a,), vjp)
    return out


def mean_all(a):
    """Mean of all entries, as a rank-0 tensor."""
    n = a.data.size
    out = Tensor(a.data.sum() / n)

    def vjp(g):
        return (np.full_like(a.data, float(g) / n),)

    _record(out, (a,), vjp)
    return out


def time_slice(a, t):
    """Take time step ``t`` from a (C, T, H, W) tensor, yielding (C, H, W)."""
    ad = a.data
    if ad.ndim != 4:
        raise ValueError(f"time_slice expects rank 4 (C, T, H, W), got {ad.shape}")
    if not 0 <= t < ad.shape[1]:
        raise ValueError(f"time index {t} out of range for T={ad.shape[1]}")
    out = Tensor(ad[:, t].copy())

    def vjp(g):
        full = np.zeros_like(ad)
        full[:, t] = g
        return (full,)

    _record(out, (a,), vjp)
    return out


# --- convolution ------------------------------------------------------------


def _check_conv2d(xd, kd, bias):
    if xd.ndim != 3:
        raise ValueError(f"conv2d_same expects input (cin, H, W), got shape {xd.shape}")
    if kd.ndim != 4:
        raise ValueError(f"conv2d_same expects kernel (cout, cin, m, m), got shape {kd.shape}")
    cout, cin, m, m2 = kd.shape
    if m != m2:
        raise ValueError(f"kernel must be square, got {m}x{m2}")
    if m % 2 == 0:
        raise ValueError(f"kernel size must be odd, got {m}")
    if xd.shape[0] != cin:
        raise ValueError(f"input has {xd.shape[0]} channels but kernel expects {cin}")
    if bias is not None and bias.data.shape != (cout,):
        raise ValueError(f"bias must have shape ({cout},), got {bias.data.shape}")


def _im2col2d(xp, m, h, w):
    cin = xp.shape[0]
    cols = np.empty((cin, m, m, h, w), dtype=xp.dtype)
    for i in range(m):
        for j in range(m):
            cols[:, i, j] = xp[:, i:i + h, j:j + w]
    return cols.reshape(cin * m * m, h * w)


def _conv2d_forward(xd, kd):
    cin, h, w = xd.shape
    cout, _, m, _ = kd.shape
    pad = m // 2
    xp = np.zeros((cin, h + 2 * pad, w + 2 * pad), dtype=xd.dtype)
    xp[:, pad:pad + h, pad:pad + w] = xd
    y = kd.reshape(cout, -1) @ _im2col2d(xp, m, h, w)
    return y.reshape(cout, h, w), xp


def _flip_kernel(kd):
    """Input-gradient kernel: spatial axes reversed, in/out channels swapped.

    For a same-padded stride-1 cross-correlation, the gradient w.r.t. the
    input is the same conv applied to the output gradient with this kernel
    (Dumoulin & Visin, arXiv:1603.07285)."""
    return np.flip(kd, axis=tuple(range(2, kd.ndim))).swapaxes(0, 1)


def conv2d_same(x, kernel, bias=None):
    """Zero-padded same-size 2D cross-correlation with stride 1.

    ``x`` is (cin, H, W), ``kernel`` (cout, cin, m, m) with m odd, ``bias``
    an optional (cout,) tensor added per output channel. Output is
    (cout, H, W)."""
    xd, kd = x.data, kernel.data
    _check_conv2d(xd, kd, bias)
    y, xp = _conv2d_forward(xd, kd)
    if bias is not None:
        y = y + bias.data[:, None, None]
    out = Tensor(y)
    cout, _, m, _ = kd.shape
    h, w = xd.shape[1:]
    need_x, need_k = x._track, kernel._track
    inputs = (x, kernel) if bias is None else (x, kernel, bias)

    def vjp(g):
        gk = gx = None
        if need_k:
            gk = (g.reshape(cout, h * w) @ _im2col2d(xp, m, h, w).T).reshape(kd.shape)
        if need_x:
            gx = _conv2d_forward(g, _flip_kernel(kd))[0]
        if bias is None:
            return (gx, gk)
        return (gx, gk, g.sum(axis=(1, 2)))

    _record(out, inputs, vjp)
    return out


def _check_conv3d(xd, kd, bias):
    if xd.ndim != 4:
        raise ValueError(f"conv3d_same expects input (cin, T, H, W), got shape {xd.shape}")
    if kd.ndim != 5:
        raise ValueError(f"conv3d_same expects kernel (cout, cin, f, f, f), got shape {kd.shape}")
    cout, cin, f, f2, f3 = kd.shape
    if not (f == f2 == f3):
        raise ValueError(f"kernel must be cubic, got {f}x{f2}x{f3}")
    if f % 2 == 0:
        raise ValueError(f"kernel size must be odd, got {f}")
    if xd.shape[0] != cin:
        raise ValueError(f"input has {xd.shape[0]} channels but kernel expects {cin}")
    if bias is not None and bias.data.shape != (cout,):
        raise ValueError(f"bias must have shape ({cout},), got {bias.data.shape}")


def _im2col3d(xp, f, tt, h, w):
    cin = xp.shape[0]
    cols = np.empty((cin, f, f, f, tt, h, w), dtype=xp.dtype)
    for t in range(f):
        for i in range(f):
            for j in range(f):
                cols[:, t, i, j] = xp[:, t:t + tt, i:i + h, j:j + w]
    return cols.reshape(cin * f ** 3, tt * h * w)


def _conv3d_forward(xd, kd):
    cin, tt, h, w = xd.shape
    cout, _, f, _, _ = kd.shape
    pad = f // 2
    xp = np.zeros((cin, tt + 2 * pad, h + 2 * pad, w + 2 * pad), dtype=xd.dtype)
    xp[:, pad:pad + tt, pad:pad + h, pad:pad + w] = xd
    y = kd.reshape(cout, -1) @ _im2col3d(xp, f, tt, h, w)
    return y.reshape(cout, tt, h, w), xp


def conv3d_same(x, kernel, bias=None):
    """Zero-padded same-size 3D cross-correlation over (time, height, width).

    ``x`` is (cin, T, H, W), ``kernel`` (cout, cin, f, f, f) with f odd.
    Output is (cout, T, H, W)."""
    xd, kd = x.data, kernel.data
    _check_conv3d(xd, kd, bias)
    y, xp = _conv3d_forward(xd, kd)
    if bias is not None:
        y = y + bias.data[:, None, None, None]
    out = Tensor(y)
    cout, _, f, _, _ = kd.shape
    _, tt, h, w = xd.shape
    need_x, need_k = x._track, kernel._track
    inputs = (x, kernel) if bias is None else (x, kernel, bias)

    def vjp(g):
        gk = gx = None
        if need_k:
            gk = (g.reshape(cout, tt * h * w) @ _im2col3d(xp, f, tt, h, w).T).reshape(kd.shape)
        if need_x:
            gx = _conv3d_forward(g, _flip_kernel(kd))[0]
        if bias is None:
            return (gx, gk)
        return (gx, gk, g.sum(axis=(1, 2, 3)))

    _record(out, inputs, vjp)
    return out
