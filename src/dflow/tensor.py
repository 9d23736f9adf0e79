"""Dense tensors with hand-written conv kernels and a reverse-mode gradient tape.

Shapes follow channel-first conventions: images are (C, H, W) and frame
stacks (C, T, H, W); rank 5, the conv3d kernel (cout, cin, f, f, f), is the
ceiling. Training math runs in float64 so finite-difference checks are
meaningful; float32 is accepted for inference-only use.

conv2d_same and conv3d_same share one im2col + matmul kernel over 2 or 3
spatial axes; im2col copies a strided view of the zero-padded input once.

mgu_step is the ConvMGU recurrence as one tape record; its vjp returns the
primitive chain's terms in the chain's order, so results keep their bits.
The record keeps h_{t-1}, f_t and the tanh candidate; its vjp recomputes the
gated state f_t o h_{t-1} by the forward's numpy product, on any BLAS kernel.
:class:`Zero` is a read-only all-zero constant: an unbiased conv of one
returns a new Zero at once, with no work and no tape record, and mgu_step
from one skips its recurrent convs and the gated state.

Ops are pure functions: they never mutate their inputs and only append to
the innermost active :class:`GradTape` (one per training context, tracked
per thread). backward replays a tape into the parameters its caller names,
from the weight its caller gives the loss, so weighting a loss takes no record.
Gradients accumulate additively when a tensor feeds several consumers, in
tape order, so replaying the same tape is bit-reproducible.

Every op returns ``_record(y, inputs, vjp)``, a tensor of the array y that
gets a fresh data-free :class:`_Node` and a tape record if a tape is active
and an input is tracked; a parameter is its own node. Each vjp closes over
only the arrays it reads (an activation's output, a conv's unpadded input
and kernel), so an intermediate that no vjp reads is freed as soon as the
forward drops it.

branches runs independent functions (the model's colour flows) at the same
time: the first on the calling thread, the rest on a pool with one worker
per usable CPU beyond the first (a forked child starts a fresh pool, as it
has none of its parent's threads). Each branch records to its own sub-tape and
backward replays the sub-tapes concurrently too. A branch owns every running
gradient sum its sub-tape touches while it replays, so each sum is added up
in the order a sequential replay uses, and the bits do not depend on the
number of CPUs. Importing this module on a glibc host with several CPUs sets
two process-wide malloc thresholds, so that the flow thread's arena keeps a
step's freed arrays mapped instead of faulting them back in (see _start_pool).
"""

from __future__ import annotations

import ctypes
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from functools import partial

import numpy as np

__all__ = [
    "Tensor",
    "Zero",
    "GradTape",
    "backward",
    "branches",
    "sigmoid",
    "add",
    "time_slice",
    "conv2d_same",
    "conv3d_same",
    "mgu_step",
]

_MAX_RANK = 5


class Tensor:
    """A dense real array of rank 0..5 with an optional gradient slot.

    ``requires_grad=True`` makes the tensor a trainable parameter: after a
    :func:`backward` that names it, it carries a gradient of identical shape
    in ``.grad``. The read-only ``requires_grad`` property reports it from the
    tape identity, so it cannot disagree with what ``backward`` differentiates.
    Ordinary data (frames, labels) stays untracked and never receives a
    gradient. Non-float input is converted to float64; float32 arrays are kept
    as-is (an inference-only option), and every op preserves its input dtype.
    """

    __slots__ = ("data", "grad", "_node")

    def __init__(self, data, requires_grad=False):
        arr = np.asarray(data)
        if arr.dtype.kind != "f":
            arr = arr.astype(np.float64)
        if arr.ndim > _MAX_RANK:
            raise ValueError(f"rank {arr.ndim} exceeds the supported maximum of {_MAX_RANK}")
        self.data = arr
        self.grad = None
        # tape identity: None untracked, itself for a parameter, else an _Node
        self._node = self if requires_grad else None

    @property
    def requires_grad(self):
        return self._node is self

    @property
    def shape(self):
        return self.data.shape

    def item(self):
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


class Zero(Tensor):
    """An untracked all-zero tensor: a read-only view of one zero."""

    def __init__(self, shape, dtype=np.float64):
        super().__init__(np.broadcast_to(np.zeros((), dtype), shape))


# --- tape ------------------------------------------------------------------

_TLS = threading.local()


def _tape_stack():
    if not hasattr(_TLS, "stack"):
        _TLS.stack = []
    return _TLS.stack


class _Node:
    """The tape identity of a recorded op output; it holds no data."""

    __slots__ = ()


class GradTape:
    """Ordered record of executed primitives, replayed in reverse by :func:`backward`.

    Use as a context manager around the forward computation::

        with GradTape() as tape:
            loss = ...
        backward(tape, loss, params)
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
        """Primitive records, counting those inside :func:`branches` sub-tapes."""
        return sum(1 for _ in _leaves(self._records))


class _Branches:
    """One tape entry for a :func:`branches` call: its sub-tapes, and for each
    the ids of the nodes its records read or produce."""

    def __init__(self, tapes):
        self.tapes = tapes
        self.touched = [{id(n) for out, inputs, _ in _leaves(tape._records)
                         for n in (out, *inputs) if n is not None} for tape in tapes]
        if len(set().union(*self.touched)) != sum(map(len, self.touched)):
            raise ValueError("branches must not share a tracked input")


def _leaves(records):
    """The primitive records of ``records``, sub-tapes included."""
    for rec in records:
        if isinstance(rec, _Branches):
            for tape in rec.tapes:
                yield from _leaves(tape._records)
        else:
            yield rec


def _record(y, inputs, vjp):
    """The op's output ``Tensor(y)``, recorded on the active tape if an input is tracked."""
    out = Tensor(y)
    stack = _tape_stack()
    if not stack:
        return out
    nodes = tuple([t._node for t in inputs])
    if any(n is not None for n in nodes):
        out._node = _Node()
        stack[-1]._records.append((out._node, nodes, vjp))
    return out


def backward(tape, loss, params, accumulate=False, weight=1.0):
    """Set ``.grad`` on each tensor in ``params`` to its gradient of ``weight * loss``.

    ``loss`` must be a rank-0 tensor produced under the tape. The replay starts
    from ``weight``, the bits a record scaling the loss by it would pass down. A
    named tensor the loss does not depend on gets an all-zero gradient; tensors
    not named keep their ``.grad``. With ``accumulate`` a named tensor's sum
    starts from its ``.grad``, if it has one, instead of replacing it: replaying
    the tapes of several losses one after the other, last recorded first, adds
    every term in the order one replay of a tape holding them all uses.
    """
    if loss.data.shape != ():
        raise ValueError(f"loss must be a scalar tensor, got shape {loss.data.shape}")
    if not tape._records:
        raise ValueError("cannot backpropagate through an empty tape")
    node = loss._node
    if not any(out is node for out, _, _ in _leaves(tape._records)):
        raise ValueError("loss was not produced under this tape")
    params = list(params)
    grads = {id(node): np.full((), weight, loss.data.dtype)}
    if accumulate:
        grads.update((id(p), p.grad) for p in params if p.grad is not None)
    _replay(tape._records, grads)
    for p in params:
        g = grads.get(id(p))
        p.grad = np.array(g) if g is not None else np.zeros_like(p.data)


def _replay(records, grads):
    """Run ``records``' vjps in reverse, summing into ``grads`` (node id ->
    running sum)."""
    for rec in reversed(records):
        if isinstance(rec, _Branches):
            _replay_branches(rec, grads)
            continue
        out, inputs, vjp = rec
        g = grads.pop(id(out), None)
        if g is None:
            continue
        for n, ig in zip(inputs, vjp(g)):
            if ig is None or n is None:
                continue
            acc = grads.get(id(n))
            grads[id(n)] = ig if acc is None else acc + ig


def _replay_branches(entry, grads):
    # Each sub-tape takes over the running sums of the nodes it touches and
    # hands them back afterwards: no two sub-tapes touch the same node, so
    # every sum grows in the order a sequential replay would add it up.
    owned = [{i: grads.pop(i) for i in touched if i in grads} for touched in entry.touched]
    _run_all([partial(_replay, tape._records, g) for tape, g in zip(entry.tapes, owned)])
    for g in owned:
        grads.update(g)


# --- concurrent branches -------------------------------------------------------

_CPUS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
         else os.cpu_count() or 1)


def _start_pool():
    """Create the branch pool: one worker per usable CPU beyond the first, or
    none. Its threads start on first use and mark themselves as workers. A
    forked child runs this again: it has none of its parent's threads, so a
    pool whose workers had started would queue work that nothing runs. With a
    pool, glibc's mmap and trim thresholds go to 256 MiB, the mmap one first:
    either raised alone faults more than neither. Off glibc nothing is set."""
    global _POOL
    _POOL = None
    if _CPUS > 1:
        try:
            mallopt = ctypes.CDLL(None).mallopt if os.confstr("CS_GNU_LIBC_VERSION") else None
        except (AttributeError, OSError, ValueError):  # not glibc
            mallopt = None
        if mallopt:
            mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
            if mallopt(-3, 256 << 20):  # M_MMAP_THRESHOLD, then M_TRIM_THRESHOLD
                mallopt(-1, 256 << 20)
        _POOL = ThreadPoolExecutor(_CPUS - 1, thread_name_prefix="dflow-branch",
                                   initializer=setattr, initargs=(_TLS, "worker", True))


_start_pool()
if hasattr(os, "register_at_fork"):  # POSIX only
    os.register_at_fork(after_in_child=_start_pool)


def _run_all(calls):
    """Results of the zero-argument ``calls``, in order. The first runs on
    this thread and the rest on the pool; with no pool, or on a pool worker
    (which must never wait on the pool), they all run here one by one. Every
    call finishes before the first exception, in call order, is raised."""
    inline = _POOL is None or getattr(_TLS, "worker", False)
    futures = [None] + [None if inline else _POOL.submit(c) for c in calls[1:]]
    results, error = [], None
    for call, future in zip(calls, futures):
        try:
            results.append(call() if future is None else future.result())
        except Exception as exc:
            error = error or exc
    if error is not None:
        raise error
    return results


def branches(fns):
    """Run independent zero-argument functions at the same time and return
    their results in order.

    Under an active tape each function records to its own sub-tape, and the
    tape gets one entry for the call (``len`` counts the records inside it);
    :func:`backward` replays the sub-tapes at the same time. Functions that
    read a common tracked tensor raise ``ValueError``. If any function
    raises, the first such exception is raised once all have finished, and
    the tape gets nothing.
    """
    fns = list(fns)
    stack = _tape_stack()
    if not stack:
        return _run_all(fns)
    tapes = [GradTape() for _ in fns]
    results = _run_all([partial(_on_tape, tape, fn) for fn, tape in zip(fns, tapes)])
    stack[-1]._records.append(_Branches(tapes))
    return results


def _on_tape(tape, fn):
    with tape:
        return fn()


# --- elementwise primitives -------------------------------------------------


def _require_same_shape(a, b, op):
    if a.data.shape != b.data.shape:
        raise ValueError(f"{op}: shape mismatch {a.data.shape} vs {b.data.shape}")


def _sigmoid_values(x):
    # exp of a non-positive argument only, so no overflow at either tail; one
    # division gives 1/(1+z) where x >= 0 and z/(1+z) elsewhere (0 <= z <= 1, so
    # the maximum with the bool mask picks 1 or z); asarray lets out= take 0-d x
    z = np.asarray(np.abs(x))
    np.exp(np.negative(z, out=z), out=z)
    return np.divide(np.maximum(z, x >= 0), np.add(1.0, z, out=z), out=z)


def _times(d, g):
    """d * g, written into d if it is an array."""
    d *= g
    return d


def _d_sigmoid(y):
    return _times(1.0 - y, y)


def sigmoid(a):
    """Logistic sigmoid 1/(1+e^-x), elementwise; maps into (0, 1)."""
    y = _sigmoid_values(a.data)

    def vjp(g):
        return (_times(_d_sigmoid(y), g),)

    return _record(y, (a,), vjp)


def add(a, b):
    """Elementwise sum; shapes must match exactly (no broadcasting)."""
    _require_same_shape(a, b, "add")

    def vjp(g):
        return (g, g)

    return _record(a.data + b.data, (a, b), vjp)


def time_slice(a, t):
    """Take time step ``t`` from a (C, T, H, W) tensor, yielding (C, H, W)."""
    ad = a.data
    if ad.ndim != 4:
        raise ValueError(f"time_slice expects rank 4 (C, T, H, W), got {ad.shape}")
    if not 0 <= t < ad.shape[1]:
        raise ValueError(f"time index {t} out of range for T={ad.shape[1]}")
    shape, dtype = ad.shape, ad.dtype

    def vjp(g):
        full = np.zeros(shape, dtype)
        full[:, t] = g
        return (full,)

    return _record(ad[:, t].copy(), (a,), vjp)


# --- convolution ------------------------------------------------------------


def _check_conv(xd, kd, bias, nd):
    op, axes = ("conv2d_same", "H, W") if nd == 2 else ("conv3d_same", "T, H, W")
    if xd.ndim != nd + 1:
        raise ValueError(f"{op} expects input (cin, {axes}), got shape {xd.shape}")
    if kd.ndim != nd + 2:
        raise ValueError(f"{op} expects kernel (cout, cin{', m' * nd}), got shape {kd.shape}")
    cout, cin, m = kd.shape[:3]
    if kd.shape[2:] != (m,) * nd:
        raise ValueError(f"kernel must be {'square' if nd == 2 else 'cubic'}, "
                         f"got {'x'.join(map(str, kd.shape[2:]))}")
    if m % 2 == 0:
        raise ValueError(f"kernel size must be odd, got {m}")
    if xd.shape[0] != cin:
        raise ValueError(f"input has {xd.shape[0]} channels but kernel expects {cin}")
    if bias is not None and bias.data.shape != (cout,):
        raise ValueError(f"bias must have shape ({cout},), got {bias.data.shape}")


def _pad(xd, m):
    """Zero-pad every spatial axis of a (cin, ...) array by m // 2 on each side."""
    p = m // 2
    xp = np.zeros([xd.shape[0]] + [n + 2 * p for n in xd.shape[1:]], dtype=xd.dtype)
    xp[(slice(None),) + (slice(p, -p or None),) * (xd.ndim - 1)] = xd
    return xp


def _im2col(xp, m):
    """(cin * m**nd, positions) patch matrix of a padded (cin, ...) array.

    Rows run over (channel, kernel offsets), columns over output positions,
    both in C order. The patches are a read-only strided view of the
    contiguous ``xp``; the reshape makes the one copy."""
    cin, nd = xp.shape[0], xp.ndim - 1
    out = tuple([n - m + 1 for n in xp.shape[1:]])
    view = np.ndarray((cin,) + (m,) * nd + out, xp.dtype, buffer=xp, offset=0,
                      strides=xp.strides + xp.strides[1:])
    view.flags.writeable = False
    return view.reshape(cin * m ** nd, -1)


def _conv_forward(xd, kd):
    """Unbiased same-padded conv of a (cin, ...) array."""
    cout, m = kd.shape[0], kd.shape[-1]
    y = kd.reshape(cout, -1) @ _im2col(_pad(xd, m), m)
    return y.reshape(cout, *xd.shape[1:])


def _flip_kernel(kd):
    """Input-gradient kernel: spatial axes reversed, in/out channels swapped.

    For a same-padded stride-1 cross-correlation, the gradient w.r.t. the
    input is the same conv applied to the output gradient with this kernel
    (Dumoulin & Visin, arXiv:1603.07285)."""
    return np.flip(kd, axis=tuple(range(2, kd.ndim))).swapaxes(0, 1)


def _conv_grads(xd, kd, g, need_x):
    """Input (None unless ``need_x``) and kernel gradients of a conv under ``g``."""
    cout, m = kd.shape[0], kd.shape[-1]
    # g2d @ cols.T, faster with the large cols untransposed (the same bits
    # on OpenBLAS's SkylakeX kernel, not on every kernel); the small
    # transposed product is copied to C order for the optimiser
    gk = np.ascontiguousarray((_im2col(_pad(xd, m), m) @ g.reshape(cout, -1).T).T)
    gx = _conv_forward(g, _flip_kernel(kd)) if need_x else None
    return gx, gk.reshape(kd.shape)


def _conv_same(x, kernel, bias, nd):
    xd, kd = x.data, kernel.data
    _check_conv(xd, kd, bias, nd)
    if bias is None and isinstance(x, Zero):
        return Zero((kd.shape[0],) + xd.shape[1:], np.result_type(xd, kd))
    y = _conv_forward(xd, kd)
    if bias is not None:
        y += bias.data.reshape(-1, *(1,) * nd)
    need_x = x._node is not None  # the frames take no gradient: skip a whole conv
    inputs = (x, kernel) if bias is None else (x, kernel, bias)

    def vjp(g):
        gx, gk = _conv_grads(xd, kd, g, need_x)
        return (gx, gk) if bias is None else (gx, gk, g.sum(axis=tuple(range(1, nd + 1))))

    return _record(y, inputs, vjp)


def conv2d_same(x, kernel, bias=None):
    """Zero-padded same-size 2D cross-correlation with stride 1.

    ``x`` is (cin, H, W), ``kernel`` (cout, cin, m, m) with m odd, ``bias``
    an optional (cout,) tensor added per output channel. Output is
    (cout, H, W)."""
    return _conv_same(x, kernel, bias, 2)


def conv3d_same(x, kernel, bias=None):
    """Zero-padded same-size 3D cross-correlation over (time, height, width).

    ``x`` is (cin, T, H, W), ``kernel`` (cout, cin, f, f, f) with f odd.
    Output is (cout, T, H, W)."""
    return _conv_same(x, kernel, bias, 3)


# --- the ConvMGU recurrence ---------------------------------------------------


def mgu_step(zf, zh, h_prev, u_f, u_h):
    """One ConvMGU step from the input terms zf = W_f * x + b_f, zh = W_h * x + b_h.
    Returns h = (1 - f) o h_prev + f o tanh(zh + U_h * (f o h_prev)), one tape record
    keeping h_prev, f and the candidate, and the untracked gate f = sigmoid(zf + U_f * h_prev).
    A Zero h_prev skips both recurrent convs (untracked conv2d_same calls) and f o h_prev."""
    zero = isinstance(h_prev, Zero)
    hd, kf, kh = h_prev.data, u_f.data, u_h.data
    rf = conv2d_same(h_prev if zero else Tensor(hd), Tensor(kf))
    for t in (zh, h_prev, rf):
        _require_same_shape(zf, t, "mgu_step")
    f = _sigmoid_values(zf.data + rf.data)
    rh = conv2d_same(h_prev if zero else Tensor(f * hd), Tensor(kh))
    _require_same_shape(zh, rh, "mgu_step")
    cand = np.asarray(zh.data + rh.data)
    np.tanh(cand, out=cand)
    need_h = h_prev._node is not None

    def vjp(g):
        # one term per listed input, in the chain's replay order (the update, U_h's
        # conv, the gated state, the gate, U_f's conv), so h_prev's sum keeps its bits
        gf = g * cand - g * hd  # a - b is a + -b, bit for bit
        gc = _times(1.0 - cand * cand, g * f)  # times the tanh derivative
        if zero:
            return (gc, None, None, None, _times(_d_sigmoid(f), gf), None, None)
        g_gated, gk_h = _conv_grads(f * hd, kh, gc, True)
        gf += g_gated * hd
        gz = _times(_d_sigmoid(f), gf)
        gh, gk_f = _conv_grads(hd, kf, gz, need_h)
        return (gc, _times(1.0 - f, g), gk_h, g_gated * f, gz, gh, gk_f)

    y = _times(1.0 - f, hd)
    y += f * cand
    return _record(y, (zh, h_prev, u_h, h_prev, zf, h_prev, u_f), vjp), Tensor(f)
