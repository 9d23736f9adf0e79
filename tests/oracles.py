"""Independent reference implementations used as test oracles.

Everything here is written as plainly as possible (nested loops, direct
formulas) and must stay independent of the implementations it checks.
"""

import numpy as np

from dflow.network import frames_for_flow
from dflow.tensor import (GradTape, Tensor, Zero, _record, add, backward, conv2d_same,
                          sigmoid)
from dflow.training import CurveRecord, DivergenceError, _loss_fn, _val_metrics, _window_at


def conv2d_naive(x, k, b=None):
    """Direct six-nested-loop same-padded cross-correlation."""
    cin, h, w = x.shape
    cout, _, m, _ = k.shape
    pad = m // 2
    out = np.zeros((cout, h, w))
    for o in range(cout):
        for y in range(h):
            for xx in range(w):
                acc = 0.0
                for c in range(cin):
                    for i in range(m):
                        for j in range(m):
                            yy = y + i - pad
                            xj = xx + j - pad
                            if 0 <= yy < h and 0 <= xj < w:
                                acc += k[o, c, i, j] * x[c, yy, xj]
                out[o, y, xx] = acc
        if b is not None:
            out[o] += b[o]
    return out


def conv3d_naive(x, k, b=None):
    """Direct loop same-padded cross-correlation over (time, height, width)."""
    cin, t, h, w = x.shape
    cout, _, f, _, _ = k.shape
    pad = f // 2
    out = np.zeros((cout, t, h, w))
    for o in range(cout):
        for tt in range(t):
            for y in range(h):
                for xx in range(w):
                    acc = 0.0
                    for c in range(cin):
                        for dt in range(f):
                            for i in range(f):
                                for j in range(f):
                                    t2 = tt + dt - pad
                                    y2 = y + i - pad
                                    x2 = xx + j - pad
                                    if 0 <= t2 < t and 0 <= y2 < h and 0 <= x2 < w:
                                        acc += k[o, c, dt, i, j] * x[c, t2, y2, x2]
                    out[o, tt, y, xx] = acc
        if b is not None:
            out[o] += b[o]
    return out


def sigmoid_np(x):
    return 1.0 / (1.0 + np.exp(-x))


def convmgu_step_naive(weights, x, h_prev):
    """One recurrence step from explicit convolutions on plain arrays.

    ``weights`` is a dict with w_f, u_f, b_f, w_h, u_h, b_h arrays."""
    f = sigmoid_np(conv2d_naive(x, weights["w_f"], weights["b_f"])
                   + conv2d_naive(h_prev, weights["u_f"]))
    candidate = np.tanh(conv2d_naive(x, weights["w_h"], weights["b_h"])
                        + conv2d_naive(f * h_prev, weights["u_h"]))
    return (1.0 - f) * h_prev + f * candidate, f


def stack2_naive(weights1, weights2, frames):
    """Unrolled two-layer recurrence; returns every layer-2 state."""
    n1 = weights1["b_f"].shape[0]
    n2 = weights2["b_f"].shape[0]
    h, w = frames[0].shape[1:]
    h1 = np.zeros((n1, h, w))
    h2 = np.zeros((n2, h, w))
    states = []
    for x in frames:
        h1, _ = convmgu_step_naive(weights1, x, h1)
        h2, _ = convmgu_step_naive(weights2, h1, h2)
        states.append(h2)
    return states


def block_naive(weights1, weights2, shortcut_w, shortcut_b, frames):
    """Stack recurrence plus per-step residual slices from a 3D convolution."""
    states = stack2_naive(weights1, weights2, frames)
    stacked = np.stack(frames, axis=1)
    residual = conv3d_naive(stacked, shortcut_w, shortcut_b)
    return np.stack([states[t] + residual[:, t] for t in range(len(frames))])


def _mean_pairwise(dists, same_cluster):
    # dists: (n, m) block of distances from each of n points to m points
    if same_cluster:
        n = dists.shape[0]
        if n < 2:
            return None
        return (dists.sum(axis=1)) / (n - 1)  # diagonal is zero
    return dists.mean(axis=1)


def silhouette_naive(pred, image_pixels, seed=0):
    """The silhouette score as first written, with full (n, m, 3) difference
    arrays; same sampling (at most 1000 pixels per class) and summation order,
    so results must match ``losses.silhouette_score`` bit for bit. ``pred``
    must be a binary mask with at least 2 pixels."""
    mask = np.asarray(pred, dtype=np.float64).reshape(-1)
    px = np.asarray(image_pixels, dtype=np.float64)
    features = px.reshape(3, -1).T
    fg_idx = np.flatnonzero(mask == 1.0)
    bg_idx = np.flatnonzero(mask == 0.0)
    if fg_idx.size == 0 or bg_idx.size == 0:
        return 0.0

    rng = np.random.default_rng(seed)
    if fg_idx.size > 1000:
        fg_idx = rng.choice(fg_idx, size=1000, replace=False)
    if bg_idx.size > 1000:
        bg_idx = rng.choice(bg_idx, size=1000, replace=False)
    fg = features[fg_idx]
    bg = features[bg_idx]

    def dist(a, b):
        d2 = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
        return np.sqrt(d2)

    d_ff = dist(fg, fg)
    d_bb = dist(bg, bg)
    d_fb = dist(fg, bg)

    scores = []
    for own, cross in ((d_ff, d_fb), (d_bb, d_fb.T)):
        a = _mean_pairwise(own, same_cluster=True)
        b = _mean_pairwise(cross, same_cluster=False)
        if a is None:  # singleton cluster: every point scores 0
            scores.append(np.zeros(cross.shape[0]))
            continue
        denom = np.maximum(a, b)
        s = np.where(denom > 0.0, (b - a) / np.where(denom > 0.0, denom, 1.0), 0.0)
        scores.append(s)
    return float(np.concatenate(scores).mean())


def brute_force_local_mean(g, window, weights=None):
    """Sliding-window (optionally weighted) mean with edge replication."""
    h, w = g.shape
    half = window // 2
    out = np.zeros_like(g)
    if weights is None:
        weights = np.full((window, window), 1.0 / window ** 2)
    for y in range(h):
        for x in range(w):
            acc = 0.0
            for i in range(window):
                for j in range(window):
                    yy = min(max(y + i - half, 0), h - 1)
                    xx = min(max(x + j - half, 0), w - 1)
                    acc += weights[i, j] * g[yy, xx]
            out[y, x] = acc
    return out


def otsu_variances_naive(levels):
    """The between-class variance w0 * w1 * (mu0 - mu1) ** 2 of every split of
    integer levels into <= t and > t, for t = 0..255, by brute force over the
    pixels; None where a class is empty."""
    x = np.asarray(levels).reshape(-1)
    variances = []
    for t in range(256):
        low, high = x[x <= t], x[x > t]
        if low.size == 0 or high.size == 0:
            variances.append(None)
            continue
        w0, w1 = low.size / x.size, high.size / x.size
        variances.append(w0 * w1 * (low.mean() - high.mean()) ** 2)
    return variances


def gaussian_grid(window, sigma):
    """The normalised 2-D Gaussian window, built on the whole grid of offsets."""
    half = window // 2
    ax = np.arange(-half, half + 1, dtype=np.float64)
    yy, xx = np.meshgrid(ax, ax, indexing="ij")
    w = np.exp(-(xx ** 2 + yy ** 2) / (2.0 * sigma ** 2))
    return w / w.sum()


# --- tape primitives that only the chains and the tests use ---------------------
# Each records one op on the active tape through ``dflow.tensor._record``, like
# the library's own primitives.


def tanh(a):
    """Hyperbolic tangent, elementwise; maps into (-1, 1)."""
    y = np.tanh(a.data)

    def vjp(g):
        return (g * (1.0 - y * y),)

    return _record(y, (a,), vjp)


def hadamard(a, b):
    """Elementwise product; shapes must match exactly."""
    if a.data.shape != b.data.shape:
        raise ValueError(f"hadamard: shape mismatch {a.data.shape} vs {b.data.shape}")
    ad, bd = a.data, b.data

    def vjp(g):
        return (g * bd, g * ad)

    return _record(ad * bd, (a, b), vjp)


def scale(a, c):
    """Multiply by a Python scalar constant."""
    c = float(c)

    def vjp(g):
        return (g * c,)

    return _record(a.data * c, (a,), vjp)


def sub_from_one(a):
    """1 - x elementwise (the gate complement in a convex combination)."""

    def vjp(g):
        return (-g,)

    return _record(1.0 - a.data, (a,), vjp)


def log(a):
    """Natural logarithm; caller is responsible for keeping values positive."""
    ad = a.data

    def vjp(g):
        return (g / ad,)

    return _record(np.log(ad), (a,), vjp)


def clamp(a, lo, hi):
    """Clip into [lo, hi]; gradient is zero where the clip is active."""
    ad = a.data
    interior = (ad > lo) & (ad < hi)

    def vjp(g):
        return (g * interior,)

    return _record(np.clip(ad, lo, hi), (a,), vjp)


def power(a, exponent):
    """x**p for a constant real exponent p >= 0 (values must be non-negative
    when p is fractional)."""
    p = float(exponent)
    if p < 0:
        raise ValueError("exponent must be non-negative")
    ad = a.data

    def vjp(g):
        if p == 0.0:
            return (np.zeros_like(ad),)
        return (g * p * ad ** (p - 1.0),)

    return _record(ad ** p, (a,), vjp)


def sum_all(a):
    """Sum of all entries, as a rank-0 tensor."""
    shape, dtype = a.data.shape, a.data.dtype

    def vjp(g):
        return (np.full(shape, float(g), dtype),)

    return _record(a.data.sum(), (a,), vjp)


def mean_all(a):
    """Mean of all entries, as a rank-0 tensor."""
    n = a.data.size
    shape, dtype = a.data.shape, a.data.dtype

    def vjp(g):
        return (np.full(shape, float(g) / n, dtype),)

    return _record(a.data.sum() / n, (a,), vjp)


# --- primitive chains the fused tape records replace ----------------------------
# Each is the code the fused op replaced, kept verbatim: 13 records per cell
# step, 9 per BCE and 12 per focal loss. The fused records must reproduce
# their values and gradients bit for bit.

# The records the library writes instead: per cell step (its two input convs
# and mgu_step), and per training window (forward plus loss) at k = 4 with
# two flows, for each model kind
CELL_STEP_RECORDS = 3
DESK_WINDOW_RECORDS = 64
BLOCK_WINDOW_RECORDS = 70


def mgu_step_chain(cell, x, h_prev):
    """``ConvMguCell.step_with_gate`` as a chain of primitives; returns (h_t, f_t).
    A Zero state skips U_f, U_h and the gated state, as the library does."""
    f = sigmoid(add(conv2d_same(x, cell.w_f, cell.b_f), conv2d_same(h_prev, cell.u_f)))
    gated_prev = h_prev if isinstance(h_prev, Zero) else hadamard(f, h_prev)
    candidate = tanh(
        add(conv2d_same(x, cell.w_h, cell.b_h), conv2d_same(gated_prev, cell.u_h)))
    h = add(hadamard(sub_from_one(f), h_prev), hadamard(f, candidate))
    return h, f


def bce_loss_chain(p, y, eps=1e-7):
    """Mean binary cross entropy -[y ln p + (1-y) ln(1-p)], p clamped to
    [eps, 1-eps]."""
    yt = Tensor(y)
    pc = clamp(p, eps, 1.0 - eps)
    pos = hadamard(yt, log(pc))
    neg = hadamard(sub_from_one(yt), log(sub_from_one(pc)))
    return scale(mean_all(add(pos, neg)), -1.0)


def focal_loss_chain(p, y, alpha=0.25, gamma=2.0, eps=1e-7):
    """Mean focal loss -alpha_t (1 - p_t)^gamma ln p_t."""
    yt = Tensor(y)
    one_minus_y = sub_from_one(yt)
    alpha_t = Tensor(alpha * yt.data + (1.0 - alpha) * one_minus_y.data)
    pc = clamp(p, eps, 1.0 - eps)
    pt = add(hadamard(yt, pc), hadamard(one_minus_y, sub_from_one(pc)))
    modulator = power(sub_from_one(pt), gamma)
    weighted = hadamard(alpha_t, hadamard(modulator, log(pt)))
    return scale(mean_all(weighted), -1.0)


def finite_difference(fn, arr, h=1e-6):
    """Central-difference gradient of scalar fn w.r.t. every entry of arr
    (perturbed in place and restored)."""
    grad = np.zeros_like(arr)
    flat = arr.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = fn()
        flat[i] = orig - h
        down = fn()
        flat[i] = orig
        gflat[i] = (up - down) / (2.0 * h)
    return grad


def rel_err(a, b, floor=1e-5):
    return np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)


def cell_weight_arrays(cell):
    return {name: t.data for name, t in cell.parameters().items()}


# --- the flows run one after the other --------------------------------------------


def forward_window_sequential(model, frames_rgb):
    """``DFlowModel.forward_window`` as it was before the flows ran
    concurrently: each flow in turn on the calling thread, straight onto the
    active tape. The concurrent forward must match its probabilities and
    gradients bit for bit."""
    expected = model.config.k + 1
    if len(frames_rgb) != expected:
        raise ValueError(f"model needs {expected} frames, got {len(frames_rgb)}")
    fused = None
    for _, space, flow in model._flows():
        features = flow.forward(frames_for_flow(frames_rgb, space))
        fused = features if fused is None else add(fused, features)
    return model._decode(fused)


# --- a whole batch on one tape ----------------------------------------------------


def resume_one_tape(run, data):
    """``dflow.training.resume`` as it was when a step recorded every window
    of its batch on one tape before replaying any of them. The per-window
    replay must match its parameters, Adam moments, ``.grad`` (sign bits
    included), curve losses and divergence message bit for bit."""
    config = run.config
    windows, val_windows = data["train"], data.get("val", [])
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
        with GradTape() as tape:
            loss = None
            for seq in batch:
                term = loss_fn(run.model.forward_window(seq.frames), seq.label)
                loss = term if loss is None else add(loss, term)
            if config.batch_size > 1:
                loss = scale(loss, 1.0 / config.batch_size)
        loss_value = loss.item()
        if not np.isfinite(loss_value):
            raise DivergenceError(
                f"non-finite training loss {loss_value!r} at step {step} "
                f"(seed {config.seed}, lr {config.lr})")
        backward(tape, loss, params.values())

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
        run.curve.append(CurveRecord(step, loss_value, val_loss, val_dice))
    return run
