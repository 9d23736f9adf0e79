"""Training objectives (BCE, focal) and mask metrics (Dice, silhouette).

Losses take the predicted probability map as a tape tensor so gradients flow
back through the network; the label is treated as a constant. Both losses
are one focal record, -mean(alpha_t (1 - p_t)^gamma ln p_t), whose vjp is
written out by hand: it returns the terms the chain of elementwise
primitives (clamp, log, products, mean) would sum, in the same order, so
losses and gradients keep the chain's bits. BCE is that record at
alpha_t = 1 and gamma = 0, where every term is exactly ln p_t and every
product the BCE chain adds in is an exact zero, so it keeps the BCE chain's
bits too. Metrics are plain numpy and operate on thresholded binary masks.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .tensor import _CPUS, Tensor, _record, _run_all

__all__ = [
    "validate_label_mask",
    "bce_loss",
    "focal_loss",
    "dice_coefficient",
    "silhouette_score",
]

CLAMP_EPS = 1e-7
# distance rows that silhouette_score builds at once, over all its groups
_SILHOUETTE_BLOCK = 64
# pixels silhouette_score samples at most from each class
_SILHOUETTE_SAMPLE = 1000


def validate_label_mask(label):
    lab = np.asarray(label, dtype=np.float64)
    if not np.all((lab == 0.0) | (lab == 1.0)):
        raise ValueError("label mask must be strictly binary")
    return lab


def _focal_record(p, y, alpha_pos, alpha_neg, gamma):
    """One tape record for the mean focal loss -alpha_t (1 - p_t)^gamma ln p_t,
    p clamped to [CLAMP_EPS, 1-CLAMP_EPS]: p_t is p where y = 1 and 1-p
    otherwise, alpha_t is alpha_pos on positives and alpha_neg on negatives.
    The vjp zeroes the gradient where the clamp is active. An empty prediction
    has no mean loss."""
    pd = p.data
    if pd.size == 0:
        raise ValueError(f"empty prediction of shape {pd.shape}")
    yd = y.data if isinstance(y, Tensor) else np.asarray(y, dtype=np.float64)
    if yd.shape != pd.shape:
        raise ValueError(f"label shape {yd.shape} does not match prediction {pd.shape}")
    yd, lo, hi = validate_label_mask(yd), CLAMP_EPS, 1.0 - CLAMP_EPS
    pc, interior = np.clip(pd, lo, hi), (pd > lo) & (pd < hi)
    omy, omp = 1.0 - yd, 1.0 - pc
    alpha_t = alpha_pos * yd + alpha_neg * omy
    pt = yd * pc + omy * omp
    ompt = 1.0 - pt
    modulator = ompt ** gamma
    log_pt = np.log(pt)
    terms = alpha_t * (modulator * log_pt)
    n = terms.size

    def vjp(g):
        g_inner = (float(g * -1.0) / n) * alpha_t
        d_mod = 0.0 if gamma == 0.0 else g_inner * log_pt * gamma * ompt ** (gamma - 1.0)
        g_pt = (g_inner * modulator) / pt + -d_mod
        return ((-(g_pt * omy) + g_pt * yd) * interior,)

    return _record((terms.sum() / n) * -1.0, (p,), vjp)


def bce_loss(p, y):
    """Mean binary cross entropy -[y ln p + (1-y) ln(1-p)], p clamped to
    [CLAMP_EPS, 1-CLAMP_EPS]: the focal record at alpha_t = 1, gamma = 0."""
    return _focal_record(p, y, 1.0, 1.0, 0.0)


def focal_loss(p, y, alpha=0.25, gamma=2.0):
    """Mean focal loss -alpha_t (1 - p_t)^gamma ln p_t, alpha_t being alpha on
    positives and 1-alpha on negatives. With gamma = 0 and alpha = 0.5 this is
    exactly half the BCE."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    if not (np.isfinite(gamma) and gamma >= 0.0):
        raise ValueError(f"gamma must be finite and >= 0, got {gamma}")
    return _focal_record(p, y, alpha, 1.0 - alpha, float(gamma))


def dice_coefficient(pred, label):
    """2|A n B| / (|A| + |B|) on binary masks; 1.0 when both are empty."""
    a = validate_label_mask(pred)
    b = validate_label_mask(label)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    total = a.sum() + b.sum()
    if total == 0.0:
        return 1.0
    return float(2.0 * (a * b).sum() / total)


def _distances(a, b, diff, out):
    """Euclidean distances from the columns of ``a`` to those of ``b``, built
    in ``out`` of shape (a.shape[1], b.shape[1]) with ``diff`` of shape
    (3, *out.shape): each channel's difference is a broadcast copy of ``b[c]``
    subtracted in place from ``a[c]``, and the squares are summed in the
    order numpy sums a length-3 axis. ``out`` may be ``diff[0]``."""
    diff[...] = b[:, None, :]
    np.square(np.subtract(a[:, :, None], diff, out=diff), out=diff)
    np.add(diff[0], diff[1], out=out)
    out += diff[2]
    return np.sqrt(out, out=out)


def _distance_group(blocks, size):
    """Distances of each (rows, others, out, sums) block of at most ``size``:
    written to ``out``, or built in a buffer whose row sums go to ``sums``."""
    buf = np.empty(3 * size)
    for rows, others, out, sums in blocks:
        diff = buf[:3 * rows.shape[1] * others.shape[1]].reshape(3, rows.shape[1], -1)
        if out is not None:
            _distances(rows, others, diff, out)
        else:
            sums[:] = _distances(rows, others, diff, diff[0]).sum(axis=1)


def silhouette_score(pred, image_pixels, seed=0):
    """Mean silhouette s(i) = (b - a) / max(a, b) over sampled pixels.

    Features are the 3 colour channels of ``image_pixels``; the two clusters
    are the predicted target / non-target pixels. Up to ``_SILHOUETTE_SAMPLE``
    (1000) pixels per class are drawn deterministically from ``seed``. Returns
    0.0 when either class is empty; singleton clusters contribute s = 0.

    Distances are built ``_SILHOUETTE_BLOCK`` rows at a time in all, the rows
    shared out as one group per usable CPU on the branch pool; each distance
    and row sum is the same on any split. Memory is O(block * n + nf * nb)
    for nf target and nb non-target samples (n the larger): only the
    target-to-background distances are held whole. A desk window (74 of
    32x32 pixels in the target) peaks at 2.1 MiB traced."""
    mask = validate_label_mask(pred).reshape(-1)
    px = np.asarray(image_pixels, dtype=np.float64)
    if px.ndim != 3 or px.shape[0] != 3:
        raise ValueError(f"expected image pixels (3, H, W), got {px.shape}")
    if px.shape[1] * px.shape[2] != mask.size:
        raise ValueError("image and mask spatial sizes differ")
    if mask.size < 2:
        raise ValueError("need at least 2 pixels for a silhouette")

    features = px.reshape(3, -1)
    fg_idx = np.flatnonzero(mask == 1.0)
    bg_idx = np.flatnonzero(mask == 0.0)
    if fg_idx.size == 0 or bg_idx.size == 0:
        return 0.0

    rng = np.random.default_rng(seed)
    if fg_idx.size > _SILHOUETTE_SAMPLE:
        fg_idx = rng.choice(fg_idx, size=_SILHOUETTE_SAMPLE, replace=False)
    if bg_idx.size > _SILHOUETTE_SAMPLE:
        bg_idx = rng.choice(bg_idx, size=_SILHOUETTE_SAMPLE, replace=False)
    fg = features[:, fg_idx]
    bg = features[:, bg_idx]

    nf, nb = fg.shape[1], bg.shape[1]
    d_fb, sums = np.empty((nf, nb)), (np.empty(nf), np.empty(nb))
    step = -(-_SILHOUETTE_BLOCK // _CPUS)
    blocks = [(fg[:, i:i + step], bg, d_fb[i:i + step], None) for i in range(0, nf, step)]
    # each block's row sums are the whole matrix's (the diagonal is zero)
    blocks += [(own[:, i:i + step], own, None, a[i:i + step])
               for own, a in zip((fg, bg), sums) for i in range(0, own.shape[1], step)]
    _run_all([partial(_distance_group, blocks[g::_CPUS], step * max(nf, nb))
              for g in range(_CPUS)])
    scores = []
    for own, cross, a in zip((fg, bg), (d_fb, d_fb.T), sums):
        n = own.shape[1]
        if n < 2:  # singleton cluster: every point scores 0
            scores.append(np.zeros(n))
            continue
        a /= n - 1
        b = cross.mean(axis=1)
        denom = np.maximum(a, b)
        s = np.where(denom > 0.0, (b - a) / np.where(denom > 0.0, denom, 1.0), 0.0)
        scores.append(s)
    return float(np.concatenate(scores).mean())
