"""Training objectives (BCE, focal) and mask metrics (Dice, silhouette).

Losses take the predicted probability map as a tape tensor so gradients flow
back through the network; the label is treated as a constant. Metrics are
plain numpy and operate on thresholded binary masks.
"""

from __future__ import annotations

import numpy as np

from .tensor import (
    Tensor,
    add,
    clamp,
    hadamard,
    log,
    mean_all,
    power,
    scale,
    sub_from_one,
)

__all__ = [
    "validate_label_mask",
    "bce_loss",
    "focal_loss",
    "dice_coefficient",
    "silhouette_score",
]

CLAMP_EPS = 1e-7


def validate_label_mask(label):
    lab = np.asarray(label, dtype=np.float64)
    if not np.all((lab == 0.0) | (lab == 1.0)):
        raise ValueError("label mask must be strictly binary")
    return lab


def _as_const_tensor(y, shape):
    yd = y.data if isinstance(y, Tensor) else np.asarray(y, dtype=np.float64)
    if yd.shape != shape:
        raise ValueError(f"label shape {yd.shape} does not match prediction {shape}")
    return Tensor(validate_label_mask(yd))


def bce_loss(p, y, eps=CLAMP_EPS):
    """Mean binary cross entropy -[y ln p + (1-y) ln(1-p)], p clamped to
    [eps, 1-eps]."""
    yt = _as_const_tensor(y, p.data.shape)
    pc = clamp(p, eps, 1.0 - eps)
    pos = hadamard(yt, log(pc))
    neg = hadamard(sub_from_one(yt), log(sub_from_one(pc)))
    return scale(mean_all(add(pos, neg)), -1.0)


def focal_loss(p, y, alpha=0.25, gamma=2.0, eps=CLAMP_EPS):
    """Mean focal loss -alpha_t (1 - p_t)^gamma ln p_t.

    p_t is p where y = 1 and 1-p otherwise; alpha_t is alpha on positives and
    1-alpha on negatives. With gamma = 0 and alpha = 0.5 this is exactly half
    the BCE."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    if gamma < 0.0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    yt = _as_const_tensor(y, p.data.shape)
    one_minus_y = sub_from_one(yt)
    alpha_t = Tensor(alpha * yt.data + (1.0 - alpha) * one_minus_y.data)
    pc = clamp(p, eps, 1.0 - eps)
    pt = add(hadamard(yt, pc), hadamard(one_minus_y, sub_from_one(pc)))
    modulator = power(sub_from_one(pt), gamma)
    weighted = hadamard(alpha_t, hadamard(modulator, log(pt)))
    return scale(mean_all(weighted), -1.0)


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


def silhouette_score(pred, image_pixels, sample_n=1000, seed=0):
    """Mean silhouette s(i) = (b - a) / max(a, b) over sampled pixels.

    Features are the 3 colour channels of ``image_pixels``; the two clusters
    are the predicted target / non-target pixels. Up to ``sample_n`` pixels
    per class are drawn deterministically from ``seed``. Returns 0.0 when
    either class is empty; singleton clusters contribute s = 0."""
    mask = validate_label_mask(pred).reshape(-1)
    px = np.asarray(image_pixels, dtype=np.float64)
    if px.ndim != 3 or px.shape[0] != 3:
        raise ValueError(f"expected image pixels (3, H, W), got {px.shape}")
    if px.shape[1] * px.shape[2] != mask.size:
        raise ValueError("image and mask spatial sizes differ")
    if mask.size < 2:
        raise ValueError("need at least 2 pixels for a silhouette")
    if sample_n < 2:
        raise ValueError("sample_n must be >= 2")

    features = px.reshape(3, -1)
    fg_idx = np.flatnonzero(mask == 1.0)
    bg_idx = np.flatnonzero(mask == 0.0)
    if fg_idx.size == 0 or bg_idx.size == 0:
        return 0.0

    rng = np.random.default_rng(seed)
    if fg_idx.size > sample_n:
        fg_idx = rng.choice(fg_idx, size=sample_n, replace=False)
    if bg_idx.size > sample_n:
        bg_idx = rng.choice(bg_idx, size=sample_n, replace=False)
    fg = features[:, fg_idx]
    bg = features[:, bg_idx]

    def dist(a, b):
        # one channel at a time, summed in the order numpy sums a length-3 axis
        d2 = (a[0][:, None] - b[0]) ** 2
        d2 += (a[1][:, None] - b[1]) ** 2
        d2 += (a[2][:, None] - b[2]) ** 2
        return np.sqrt(d2, out=d2)

    d_fb = dist(fg, bg)
    scores = []
    for own, cross in ((fg, d_fb), (bg, d_fb.T)):
        n = own.shape[1]
        if n < 2:  # singleton cluster: every point scores 0
            scores.append(np.zeros(n))
            continue
        a = dist(own, own).sum(axis=1) / (n - 1)  # the diagonal is zero
        b = cross.mean(axis=1)
        denom = np.maximum(a, b)
        s = np.where(denom > 0.0, (b - a) / np.where(denom > 0.0, denom, 1.0), 0.0)
        scores.append(s)
    return float(np.concatenate(scores).mean())
