"""Training objectives (BCE, focal) and mask metrics (Dice, silhouette).

Losses take the predicted probability map as a tape tensor so gradients flow
back through the network; the label is treated as a constant. Each loss is
one tape record whose vjp is written out by hand: it returns the terms the
chain of elementwise primitives (clamp, log, products, mean) would sum, in
the same order, so losses and gradients keep the chain's bits. Metrics are
plain numpy and operate on thresholded binary masks.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, _record

__all__ = [
    "validate_label_mask",
    "bce_loss",
    "focal_loss",
    "dice_coefficient",
    "silhouette_score",
]

CLAMP_EPS = 1e-7
# rows of a cluster's own distance matrix that silhouette_score holds at once
_SILHOUETTE_BLOCK = 64


def validate_label_mask(label):
    lab = np.asarray(label, dtype=np.float64)
    if not np.all((lab == 0.0) | (lab == 1.0)):
        raise ValueError("label mask must be strictly binary")
    return lab


def _label_and_clamp(p, y):
    """The binary label, p clipped to [CLAMP_EPS, 1-CLAMP_EPS], and the mask
    where the clip is inactive. An empty prediction has no mean loss."""
    pd = p.data
    if pd.size == 0:
        raise ValueError(f"empty prediction of shape {pd.shape}")
    yd = y.data if isinstance(y, Tensor) else np.asarray(y, dtype=np.float64)
    if yd.shape != pd.shape:
        raise ValueError(f"label shape {yd.shape} does not match prediction {pd.shape}")
    lo, hi = CLAMP_EPS, 1.0 - CLAMP_EPS
    return validate_label_mask(yd), np.clip(pd, lo, hi), (pd > lo) & (pd < hi)


def _mean_loss(p, terms, interior, grad_pc):
    """One tape record for -mean(terms), the terms a function of the clipped p.

    ``grad_pc(gs)`` is the gradient w.r.t. the clipped p when every term's
    upstream gradient is gs; the vjp zeroes it where the clip is active."""
    n = terms.size

    def vjp(g):
        return (grad_pc(float(g * -1.0) / n) * interior,)

    return _record((terms.sum() / n) * -1.0, (p,), vjp)


def bce_loss(p, y):
    """Mean binary cross entropy -[y ln p + (1-y) ln(1-p)], p clamped to
    [CLAMP_EPS, 1-CLAMP_EPS]."""
    yd, pc, interior = _label_and_clamp(p, y)
    omy, omp = 1.0 - yd, 1.0 - pc
    terms = yd * np.log(pc) + omy * np.log(omp)

    def grad_pc(gs):
        return -((gs * omy) / omp) + (gs * yd) / pc

    return _mean_loss(p, terms, interior, grad_pc)


def focal_loss(p, y, alpha=0.25, gamma=2.0):
    """Mean focal loss -alpha_t (1 - p_t)^gamma ln p_t.

    p_t is p where y = 1 and 1-p otherwise; alpha_t is alpha on positives and
    1-alpha on negatives. With gamma = 0 and alpha = 0.5 this is exactly half
    the BCE."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    if gamma < 0.0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    yd, pc, interior = _label_and_clamp(p, y)
    omy, omp = 1.0 - yd, 1.0 - pc
    alpha_t = alpha * yd + (1.0 - alpha) * omy
    pt = yd * pc + omy * omp
    ompt = 1.0 - pt
    q = float(gamma)
    modulator = ompt ** q
    log_pt = np.log(pt)
    terms = alpha_t * (modulator * log_pt)

    def grad_pc(gs):
        g_inner = gs * alpha_t
        d_mod = 0.0 if q == 0.0 else g_inner * log_pt * q * ompt ** (q - 1.0)
        g_pt = (g_inner * modulator) / pt + -d_mod
        return -(g_pt * omy) + g_pt * yd

    return _mean_loss(p, terms, interior, grad_pc)


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


def _distances(a, b, out, scratch):
    """Euclidean distances from the columns of ``a`` to those of ``b``, built
    in ``out`` with ``scratch``, both of shape (a.shape[1], b.shape[1]): one
    colour channel at a time, summed in the order numpy sums a length-3 axis."""
    np.square(np.subtract.outer(a[0], b[0], out=out), out=out)
    for c in (1, 2):
        out += np.square(np.subtract.outer(a[c], b[c], out=scratch), out=scratch)
    return np.sqrt(out, out=out)


def silhouette_score(pred, image_pixels, sample_n=1000, seed=0):
    """Mean silhouette s(i) = (b - a) / max(a, b) over sampled pixels.

    Features are the 3 colour channels of ``image_pixels``; the two clusters
    are the predicted target / non-target pixels. Up to ``sample_n`` pixels
    per class are drawn deterministically from ``seed``. Returns 0.0 when
    either class is empty; singleton clusters contribute s = 0.

    Memory is O(block * n + nf * nb) for nf target and nb non-target samples
    (n the larger): the target-to-background distances are held whole, each
    cluster's own distances only ``_SILHOUETTE_BLOCK`` rows at a time."""
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

    shape = (fg.shape[1], bg.shape[1])
    d_fb = _distances(fg, bg, np.empty(shape), np.empty(shape))
    scores = []
    for own, cross in ((fg, d_fb), (bg, d_fb.T)):
        n = own.shape[1]
        if n < 2:  # singleton cluster: every point scores 0
            scores.append(np.zeros(n))
            continue
        # each block's row sums are the whole matrix's (the diagonal is zero)
        out = np.empty((min(n, _SILHOUETTE_BLOCK), n))
        scratch = np.empty_like(out)
        a = np.empty(n)
        for i in range(0, n, _SILHOUETTE_BLOCK):
            rows = own[:, i:i + _SILHOUETTE_BLOCK]
            k = rows.shape[1]
            a[i:i + k] = _distances(rows, own, out[:k], scratch[:k]).sum(axis=1)
        a /= n - 1
        b = cross.mean(axis=1)
        denom = np.maximum(a, b)
        s = np.where(denom > 0.0, (b - a) / np.where(denom > 0.0, denom, 1.0), 0.0)
        scores.append(s)
    return float(np.concatenate(scores).mean())
