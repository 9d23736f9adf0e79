"""Handcrafted segmentation baselines: adaptive thresholding and a
distance-transform cut.

All three operate on a single grayscale channel in [0, 1] (the luma channel
in this repo's pipelines) and return {0, 1} masks of the input shape. Window
statistics use edge-replication padding. The window means and the exact
distance transform are both separable. A box or Gaussian window is the outer
product of a 1-D window w with itself, so its mean sum_ij w[i] w[j] g[y+i, x+j]
is a w-weighted sum of shifted rows, then of shifted columns of that. Squared
distances along rows are the min-plus convolution d[q] = min_p f[p] + (q - p)^2
of the 0 / +inf background indicator; the same along columns gives the 2D ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._fields import check_fields
from .data import _as_plane

__all__ = [
    "ThresholdParams",
    "adaptive_threshold_mean",
    "adaptive_threshold_gaussian",
    "distance_transform_threshold",
    "otsu_threshold",
    "euclidean_distance_transform",
]


@dataclass(frozen=True)
class ThresholdParams:
    window: int = 11
    c: float = 2.0 / 255.0
    gaussian_sigma: float | None = None  # None -> window / 6
    dt_fraction: float = 0.5

    def __post_init__(self):
        check_fields(self)
        if self.window < 3 or self.window % 2 == 0:
            raise ValueError(f"window must be odd and >= 3, got {self.window}")
        if not 0.0 < self.dt_fraction < 1.0:
            raise ValueError(f"dt_fraction must lie in (0, 1), got {self.dt_fraction}")
        if self.gaussian_sigma is not None and self.gaussian_sigma <= 0.0:
            raise ValueError(f"gaussian_sigma must be positive, got {self.gaussian_sigma}")

    @property
    def sigma(self):
        return self.window / 6.0 if self.gaussian_sigma is None else self.gaussian_sigma


def _local_threshold(gray, weights, c):
    """1 where pixel > its mean over the window outer(weights, weights) - c, else 0."""
    g = _as_plane(gray)
    h, w = g.shape
    gp = np.pad(g, len(weights) // 2, mode="edge")
    rows = sum(wt * gp[i:i + h] for i, wt in enumerate(weights))
    local = sum(wt * rows[:, j:j + w] for j, wt in enumerate(weights))
    return (g > local - c).astype(np.float64).reshape(np.shape(gray))


def adaptive_threshold_mean(gray, params):
    """1 where pixel > local windowed mean - C, else 0."""
    return _local_threshold(gray, np.full(params.window, 1.0 / params.window), params.c)


def _gaussian_weights(window, sigma):
    """The normalised 1-D Gaussian; an x / sigma that overflows weighs 0."""
    with np.errstate(over="ignore"):
        x = np.arange(-(window // 2), window // 2 + 1) / sigma
        w = np.exp(-0.5 * x * x)
    return w / w.sum()


def adaptive_threshold_gaussian(gray, params):
    """Same rule with a normalised Gaussian-weighted window mean."""
    return _local_threshold(gray, _gaussian_weights(params.window, params.sigma), params.c)


def otsu_threshold(gray):
    """Otsu's threshold over a 256-bin histogram; returns the bin value in
    [0, 1] maximising between-class variance, or None when the image has a
    single occupied bin (no split possible)."""
    g = _as_plane(gray)
    levels = np.clip(np.round(g * 255.0), 0, 255).astype(np.int64)
    hist = np.bincount(levels.reshape(-1), minlength=256).astype(np.float64)
    if np.count_nonzero(hist) < 2:
        return None
    total = hist.sum()
    omega = np.cumsum(hist) / total            # class-0 mass for thresholds 0..255
    mu = np.cumsum(hist * np.arange(256)) / total
    mu_total = mu[-1]
    valid = (omega > 0.0) & (omega < 1.0)
    sigma_b = np.zeros(256)
    sigma_b[valid] = (mu_total * omega[valid] - mu[valid]) ** 2 / (
        omega[valid] * (1.0 - omega[valid]))
    return int(np.argmax(sigma_b)) / 255.0


def _min_plus_rows(f):
    """Squared-distance min-plus along each row: d[i, q] = min_p f[i, p] + (q - p)^2.

    One (n, n) parabola table serves every row, so memory is O(n^2) however
    many rows there are. Entries of f are 0, +inf or exact integers, so every
    sum and the minimum are exact."""
    q = np.arange(f.shape[1], dtype=np.float64)
    parabola = (q[:, None] - q[None, :]) ** 2
    out = np.empty_like(f)
    for row, d in zip(f, out):
        np.min(row + parabola, axis=1, out=d, initial=np.inf)
    return out


def euclidean_distance_transform(mask):
    """Exact Euclidean distance of each foreground (1) pixel to the nearest
    background (0) pixel: the separable min-plus identity applied to rows,
    then to the columns of the result. All-foreground inputs yield +inf."""
    m = np.asarray(mask, dtype=bool)
    if m.ndim != 2:
        raise ValueError(f"expected a 2D mask, got shape {m.shape}")
    sq = _min_plus_rows(np.where(m, np.inf, 0.0))
    return np.sqrt(_min_plus_rows(sq.T).T)


def distance_transform_threshold(gray, params):
    """Otsu-binarise, distance-transform the foreground, keep pixels whose
    distance exceeds dt_fraction of the maximum. Degenerate inputs (no
    foreground/background split) produce an empty mask."""
    g = _as_plane(gray)
    thresh = otsu_threshold(g)
    if thresh is None:
        return np.zeros(np.shape(gray))
    # thresh * 255 is exactly a level with pixels on both sides: fg is never empty or full
    fg = np.clip(np.round(g * 255.0), 0, 255) > thresh * 255.0
    dist = euclidean_distance_transform(fg)
    cut = params.dt_fraction * dist.max()
    return (dist > cut).astype(np.float64).reshape(np.shape(gray))
