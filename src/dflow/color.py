"""Pixel-exact colour-space conversions feeding the network flows.

A frame is a :class:`ColorImage`: RGB samples over a maxval. The conversions
take one and return plain (3, H, W) float arrays in [0, 1]. YUV is the
full-range variant (luma weights 0.299/0.587/0.114, chroma offset +0.5) so
every channel shares the network's [0, 1] input range; HSV is the standard
hexcone with hue normalised to [0, 1].
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "ColorImage",
    "rgb_to_yuv",
    "yuv_to_rgb",
    "rgb_to_hsv",
    "extract_y",
    "RGB_TO_YUV_MATRIX",
    "YUV_OFFSET",
]

RGB_TO_YUV_MATRIX = np.array(
    [
        [0.299, 0.587, 0.114],
        [-0.168736, -0.331264, 0.5],
        [0.5, -0.418688, -0.081312],
    ]
)
YUV_OFFSET = np.array([0.0, 0.5, 0.5])
_YUV_TO_RGB_MATRIX = np.linalg.inv(RGB_TO_YUV_MATRIX)


class ColorImage:
    """An RGB frame: a C-order copy of its (3, H, W) samples and their maxval.

    A netpbm file's integer samples are held at 1 byte per 8-bit sample
    rather than 8; float pixels in [0, 1] are samples with maxval 1.
    ``pixels`` divides the samples by maxval on every read."""

    __slots__ = ("_samples", "_maxval")

    def __init__(self, samples, maxval=1):
        samples = np.array(samples, order="C")  # a copy: the caller's buffer can change
        if samples.ndim != 3 or samples.shape[0] != 3:
            raise ValueError(f"expected shape (3, H, W), got {samples.shape}")
        self._samples, self._maxval = samples, maxval

    @property
    def pixels(self):
        return self._samples.astype(np.float64) / self._maxval

    @property
    def height(self):
        return self._samples.shape[1]

    @property
    def width(self):
        return self._samples.shape[2]


def _apply_affine(px, matrix, offset):
    h, w = px.shape[1:]
    flat = matrix @ px.reshape(3, h * w) + offset[:, None]
    return flat.reshape(3, h, w)


def rgb_to_yuv(frame):
    """Full-range RGB -> YUV: Y = 0.299R + 0.587G + 0.114B, chroma offset +0.5.

    For RGB in [0, 1] every output channel already lies in [0, 1]; the clamp
    only trims float round-off at the boundaries."""
    out = _apply_affine(frame.pixels, RGB_TO_YUV_MATRIX, YUV_OFFSET)
    return np.clip(out, 0.0, 1.0)


def yuv_to_rgb(yuv):
    """Exact matrix inverse of :func:`rgb_to_yuv`, then clamped to [0, 1]."""
    shifted = yuv - YUV_OFFSET[:, None, None]
    out = _apply_affine(shifted, _YUV_TO_RGB_MATRIX, np.zeros(3))
    return np.clip(out, 0.0, 1.0)


def rgb_to_hsv(frame):
    """Hexcone RGB -> HSV with hue normalised to [0, 1].

    Conventions: H = 0 when max = min (achromatic), S = 0 when max = 0."""
    px = frame.pixels
    r, g, b = px
    mx = np.max(px, axis=0)
    mn = np.min(px, axis=0)
    delta = mx - mn
    safe_delta = np.where(delta == 0.0, 1.0, delta)

    h = np.zeros_like(mx)
    is_r = (mx == r) & (delta > 0)
    is_g = (mx == g) & (delta > 0) & ~is_r
    is_b = (delta > 0) & ~is_r & ~is_g
    h = np.where(is_r, ((g - b) / safe_delta) % 6.0, h)
    h = np.where(is_g, (b - r) / safe_delta + 2.0, h)
    h = np.where(is_b, (r - g) / safe_delta + 4.0, h)
    h = h / 6.0

    s = np.where(mx == 0.0, 0.0, delta / np.where(mx == 0.0, 1.0, mx))
    return np.clip(np.stack([h, s, mx]), 0.0, 1.0)


def extract_y(yuv):
    """The luma channel of a (3, H, W) YUV array, as a (1, H, W) array."""
    return yuv[0:1].copy()
