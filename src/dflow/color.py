"""Pixel-exact colour-space conversions feeding the network flows.

Images are (3, H, W) float arrays in [0, 1], tagged with the space that
produced them. YUV is the full-range variant (luma weights 0.299/0.587/0.114,
chroma offset +0.5) so every channel shares the network's [0, 1] input range;
HSV is the standard hexcone with hue normalised to [0, 1].
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
    """A (3, H, W) image in [0, 1] tagged with its colour space.

    ``ColorImage(pixels, space)`` holds float pixels. ``from_samples`` holds a
    C-order copy of a netpbm file's (3, H, W) integer samples instead, at 1
    byte per 8-bit sample rather than 8; ``pixels`` then divides them by
    maxval on every read. Treat ``pixels`` as read-only."""

    __slots__ = ("_stored", "_maxval", "space")

    def __init__(self, pixels, space):
        self._hold(np.asarray(pixels, dtype=np.float64), None, space)

    @classmethod
    def from_samples(cls, samples, maxval, space):
        img = cls.__new__(cls)
        img._hold(np.array(samples, order="C"), maxval, space)  # a copy: the file's bytes can go
        return img

    def _hold(self, stored, maxval, space):
        if stored.ndim != 3 or stored.shape[0] != 3:
            raise ValueError(f"expected shape (3, H, W), got {stored.shape}")
        if space not in ("rgb", "yuv", "hsv"):
            raise ValueError(f"unknown colour space {space!r}")
        self._stored, self._maxval, self.space = stored, maxval, space

    @property
    def pixels(self):
        if self._maxval is None:
            return self._stored
        return self._stored.astype(np.float64) / self._maxval

    @property
    def height(self):
        return self._stored.shape[1]

    @property
    def width(self):
        return self._stored.shape[2]


def _require_space(img, space, op):
    if img.space != space:
        raise ValueError(f"{op} expects a {space} image, got {img.space}")


def _apply_affine(px, matrix, offset):
    h, w = px.shape[1:]
    flat = matrix @ px.reshape(3, h * w) + offset[:, None]
    return flat.reshape(3, h, w)


def rgb_to_yuv(img):
    """Full-range RGB -> YUV: Y = 0.299R + 0.587G + 0.114B, chroma offset +0.5.

    For RGB in [0, 1] every output channel already lies in [0, 1]; the clamp
    only trims float round-off at the boundaries."""
    _require_space(img, "rgb", "rgb_to_yuv")
    out = _apply_affine(img.pixels, RGB_TO_YUV_MATRIX, YUV_OFFSET)
    return ColorImage(np.clip(out, 0.0, 1.0), "yuv")


def yuv_to_rgb(img):
    """Exact matrix inverse of :func:`rgb_to_yuv`, then clamped to [0, 1]."""
    _require_space(img, "yuv", "yuv_to_rgb")
    shifted = img.pixels - YUV_OFFSET[:, None, None]
    out = _apply_affine(shifted, _YUV_TO_RGB_MATRIX, np.zeros(3))
    return ColorImage(np.clip(out, 0.0, 1.0), "rgb")


def rgb_to_hsv(img):
    """Hexcone RGB -> HSV with hue normalised to [0, 1].

    Conventions: H = 0 when max = min (achromatic), S = 0 when max = 0."""
    _require_space(img, "rgb", "rgb_to_hsv")
    px = img.pixels
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
    return ColorImage(np.clip(np.stack([h, s, mx]), 0.0, 1.0), "hsv")


def extract_y(img):
    """The luma channel of a YUV image, as a (1, H, W) array."""
    _require_space(img, "yuv", "extract_y")
    return img.pixels[0:1].copy()
