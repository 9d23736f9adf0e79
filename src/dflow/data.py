"""Dataset ingestion, windowing, downsampling, and the synthetic scene generator.

Directory convention: ``<root>/<source_id>/frame_%05d.ppm`` colour frames,
``<root>/<source_id>/label_%05d.pgm`` binary masks (0/255), and a
``manifest.json`` at the root:

    {"version": 1,
     "sources": [{"id": ..., "frames": [...], "labels": [...],
                  "split": "train"|"val"|"test",
                  "metadata": {"location": ..., "lighting": ..., "motion": ...}}]}

Frames are binary PPM (P6), masks binary PGM (P5); both are codec-free so a
fixed seed regenerates byte-identical datasets. The synthetic scenes put a
green-dominant moving quadrilateral on a non-green textured background, with
global brightness drift, flickering green distractor patches outside the
target, one in-target line marking (covered by the weak polygon label), and
Gaussian pixel noise.
"""

from __future__ import annotations

import json
import re
import warnings
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from ._fields import check_fields
from .color import ColorImage, unit_floats

__all__ = [
    "FrameSequence",
    "SourceRecord",
    "DatasetManifest",
    "ManifestError",
    "SynthSceneParams",
    "load_manifest",
    "save_manifest",
    "window_sequences",
    "load_split_windows",
    "synth_generate",
    "rasterize_polygon",
    "read_ppm",
    "write_ppm",
    "read_pgm",
    "write_pgm",
    "write_pgm16",
]

SPLITS = ("train", "val", "test")


class ManifestError(ValueError):
    pass


# --- netpbm I/O --------------------------------------------------------------


def _sample_dtype(maxval):
    """Netpbm samples are one byte up to maxval 255, two big-endian bytes above."""
    return np.dtype(">u2" if maxval > 255 else np.uint8)


def _as_plane(values):
    """A (H, W) or (1, H, W) array as a float64 (H, W) array."""
    v = np.asarray(values, dtype=np.float64)
    if v.ndim == 3 and v.shape[0] == 1:
        v = v[0]
    if v.ndim != 2:
        raise ValueError(f"expected (H, W) or (1, H, W), got {np.shape(values)}")
    return v


def _write_netpbm(path, magic, samples, maxval):
    """Write (H, W) or (H, W, channels) integer-valued samples as binary netpbm."""
    h, w = samples.shape[:2]
    with open(path, "wb") as fh:
        fh.write(f"{magic}\n{w} {h}\n{maxval}\n".encode("ascii"))
        fh.write(samples.astype(_sample_dtype(maxval)).tobytes())


def write_ppm(path, pixels):
    """Write a (3, H, W) [0,1] array as binary PPM (P6, maxval 255)."""
    px = np.asarray(pixels, dtype=np.float64)
    if px.ndim != 3 or px.shape[0] != 3:
        raise ValueError(f"expected (3, H, W), got {px.shape}")
    _write_netpbm(path, "P6", np.clip(np.round(px * 255.0), 0, 255).transpose(1, 2, 0), 255)


def write_pgm(path, mask):
    """Write a (H, W) or (1, H, W) {0,1} mask as binary PGM (P5, 0/255)."""
    _write_netpbm(path, "P5", np.where(_as_plane(mask) > 0.5, 255, 0), 255)


def write_pgm16(path, values):
    """Write a (H, W) or (1, H, W) [0,1] array as 16-bit PGM (P5, maxval 65535,
    most significant byte first)."""
    _write_netpbm(path, "P5", np.clip(np.round(_as_plane(values) * 65535.0), 0, 65535), 65535)


def _read_netpbm_header(path, blob, magic):
    """Width, height, maxval and the offset of the first sample. Whitespace
    and comments separate the magic and the three numbers, and exactly one
    whitespace byte ends the header."""
    if not blob.startswith(magic):
        raise ValueError(f"{path}: not a {magic.decode()} file")
    tokens, pos = [], len(magic)
    for name in ("width", "height", "maxval"):
        match = re.compile(rb"(?:\s|#[^\n]*\n)+(\d+)").match(blob, pos)
        if match is None:
            raise ValueError(f"{path}: header lacks a whitespace-separated {name}")
        tokens.append(int(match.group(1)))
        pos = match.end()
    if not blob[pos:pos + 1].isspace():
        raise ValueError(f"{path}: no whitespace after maxval")
    return (*tokens, pos + 1)


def _read_netpbm(path, magic, channels):
    """The integer samples of a binary netpbm file in file order,
    (H, W, channels) and still a view of the file's bytes, and its maxval."""
    blob = Path(path).read_bytes()
    w, h, maxval, offset = _read_netpbm_header(path, blob, magic)
    if w == 0 or h == 0:
        raise ValueError(f"{path}: size {w}x{h} has no pixels")
    if not 1 <= maxval <= 65535:
        raise ValueError(f"{path}: maxval {maxval} is outside 1..65535")
    dtype = _sample_dtype(maxval)
    count = w * h * channels
    if len(blob) - offset < count * dtype.itemsize:
        raise ValueError(f"{path}: payload has {len(blob) - offset} bytes, "
                         f"{count * dtype.itemsize} expected")
    raw = np.frombuffer(blob, dtype=dtype, count=count, offset=offset)
    return raw.reshape(h, w, channels), maxval


def read_ppm(path):
    """Read a binary PPM (8- or 16-bit) into a (3, H, W) float array in [0, 1]."""
    return unit_floats(*_read_netpbm(path, b"P6", 3))


def read_pgm(path):
    """Read a binary PGM (8- or 16-bit) into a (1, H, W) float array in [0, 1]."""
    return unit_floats(*_read_netpbm(path, b"P5", 1))


# --- manifest ----------------------------------------------------------------


@dataclass
class SourceRecord:
    id: str
    frames: list
    labels: list
    split: str
    metadata: dict = field(default_factory=dict)


@dataclass
class DatasetManifest:
    root: Path
    sources: list


def save_manifest(manifest):
    path = Path(manifest.root) / "manifest.json"
    doc = {"version": 1, "sources": [asdict(s) for s in manifest.sources]}
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def _source_record(index, entry):
    if not isinstance(entry, dict):
        raise ManifestError(f"manifest source {index} is not a JSON object")
    for key in ("id", "frames", "labels", "split"):
        if key not in entry:
            raise ManifestError(f"manifest source {index} lacks key {key!r}")
    for key in ("id", "split"):
        if not isinstance(entry[key], str):
            raise ManifestError(f"manifest source {index}: {key!r} is not a string")
    for key in ("frames", "labels"):
        if not isinstance(entry[key], list):
            raise ManifestError(f"manifest source {index}: {key!r} is not a list")
        for pos, rel in enumerate(entry[key]):
            if not isinstance(rel, str):
                raise ManifestError(
                    f"manifest source {index}: {key!r} entry {pos} is not a string")
    if not isinstance(entry.get("metadata", {}), dict):
        raise ManifestError(f"manifest source {index}: 'metadata' is not an object")
    return SourceRecord(id=entry["id"], frames=entry["frames"], labels=entry["labels"],
                        split=entry["split"], metadata=dict(entry.get("metadata", {})))


def load_manifest(path):
    """Load and validate a manifest; raises ManifestError naming every missing
    file, any unknown split tag, or duplicated source ids, and naming the
    first source that is not an object, lacks a key, has a non-string id or
    split, has frames/labels that are not lists of strings, or has a
    metadata value that is not an object."""
    path = Path(path)
    if path.is_dir():
        path = path / "manifest.json"
    try:
        doc = json.loads(path.read_text())
    except FileNotFoundError:
        raise ManifestError(f"manifest not found: {path}")
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ManifestError(f"manifest does not parse: {exc}")
    if not isinstance(doc, dict):
        raise ManifestError(f"manifest {path} is not a JSON object")
    if doc.get("version") != 1:
        raise ManifestError(f"unsupported manifest version {doc.get('version')!r}")
    root = path.parent
    entries = doc.get("sources", [])
    if not isinstance(entries, list):
        raise ManifestError(f"manifest {path}: 'sources' is not a list")
    sources, problems, seen = [], [], set()
    for index, entry in enumerate(entries):
        rec = _source_record(index, entry)
        if rec.split not in SPLITS:
            problems.append(f"source {rec.id}: unknown split {rec.split!r}")
        if rec.id in seen:
            problems.append(f"duplicate source id {rec.id!r}")
        seen.add(rec.id)
        if len(rec.frames) != len(rec.labels):
            problems.append(f"source {rec.id}: {len(rec.frames)} frames vs "
                            f"{len(rec.labels)} labels")
        for rel in (*rec.frames, *rec.labels):
            if not (root / rel).exists():
                problems.append(f"missing file: {rel}")
        sources.append(rec)
    if problems:
        raise ManifestError("invalid manifest:\n  " + "\n  ".join(problems))
    return DatasetManifest(root=root, sources=sources)


# --- sequences ----------------------------------------------------------------


@dataclass
class FrameSequence:
    """k+1 ordered colour frames plus the final frame's binary label."""

    frames: list            # list[ColorImage], oldest first
    label: np.ndarray | None
    source_id: str = ""
    frame_indices: tuple = ()

    def __post_init__(self):
        if not self.frames:
            raise ValueError("a frame sequence needs at least one frame")
        dims = (self.frames[0].height, self.frames[0].width)
        for img in self.frames:
            if (img.height, img.width) != dims:
                raise ValueError("all frames in a sequence must share dimensions")
        if self.label is not None and self.label.shape[-2:] != dims:
            raise ValueError(f"label shape {self.label.shape} does not match frames {dims}")
        if self.frame_indices and list(self.frame_indices) != sorted(set(self.frame_indices)):
            raise ValueError("frame indices must be strictly increasing")

    def __len__(self):
        return len(self.frames)


def window_sequences(manifest, k, split):
    """Yield the ``split`` sources' sliding windows of k+1 frames (stride 1),
    never crossing source boundaries; sources shorter than k+1 are skipped
    with a warning. Label is the final frame's mask. Frames keep their file's
    samples, one image per frame shared by every window that holds it."""
    if k < 0:
        raise ValueError("k must be >= 0")
    need = k + 1
    for src in manifest.sources:
        if src.split != split:
            continue
        if len(src.frames) < need:
            warnings.warn(f"source {src.id} has {len(src.frames)} frames, "
                          f"fewer than the k+1={need} a window needs; skipped")
            continue
        frames = [ColorImage.from_samples(*_read_netpbm(manifest.root / rel, b"P6", 3),
                                          "rgb") for rel in src.frames]
        labels = [read_pgm(manifest.root / rel) for rel in src.labels]
        for start in range(len(frames) - need + 1):
            yield FrameSequence(
                frames=frames[start:start + need],
                label=labels[start + need - 1],
                source_id=src.id,
                frame_indices=tuple(range(start, start + need)),
            )


def load_split_windows(manifest, k):
    """Materialise all windows grouped by split: {'train': [...], ...}."""
    return {split: list(window_sequences(manifest, k, split)) for split in SPLITS}


# --- synthetic scenes ----------------------------------------------------------

# the least amount by which green exceeds red and blue on the target and on
# a visible distractor, before drift and noise
GREEN_MARGIN = 0.1


@dataclass(frozen=True)
class SynthSceneParams:
    width: int = 32
    height: int = 32
    seed: int = 0
    brightness_drift: float = 0.1
    distractor_count: int = 2
    flicker_rate: float = 0.5
    noise_level: float = 0.02

    def __post_init__(self):
        check_fields(self)
        if self.width <= 0 or self.height <= 0:
            raise ValueError("image size must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        for name in ("brightness_drift", "flicker_rate", "noise_level"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")
        if self.distractor_count < 0:
            raise ValueError(f"distractor_count must be non-negative, got {self.distractor_count}")
        if self.distractor_count > 0 and min(self.width, self.height) < 2:  # patches are 2+ px
            raise ValueError(f"distractor_count must be 0 when width or height is below 2, got "
                             f"distractor_count={self.distractor_count}, width={self.width}, "
                             f"height={self.height}")


def _pixel_centres(height, width):
    """The x and y coordinates of every pixel centre, each (height, width)."""
    ys, xs = np.mgrid[0:height, 0:width]
    return xs + 0.5, ys + 0.5


def rasterize_polygon(vertices, height, width):
    """Exact convex-polygon mask: pixel centres inside or on the boundary.

    ``vertices`` is a (4, 2) array of (x, y) corners in counter-clockwise
    order (y down)."""
    verts = np.asarray(vertices, dtype=np.float64)
    cx, cy = _pixel_centres(height, width)
    inside = np.ones((height, width), dtype=bool)
    n = len(verts)
    for i in range(n):
        x0, y0 = verts[i]
        x1, y1 = verts[(i + 1) % n]
        cross = (x1 - x0) * (cy - y0) - (y1 - y0) * (cx - x0)
        inside &= cross >= 0.0
    return inside.astype(np.float64)[None]


def _convex_quad(rng, cx, cy, radius):
    # one corner per quadrant with jittered angle/radius keeps it convex
    angles = np.array([0.0, 0.5 * np.pi, np.pi, 1.5 * np.pi])
    angles = angles + rng.uniform(0.15, 0.85) * 0.5 * np.pi
    radii = radius * rng.uniform(0.75, 1.0, size=4)
    xs = cx + radii * np.cos(angles)
    ys = cy + radii * np.sin(angles)
    return np.stack([xs, ys], axis=1)


def _bilinear_field(rng, height, width):
    grid = 5
    coarse = rng.uniform(0.0, 1.0, size=(grid, grid))
    gy = np.linspace(0, grid - 1, height)
    gx = np.linspace(0, grid - 1, width)
    y0 = np.clip(gy.astype(int), 0, grid - 2)
    x0 = np.clip(gx.astype(int), 0, grid - 2)
    fy = (gy - y0)[:, None]
    fx = (gx - x0)[None, :]
    tl = coarse[np.ix_(y0, x0)]
    tr = coarse[np.ix_(y0, x0 + 1)]
    bl = coarse[np.ix_(y0 + 1, x0)]
    br = coarse[np.ix_(y0 + 1, x0 + 1)]
    return (tl * (1 - fy) * (1 - fx) + tr * (1 - fy) * fx
            + bl * fy * (1 - fx) + br * fy * fx)


def _segment_mask(p0, p1, height, width):
    """Pixels whose centre lies within 0.8 of the segment p0-p1."""
    cx, cy = _pixel_centres(height, width)
    dx, dy = p1[0] - p0[0], p1[1] - p0[1]
    length2 = dx * dx + dy * dy
    if length2 == 0.0:
        return np.zeros((height, width), dtype=bool)
    t = np.clip(((cx - p0[0]) * dx + (cy - p0[1]) * dy) / length2, 0.0, 1.0)
    dist2 = (cx - (p0[0] + t * dx)) ** 2 + (cy - (p0[1] + t * dy)) ** 2
    return dist2 <= 0.8 ** 2


def _generate_sequence(params, seq_index, length):
    """All frames and labels for one source, fully determined by the seed."""
    rng = np.random.default_rng(np.random.SeedSequence([params.seed, seq_index]))
    h, w = params.height, params.width

    # background texture: red/blue vary smoothly, green pinned below both
    base_r = 0.30 + 0.30 * _bilinear_field(rng, h, w)
    base_b = 0.30 + 0.30 * _bilinear_field(rng, h, w)
    base_g = 0.80 * np.minimum(base_r, base_b)

    # target fill: green exceeds the other channels by margin + headroom
    q = rng.uniform(0.25, 0.40)
    fill = np.array([q, q + GREEN_MARGIN + 0.15, q])

    radius = rng.uniform(0.26, 0.34) * min(h, w)
    c0 = np.array([w / 2.0, h / 2.0]) + rng.uniform(-0.08, 0.08, size=2) * min(h, w)
    quad0 = _convex_quad(rng, c0[0], c0[1], radius)
    amp = 0.12 * min(h, w)  # the centre sweeps 12% of the image size
    omega = 2.0 * np.pi / max(length, 2)
    phase = rng.uniform(0.0, 2.0 * np.pi, size=2)

    drift_phase = rng.uniform(0.0, 2.0 * np.pi)

    # one in-target line marking: brighter on all channels equally so green
    # dominance (and therefore the weak label) is unaffected
    line_offsets = rng.uniform(-0.6, 0.6, size=(2, 2)) * radius

    patch = max(2, min(h, w) // 10)
    frames, masks, polygons = [], [], []
    for t in range(length):
        shift = amp * np.array([np.sin(omega * t + phase[0]),
                                np.sin(omega * t + phase[1])])
        quad = quad0 + shift
        mask = rasterize_polygon(quad, h, w)[0]

        img = np.stack([base_r, base_g, base_b]).copy()
        img[:, mask > 0] = fill[:, None]
        p0, p1 = quad.mean(axis=0) + line_offsets
        img[:, _segment_mask(p0, p1, h, w) & (mask > 0)] += 0.25

        for _ in range(params.distractor_count):
            visible = rng.random() < params.flicker_rate
            for _try in range(50):
                y0 = rng.integers(0, h - patch + 1)
                x0 = rng.integers(0, w - patch + 1)
                if not mask[y0:y0 + patch, x0:x0 + patch].any():
                    break
            else:
                continue
            if visible:
                q2 = rng.uniform(0.2, 0.4)
                img[0, y0:y0 + patch, x0:x0 + patch] = q2
                img[1, y0:y0 + patch, x0:x0 + patch] = q2 + GREEN_MARGIN + 0.2
                img[2, y0:y0 + patch, x0:x0 + patch] = q2

        img += params.brightness_drift * np.sin(omega * t + drift_phase)
        if params.noise_level > 0.0:
            img += rng.normal(0.0, params.noise_level, size=img.shape)
        frames.append(np.clip(img, 0.0, 1.0))
        masks.append(mask[None])
        polygons.append(quad.tolist())
    return frames, masks, polygons


def synth_generate(params, n_sequences, length, root, splits):
    """Write ``n_sequences`` sources of ``length`` frames under ``root`` and
    return the saved manifest. ``splits`` assigns one split tag per sequence.
    Byte-identical for a fixed seed."""
    if length < 1 or n_sequences < 1:
        raise ValueError("need at least one sequence of at least one frame")
    if len(splits) != n_sequences:
        raise ValueError("splits must assign one tag per sequence")
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    sources = []
    for idx in range(n_sequences):
        sid = f"seq_{idx:03d}"
        sdir = root / sid
        sdir.mkdir(exist_ok=True)
        frames, masks, polygons = _generate_sequence(params, idx, length)
        frame_rel, label_rel = [], []
        for t, (img, mask) in enumerate(zip(frames, masks)):
            fr = f"{sid}/frame_{t:05d}.ppm"
            lr = f"{sid}/label_{t:05d}.pgm"
            write_ppm(root / fr, img)
            write_pgm(root / lr, mask)
            frame_rel.append(fr)
            label_rel.append(lr)
        sources.append(SourceRecord(
            id=sid,
            frames=frame_rel,
            labels=label_rel,
            split=splits[idx],
            metadata={
                "location": "synthetic",
                "lighting": f"drift_{params.brightness_drift:.2f}",
                "motion": "dynamic",
                "polygons": polygons,
            },
        ))
    manifest = DatasetManifest(root=root, sources=sources)
    save_manifest(manifest)
    return manifest
