"""Invertible per-view augmentation for multi-view training.

Geometric transforms (flip, rotation, crop) are applied to each view's
input tensor independently; the exact inverse map is applied to the
predicted heatmaps before fusion, so the fused 3D estimate lives in the
original camera geometry. The inverse is linear in heatmap values and
registers its transpose as the tape adjoint, keeping the chain
differentiable. Colour jitter touches the input only and needs no
inverse.

The inverse gives values only at the pixels it is asked for that have
a pre-image in the crop; pixels cropped away or rotated out of frame
carry no activation and are not fused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensorgrad import Tape, Tensor, _result

__all__ = [
    "AugmentError",
    "AugmentationConfig",
    "AugmentationRecord",
    "sample_augmentation",
    "identity_record",
    "apply_to_input",
    "apply_geometric",
    "InverseWarp",
    "inverse_warp",
    "invert_on_heatmap_tensor",
]


class AugmentError(ValueError):
    """Invalid augmentation configuration or record/shape mismatch."""


@dataclass(frozen=True)
class AugmentationConfig:
    """Sampling ranges for one view's augmentation draw."""

    image_h: int
    image_w: int
    crop_h: int
    crop_w: int
    flip_prob: float = 0.5
    rot_deg_max: float = 15.0
    jitter_low: float = 0.8
    jitter_high: float = 1.2

    def __post_init__(self):
        if self.crop_h > self.image_h or self.crop_w > self.image_w:
            raise AugmentError(
                f"crop {self.crop_h}x{self.crop_w} larger than image {self.image_h}x{self.image_w}"
            )
        if self.crop_h <= 0 or self.crop_w <= 0:
            raise AugmentError("crop size must be positive")
        if not 0.0 <= self.flip_prob <= 1.0:
            raise AugmentError(f"flip_prob must be in [0,1], got {self.flip_prob}")
        if self.rot_deg_max < 0:
            raise AugmentError("rot_deg_max must be >= 0")
        if not 0.0 < self.jitter_low <= self.jitter_high:
            raise AugmentError("jitter range must satisfy 0 < low <= high")
        for name, width in (("rot_deg_max", 2.0 * self.rot_deg_max),
                            ("jitter_high", self.jitter_high - self.jitter_low)):
            if not math.isfinite(width):
                raise AugmentError(f"{name} gives a sampling range of non-finite width")


@dataclass(frozen=True)
class AugmentationRecord:
    """Everything needed to apply one view's augmentation and to invert it.

    crop is (row offset, col offset, crop height, crop width) within the
    original image; image_h/image_w record the original size.
    """

    image_h: int
    image_w: int
    flip: bool
    crop: tuple[int, int, int, int]
    rotation_deg: float
    jitter: tuple[float, float, float]

    def __post_init__(self):
        r0, c0, ch, cw = self.crop
        if r0 < 0 or c0 < 0 or r0 + ch > self.image_h or c0 + cw > self.image_w:
            raise AugmentError(f"crop window {self.crop} outside {self.image_h}x{self.image_w} image")

    @property
    def is_identity(self) -> bool:
        return (not self.flip and self.rotation_deg == 0.0
                and self.crop == (0, 0, self.image_h, self.image_w)
                and self.jitter == (1.0, 1.0, 1.0))


def identity_record(image_h: int, image_w: int) -> AugmentationRecord:
    return AugmentationRecord(
        image_h=image_h, image_w=image_w, flip=False,
        crop=(0, 0, image_h, image_w), rotation_deg=0.0, jitter=(1.0, 1.0, 1.0),
    )


def sample_augmentation(config: AugmentationConfig, rng) -> AugmentationRecord:
    """Draw one view's augmentation. Deterministic given the rng state;
    draw order is fixed (flip, crop offsets, rotation, jitter)."""
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(rng)
    flip = bool(rng.random() < config.flip_prob)
    r0 = int(rng.integers(0, config.image_h - config.crop_h + 1))
    c0 = int(rng.integers(0, config.image_w - config.crop_w + 1))
    rot = float(rng.uniform(-config.rot_deg_max, config.rot_deg_max))
    jitter = tuple(float(f) for f in rng.uniform(config.jitter_low, config.jitter_high, size=3))
    return AugmentationRecord(
        image_h=config.image_h, image_w=config.image_w,
        flip=flip, crop=(r0, c0, config.crop_h, config.crop_w),
        rotation_deg=rot, jitter=jitter,
    )


# ---------------------------------------------------------------------------
# forward transforms on the input


def _grey(colour: np.ndarray) -> np.ndarray:
    grey = 0.299 * colour[0]
    grey += 0.587 * colour[1]
    grey += 0.114 * colour[2]
    return grey


def _apply_jitter(colour: np.ndarray, jitter, contrast_mean) -> np.ndarray:
    """Per-pixel colour jitter. ``contrast_mean`` is the mean grey level of
    the whole brightness-scaled image, so any part of the image jitters as
    it would in the whole."""
    brightness, contrast, saturation = jitter
    out = colour * brightness
    if contrast != 1.0:
        out *= contrast
        out += (1.0 - contrast) * contrast_mean
    if saturation != 1.0:
        grey = _grey(out)
        grey *= 1.0 - saturation
        out *= saturation
        out += grey
    return np.clip(out, 0.0, 1.0, out=out)


def _rotation_sources(h: int, w: int, deg: float, ys: np.ndarray, xs: np.ndarray):
    """Source sampling positions of output pixels (ys, xs), which
    broadcast, when content rotates by ``deg`` about the centre of an
    (h, w) image: each output pixel samples the input at minus ``deg``."""
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    rad = math.radians(deg)
    cos, sin = math.cos(rad), math.sin(rad)
    dx, dy = xs - cx, ys - cy
    sx = cos * dx + sin * dy + cx
    sy = -sin * dx + cos * dy + cy
    return sx, sy


class _WindowWarp:
    """Flip, rotation and crop of an (H, W) image, computing only
    ``window`` (row, col, height, width) of the crop. The window's pixel
    grid and rotation sources are built once, for every stack sampled."""

    def __init__(self, rec: AugmentationRecord, window: tuple):
        self.rec = rec
        r0, c0, _, _ = rec.crop
        wr, wc, self.wh, self.ww = window
        self.top, self.left = r0 + wr, c0 + wc
        if rec.rotation_deg != 0.0:
            self.sx, self.sy = _rotation_sources(
                rec.image_h, rec.image_w, rec.rotation_deg,
                np.arange(self.top, self.top + self.wh)[:, None],
                np.arange(self.left, self.left + self.ww))

    def sample(self, channels: np.ndarray, bilinear: bool, fill: float,
               pointwise=None) -> np.ndarray:
        """Warp a (C, H, W) stack. Pixels rotated in from outside the image
        take ``fill``. ``pointwise`` maps source pixels before they are
        sampled; it runs only on the part of the image the window reads."""
        if self.rec.rotation_deg == 0.0:
            if self.rec.flip:
                channels = channels[:, :, ::-1]
            src = channels[:, self.top:self.top + self.wh, self.left:self.left + self.ww]
            return pointwise(src) if pointwise is not None else src.copy()
        v, inside = (self._bilinear if bilinear else self._nearest)(channels, pointwise)
        return np.where(inside, v, fill)

    def _bilinear(self, channels: np.ndarray, pointwise) -> tuple:
        h, w = self.rec.image_h, self.rec.image_w
        sx, sy = self.sx, self.sy
        if self.rec.flip:
            channels = channels[:, :, ::-1]
        inside = (sx >= 0) & (sx <= w - 1) & (sy >= 0) & (sy <= h - 1)
        x0 = np.minimum(np.maximum(np.floor(sx), 0), w - 2).astype(np.intp)
        y0 = np.minimum(np.maximum(np.floor(sy), 0), h - 2).astype(np.intp)
        fx, fy = sx - x0, sy - y0
        wx0, wy0 = 1 - fx, 1 - fy
        if pointwise is not None:
            y_lo, x_lo = y0.min(), x0.min()
            channels = pointwise(channels[:, y_lo:y0.max() + 2, x_lo:x0.max() + 2])
            y0 -= y_lo
            x0 -= x_lo
        # gather by flat index: faster than one index array per axis
        row = channels.shape[2]
        flat = np.ascontiguousarray(channels).reshape(channels.shape[0], -1)
        i = y0 * row
        i += x0
        v = np.take(flat, i, axis=1) * (wx0 * wy0)
        i += 1
        v += np.take(flat, i, axis=1) * (fx * wy0)
        i += row - 1
        v += np.take(flat, i, axis=1) * (wx0 * fy)
        i += 1
        v += np.take(flat, i, axis=1) * (fx * fy)
        return v, inside

    def _nearest(self, channels: np.ndarray, pointwise) -> tuple:
        h, w = self.rec.image_h, self.rec.image_w
        xn = np.rint(self.sx).astype(np.intp)
        yn = np.rint(self.sy).astype(np.intp)
        inside = (xn >= 0) & (xn <= w - 1) & (yn >= 0) & (yn <= h - 1)
        i = np.minimum(np.maximum(yn, 0), h - 1) * w
        xn = np.minimum(np.maximum(xn, 0), w - 1)
        # a flipped image is read unflipped, at the mirrored column
        i += (w - 1) - xn if self.rec.flip else xn
        flat = np.ascontiguousarray(channels).reshape(channels.shape[0], -1)
        v = np.take(flat, i, axis=1)
        return (pointwise(v) if pointwise is not None else v), inside


def apply_geometric(raster: np.ndarray, rec: AugmentationRecord,
                    bilinear: bool = True, fill: float = 0.0) -> np.ndarray:
    """Apply the record's flip, rotation and crop to one raster."""
    if raster.shape != (rec.image_h, rec.image_w):
        raise AugmentError(f"raster shape {raster.shape} does not match record "
                           f"{(rec.image_h, rec.image_w)}")
    _, _, ch, cw = rec.crop
    return _WindowWarp(rec, (0, 0, ch, cw)).sample(
        np.asarray(raster, dtype=np.float64)[None], bilinear, fill)[0]


def apply_to_input(inp: np.ndarray, rec: AugmentationRecord,
                   window: tuple | None = None) -> np.ndarray:
    """Augment a (5, H, W) input: jitter the colour, then flip, rotate and
    crop every channel. Colour resamples bilinearly; depth and box mask use
    nearest neighbour so depth never interpolates across the unknown marker
    and the mask stays binary.

    ``window`` = (row, col, height, width) within the crop computes only
    that part of the augmented crop; it equals the same slice of the whole
    crop bit for bit (the jitter's contrast still uses the whole image's
    mean grey level)."""
    if inp.shape[1:] != (rec.image_h, rec.image_w):
        raise AugmentError(f"input size {inp.shape[1:]} does not match record "
                           f"{(rec.image_h, rec.image_w)}")
    _, _, ch, cw = rec.crop
    if window is None:
        window = (0, 0, ch, cw)
    wr, wc, wh, ww = window
    if wr < 0 or wc < 0 or wh <= 0 or ww <= 0 or wr + wh > ch or wc + ww > cw:
        raise AugmentError(f"window {window} is not inside the {ch}x{cw} crop")
    colour = inp[:3]
    brightness, contrast, _ = rec.jitter
    mean = _grey(colour * brightness).mean() if contrast != 1.0 else None
    warp = _WindowWarp(rec, window)
    return np.concatenate([
        warp.sample(colour, True, 0.0, lambda c: _apply_jitter(c, rec.jitter, mean)),
        warp.sample(inp[3:], False, 0.0),
    ])


# ---------------------------------------------------------------------------
# inverse map on heatmaps (linear; adjoint = transpose)


@dataclass(frozen=True)
class InverseWarp:
    """The inverse augmentation as a sparse bilinear gather from a window
    of the augmented crop: out[:, i] = sum_k wts[k, i] * src[:, idx[k, i]]
    gives the value of original-frame pixel rows[i], with src the window,
    flattened."""

    rows: np.ndarray     # (n,) flat original-frame pixels the map produces
    idx: np.ndarray      # (taps, n) flat indices into the window
    wts: np.ndarray      # (taps, n)
    window: tuple        # (row, col, height, width) within the crop

    def gather(self, src_flat: np.ndarray) -> np.ndarray:
        """src_flat: (C, window size) -> (C, n), the values at ``rows``.

        The layout is that of ``src_flat[:, idx]``: an F-contiguous array
        with strides (8, 8 C), the transpose of an (n, C) array. It is
        part of the bits fusion sees. Fusion's products take their BLAS
        path from that layout, and a C-contiguous (C, n) result, such as
        ``np.take(src_flat, idx, axis=1)`` gives, can differ from them in
        the last bit."""
        v = src_flat[:, self.idx[0]] * self.wts[0]
        for k in range(1, self.idx.shape[0]):
            v += src_flat[:, self.idx[k]] * self.wts[k]
        return v

    def adjoint(self, g: np.ndarray) -> np.ndarray:
        """Transpose of ``gather``: (C, n) -> (C, window size). The flat
        per-channel indices and weighted cotangents of every tap are built
        at once; each tap is then one ``bincount``."""
        taps, c = self.idx.shape[0], g.shape[0]
        size = self.window[2] * self.window[3]
        flat_idx = self.idx[:, None, :] + (np.arange(c, dtype=np.intp) * size)[:, None]
        weighted = np.empty(flat_idx.shape)
        np.multiply(g, self.wts[:, None, :], out=weighted)
        acc = np.bincount(flat_idx[0].ravel(), weighted[0].ravel(), minlength=c * size)
        for k in range(1, taps):
            acc += np.bincount(flat_idx[k].ravel(), weighted[k].ravel(), minlength=c * size)
        return acc.reshape(c, size)


def inverse_warp(rec: AugmentationRecord, keep: np.ndarray | None = None,
                 footprint: bool = False) -> InverseWarp:
    """Build the map taking an augmented-crop heatmap back to the original
    frame: original pixel q samples the augmented raster at
    crop(rotate(flip(q))).

    The map produces the pixels of ``keep`` (an (H, W) bool mask; default
    all) that have a pre-image in the crop. Its window is the whole crop,
    or with ``footprint`` the bounding rectangle of the crop pixels the
    produced pixels read, which is empty when no pixel is produced.
    Without rotation every produced pixel reads one crop pixel."""
    h, w = rec.image_h, rec.image_w
    r0, c0, ch, cw = rec.crop
    q = np.arange(h * w) if keep is None else np.flatnonzero(keep)
    ys, xs = np.divmod(q, w)
    if rec.flip:
        xs = (w - 1) - xs
    if rec.rotation_deg == 0.0:
        # an integer index map: each pixel reads one crop pixel
        xs -= c0
        ys -= r0
        rows = q
        if (ch, cw) != (h, w):
            inside = (xs >= 0) & (xs < cw) & (ys >= 0) & (ys < ch)
            rows, xs, ys = q[inside], xs[inside], ys[inside]
        tap_y, tap_x = ys[None], xs[None]
        wts = np.ones((1, rows.size))
    else:
        cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
        rad = math.radians(rec.rotation_deg)
        cos, sin = math.cos(rad), math.sin(rad)
        dx, dy = xs - cx, ys - cy
        # content moved by +deg, so original content at q now sits at R(+deg) q
        xs = cos * dx - sin * dy + cx - c0
        ys = sin * dx + cos * dy + cy - r0
        valid = (xs >= 0) & (xs <= cw - 1) & (ys >= 0) & (ys <= ch - 1)
        rows, xs, ys = q[valid], xs[valid], ys[valid]
        x0 = np.minimum(np.maximum(np.floor(xs), 0), max(cw - 2, 0)).astype(np.intp)
        y0 = np.minimum(np.maximum(np.floor(ys), 0), max(ch - 2, 0)).astype(np.intp)
        x1 = np.minimum(x0 + 1, cw - 1)
        y1 = np.minimum(y0 + 1, ch - 1)
        fx, fy = xs - x0, ys - y0
        wx0, wy0 = 1 - fx, 1 - fy
        tap_y = np.array([y0, y0, y1, y1])
        tap_x = np.array([x0, x1, x0, x1])
        wts = np.array([wx0 * wy0, fx * wy0, wx0 * fy, fx * fy])
    if not footprint:
        window = (0, 0, ch, cw)
    elif not rows.size:
        window = (0, 0, 0, 0)
    else:
        top, left = int(tap_y[0].min()), int(tap_x[0].min())
        window = (top, left, int(tap_y[-1].max()) + 1 - top, int(tap_x[-1].max()) + 1 - left)
    idx = tap_y - window[0]
    idx *= window[3]
    idx += tap_x
    idx -= window[1]
    return InverseWarp(rows=rows, idx=idx, wts=wts, window=window)


def invert_on_heatmap_tensor(tape: Tape | None, t: Tensor, rec: AugmentationRecord,
                             warp: InverseWarp | None = None) -> Tensor:
    """Tape-recorded inverse augmentation of a (J, h, w) tensor that holds
    ``warp``'s window of the augmented crop; the default warp produces
    every pixel with a pre-image and reads the whole crop. Returns the
    (J, n) values of the original-frame pixels ``warp.rows``.

    The map is linear in the heatmap values, so its registered adjoint is
    the exact transpose."""
    if warp is None:
        warp = inverse_warp(rec)
    _, _, wh, ww = warp.window
    if t.values.ndim != 3 or t.values.shape[1:] != (wh, ww):
        raise AugmentError(f"tensor shape {t.shape} does not match window {(wh, ww)}")
    j = t.shape[0]
    out_vals = warp.gather(t.values.reshape(j, wh * ww))

    def vjp(g):
        return (warp.adjoint(g).reshape(t.shape),)

    return _result(tape, (t,), out_vals, vjp, "invert_augmentation")
