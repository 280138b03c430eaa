"""Invertible per-view augmentation for multi-view training.

Geometric transforms (flip, rotation, crop) are applied to each view's
input tensor independently; the exact inverse map is applied to the
predicted heatmaps before fusion, so the fused 3D estimate lives in the
original camera geometry. Both directions share one geometry: one
rotation about the image centre (the forward warp samples each output
pixel at -deg, the inverse sends each original pixel to +deg) and one
rule for bilinear taps. A flip mirrors the columns the forward warp
reads, not its sampling positions. The inverse is linear in heatmap
values and registers its transpose as the tape adjoint, keeping the
chain differentiable. Colour jitter touches the input only and needs no
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
    """Draw one view's augmentation from the numpy Generator ``rng``.
    Deterministic given its state; draw order is fixed (flip, crop
    offsets, rotation, jitter)."""
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
# colour jitter of the input


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


# ---------------------------------------------------------------------------
# one geometry for the forward warp and the inverse map


def _rotate(xs, ys, h: int, w: int, deg: float):
    """Positions of pixels (xs, ys), which broadcast, when content rotates
    by ``deg`` about the centre of an (h, w) image. The inverse map sends
    each original pixel to +deg; the forward warp samples each output
    pixel at -deg."""
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    rad = math.radians(deg)
    cos, sin = math.cos(rad), math.sin(rad)
    dx, dy = xs - cx, ys - cy
    return cos * dx - sin * dy + cx, sin * dx + cos * dy + cy


def _taps(xs, ys, h: int, w: int):
    """The bilinear taps of positions (xs, ys) in an (h, w) raster: which
    positions lie inside it, the top-left tap (x0, y0), clamped so that
    the taps one column right and one row down stay inside, and the
    fractions (fx, fy) of the position past it."""
    inside = (xs >= 0) & (xs <= w - 1) & (ys >= 0) & (ys <= h - 1)
    x0 = np.minimum(np.maximum(np.floor(xs), 0), max(w - 2, 0)).astype(np.intp)
    y0 = np.minimum(np.maximum(np.floor(ys), 0), max(h - 2, 0)).astype(np.intp)
    return inside, x0, y0, xs - x0, ys - y0


# ---------------------------------------------------------------------------
# forward warp of the input


def _bilinear(colour: np.ndarray, sx, sy, rec: AugmentationRecord, mean) -> np.ndarray:
    """Bilinear samples of the (3, H, W) ``colour``, jittered and flipped
    as ``rec`` says, at positions (sx, sy); 0 outside the image. Only the
    rectangle the taps read is jittered, with contrast mean ``mean``."""
    w = rec.image_w
    inside, x0, y0, fx, fy = _taps(sx, sy, rec.image_h, w)
    wx0, wy0 = 1 - fx, 1 - fy
    # a flipped image is read unflipped: tap column x is column w-1-x,
    # and the tap right of it is the column left of that
    step = 1
    if rec.flip:
        x0 = (w - 1) - x0
        step = -1
    y_lo, x_lo = y0.min(), x0.min() - rec.flip
    src = _apply_jitter(colour[:, y_lo:y0.max() + 2, x_lo:x0.max() + 2 - rec.flip],
                        rec.jitter, mean)
    # gather by flat index: faster than one index array per axis
    row = src.shape[2]
    flat = src.reshape(3, -1)
    i = (y0 - y_lo) * row
    i += x0 - x_lo
    v = np.take(flat, i, axis=1) * (wx0 * wy0)
    i += step
    v += np.take(flat, i, axis=1) * (fx * wy0)
    i += row - step
    v += np.take(flat, i, axis=1) * (wx0 * fy)
    i += step
    v += np.take(flat, i, axis=1) * (fx * fy)
    return np.where(inside, v, 0.0)


def _nearest(channels: np.ndarray, sx, sy, rec: AugmentationRecord) -> np.ndarray:
    """Nearest-neighbour samples of the (C, H, W) ``channels``, flipped as
    ``rec`` says, at positions (sx, sy); 0 outside the image."""
    h, w = rec.image_h, rec.image_w
    xn = np.rint(sx).astype(np.intp)
    yn = np.rint(sy).astype(np.intp)
    inside = (xn >= 0) & (xn <= w - 1) & (yn >= 0) & (yn <= h - 1)
    i = np.minimum(np.maximum(yn, 0), h - 1) * w
    xn = np.minimum(np.maximum(xn, 0), w - 1)
    i += (w - 1) - xn if rec.flip else xn
    return np.where(inside, np.take(channels.reshape(channels.shape[0], -1), i, axis=1), 0.0)


def apply_to_input(inp: np.ndarray, rec: AugmentationRecord,
                   window: tuple | None = None) -> np.ndarray:
    """Augment a (5, H, W) input: jitter the colour, then flip, rotate and
    crop every channel. Colour resamples bilinearly; depth and box mask use
    nearest neighbour so depth never interpolates across the unknown marker
    and the mask stays binary. Pixels rotated in from outside the image
    are 0.

    ``window`` = (row, col, height, width) within the crop computes only
    that part of the augmented crop; it equals the same slice of the whole
    crop bit for bit (the jitter's contrast still uses the whole image's
    mean grey level)."""
    if inp.shape[1:] != (rec.image_h, rec.image_w):
        raise AugmentError(f"input size {inp.shape[1:]} does not match record "
                           f"{(rec.image_h, rec.image_w)}")
    r0, c0, ch, cw = rec.crop
    if window is None:
        window = (0, 0, ch, cw)
    wr, wc, wh, ww = window
    if wr < 0 or wc < 0 or wh <= 0 or ww <= 0 or wr + wh > ch or wc + ww > cw:
        raise AugmentError(f"window {window} is not inside the {ch}x{cw} crop")
    top, left = r0 + wr, c0 + wc
    colour = inp[:3]
    brightness, contrast, _ = rec.jitter
    mean = _grey(colour * brightness).mean() if contrast != 1.0 else None
    if rec.rotation_deg == 0.0:
        src = inp[:, :, ::-1] if rec.flip else inp
        src = src[:, top:top + wh, left:left + ww]
        return np.concatenate([_apply_jitter(src[:3], rec.jitter, mean), src[3:]])
    # one set of sampling positions for the colour and the other channels
    sx, sy = _rotate(np.arange(left, left + ww), np.arange(top, top + wh)[:, None],
                     rec.image_h, rec.image_w, -rec.rotation_deg)
    return np.concatenate([_bilinear(colour, sx, sy, rec, mean),
                           _nearest(inp[3:], sx, sy, rec)])


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


def inverse_warp(rec: AugmentationRecord, keep: np.ndarray | None = None) -> InverseWarp:
    """Build the map taking an augmented-crop heatmap back to the original
    frame: original pixel q samples the augmented raster at
    crop(rotate(flip(q))).

    The map produces the pixels of ``keep`` (an (H, W) bool mask; default
    all) that have a pre-image in the crop. Its window is their
    footprint: the bounding rectangle of the crop pixels they read, which
    is empty when no pixel is produced. Without rotation every produced
    pixel reads one crop pixel, and for all pixels the footprint is the
    crop. Under rotation it is smaller wherever content rotated in from
    outside the image fills a whole edge of the crop."""
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
        # content moved by +deg, so original content at q now sits at R(+deg) q
        xs, ys = _rotate(xs, ys, h, w, rec.rotation_deg)
        xs -= c0
        ys -= r0
        inside, x0, y0, fx, fy = _taps(xs, ys, ch, cw)
        rows, x0, y0, fx, fy = q[inside], x0[inside], y0[inside], fx[inside], fy[inside]
        x1 = np.minimum(x0 + 1, cw - 1)
        y1 = np.minimum(y0 + 1, ch - 1)
        wx0, wy0 = 1 - fx, 1 - fy
        tap_y = np.array([y0, y0, y1, y1])
        tap_x = np.array([x0, x1, x0, x1])
        wts = np.array([wx0 * wy0, fx * wy0, wx0 * fy, fx * fy])
    window = (0, 0, 0, 0)
    if rows.size:
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
    every pixel with a pre-image and reads its footprint, the whole crop
    unless rotation fills an edge of it from outside the image. Returns
    the (J, n) values of the original-frame pixels ``warp.rows``.

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
