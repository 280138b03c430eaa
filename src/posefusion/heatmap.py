"""Bounding boxes, depth images, the valid-pixel mask, and the 5-channel
predictor input.

A person is processed one at a time. Only that person's valid pixels,
inside the bounding box and with known depth (unknown depth is stored
as 0.0), carry activations into fusion; every other pixel is left out.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "HeatmapError",
    "BoundingBox",
    "DepthImage",
    "valid_pixel_mask",
    "build_input_tensor",
]

# What the baseline lifting reads at a pixel its view does not fuse (see
# pipeline.lift_and_fuse_2d).
DEFAULT_EPSILON = -1e4


class HeatmapError(ValueError):
    """Shape or invariant violation in heatmap-domain data."""


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned pixel box, inclusive-exclusive: [x_min, x_max) x [y_min, y_max)."""

    view: int
    person: int
    x_min: int
    y_min: int
    x_max: int
    y_max: int

    def __post_init__(self):
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise HeatmapError(f"degenerate box {self}")
        if self.x_min < 0 or self.y_min < 0:
            raise HeatmapError(f"box extends past the image origin: {self}")

    def validate_within(self, height: int, width: int) -> None:
        if self.x_max > width or self.y_max > height:
            raise HeatmapError(f"box {self} exceeds image size {height}x{width}")

    @property
    def area(self) -> int:
        return (self.x_max - self.x_min) * (self.y_max - self.y_min)

    def mask(self, height: int, width: int) -> np.ndarray:
        self.validate_within(height, width)
        m = np.zeros((height, width), dtype=bool)
        m[self.y_min:self.y_max, self.x_min:self.x_max] = True
        return m


@dataclass(frozen=True)
class DepthImage:
    """Per-view z-depth raster in meters; 0.0 marks unknown depth."""

    view: int
    raster: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.raster, dtype=np.float64)
        if r.ndim != 2:
            raise HeatmapError(f"depth raster must be 2-D, got shape {r.shape}")
        if not np.all(np.isfinite(r)):
            raise HeatmapError("depth raster contains non-finite values")
        if np.any(r < 0):
            raise HeatmapError("depth raster contains negative values")
        object.__setattr__(self, "raster", r)
        r.setflags(write=False)

    @property
    def known(self) -> np.ndarray:
        return self.raster > 0.0


def valid_pixel_mask(box: BoundingBox, depth: DepthImage) -> np.ndarray:
    """Pixels that survive masking: inside the box and with known depth."""
    h, w = depth.raster.shape
    return box.mask(h, w) & depth.known


def build_input_tensor(colour: np.ndarray, depth: DepthImage, box: BoundingBox,
                       window: tuple | None = None) -> np.ndarray:
    """Stack colour (3,H,W in [0,1]), depth (meters), and the box mask into
    the (5, H, W) predictor input.

    ``window`` = (row, col, height, width) builds only that part of it, as
    an identity augmentation leaves it: colour clipped to [0, 1], depth and
    box mask as they are."""
    colour = np.asarray(colour, dtype=np.float64)
    if colour.ndim != 3 or colour.shape[0] != 3:
        raise HeatmapError(f"colour must be 3xHxW, got shape {colour.shape}")
    h, w = depth.raster.shape
    if colour.shape[1:] != (h, w):
        raise HeatmapError(f"colour size {colour.shape[1:]} != depth size {(h, w)}")
    box.validate_within(h, w)
    if window is None:
        channels = np.empty((5, h, w))
        channels[0:3] = colour
        channels[3] = depth.raster
        channels[4] = box.mask(h, w)
        return channels
    top, left, wh, ww = window
    if top < 0 or left < 0 or wh <= 0 or ww <= 0 or top + wh > h or left + ww > w:
        raise HeatmapError(f"window {window} is not inside the {h}x{w} image")
    rows, cols = slice(top, top + wh), slice(left, left + ww)
    channels = np.empty((5, wh, ww))
    np.clip(colour[:, rows, cols], 0.0, 1.0, out=channels[0:3])
    channels[3] = depth.raster[rows, cols]
    channels[4] = box.mask(h, w)[rows, cols]
    return channels
