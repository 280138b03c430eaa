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
    "InputTensor",
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


@dataclass(frozen=True)
class InputTensor:
    """The predictor input: colour(3) + depth(1) + box mask(1), stacked."""

    channels: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.channels, dtype=np.float64)
        if c.ndim != 3 or c.shape[0] != 5:
            raise HeatmapError(f"input tensor must be 5xHxW, got shape {c.shape}")
        box = c[4]
        if not np.all((box == 0.0) | (box == 1.0)):
            raise HeatmapError("box-mask channel must be binary")
        object.__setattr__(self, "channels", c)

    @property
    def height(self) -> int:
        return self.channels.shape[1]

    @property
    def width(self) -> int:
        return self.channels.shape[2]


def valid_pixel_mask(box: BoundingBox, depth: DepthImage) -> np.ndarray:
    """Pixels that survive masking: inside the box and with known depth."""
    h, w = depth.raster.shape
    return box.mask(h, w) & depth.known


def build_input_tensor(colour: np.ndarray, depth: DepthImage, box: BoundingBox) -> InputTensor:
    """Stack colour (3,H,W in [0,1]), depth (meters), and the box mask."""
    colour = np.asarray(colour, dtype=np.float64)
    if colour.ndim != 3 or colour.shape[0] != 3:
        raise HeatmapError(f"colour must be 3xHxW, got shape {colour.shape}")
    h, w = depth.raster.shape
    if colour.shape[1:] != (h, w):
        raise HeatmapError(f"colour size {colour.shape[1:]} != depth size {(h, w)}")
    box.validate_within(h, w)
    channels = np.empty((5, h, w))
    channels[0:3] = colour
    channels[3] = depth.raster
    channels[4] = box.mask(h, w)
    return InputTensor(channels)
