"""Per-view activation rasters, exclusion masking, and the 5-channel input.

A person is processed one at a time: activations outside that person's
bounding box, and activations at pixels whose depth is unknown (stored
as 0.0), are replaced by a large negative exclusion value so their
softmax weight underflows to exactly zero downstream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "HeatmapError",
    "Heatmap",
    "BoundingBox",
    "DepthImage",
    "MaskConfig",
    "InputTensor",
    "valid_pixel_mask",
    "mask_heatmap",
    "build_input_tensor",
]

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
class MaskConfig:
    """Exclusion value for masked pixels.

    The default is low enough that exp(epsilon - max) underflows to exact
    zero after max subtraction, so masked pixels contribute nothing."""

    epsilon: float = DEFAULT_EPSILON

    def __post_init__(self):
        if not np.isfinite(self.epsilon) or self.epsilon >= 0:
            raise HeatmapError(f"epsilon must be a finite negative value, got {self.epsilon}")


@dataclass(frozen=True)
class Heatmap:
    """One joint's activation raster in one view.

    ``valid`` records the masking state: None before masking, otherwise a
    boolean raster marking pixels that kept their raw activation."""

    view: int
    joint: int
    raster: np.ndarray
    valid: np.ndarray | None = None

    def __post_init__(self):
        r = np.asarray(self.raster, dtype=np.float64)
        if r.ndim != 2:
            raise HeatmapError(f"heatmap raster must be 2-D, got shape {r.shape}")
        if not np.all(np.isfinite(r)):
            raise HeatmapError("heatmap raster contains non-finite values")
        object.__setattr__(self, "raster", r)
        if self.valid is not None:
            v = np.asarray(self.valid, dtype=bool)
            if v.shape != r.shape:
                raise HeatmapError(f"valid mask shape {v.shape} != raster shape {r.shape}")
            object.__setattr__(self, "valid", v)


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


def mask_heatmap(h: Heatmap, box: BoundingBox, d: DepthImage,
                 cfg: MaskConfig = MaskConfig()) -> Heatmap:
    """Exclusion-mask a heatmap by bounding box and depth validity.

    Idempotent: re-masking leaves already-excluded pixels at epsilon.
    """
    if h.raster.shape != d.raster.shape:
        raise HeatmapError(f"heatmap shape {h.raster.shape} != depth shape {d.raster.shape}")
    valid = valid_pixel_mask(box, d)
    return Heatmap(view=h.view, joint=h.joint, raster=np.where(valid, h.raster, cfg.epsilon),
                   valid=valid)


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
