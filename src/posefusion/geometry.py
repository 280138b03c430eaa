"""Calibrated pinhole cameras and rigid transforms into a shared reference frame.

Conventions used throughout the package:

* Pixel coordinates are (x, y) with x = column index and y = row index,
  origin at the centre of the top-left pixel.
* Depth images store the z-coordinate of the surface in the camera frame
  (perpendicular depth), not ray length.
* All lengths are in meters internally; reported metrics convert to
  centimeters at the reporting boundary.
* A 3D point is a (3,) float64 array (x, y, z); N points are an (N, 3)
  array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "GeometryError",
    "BehindCameraError",
    "RigidTransform",
    "Camera",
    "backproject_pixel",
    "backproject_grid",
    "project_point",
    "transform_point",
    "transform_points",
    "compose",
    "invert_transform",
]


class GeometryError(ValueError):
    """Invalid geometric input (non-finite values, broken invariants)."""


class BehindCameraError(GeometryError):
    """A point with z <= 0 cannot be projected through a pinhole camera."""


_ROTATION_TOL = 1e-9
_EYE3, _EYE4 = np.eye(3), np.eye(4)
_BOTTOM = np.array([0.0, 0.0, 0.0, 1.0])
_ONE = np.ones(1)


@dataclass(frozen=True)
class RigidTransform:
    """A proper rigid transform as a 4x4 row-major homogeneous matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.float64)
        if m.shape != (4, 4):
            raise GeometryError(f"rigid transform matrix must be 4x4, got {m.shape}")
        if not np.isfinite(m).all():
            raise GeometryError("rigid transform matrix contains non-finite values")
        if not (m[3] == _BOTTOM).all():
            raise GeometryError(f"rigid transform bottom row must be (0,0,0,1), got {m[3]}")
        r = m[:3, :3]
        ortho_err = np.abs(r.T @ r - _EYE3).max()
        if ortho_err >= _ROTATION_TOL:
            raise GeometryError(
                f"rotation block is not orthonormal: max |R^T R - I| = {ortho_err:.3e}"
            )
        if np.linalg.det(r) <= 0:
            raise GeometryError("rotation block must have determinant +1 (proper rotation)")
        object.__setattr__(self, "matrix", m)
        m.setflags(write=False)

    @staticmethod
    def identity() -> "RigidTransform":
        return _IDENTITY

    @staticmethod
    def from_rotation_translation(rotation, translation) -> "RigidTransform":
        m = np.eye(4)
        m[:3, :3] = np.asarray(rotation, dtype=np.float64)
        m[:3, 3] = np.asarray(translation, dtype=np.float64)
        return RigidTransform(m)

    @property
    def rotation(self) -> np.ndarray:
        return self.matrix[:3, :3]

    @property
    def translation(self) -> np.ndarray:
        return self.matrix[:3, 3]

    def is_identity(self, tol: float = 0.0) -> bool:
        return np.abs(self.matrix - _EYE4).max() <= tol


_IDENTITY = RigidTransform(np.eye(4))       # immutable, so one instance serves every caller


@dataclass(frozen=True)
class Camera:
    """Pinhole camera: intrinsics plus the rigid transform into the shared frame.

    ``to_reference`` maps points from this camera's frame into the frame of
    camera 0 (the shared reference). Camera 0 itself carries the identity.
    """

    id: int
    fx: float
    fy: float
    cx: float
    cy: float
    to_reference: RigidTransform = field(default_factory=RigidTransform.identity)

    def __post_init__(self):
        for name in ("fx", "fy", "cx", "cy"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise GeometryError(f"camera {self.id}: {name} must be finite, got {v}")
        if self.fx <= 0 or self.fy <= 0:
            raise GeometryError(f"camera {self.id}: focal lengths must be positive")


def backproject_pixel(pixel, depth: float, camera: Camera) -> np.ndarray:
    """Lift a pixel to a (3,) point in the camera's own frame.

    Along the camera ray through (x, y), at z-depth ``depth``:
    (depth*(x-cx)/fx, depth*(y-cy)/fy, depth).
    """
    if not math.isfinite(depth):
        raise GeometryError(f"depth must be finite, got {depth}")
    if depth < 0:
        raise GeometryError(f"depth must be non-negative, got {depth}")
    x, y = float(pixel[0]), float(pixel[1])
    return np.array([
        depth * (x - camera.cx) / camera.fx,
        depth * (y - camera.cy) / camera.fy,
        depth,
    ])


def backproject_grid(depth: np.ndarray, camera: Camera, rows=None) -> np.ndarray:
    """Backproject a depth raster's pixels, all of them in row-major
    order or those at the flat indices ``rows``, to an (n, 3) array of
    camera-frame points. A point has the same bits either way; depth 0
    maps to the origin. A non-finite or negative depth read raises."""
    depth = np.asarray(depth, dtype=np.float64)
    h, w = depth.shape
    if rows is None:
        rows = np.arange(h * w)
    z = depth.ravel()[rows]
    if not np.isfinite(z).all():
        raise GeometryError("depth raster contains non-finite values")
    if (z < 0).any():
        raise GeometryError("depth raster contains negative values")
    ys, xs = np.divmod(rows, w)
    pts = np.empty((z.size, 3))
    pts[:, 0] = z * ((xs - camera.cx) / camera.fx)
    pts[:, 1] = z * ((ys - camera.cy) / camera.fy)
    pts[:, 2] = z
    return pts


def project_point(point: np.ndarray, camera: Camera) -> tuple[float, float]:
    """Forward pinhole projection of a (3,) camera-frame point to
    continuous pixel coordinates."""
    x, y, z = map(float, point)
    if z <= 0:
        raise BehindCameraError(f"cannot project point with z={z} (behind camera)")
    return camera.fx * x / z + camera.cx, camera.fy * y / z + camera.cy


def transform_point(point: np.ndarray, t: RigidTransform) -> np.ndarray:
    """Apply a rigid transform to a (3,) point: homogeneous multiply
    T @ [x y z 1]."""
    return (t.matrix @ np.concatenate((point, _ONE)))[:3]


def transform_points(points: np.ndarray, t: RigidTransform) -> np.ndarray:
    """Apply a rigid transform to an (N, 3) array of points, each row with
    the bits it gets in any batch: numpy sends a lone row to gemv, which
    can round differently from gemm, so it runs as two."""
    points = np.asarray(points, dtype=np.float64)
    if len(points) == 1:
        return transform_points(np.repeat(points, 2, axis=0), t)[:1]
    return points @ t.rotation.T + t.translation


def compose(a: RigidTransform, b: RigidTransform) -> RigidTransform:
    """The transform applying ``b`` first, then ``a``."""
    return RigidTransform(a.matrix @ b.matrix)


def invert_transform(t: RigidTransform) -> RigidTransform:
    """Closed-form rigid inverse: [R^T, -R^T t]."""
    r_inv = t.rotation.T
    return RigidTransform.from_rotation_translation(r_inv, -r_inv @ t.translation)
