"""Fuse per-view activations into shared-frame joint positions.

Every fused pixel of every view is a 3D point (via its depth and camera)
carrying its raw activation. Per joint, one softmax spans the points of
all views and the prediction is the weights' centre of mass. One kernel,
``soft_center``, computes that centre; ``soft_center_stack`` records it
on the tape with its adjoint, so the 3D loss backpropagates through it.

Also provides the baseline's 2D-domain fusion, ``lift_and_fuse_2d``: per
joint, each view contributes the cloud point at its predicted pixel,
weighted by a softmax over the activations read there; a view whose
depth is unknown at that pixel is dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Camera, Point3, backproject_grid, transform_points
from .heatmap import DepthImage
from .tensorgrad import NonFiniteError, Tape, Tensor

__all__ = [
    "JOINT_NAMES",
    "JOINT_TYPES",
    "FusionError",
    "Pose3",
    "Pose2",
    "view_cloud_coords",
    "soft_center",
    "soft_center_stack",
    "pose_distances",
    "lift_and_fuse_2d",
    "round_half_up",
]

JOINT_NAMES = (
    "head", "neck",
    "shoulder_l", "shoulder_r",
    "hip_l", "hip_r",
    "elbow_l", "elbow_r",
    "wrist_l", "wrist_r",
)

# Reporting groups: left/right parts of a type are averaged.
JOINT_TYPES = {
    "head": ("head",),
    "neck": ("neck",),
    "shoulder": ("shoulder_l", "shoulder_r"),
    "hip": ("hip_l", "hip_r"),
    "elbow": ("elbow_l", "elbow_r"),
    "wrist": ("wrist_l", "wrist_r"),
}


class FusionError(ValueError):
    """Invalid input to the fusion stage."""


@dataclass(frozen=True)
class Pose3:
    """A person's 3D joints in meters, keyed by joint name; None = absent."""

    person: int
    joints: dict

    def __post_init__(self):
        if set(self.joints) != set(JOINT_NAMES):
            raise FusionError(f"pose joints must be exactly {JOINT_NAMES}")
        for name, p in self.joints.items():
            if p is not None and not isinstance(p, Point3):
                raise FusionError(f"joint '{name}' must be Point3 or None")

    def present(self):
        return {k: v for k, v in self.joints.items() if v is not None}


@dataclass(frozen=True)
class Pose2:
    """A person's continuous 2D joint positions in one view; None = absent."""

    person: int
    view: int
    joints: dict

    def __post_init__(self):
        if set(self.joints) != set(JOINT_NAMES):
            raise FusionError(f"pose joints must be exactly {JOINT_NAMES}")


def round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def view_cloud_coords(depth: DepthImage, camera: Camera) -> np.ndarray:
    """Shared-frame positions of every pixel of a view, row-major (H*W, 3)."""
    pts = backproject_grid(depth.raster, camera)
    return transform_points(pts, camera.to_reference)


def soft_center(activations: np.ndarray, coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Softmax-weighted centre of mass over the last axis: (..., I)
    activations at (I, k) coords give the (..., k) centres and the
    (..., I) weights."""
    e = np.exp(activations - activations.max(axis=-1, keepdims=True))
    w = e / e.sum(axis=-1, keepdims=True)
    return w @ coords, w


def _multi_view_soft_centers(tape: Tape | None, tensors: list[Tensor],
                             coords_list: list[np.ndarray], name: str) -> Tensor:
    """Fused tape node: per-channel softmax centre of mass over the
    concatenation of several (J, n) activation tensors.

    coords_list holds one (n, k) array per tensor. Output is (J, k).
    With weights a = softmax(h) and centre p = sum_i a_i c_i per channel,
    the adjoint is dL/dh_i = a_i * <g, c_i - p> for upstream g, split
    back per tensor.
    """
    j = tensors[0].shape[0]
    mats = [t.values.reshape(j, -1) for t in tensors]
    acts = np.concatenate(mats, axis=1)                      # (J, I)
    coords = np.concatenate(coords_list, axis=0)             # (I, k)
    centers, weights = soft_center(acts, coords)             # (J, k), (J, I)

    sizes = [m.shape[1] for m in mats]

    def vjp(g):
        proj = coords @ g.T                                  # (I, J)
        dots = np.einsum("jk,jk->j", centers, g)             # (J,)
        full = weights * (proj.T - dots[:, None])            # (J, I)
        grads = []
        off = 0
        for t, n in zip(tensors, sizes):
            grads.append(full[:, off:off + n].reshape(t.shape))
            off += n
        return tuple(grads)

    if not np.all(np.isfinite(centers)):
        raise NonFiniteError(f"op '{name}' produced non-finite values")
    out = Tensor(centers, requires_grad=any(t.requires_grad for t in tensors))
    if tape is not None and out.requires_grad:
        tape.record(tuple(tensors), out, vjp, name)
    return out


def soft_center_stack(tape: Tape | None, tensors: list[Tensor],
                      coords_list: list[np.ndarray]) -> Tensor:
    """Differentiable multi-view fusion of (J, n) activation tensors,
    each with its (n, 3) cloud, into (J, 3) shared-frame predictions."""
    return _multi_view_soft_centers(tape, tensors, coords_list, "soft_center_3d")


def pose_distances(predicted, reference) -> dict:
    """Euclidean distances in meters for every jointly-present joint.

    Poses are matched by person index. Returns {(person, joint): meters}.
    """
    ref_by_person = {p.person: p for p in reference}
    out = {}
    for pred in predicted:
        ref = ref_by_person.get(pred.person)
        if ref is None:
            continue
        for name in JOINT_NAMES:
            a, b = pred.joints[name], ref.joints[name]
            if a is None or b is None:
                continue
            out[(pred.person, name)] = float(np.linalg.norm(a.as_array() - b.as_array()))
    return out


def lift_and_fuse_2d(person: int, values: np.ndarray, points: np.ndarray,
                     known: np.ndarray) -> Pose3 | None:
    """Fuse one person's per-view 2D joint predictions, lifted to 3D.

    For joint j and view v, ``values[j, v]`` is the activation at the
    view's predicted pixel, ``points[j, v]`` that pixel's (3,) shared-frame
    position and ``known[j, v]`` whether its depth is known. Per joint, a
    softmax over the values of the known views weights their points; a
    joint known in no view is absent. Returns None if every joint is.
    """
    fused = {}
    for j, name in enumerate(JOINT_NAMES):
        keep = known[j]
        if keep.any():
            center, _ = soft_center(values[j, keep], points[j, keep])
            fused[name] = Point3(*map(float, center))
        else:
            fused[name] = None
    if all(v is None for v in fused.values()):
        return None
    return Pose3(person=person, joints=fused)
