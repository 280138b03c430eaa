"""Fuse per-view activations into shared-frame joint positions.

Every fused pixel of every view is a 3D point (via its depth and camera)
carrying its raw activation. Per joint, one softmax spans the points of
all views and the prediction is the weights' centre of mass. One kernel,
``soft_center``, computes that centre; ``soft_center_stack`` records it
on the tape with its adjoint, so the 3D loss backpropagates through it.
``masked_soft_centers`` is its row-wise form for points that differ per
row, as the baseline lifting has.

A pose is a dict {joint name: (3,) float64 array in meters, or None for
an absent joint} over ``JOINT_NAMES``; ``pose_distances`` scores one
person's predicted pose against its reference.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import Camera, backproject_grid, transform_points
from .heatmap import DepthImage
from .tensorgrad import Tape, Tensor, _result

__all__ = [
    "JOINT_NAMES",
    "JOINT_TYPES",
    "view_cloud_coords",
    "soft_center",
    "masked_soft_centers",
    "soft_center_stack",
    "pose_distances",
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


def round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def view_cloud_coords(depth: DepthImage, camera: Camera) -> np.ndarray:
    """Shared-frame positions of every pixel of a view, row-major (H*W, 3)."""
    pts = backproject_grid(depth.raster, camera)
    return transform_points(pts, camera.to_reference)


def soft_center(activations: np.ndarray, coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Softmax-weighted centre of mass over the last axis: (..., I)
    activations at (I, k) coords, or at coords (..., I, k) that broadcast
    as a matrix product does, give the (..., k) centres and the (..., I)
    weights."""
    e = np.exp(activations - activations.max(axis=-1, keepdims=True))
    w = e / e.sum(axis=-1, keepdims=True)
    return w @ coords, w


def masked_soft_centers(activations: np.ndarray, coords: np.ndarray,
                        mask: np.ndarray) -> np.ndarray:
    """Per row, the softmax centre of mass over the entries ``mask`` keeps:
    (R, I) activations at (R, I, k) coords give the (R, k) centres. An
    entry left out has weight exactly zero, so a row equals
    ``soft_center`` of its kept entries up to the grouping of the centre's
    sum. A row that keeps no entry gives the mean of its coords."""
    logits = np.where(mask, activations, -np.inf)
    logits[~mask.any(axis=1)] = 0.0
    return soft_center(logits[:, None, :], coords)[0][:, 0]


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

    return _result(tape, tuple(tensors), centers, vjp, name)


def soft_center_stack(tape: Tape | None, tensors: list[Tensor],
                      coords_list: list[np.ndarray]) -> Tensor:
    """Differentiable multi-view fusion of (J, n) activation tensors,
    each with its (n, 3) cloud, into (J, 3) shared-frame predictions."""
    return _multi_view_soft_centers(tape, tensors, coords_list, "soft_center_3d")


def pose_distances(predicted: dict, reference: dict) -> dict:
    """Euclidean distances in meters between two poses of one person,
    {joint name: meters} for every joint present in both; empty when no
    joint is."""
    distances = {}
    for name in JOINT_NAMES:
        if predicted[name] is not None and reference[name] is not None:
            d = predicted[name] - reference[name]
            distances[name] = math.sqrt(d @ d)  # np.linalg.norm's arithmetic
    return distances
