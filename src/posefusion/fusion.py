"""Lift masked heatmaps into shared-frame point clouds and fuse them.

Every fused pixel of every view becomes a 3D point (via its depth and
camera) carrying its raw activation. Per joint, one softmax spans the
combined multi-view cloud and the prediction is the weights' centre of
mass. The chain stays differentiable: the aggregation registers a
closed-form adjoint on the tape.

Also provides the 2D-domain alternative used as a baseline: per-view 2D
centre of mass, depth indexing at the predicted pixel, and cross-view
fusion weighted by the heatmap values sampled there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Camera, Point3, backproject_grid, backproject_pixel, transform_point, transform_points
from .heatmap import DepthImage, Heatmap
from .tensorgrad import NonFiniteError, Tape, Tensor

__all__ = [
    "JOINT_NAMES",
    "JOINT_TYPES",
    "FusionError",
    "CloudUnresolvableError",
    "MetricUndefinedError",
    "Pose3",
    "Pose2",
    "WeightedCloud",
    "lift_heatmaps",
    "soft_center",
    "aggregate",
    "aggregate_adjoint",
    "soft_center_stack",
    "pixel_coordinates",
    "com_2d",
    "mpjpe_3d",
    "pose_distances",
    "loss_2d",
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


class CloudUnresolvableError(FusionError):
    """Every activation in the cloud is excluded; no prediction possible."""


class MetricUndefinedError(FusionError):
    """No scorable joints; the mean error is undefined."""


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


@dataclass(frozen=True)
class WeightedCloud:
    """Combined multi-view cloud for one (person, joint).

    coords holds the shared-frame positions of all V*H*W pixels in view
    order (row-major within a view); activations the matching raw values;
    valid marks entries that were not exclusion-masked.
    """

    person: int
    joint: int
    coords: np.ndarray
    activations: np.ndarray
    valid: np.ndarray
    view_slices: tuple

    def __post_init__(self):
        if self.coords.shape != (self.activations.size, 3) or self.valid.shape != self.activations.shape:
            raise FusionError("cloud arrays are inconsistently shaped")

    def points(self):
        """Iterate (Point3, activation) pairs, mainly for inspection/export."""
        for c, a in zip(self.coords, self.activations):
            yield Point3(float(c[0]), float(c[1]), float(c[2])), float(a)


def round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def view_cloud_coords(depth: DepthImage, camera: Camera) -> np.ndarray:
    """Shared-frame positions of every pixel of a view, row-major (H*W, 3)."""
    pts = backproject_grid(depth.raster, camera)
    return transform_points(pts, camera.to_reference)


def lift_heatmaps(heatmaps: list[Heatmap], depths: list[DepthImage],
                  cameras: list[Camera], person: int = 0) -> WeightedCloud:
    """Back-project one person+joint's masked heatmaps from all views and
    concatenate them into a single weighted cloud."""
    if not heatmaps:
        raise FusionError("no heatmaps to lift")
    if len(heatmaps) != len(depths) or len(heatmaps) != len(cameras):
        raise FusionError("heatmaps, depths and cameras must align per view")
    coords, acts, valid, slices = [], [], [], []
    joint = heatmaps[0].joint
    start = 0
    for h, d, cam in zip(heatmaps, depths, cameras):
        if d is None:
            raise FusionError(f"missing depth image for view {h.view}")
        if h.valid is None:
            raise FusionError(f"heatmap for view {h.view} has not been masked")
        if h.raster.shape != d.raster.shape:
            raise FusionError(f"heatmap/depth shape mismatch in view {h.view}")
        coords.append(view_cloud_coords(d, cam))
        acts.append(h.raster.ravel())
        valid.append(h.valid.ravel())
        n = h.raster.size
        slices.append((h.view, start, start + n))
        start += n
    return WeightedCloud(
        person=person,
        joint=joint,
        coords=np.concatenate(coords, axis=0),
        activations=np.concatenate(acts),
        valid=np.concatenate(valid),
        view_slices=tuple(slices),
    )


def soft_center(activations: np.ndarray, coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Softmax-weighted centre of mass: returns (centre (k,), weights (I,))."""
    e = np.exp(activations - activations.max())
    w = e / e.sum()
    return coords.T @ w, w


def aggregate(cloud: WeightedCloud) -> Point3:
    """Fuse a cloud into a single 3D prediction.

    Raises CloudUnresolvableError when every entry is exclusion-masked
    (the joint has no supporting evidence and must be marked absent).
    """
    if cloud.activations.size == 0:
        raise FusionError("empty cloud")
    if not cloud.valid.any():
        raise CloudUnresolvableError(
            f"person {cloud.person} joint {cloud.joint}: all activations excluded"
        )
    center, _ = soft_center(cloud.activations, cloud.coords)
    return Point3(float(center[0]), float(center[1]), float(center[2]))


def aggregate_adjoint(activations: np.ndarray, coords: np.ndarray,
                      upstream: np.ndarray) -> np.ndarray:
    """Closed-form gradient of the fused prediction w.r.t. raw activations.

    With weights a = softmax(h) and prediction p = sum_i a_i c_i,
    dL/dh_k = a_k * <g, c_k - p> for upstream gradient g.
    """
    center, w = soft_center(activations, coords)
    return w * (coords @ upstream - float(center @ upstream))


def _multi_view_soft_centers(tape: Tape | None, tensors: list[Tensor],
                             coords_list: list[np.ndarray], name: str) -> Tensor:
    """Fused tape node: per-channel softmax centre of mass over the
    concatenation of several (J, n) activation tensors.

    coords_list holds one (n, k) array per tensor. Output is (J, k).
    The adjoint applies the aggregate_adjoint closed form per channel,
    vectorised over channels, and splits gradients back per view.
    """
    j = tensors[0].shape[0]
    mats = [t.values.reshape(j, -1) for t in tensors]
    acts = np.concatenate(mats, axis=1)                      # (J, I)
    coords = np.concatenate(coords_list, axis=0)             # (I, k)
    e = np.exp(acts - acts.max(axis=1, keepdims=True))
    weights = e / e.sum(axis=1, keepdims=True)               # (J, I)
    centers = weights @ coords                               # (J, k)

    sizes = [m.shape[1] for m in mats]

    def vjp(g):
        # dL/dh[j,i] = a[j,i] * (<g_j, c_i> - <g_j, p_j>)
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


def pixel_coordinates(height: int, width: int) -> np.ndarray:
    """(H*W, 2) array of (x, y) pixel coordinates, row-major."""
    ys, xs = np.mgrid[0:height, 0:width]
    return np.stack([xs.ravel(), ys.ravel()], axis=1).astype(np.float64)


def soft_center_2d(tape: Tape | None, tensor: Tensor) -> Tensor:
    """Differentiable per-channel 2D centre of mass of a (J, H, W) tensor."""
    _, h, w = tensor.shape
    return _multi_view_soft_centers(tape, [tensor], [pixel_coordinates(h, w)], "soft_center_2d")


def com_2d(h: Heatmap) -> tuple[float, float] | None:
    """2D centre of mass of a masked heatmap; None when fully excluded."""
    if h.valid is None:
        raise FusionError("com_2d requires a masked heatmap")
    if not h.valid.any():
        return None
    hh, ww = h.raster.shape
    center, _ = soft_center(h.raster.ravel(), pixel_coordinates(hh, ww))
    return float(center[0]), float(center[1])


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


def mpjpe_3d(predicted, reference) -> float:
    """Mean per-joint position error over all scorable joints, in cm."""
    d = pose_distances(predicted, reference)
    if not d:
        raise MetricUndefinedError("no jointly-present joints to score")
    return float(np.mean(list(d.values()))) * 100.0


def loss_2d(predicted, reference) -> float:
    """Mean 2D joint distance in pixels over views, persons and joints
    present in both prediction and reference."""
    ref_by_key = {(p.view, p.person): p for p in reference}
    dists = []
    for pred in predicted:
        ref = ref_by_key.get((pred.view, pred.person))
        if ref is None:
            continue
        for name in JOINT_NAMES:
            a, b = pred.joints[name], ref.joints[name]
            if a is None or b is None:
                continue
            dists.append(math.hypot(a[0] - b[0], a[1] - b[1]))
    if not dists:
        raise MetricUndefinedError("no jointly-present 2D joints to score")
    return float(np.mean(dists))


def lift_and_fuse_2d(poses2d: list[Pose2], depths: dict, cameras: dict,
                     heatmaps: dict) -> Pose3 | None:
    """Fuse one person's per-view 2D joint predictions into 3D.

    Each 2D position is rounded to its nearest pixel and lifted through
    the depth image and camera of its view; views whose depth is unknown
    at that pixel are dropped. The per-view candidates are combined by a
    softmax over the masked heatmap values sampled at those pixels.

    depths/cameras map view -> DepthImage/Camera; heatmaps maps
    (view, joint_name) -> masked Heatmap. Returns None if no joint could
    be lifted in any view.
    """
    if not poses2d:
        return None
    person = poses2d[0].person
    fused = {}
    for name in JOINT_NAMES:
        candidates, values = [], []
        for pose in poses2d:
            pos = pose.joints[name]
            if pos is None:
                continue
            depth_img = depths[pose.view]
            hm = heatmaps[(pose.view, name)]
            h, w = depth_img.raster.shape
            px = min(max(round_half_up(pos[0]), 0), w - 1)
            py = min(max(round_half_up(pos[1]), 0), h - 1)
            z = float(depth_img.raster[py, px])
            if z <= 0.0:
                continue
            cam = cameras[pose.view]
            point = transform_point(backproject_pixel((px, py), z, cam), cam.to_reference)
            candidates.append(point.as_array())
            values.append(float(hm.raster[py, px]))
        if not candidates:
            fused[name] = None
            continue
        center, _ = soft_center(np.asarray(values), np.asarray(candidates))
        fused[name] = Point3(float(center[0]), float(center[1]), float(center[2]))
    if all(v is None for v in fused.values()):
        return None
    return Pose3(person=person, joints=fused)
