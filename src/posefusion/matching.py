"""Cross-view association of person bounding boxes via 3D centre distance.

Each box centre is lifted to the shared frame through its view's depth
image and camera, as a (3,) float64 array in meters. Candidate
combinations of two or three boxes from distinct views are kept only if
every pairwise centre distance stays under the threshold; selection is
greedy by ascending mean pairwise distance, taking all surviving triples
before any pair, and leftover boxes become singletons. Evaluation
matches each annotated person to the combination with the highest mean
IoU over the views, counting missing boxes as IoU 0.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np

from .geometry import Camera, backproject_pixel, transform_point
from .heatmap import BoundingBox, DepthImage, HeatmapError
from .fusion import round_half_up

__all__ = [
    "MatchingError",
    "UnliftableBoxError",
    "MatchConfig",
    "BoxCombination",
    "lift_box_center",
    "match_centers",
    "match_boxes",
    "box_iou",
    "evaluate_matching",
    "load_detections",
]

DEFAULT_THRESHOLD_M = 0.75


class MatchingError(ValueError):
    """Invalid matching input."""


class UnliftableBoxError(MatchingError):
    """A box contains no valid depth anywhere; its centre cannot be lifted."""


@dataclass(frozen=True)
class MatchConfig:
    """Pairwise centre-distance threshold in meters."""

    t: float = DEFAULT_THRESHOLD_M

    def __post_init__(self):
        if not self.t > 0:
            raise MatchingError(f"threshold must be positive, got {self.t}")


@dataclass(frozen=True)
class BoxCombination:
    """One hypothesised person: at most one box per view.

    members maps view -> box index within that view's list; centers maps
    view -> lifted (3,) centre (None for an unliftable singleton).
    """

    members: dict
    centers: dict
    mean_distance: float | None

    def __post_init__(self):
        if not self.members:
            raise MatchingError("empty combination")
        if len(self.members) >= 2 and self.mean_distance is None:
            raise MatchingError("multi-box combination needs a mean distance")

    @property
    def size(self) -> int:
        return len(self.members)

    def key(self) -> tuple:
        return tuple(sorted(self.members.items()))


def lift_box_center(box: BoundingBox, depth: DepthImage, camera: Camera) -> np.ndarray:
    """Lift a box centre to a (3,) point in the shared frame.

    Uses the depth at the rounded centre pixel; if that depth is unknown,
    falls back to the median of the valid depths inside the box. Raises
    UnliftableBoxError when the box holds no valid depth at all.
    """
    h, w = depth.raster.shape
    box.validate_within(h, w)
    cx = round_half_up((box.x_min + box.x_max) / 2.0)
    cy = round_half_up((box.y_min + box.y_max) / 2.0)
    cx = min(cx, box.x_max - 1)
    cy = min(cy, box.y_max - 1)
    z = float(depth.raster[cy, cx])
    if z <= 0.0:
        patch = depth.raster[box.y_min:box.y_max, box.x_min:box.x_max]
        valid = patch[patch > 0.0]
        if valid.size == 0:
            raise UnliftableBoxError(f"box {box} has no valid depth")
        z = float(np.median(valid))
    return transform_point(backproject_pixel((cx, cy), z, camera), camera.to_reference)


def _candidate_combinations(centers: dict, views: list, cfg: MatchConfig) -> list:
    """All threshold-surviving pairs and triples of liftable boxes, sorted
    by the selection rule: triples before pairs, then ascending mean
    pairwise distance, ties broken by member (view, box) indices."""
    liftable = {v: [i for i, c in enumerate(centers[v]) if c is not None] for v in views}
    candidates = []
    for size in (3, 2):
        for view_combo in itertools.combinations(views, size):
            pools = [liftable[v] for v in view_combo]
            for picks in itertools.product(*pools):
                pts = [centers[v][i] for v, i in zip(view_combo, picks)]
                dists = [float(np.linalg.norm(a - b))
                         for a, b in itertools.combinations(pts, 2)]
                if max(dists) > cfg.t:
                    continue
                members = dict(zip(view_combo, picks))
                candidates.append(BoxCombination(
                    members=members,
                    centers={v: centers[v][i] for v, i in members.items()},
                    mean_distance=float(np.mean(dists)),
                ))
    candidates.sort(key=lambda c: (-c.size, c.mean_distance, c.key()))
    return candidates


def match_centers(centers: dict, cfg: MatchConfig = MatchConfig()) -> list:
    """Greedy best-first partition of lifted centres into combinations.

    centers maps view -> list[(3,) array | None] (None = unliftable, forced
    singleton). Selection order: all surviving triples by ascending mean
    pairwise distance, then surviving pairs, skipping any combination
    that would reuse an assigned box; everything left is a singleton.
    """
    views = sorted(centers)
    selected = []
    used = set()
    for cand in _candidate_combinations(centers, views, cfg):
        ids = set(cand.members.items())
        if ids & used:
            continue
        used |= ids
        selected.append(cand)
    for v in views:
        for i in range(len(centers[v])):
            if (v, i) not in used:
                selected.append(BoxCombination(
                    members={v: i}, centers={v: centers[v][i]}, mean_distance=None,
                ))
    return selected


def match_boxes(boxes: dict, depths: dict, cameras: dict,
                cfg: MatchConfig = MatchConfig()) -> list:
    """Partition all boxes into cross-view combinations.

    boxes/depths/cameras map view -> list[BoundingBox]/DepthImage/Camera.
    Every input box ends up in exactly one combination; boxes that fit no
    multi-view combination (or cannot be lifted) become singletons.
    """
    centers: dict = {}
    for v in sorted(boxes):
        centers[v] = []
        for b in boxes[v]:
            try:
                centers[v].append(lift_box_center(b, depths[v], cameras[v]))
            except UnliftableBoxError:
                centers[v].append(None)
    return match_centers(centers, cfg)


def box_iou(a: BoundingBox, b: BoundingBox) -> float:
    """Intersection over union of two pixel boxes."""
    ix = max(0, min(a.x_max, b.x_max) - max(a.x_min, b.x_min))
    iy = max(0, min(a.y_max, b.y_max) - max(a.y_min, b.y_min))
    inter = ix * iy
    union = a.area + b.area - inter
    return inter / union if union > 0 else 0.0


def evaluate_matching(combinations: list, annotated: dict, boxes: dict,
                      views: list | None = None) -> dict:
    """Match annotated persons to combinations by highest mean IoU.

    annotated maps person -> {view: BoundingBox} (complete per person);
    boxes holds the detection lists the combinations index into. The IoU
    for a view where the combination has no box is 0. Returns
    person -> (combination index, mean IoU over all views).
    """
    if views is None:
        views = sorted(boxes)
    results = {}
    for person, gt_boxes in sorted(annotated.items()):
        missing = [v for v in views if v not in gt_boxes]
        if missing:
            raise MatchingError(f"person {person}: annotation missing for views {missing}")
        best_idx, best_iou = None, -1.0
        for idx, combo in enumerate(combinations):
            total = 0.0
            for v in views:
                if v in combo.members:
                    total += box_iou(boxes[v][combo.members[v]], gt_boxes[v])
            mean_iou = total / len(views)
            if mean_iou > best_iou:
                best_idx, best_iou = idx, mean_iou
        results[person] = (best_idx, best_iou)
    return results


def _int_field(doc, key: str, context: str) -> int:
    """Field ``key`` of a detections entry: a JSON integer, not a float,
    a string or a bool."""
    if not isinstance(doc, dict) or key not in doc:
        raise MatchingError(f"{context}: no integer '{key}'")
    value = doc[key]
    if type(value) is not int:
        raise MatchingError(f"{context}: '{key}' must be an integer, got {value!r}")
    return value


def load_detections(path) -> dict:
    """Read a detections file: ``{"views": [{"view": v, "boxes": [...]}]}``
    with each box carrying x_min/y_min/x_max/y_max, an optional person
    id (default: its place in the list) and an optional confidence score
    (accepted, ignored). The same schema as annotation boxes, so detector
    output and ground truth interchange. Every id and coordinate is a
    JSON integer, and each view appears once."""
    try:
        with open(path, "r", encoding="ascii") as f:
            doc = json.load(f)
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise MatchingError(f"{path}: not a JSON file: {e}") from None
    if not isinstance(doc, dict) or not isinstance(doc.get("views"), list):
        raise MatchingError(f"{path}: missing 'views' list")
    out = {}
    for k, vdoc in enumerate(doc["views"]):
        v = _int_field(vdoc, "view", f"{path}: views[{k}]")
        if v in out:
            raise MatchingError(f"{path}: views[{k}]: 'view' {v} appears twice")
        boxes = vdoc.get("boxes", [])
        if not isinstance(boxes, list):
            raise MatchingError(f"{path}: views[{v}].boxes: not a list")
        out[v] = []
        for i, bdoc in enumerate(boxes):
            ctx = f"{path}: views[{v}].boxes[{i}]"
            corners = {key: _int_field(bdoc, key, ctx)
                       for key in ("x_min", "y_min", "x_max", "y_max")}
            person = _int_field(bdoc, "person", ctx) if "person" in bdoc else i
            try:
                out[v].append(BoundingBox(view=v, person=person, **corners))
            except HeatmapError as e:
                raise MatchingError(f"{ctx}: {e}") from None
    return out
