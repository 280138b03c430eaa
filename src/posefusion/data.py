"""Scene ingestion and a deterministic synthetic multi-view generator.

A scene is a directory holding ``scene.json`` (cameras, boxes, 2D/3D
joints, visibility flags), one binary-P6 ``view{v}_color.ppm`` per view
and one ``view{v}_depth.f32`` per view (two little-endian uint32 for H
then W, followed by H*W little-endian float32 z-depths in meters,
row-major; 0.0 marks unknown depth).

``scene.json`` is written by a writer for this one schema, which gives
the bytes of ``json.dumps(doc, indent=2, sort_keys=True)`` at a fraction
of the cost of the json module's pure-Python indenting encoder.

The synthetic generator renders articulated stick figures (joint spheres
plus bone capsules) into depth maps by per-pixel ray casting against the
figures (each primitive only over its screen-space rectangle), a floor
plane and four walls, and derives every annotation a downstream test
needs: exact projections, per-view visibility, boxes, and the per-scene
lifting error that bounds what any pixel-grid method can achieve. Every
camera sits strictly inside the room, so along each horizontal axis a
ray can only meet the wall its direction points to, and each view casts
two wall passes rather than four.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import struct
import sys
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

import numpy as np

from .fusion import JOINT_NAMES, round_half_up
from .geometry import (
    Camera,
    GeometryError,
    RigidTransform,
    backproject_pixel,
    compose,
    invert_transform,
    project_point,
    transform_point,
)
from .heatmap import BoundingBox, DepthImage, HeatmapError

__all__ = [
    "SceneFormatError",
    "GenerationError",
    "SceneView",
    "Scene",
    "SynthConfig",
    "save_scene",
    "load_scene",
    "load_dataset",
    "write_split",
    "load_split",
    "generate_synthetic",
    "generate_dataset",
    "make_target_heatmaps",
    "lift_errors",
    "quantization_bound_cm",
]

SKELETON_EDGES = (
    ("head", "neck"),
    ("neck", "shoulder_l"),
    ("neck", "shoulder_r"),
    ("shoulder_l", "elbow_l"),
    ("elbow_l", "wrist_l"),
    ("shoulder_r", "elbow_r"),
    ("elbow_r", "wrist_r"),
    ("neck", "hip_l"),
    ("neck", "hip_r"),
    ("hip_l", "hip_r"),
)


class SceneFormatError(ValueError):
    """A scene file violates the schema or a type invariant."""


class GenerationError(RuntimeError):
    """The synthetic configuration cannot produce a valid scene."""


@dataclass
class SceneView:
    view: int
    camera: Camera
    colour: np.ndarray                 # (3, H, W) in [0, 1]
    depth: DepthImage
    boxes: dict                        # person -> BoundingBox

    @property
    def height(self) -> int:
        return self.depth.raster.shape[0]

    @property
    def width(self) -> int:
        return self.depth.raster.shape[1]


@dataclass
class Scene:
    id: str
    views: list
    n_persons: int
    joints3d: dict                      # person -> {joint: (3,) array} (shared frame)
    joints2d: dict                      # (person, view) -> {joint: (x, y) | None}
    visibility: dict                    # (person, view) -> {joint: bool}

    def persons(self) -> list:
        return list(range(self.n_persons))

    def supporting_views(self, person: int) -> list:
        return [v.view for v in self.views if person in v.boxes]

    def gt_pose3(self, person: int) -> dict:
        """Ground-truth 3D joints in the shared frame, {name: (3,) array}."""
        return self.joints3d[person]

    def gt_pose2(self, person: int, view: int) -> dict:
        """Ground-truth 2D joints in one view, {name: (x, y) | None}: exact
        projections, present where visible."""
        vis = self.visibility[(person, view)]
        pts = self.joints2d[(person, view)]
        return {name: (pts[name] if vis[name] else None) for name in JOINT_NAMES}


# ---------------------------------------------------------------------------
# file formats


def _write_ppm(path, colour: np.ndarray) -> None:
    h, w = colour.shape[1], colour.shape[2]
    pixels = np.rint(np.clip(colour, 0.0, 1.0) * 255.0).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        f.write(pixels.transpose(1, 2, 0).tobytes())


def _read_ppm(path) -> np.ndarray:
    with open(path, "rb") as f:
        data = f.read()
    tokens = []
    i = 0
    while len(tokens) < 4:
        if i >= len(data):
            raise SceneFormatError(f"{path}: truncated PPM header")
        ch = data[i:i + 1]
        if ch == b"#":
            while i < len(data) and data[i:i + 1] != b"\n":
                i += 1
        elif ch.isspace():
            i += 1
        else:
            j = i
            while j < len(data) and not data[j:j + 1].isspace():
                j += 1
            tokens.append(data[i:j])
            i = j
    if tokens[0] != b"P6":
        raise SceneFormatError(f"{path}: not a binary P6 PPM (magic {tokens[0]!r})")
    w, h, maxval = (int(t) for t in tokens[1:4])
    if maxval != 255:
        raise SceneFormatError(f"{path}: maxval must be 255, got {maxval}")
    i += 1  # single whitespace byte after maxval
    raw = data[i:i + w * h * 3]
    if len(raw) != w * h * 3:
        raise SceneFormatError(f"{path}: expected {w * h * 3} pixel bytes, got {len(raw)}")
    img = np.frombuffer(raw, dtype=np.uint8).reshape(h, w, 3)
    return img.transpose(2, 0, 1).astype(np.float64) / 255.0


def _write_depth(path, raster: np.ndarray) -> None:
    h, w = raster.shape
    with open(path, "wb") as f:
        f.write(struct.pack("<II", h, w))
        f.write(np.ascontiguousarray(raster, dtype="<f4").tobytes())


def _read_depth(path) -> np.ndarray:
    with open(path, "rb") as f:
        header = f.read(8)
        if len(header) != 8:
            raise SceneFormatError(f"{path}: truncated depth header")
        h, w = struct.unpack("<II", header)
        raw = f.read()
    if len(raw) != h * w * 4:
        raise SceneFormatError(f"{path}: expected {h * w * 4} payload bytes, got {len(raw)}")
    return np.frombuffer(raw, dtype="<f4").reshape(h, w).astype(np.float64)


_UNIT_SCALE = {"meters": 1.0, "millimeters": 0.001}
_SORTED_JOINTS = sorted(JOINT_NAMES)


def _array(items: list, pad: str) -> str:
    """A JSON array of encoded ``items`` whose opening line is indented by
    ``pad``, laid out as ``json.dumps(indent=2)`` lays it out."""
    if not items:
        return "[]"
    inner = "\n" + pad + "  "
    return "[" + inner + ("," + inner).join(items) + "\n" + pad + "]"


def _floats(values, pad: str) -> str:
    """``_array`` of floats written by ``float.__repr__``, as ``json``
    writes them; a finite float's repr holds no "n", so one substring
    test finds the NaN and Infinity that ``json`` spells its own way."""
    text = _array(list(map(float.__repr__, values)), pad)
    if "n" in text:
        text = text.replace("nan", "NaN").replace("inf", "Infinity")
    return text


def _scene_json(scene: Scene) -> str:
    """scene.json's text: the bytes ``json.dumps(doc, indent=2,
    sort_keys=True)`` gives for the scene's document, written straight
    from the scene by a writer for this one schema. Keys appear in sorted
    order, strings go through ``encode_basestring_ascii``, floats through
    ``float.__repr__``, camera scalars (an int ``focal`` writes ``70``)
    through ``json.dumps``, and the ints and bools a scene holds through
    ``str`` and ``true``/``false``. Python's json module runs its
    pure-Python encoder whenever ``indent`` is set, at several times the
    cost of this writer."""
    persons = []
    for p in scene.persons():
        j3 = scene.joints3d[p]
        views = []
        for sv in scene.views:
            pts = scene.joints2d[(p, sv.view)]
            vis = scene.visibility[(p, sv.view)]
            j2 = ",".join([f'\n            "{name}": '
                           + ("null" if pts[name] is None else _floats(pts[name], " " * 12))
                           for name in _SORTED_JOINTS])
            flags = ",".join([f'\n            "{name}": ' + ("true" if vis[name] else "false")
                              for name in _SORTED_JOINTS])
            views.append(f'{{\n          "joints2d": {{{j2}\n          }},'
                         f'\n          "view": {sv.view},'
                         f'\n          "visible": {{{flags}\n          }}\n        }}')
        j3_text = ",".join([f'\n        "{name}": ' + _floats(j3[name].tolist(), " " * 8)
                            for name in _SORTED_JOINTS])
        persons.append(f'{{\n      "joints3d": {{{j3_text}\n      }},'
                       f'\n      "person": {p},'
                       f'\n      "views": {_array(views, " " * 6)}\n    }}')
    views = []
    for sv in scene.views:
        cam = sv.camera
        boxes = [f'{{\n          "person": {p},\n          "x_max": {b.x_max},'
                 f'\n          "x_min": {b.x_min},\n          "y_max": {b.y_max},'
                 f'\n          "y_min": {b.y_min}\n        }}'
                 for p, b in sorted(sv.boxes.items())]
        scalars = "".join([f'\n        "{key}": '
                           + (float.__repr__(v) if type(v) is float else json.dumps(v)) + ","
                           for key, v in (("cx", cam.cx), ("cy", cam.cy),
                                          ("fx", cam.fx), ("fy", cam.fy))])
        views.append(f'{{\n      "boxes": {_array(boxes, " " * 6)},'
                     f'\n      "camera": {{{scalars}'
                     f'\n        "to_reference": '
                     f'{_floats(cam.to_reference.matrix.ravel().tolist(), " " * 8)}\n      }},'
                     f'\n      "height": {sv.height},\n      "view": {sv.view},'
                     f'\n      "width": {sv.width}\n    }}')
    return (f'{{\n  "id": {encode_basestring_ascii(scene.id)},'
            f'\n  "persons": {_array(persons, "  ")},\n  "units": "meters",'
            f'\n  "views": {_array(views, "  ")}\n}}\n')


def save_scene(scene: Scene, directory) -> None:
    """Write a scene directory; serialization is deterministic so that a
    load/save round trip is byte-identical."""
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, "scene.json"), "w", encoding="ascii") as f:
        f.write(_scene_json(scene))
    for sv in scene.views:
        _write_ppm(os.path.join(directory, f"view{sv.view}_color.ppm"), sv.colour)
        _write_depth(os.path.join(directory, f"view{sv.view}_depth.f32"), sv.depth.raster)


def _field(doc: dict, key: str, context: str):
    if key not in doc:
        raise SceneFormatError(f"{context}: missing field '{key}'")
    return doc[key]


def _typed(kind, doc: dict, key: str, context: str):
    """Field ``key`` as a ``kind``: for int a JSON integer, for float a
    finite real number; a bool or a string is neither."""
    value = _field(doc, key, context)
    ok = type(value) is int if kind is int else _finite_number(value)
    if ok:
        return kind(value)
    what = "an integer" if kind is int else "a finite number"
    raise SceneFormatError(f"{context}: field '{key}' must be {what}, got {value!r}")


def _shaped(kind, value, context: str):
    """``value`` if it is a ``kind`` (dict or list), else a SceneFormatError
    naming ``context``."""
    if not isinstance(value, kind):
        what = "an object" if kind is dict else "a list"
        raise SceneFormatError(f"{context} must be {what}, got {type(value).__name__}")
    return value


def _finite_number(value) -> bool:
    """A real number other than a bool that a float holds finitely;
    abs(v) <= max float also rejects NaN, and ints too large for a float.
    A float skips the abstract-class check, which costs several times
    more and runs for every coordinate of a scene file."""
    return ((type(value) is float
             or isinstance(value, numbers.Real) and not isinstance(value, bool))
            and abs(value) <= sys.float_info.max)


def load_scene(directory) -> Scene:
    """Read and validate a scene directory; units normalize to meters."""
    path = os.path.join(directory, "scene.json")
    try:
        with open(path, "r", encoding="ascii") as f:
            doc = _shaped(dict, json.load(f), path)
    except FileNotFoundError:
        raise SceneFormatError(f"{path}: missing scene.json")
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise SceneFormatError(f"{path}: invalid JSON: {e}") from None

    units = _field(doc, "units", path)
    if not isinstance(units, str) or units not in _UNIT_SCALE:
        raise SceneFormatError(f"{path}: units: unknown unit '{units}'")
    scale = _UNIT_SCALE[units]

    views = []
    for i, vdoc in enumerate(_shaped(list, _field(doc, "views", path), f"{path}: views")):
        _shaped(dict, vdoc, f"{path}: views[{i}]")
        ctx = f"{path}: views[{vdoc.get('view', '?')}]"
        v = _typed(int, vdoc, "view", ctx)
        cam_doc = _shaped(dict, _field(vdoc, "camera", ctx), f"{ctx}.camera")
        t_doc = _field(cam_doc, "to_reference", f"{ctx}.camera")
        if not (isinstance(t_doc, list) and all(map(_finite_number, t_doc))):
            raise SceneFormatError(f"{ctx}.camera: field 'to_reference' must be "
                                   f"16 finite numbers")
        t_raw = np.array(t_doc, dtype=np.float64)
        if t_raw.size != 16:
            raise SceneFormatError(f"{ctx}.camera.to_reference: expected 16 numbers, got {t_raw.size}")
        t_mat = t_raw.reshape(4, 4)
        t_mat[:3, 3] *= scale
        try:
            transform = RigidTransform(t_mat)
            camera = Camera(
                id=v,
                fx=_typed(float, cam_doc, "fx", f"{ctx}.camera"),
                fy=_typed(float, cam_doc, "fy", f"{ctx}.camera"),
                cx=_typed(float, cam_doc, "cx", f"{ctx}.camera"),
                cy=_typed(float, cam_doc, "cy", f"{ctx}.camera"),
                to_reference=transform,
            )
        except GeometryError as e:
            raise SceneFormatError(f"{ctx}.camera: {e}")
        h, w = _typed(int, vdoc, "height", ctx), _typed(int, vdoc, "width", ctx)

        colour = _read_ppm(os.path.join(directory, f"view{v}_color.ppm"))
        depth_raster = _read_depth(os.path.join(directory, f"view{v}_depth.f32")) * scale
        if colour.shape[1:] != (h, w) or depth_raster.shape != (h, w):
            raise SceneFormatError(f"{ctx}: raster sizes disagree with declared {h}x{w}")
        boxes = {}
        for k, bdoc in enumerate(_shaped(list, vdoc.get("boxes", []), f"{ctx}.boxes")):
            p = _typed(int, _shaped(dict, bdoc, f"{ctx}.boxes[{k}]"), "person", f"{ctx}.boxes")
            bctx = f"{ctx}.boxes[person={p}]"
            try:
                boxes[p] = BoundingBox(view=v, person=p, **{
                    k: _typed(int, bdoc, k, bctx) for k in ("x_min", "y_min", "x_max", "y_max")})
                boxes[p].validate_within(h, w)
            except HeatmapError as e:
                raise SceneFormatError(f"{bctx}: {e}")
        views.append(SceneView(view=v, camera=camera, colour=colour,
                               depth=DepthImage(view=v, raster=depth_raster), boxes=boxes))

    views.sort(key=lambda sv: sv.view)
    if not views:
        raise SceneFormatError(f"{path}: scene has no views")
    if [sv.view for sv in views] != list(range(len(views))):
        raise SceneFormatError(f"{path}: view indices must be contiguous from 0, "
                               f"got {[sv.view for sv in views]}")
    if not views[0].camera.to_reference.is_identity(1e-12):
        raise SceneFormatError(f"{path}: view 0 must carry the identity to_reference")

    joints3d, joints2d, visibility = {}, {}, {}
    persons = _shaped(list, _field(doc, "persons", path), f"{path}: persons")
    for i, pdoc in enumerate(persons):
        p = _typed(int, _shaped(dict, pdoc, f"{path}: persons[{i}]"), "person", path)
        ctx = f"{path}: persons[{p}]"
        j3 = {}
        j3_doc = _shaped(dict, _field(pdoc, "joints3d", ctx), f"{ctx}.joints3d")
        for name in JOINT_NAMES:
            xyz = _field(j3_doc, name, f"{ctx}.joints3d")
            if not (isinstance(xyz, list) and len(xyz) == 3 and all(map(_finite_number, xyz))):
                raise SceneFormatError(f"{ctx}.joints3d.{name}: expected 3 finite numbers, "
                                       f"got {xyz!r}")
            j3[name] = np.array([scale * float(c) for c in xyz])
        joints3d[p] = j3
        for k, vdoc in enumerate(_shaped(list, _field(pdoc, "views", ctx), f"{ctx}.views")):
            v = _typed(int, _shaped(dict, vdoc, f"{ctx}.views[{k}]"), "view", ctx)
            j2_doc = _shaped(dict, _field(vdoc, "joints2d", ctx), f"{ctx}: view {v} joints2d")
            vis_doc = _shaped(dict, _field(vdoc, "visible", ctx), f"{ctx}: view {v} visible")
            j2, vis = {}, {}
            for name in JOINT_NAMES:
                raw = j2_doc.get(name)
                if raw is None:
                    j2[name] = None
                elif isinstance(raw, list) and len(raw) == 2 and all(map(_finite_number, raw)):
                    j2[name] = (float(raw[0]), float(raw[1]))
                else:
                    raise SceneFormatError(f"{ctx}: view {v} joints2d.{name}: expected null "
                                           f"or 2 finite numbers, got {raw!r}")
                flag = vis_doc.get(name, False)
                if type(flag) is not bool:
                    raise SceneFormatError(f"{ctx}: view {v} visible.{name}: expected true "
                                           f"or false, got {flag!r}")
                vis[name] = flag
                if flag and j2[name] is None:
                    raise SceneFormatError(f"{ctx}: view {v} joint '{name}' visible but missing joints2d")
            joints2d[(p, v)] = j2
            visibility[(p, v)] = vis

    if sorted(joints3d) != list(range(len(persons))):
        raise SceneFormatError(f"{path}: person indices must be contiguous from 0, "
                               f"got {sorted(joints3d)}")
    for p in joints3d:
        for sv in views:
            if (p, sv.view) not in visibility:
                raise SceneFormatError(f"{path}: persons[{p}] lacks an entry for view {sv.view}")
    scene = Scene(
        id=str(_field(doc, "id", path)), views=views, n_persons=len(persons),
        joints3d=joints3d, joints2d=joints2d, visibility=visibility,
    )
    for sv in views:
        for p in sv.boxes:
            if p not in joints3d:
                raise SceneFormatError(f"{path}: view {sv.view} has a box for unknown person {p}")
    return scene


def write_split(path, folds: dict) -> None:
    with open(path, "w", encoding="ascii") as f:
        json.dump({name: list(ids) for name, ids in folds.items()}, f, indent=2, sort_keys=True)
        f.write("\n")


def load_split(path) -> dict:
    try:
        with open(path, "r", encoding="ascii") as f:
            doc = json.load(f)
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise SceneFormatError(f"{path}: invalid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise SceneFormatError(f"{path}: split file must map fold names to scene-id lists")
    for fold, ids in doc.items():
        if not (isinstance(ids, list) and all(isinstance(i, str) for i in ids)):
            raise SceneFormatError(f"{path}: fold '{fold}' must be a list of scene-id "
                                   f"strings, got {ids!r}")
    return doc


def load_dataset(root, fold: str | None = None) -> list:
    """Load all scenes under ``root/scenes``; with ``fold``, only the ids
    listed for that fold in ``root/split.json``."""
    scene_root = os.path.join(root, "scenes")
    if not os.path.isdir(scene_root):
        raise SceneFormatError(f"{root}: no scenes/ directory")
    ids = sorted(os.listdir(scene_root))
    if fold is not None:
        split = load_split(os.path.join(root, "split.json"))
        if fold not in split:
            raise SceneFormatError(f"{root}/split.json: no fold named '{fold}'")
        wanted = set(split[fold])
        ids = [i for i in ids if i in wanted]
    return [load_scene(os.path.join(scene_root, i)) for i in ids]


# ---------------------------------------------------------------------------
# synthetic generation


@dataclass(frozen=True)
class SynthConfig:
    """Desk-scale multi-view scene generator settings.

    The default geometry is a 5 m square room observed by three cameras
    on a ring, rendering 64x80 views of 1-3 articulated figures.
    """

    image_h: int = 64
    image_w: int = 80
    views: int = 3
    focal: float | None = None      # default: 0.875 * image_w (70 px at 64x80)
    min_persons: int = 1
    max_persons: int = 3
    room_size: float = 5.0
    wall_height: float = 2.6
    camera_radius: float = 2.3
    camera_heights: tuple = (1.45, 1.6, 1.7)
    spawn_radius: float = 0.8
    min_person_gap: float = 0.7
    joint_radius: float = 0.08
    capsule_radius: float = 0.07
    heatmap_sigma: float = 1.0
    heatmap_amplitude: float = 80.0
    box_pad: int = 2
    occlusion_drop: float = 0.0
    seed: int = 0
    train_scenes: int = 20
    test_scenes: int = 5

    def __post_init__(self):
        if self.focal is None:
            object.__setattr__(self, "focal", 0.875 * self.image_w)
        if min(self.image_h, self.image_w, self.views, self.min_persons,
               self.train_scenes + self.test_scenes) <= 0 or self.focal <= 0:
            raise GenerationError("all sizes must be positive")
        for name in ("train_scenes", "test_scenes", "seed"):
            if getattr(self, name) < 0:
                raise GenerationError(f"{name} must not be negative, got {getattr(self, name)}")
        if self.max_persons < self.min_persons:
            raise GenerationError("max_persons < min_persons")
        if self.capsule_radius > self.joint_radius:
            raise GenerationError("capsule_radius must not exceed joint_radius "
                                  "(joint spheres cap the bone capsules)")
        if not 0.0 <= self.occlusion_drop < 1.0:
            raise GenerationError("occlusion_drop must be in [0, 1)")
        if self.camera_radius >= self.room_size / 2.0:
            raise GenerationError("cameras must sit strictly inside the room")


def _look_at(eye: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Camera-to-world rotation: columns are camera axes (x right, y down,
    z forward) expressed in the y-up world."""
    up = np.array([0.0, 1.0, 0.0])
    ez = target - eye
    ez = ez / np.linalg.norm(ez)
    ex = np.cross(ez, up)
    ex = ex / np.linalg.norm(ex)
    ey = np.cross(ez, ex)
    return np.stack([ex, ey, ez], axis=1)


def _camera_rig(cfg: SynthConfig) -> list:
    """Fixed camera ring: world poses plus calibrated Camera objects whose
    to_reference maps into camera 0's frame."""
    target = np.array([0.0, 1.05, 0.0])
    world_poses = []
    for v in range(cfg.views):
        angle = 2.0 * math.pi * v / cfg.views + math.pi / 2.0
        height = cfg.camera_heights[v % len(cfg.camera_heights)]
        eye = np.array([cfg.camera_radius * math.cos(angle), height,
                        cfg.camera_radius * math.sin(angle)])
        world_poses.append(RigidTransform.from_rotation_translation(_look_at(eye, target), eye))
    world_to_ref = invert_transform(world_poses[0])
    cameras = []
    for v, pose in enumerate(world_poses):
        to_ref = RigidTransform.identity() if v == 0 else compose(world_to_ref, pose)
        cameras.append(Camera(
            id=v, fx=cfg.focal, fy=cfg.focal,
            cx=(cfg.image_w - 1) / 2.0, cy=(cfg.image_h - 1) / 2.0,
            to_reference=to_ref,
        ))
    return world_poses, cameras


def _sample_person(rng, cfg: SynthConfig, existing: list) -> dict:
    """One articulated upper-body figure in world coordinates (y up)."""
    for _ in range(40):
        pos = rng.uniform(-cfg.spawn_radius, cfg.spawn_radius, size=2)
        if all(np.linalg.norm(pos - e) >= cfg.min_person_gap for e in existing):
            break
    else:
        raise GenerationError("could not place persons with the configured spacing")
    existing.append(pos)
    base = np.array([pos[0], 0.0, pos[1]])
    phi = rng.uniform(0.0, 2.0 * math.pi)
    fwd = np.array([math.cos(phi), 0.0, math.sin(phi)])
    lat = np.array([-math.sin(phi), 0.0, math.cos(phi)])
    up = np.array([0.0, 1.0, 0.0])

    hip_y = rng.uniform(0.9, 1.05)
    hip_half = rng.uniform(0.10, 0.14)
    hip_mid = base + up * hip_y
    joints = {
        "hip_l": hip_mid + lat * hip_half,
        "hip_r": hip_mid - lat * hip_half,
    }
    neck = hip_mid + up * rng.uniform(0.42, 0.52) + fwd * rng.uniform(-0.05, 0.05) \
        + lat * rng.uniform(-0.03, 0.03)
    joints["neck"] = neck
    joints["head"] = neck + up * rng.uniform(0.15, 0.22) + fwd * rng.uniform(-0.03, 0.06)
    shoulder_drop = rng.uniform(0.02, 0.05)
    shoulder_half = rng.uniform(0.15, 0.19)
    joints["shoulder_l"] = neck - up * shoulder_drop + lat * shoulder_half
    joints["shoulder_r"] = neck - up * shoulder_drop - lat * shoulder_half
    for side, sign in (("l", 1.0), ("r", -1.0)):
        upper = (-up * rng.uniform(0.5, 1.0) + lat * sign * rng.uniform(0.0, 0.7)
                 + fwd * rng.uniform(-0.4, 0.6))
        upper /= np.linalg.norm(upper)
        elbow = joints[f"shoulder_{side}"] + upper * rng.uniform(0.24, 0.30)
        lower = (-up * rng.uniform(0.2, 1.0) + lat * sign * rng.uniform(-0.3, 0.6)
                 + fwd * rng.uniform(-0.3, 0.8))
        lower /= np.linalg.norm(lower)
        wrist = elbow + lower * rng.uniform(0.22, 0.28)
        joints[f"elbow_{side}"] = elbow
        joints[f"wrist_{side}"] = wrist
    return joints


_S_MIN = 0.05                                   # nearest ray parameter that counts as a hit
_CUBE_CORNERS = np.array([[sx, sy, sz] for sx in (-1.0, 1.0)
                          for sy in (-1.0, 1.0) for sz in (-1.0, 1.0)])


def _ball_rects(centres_cam: np.ndarray, radii: np.ndarray,
                col_dirs: np.ndarray, row_dirs: np.ndarray) -> np.ndarray:
    """Conservative pixel rectangles (row0, row1, col0, col1), half-open,
    of balls with camera-frame centres (B, 3) and radii (R,): (R, B, 4).

    A ball in front of the near plane projects inside the x/z, y/z bounds
    of its bounding cube's corners; the rows and columns whose ray
    direction lies in those bounds, widened by one pixel each way, hold
    every ray that can hit it. A ball reaching the near plane gets the
    whole image. A rectangle holding a ray inside the bounds has at least
    two pixels whenever the image has, so its (n, 3) @ (3,) products take
    the same BLAS path, with the same bits, as the whole grid's (numpy
    computes a one-row product differently)."""
    h, w = row_dirs.size, col_dirs.size
    corners = (centres_cam[None, :, None, :]
               + radii[:, None, None, None] * _CUBE_CORNERS)          # (R, B, 8, 3)
    near = centres_cam[None, :, 2] - radii[:, None] <= _S_MIN
    z = np.where(near[..., None], 1.0, corners[..., 2])   # near: whole image, set below
    sx, sy = corners[..., 0] / z, corners[..., 1] / z
    rects = np.stack([
        np.searchsorted(row_dirs, sy.min(axis=2), "left") - 1,
        np.searchsorted(row_dirs, sy.max(axis=2), "right") + 1,
        np.searchsorted(col_dirs, sx.min(axis=2), "left") - 1,
        np.searchsorted(col_dirs, sx.max(axis=2), "right") + 1,
    ], axis=-1)
    rects[near] = (0, h, 0, w)
    return np.clip(rects, 0, [h, h, w, w])


_EDGE_ENDS = np.array([[JOINT_NAMES.index(a), JOINT_NAMES.index(b)] for a, b in SKELETON_EDGES])


def _rect_pixels(rects: np.ndarray, w: int) -> tuple:
    """Flat pixel indices of half-open rectangles (K, 4) = (row0, row1,
    col0, col1) in a w-wide image: each rectangle's pixels in row-major
    order, concatenated in rectangle order, and the (K + 1,) bounds of
    each rectangle's slice."""
    n_rows = rects[:, 1] - rects[:, 0]
    n_cols = rects[:, 3] - rects[:, 2]
    bounds = np.concatenate([[0], np.cumsum(n_rows * n_cols)])
    # one run of consecutive indices per rectangle row: the output position
    # plus the run's offset gives the flat index
    seg = np.repeat(np.arange(len(rects)), n_rows)
    row = rects[seg, 0] + np.arange(seg.size) - (np.cumsum(n_rows) - n_rows)[seg]
    seg_len = n_cols[seg]
    offset = row * w + rects[seg, 2] - (np.cumsum(seg_len) - seg_len)
    return np.arange(bounds[-1]) + np.repeat(offset, seg_len), bounds


def _slice_products(rays: np.ndarray, bounds: np.ndarray, vectors: list) -> np.ndarray:
    """rays[lo:hi] @ vectors[k] for each primitive k's slice lo:hi. Each
    product stays on its own slice: one product over every slice may take
    another BLAS path, with other bits. ``np.dot`` makes the same gemv call
    as ``@`` and writes straight into the slice of the output."""
    out = np.empty(len(rays))
    for lo, hi, v in zip(bounds[:-1].tolist(), bounds[1:].tolist(), vectors):
        np.dot(rays[lo:hi], v, out=out[lo:hi])
    return out


def _render_depth(col_dirs: np.ndarray, row_dirs: np.ndarray, eye: np.ndarray,
                  rot: np.ndarray, persons_world: list, cfg: SynthConfig) -> np.ndarray:
    """Nearest-intersection z-depth (H, W) of every pixel ray; 0.0 where
    no geometry is hit. Pixel (y, x) looks along the camera-frame
    direction (col_dirs[x], row_dirs[y], 1), so the ray parameter equals
    the camera z-depth. Each joint sphere and bone capsule is intersected
    only with the rays of its screen-space rectangle; the floor and the
    walls with every ray.

    ``eye`` must lie strictly inside the room, as ``SynthConfig`` keeps
    every camera. On each horizontal axis a ray then meets only the wall
    its direction points to: for the other one, ``(value - o) / d`` is
    negative and never passes ``s > _S_MIN``. So each axis takes one wall
    pass, with ``value = +-half`` by the sign of the direction, and the
    depth equals that of casting all four walls bit for bit.

    The rectangles of every person's spheres are cast as one batch, and
    those of the capsules as another: the elementwise arithmetic runs
    once over each batch, and only the (n, 3) @ (3,) products run per
    primitive, on its slice. The hits fold into the depth buffer with
    ``np.minimum.at``; a minimum is exact, so the order of the folds does
    not matter."""
    h, w = row_dirs.size, col_dirs.size
    pixel_dirs = np.empty((h, w, 3))
    pixel_dirs[..., 0] = col_dirs
    pixel_dirs[..., 1] = row_dirs[:, None]
    pixel_dirs[..., 2] = 1.0
    d = pixel_dirs.reshape(-1, 3) @ rot.T        # world-frame directions, (HW, 3)
    o = eye
    best = np.full(h * w, np.inf)

    def consider(s, mask):
        np.minimum(best, np.where(mask & (s > _S_MIN), s, np.inf), out=best)

    centers = [np.array([joints[name] for name in JOINT_NAMES]) for joints in persons_world]
    # the camera-frame product stays per person: a batch may take another BLAS path
    rects = _ball_rects(np.concatenate([(c - o) @ rot for c in centers]),
                        np.array([cfg.joint_radius, cfg.capsule_radius]), col_dirs, row_dirs)
    centers = np.concatenate(centers)
    edges = (_EDGE_ENDS + len(JOINT_NAMES) * np.arange(len(persons_world))[:, None, None]
             ).reshape(-1, 2)

    idx, bounds = _rect_pixels(rects[0], w)
    dr = d.take(idx, axis=0)
    oc = o - centers
    a = np.einsum("ij,ij->i", dr, dr)
    # 2 (r . v) as r . (2 v): doubling is exact, so the bits are those of (2 r) . v
    b = _slice_products(dr, bounds, 2.0 * oc)
    cc = np.repeat([float(v @ v) - cfg.joint_radius ** 2 for v in oc], np.diff(bounds))
    disc = b * b - 4.0 * a * cc
    hit = disc >= 0.0
    sq = np.sqrt(np.where(hit, disc, 0.0))
    s = (-b - sq) / (2.0 * a)
    keep = hit & (s > _S_MIN)
    np.minimum.at(best, idx[keep], s[keep])

    # a capsule is the convex hull of its end balls: the union of their rectangles
    ends = rects[1][edges]                                               # (E, 2, 4)
    capsule_rects = np.where([True, False, True, False], ends.min(axis=1), ends.max(axis=1))
    starts = centers[edges[:, 0]]
    axes = centers[edges[:, 1]] - starts
    lengths = np.array([math.sqrt(v @ v) for v in axes])   # np.linalg.norm's bits
    bone = lengths >= 1e-9
    if bone.any():
        idx, bounds = _rect_pixels(capsule_rects[bone], w)
        counts = np.diff(bounds)
        dr = d.take(idx, axis=0)
        lengths = lengths[bone]
        u = axes[bone] / lengths[:, None]
        m = o - starts[bone]
        m_par = [float(mv @ uv) for mv, uv in zip(m, u)]
        mm = m - np.array(m_par)[:, None] * u
        d_par = _slice_products(dr, bounds, u)
        dd = dr - d_par[:, None] * np.repeat(u, counts, axis=0)
        a2 = np.einsum("ij,ij->i", dd, dd)
        b2 = _slice_products(dd, bounds, 2.0 * mm)
        c2 = np.repeat([float(v @ v) - cfg.capsule_radius ** 2 for v in mm], counts)
        ok = a2 > 1e-14
        disc = b2 * b2 - 4.0 * a2 * c2
        hit = ok & (disc >= 0.0)
        sq = np.sqrt(np.where(hit, disc, 0.0))
        s = np.where(ok, (-b2 - sq) / np.where(ok, 2.0 * a2, 1.0), np.inf)
        axial = np.repeat(m_par, counts) + s * d_par
        keep = hit & (axial >= 0.0) & (axial <= np.repeat(lengths, counts)) & (s > _S_MIN)
        np.minimum.at(best, idx[keep], s[keep])

    # floor plane y = 0
    going_down = d[:, 1] < -1e-12
    s_floor = np.where(going_down, -o[1] / np.where(going_down, d[:, 1], 1.0), np.inf)
    consider(s_floor, going_down)
    # walls of finite height, one pass per horizontal axis (see above)
    half = cfg.room_size / 2.0
    for axis_i in (0, 2):
        moving = np.abs(d[:, axis_i]) > 1e-12
        value = np.where(d[:, axis_i] > 0.0, half, -half)
        s_wall = (value - o[axis_i]) / np.where(moving, d[:, axis_i], 1.0)   # used where moving
        y_hit = o[1] + s_wall * d[:, 1]
        other = 2 - axis_i
        o_hit = o[other] + s_wall * d[:, other]
        consider(s_wall, moving & (y_hit >= 0.0) & (y_hit <= cfg.wall_height)
                 & (np.abs(o_hit) <= half + 1e-9))

    best = best.reshape(h, w)
    return np.where(np.isfinite(best), best, 0.0)


def _depth_to_colour(depth: np.ndarray) -> np.ndarray:
    """Flat depth-derived shading: nearer surfaces brighter, sky black."""
    shade = np.where(depth > 0.0, np.clip(1.0 - depth / 6.0, 0.05, 1.0), 0.0)
    return np.repeat(shade[None, :, :], 3, axis=0)


def _generate_scene(scene_id: str, cfg: SynthConfig, rng, rig: tuple) -> Scene:
    """Draw scenes until every person is visible somewhere; the rng stream
    keeps advancing, so the outcome stays deterministic per seed. ``rig``
    is ``_camera_rig(cfg)``."""
    last = None
    for _attempt in range(20):
        try:
            return _build_scene(scene_id, cfg, rng, rig)
        except GenerationError as e:
            last = e
    raise GenerationError(f"{scene_id}: no valid draw in 20 attempts; "
                          f"the configuration is too tight ({last})")


def _build_scene(scene_id: str, cfg: SynthConfig, rng, rig: tuple) -> Scene:
    world_poses, cameras = rig
    n_persons = int(rng.integers(cfg.min_persons, cfg.max_persons + 1))
    placed = []
    persons_world = [_sample_person(rng, cfg, placed) for _ in range(n_persons)]

    h, w = cfg.image_h, cfg.image_w
    views = []
    depth_rasters = []
    for v, (pose, cam) in enumerate(zip(world_poses, cameras)):
        depth = _render_depth((np.arange(w) - cam.cx) / cam.fx, (np.arange(h) - cam.cy) / cam.fy,
                              pose.translation, pose.rotation, persons_world, cfg)
        depth = depth.astype(np.float32).astype(np.float64)
        depth_rasters.append(depth)
        views.append(SceneView(
            view=v, camera=cam, colour=_depth_to_colour(depth),
            depth=DepthImage(view=v, raster=depth), boxes={},
        ))

    world_to_ref = invert_transform(world_poses[0])
    cams_from_world = [invert_transform(pose) for pose in world_poses]
    joints3d, joints2d, visibility = {}, {}, {}
    for p, joints in enumerate(persons_world):
        joints3d[p] = {
            name: transform_point(joints[name], world_to_ref)
            for name in JOINT_NAMES
        }
        any_visible = False
        for v, (cam_from_world, cam) in enumerate(zip(cams_from_world, cameras)):
            j2, vis = {}, {}
            for name in JOINT_NAMES:
                pc = transform_point(joints[name], cam_from_world).tolist()
                if pc[2] <= 0.05:
                    j2[name], vis[name] = None, False
                    continue
                px, py = project_point(pc, cam)
                xi, yi = round_half_up(px), round_half_up(py)
                if not (0 <= xi < w and 0 <= yi < h):
                    j2[name], vis[name] = None, False
                    continue
                j2[name] = (px, py)
                surface = float(depth_rasters[v][yi, xi])
                vis[name] = surface > 0.0 and abs(surface - pc[2]) <= cfg.joint_radius + 1e-3
            joints2d[(p, v)] = j2
            visibility[(p, v)] = vis
            pts = [j2[name] for name in JOINT_NAMES if vis[name]]
            if pts:
                any_visible = True
                xs_v = [q[0] for q in pts]
                ys_v = [q[1] for q in pts]
                box = BoundingBox(
                    view=v, person=p,
                    x_min=max(0, int(math.floor(min(xs_v))) - cfg.box_pad),
                    y_min=max(0, int(math.floor(min(ys_v))) - cfg.box_pad),
                    x_max=min(w, int(math.floor(max(xs_v))) + cfg.box_pad + 1),
                    y_max=min(h, int(math.floor(max(ys_v))) + cfg.box_pad + 1),
                )
                views[v].boxes[p] = box
        if not any_visible:
            raise GenerationError(
                f"{scene_id}: person {p} is not visible in any view; "
                "widen the cameras or shrink the spawn radius"
            )

    if cfg.occlusion_drop > 0.0:
        for p in range(n_persons):
            have = [sv.view for sv in views if p in sv.boxes]
            keep = [v for v in have if rng.random() >= cfg.occlusion_drop]
            if not keep and have:
                keep = [have[int(rng.integers(len(have)))]]
            for v in have:
                if v not in keep:
                    del views[v].boxes[p]

    return Scene(id=scene_id, views=views, n_persons=n_persons,
                 joints3d=joints3d, joints2d=joints2d, visibility=visibility)


def generate_synthetic(cfg: SynthConfig) -> tuple[list, list]:
    """Deterministic train/test scene sets for the configured seed."""
    rng = np.random.default_rng(cfg.seed)
    rig = _camera_rig(cfg)
    train = [_generate_scene(f"scene_{i:04d}", cfg, rng, rig) for i in range(cfg.train_scenes)]
    test = [_generate_scene(f"scene_{i:04d}", cfg, rng, rig)
            for i in range(cfg.train_scenes, cfg.train_scenes + cfg.test_scenes)]
    return train, test


def generate_dataset(cfg: SynthConfig, root) -> None:
    """Generate and write a dataset directory with a train/test split."""
    train, test = generate_synthetic(cfg)
    scene_root = os.path.join(root, "scenes")
    os.makedirs(scene_root, exist_ok=True)
    for scene in train + test:
        save_scene(scene, os.path.join(scene_root, scene.id))
    write_split(os.path.join(root, "split.json"),
                {"train": [s.id for s in train], "test": [s.id for s in test]})


# ---------------------------------------------------------------------------
# oracle heatmaps and the per-scene lifting bound


def make_target_heatmaps(scene: Scene, view: int, person: int,
                         sigma: float = 1.0, amplitude: float = 80.0,
                         mask: np.ndarray | None = None) -> np.ndarray:
    """Ideal heatmaps: a Gaussian of the given sigma centred on each
    visible joint's exact projection; all-zero channels for joints not
    visible in this view.

    Without ``mask`` this is the whole grid, a C-contiguous (J, H, W)
    raster. With an (H, W) bool ``mask`` it is the (J, n) heatmaps at
    the mask's n pixels in row-major order, and only those are
    evaluated. The values equal ``raster[:, mask]`` bit for bit, and so
    does the layout: an F-contiguous array with strides (8, 8 J), the
    transpose of an (n, J) array. Fusion's products take their BLAS path
    from that layout, and a C-contiguous (J, n) copy can differ from
    them in the last bit."""
    sv = scene.views[view]
    h, w = sv.height, sv.width
    ys, xs = np.divmod(np.flatnonzero(np.ones((h, w), dtype=bool) if mask is None else mask), w)
    vis = scene.visibility[(person, view)]
    pts = scene.joints2d[(person, view)]
    cols = [j for j, name in enumerate(JOINT_NAMES) if vis[name]]
    px, py = np.array([pts[JOINT_NAMES[j]] for j in cols]).reshape(-1, 2).T
    out = np.zeros((xs.size, len(JOINT_NAMES)))
    out[:, cols] = amplitude * np.exp(-((xs[:, None] - px) ** 2 + (ys[:, None] - py) ** 2)
                                      / (2.0 * sigma ** 2))
    if mask is None:
        return np.ascontiguousarray(out.T).reshape(-1, h, w)
    return out.T


def lift_errors(scene: Scene) -> dict:
    """Error of lifting each visible ground-truth projection through the
    rendered depth, per (person, joint, view), in meters.

    This is the pixel/depth quantization floor: the prediction error a
    method would make if it placed all its belief exactly at the true
    projection pixel.
    """
    errors = {}
    for p in scene.persons():
        gt = scene.joints3d[p]
        for sv in scene.views:
            if p not in sv.boxes:
                continue
            vis = scene.visibility[(p, sv.view)]
            pts = scene.joints2d[(p, sv.view)]
            for name in JOINT_NAMES:
                if not vis[name]:
                    continue
                px, py = pts[name]
                xi, yi = round_half_up(px), round_half_up(py)
                z = float(sv.depth.raster[yi, xi])
                if z <= 0.0:
                    continue
                lifted = transform_point(
                    backproject_pixel((xi, yi), z, sv.camera), sv.camera.to_reference
                )
                diff = lifted - gt[name]
                errors[(p, name, sv.view)] = math.sqrt(diff @ diff)   # np.linalg.norm's bits
    return errors


def quantization_bound_cm(scene: Scene) -> float:
    """Per-scene quantization bound in cm: the MPJPE of lifting exact
    ground-truth projections, averaged per joint over its visible
    supporting views and then over joints."""
    errors = lift_errors(scene)
    per_joint = {}
    for (p, name, _v), err in errors.items():
        per_joint.setdefault((p, name), []).append(err)
    if not per_joint:
        raise GenerationError(f"{scene.id}: no visible joints to bound")
    return float(np.mean([np.mean(v) for v in per_joint.values()])) * 100.0
