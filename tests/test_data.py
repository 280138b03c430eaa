"""Scene file formats, loader validation, and the synthetic generator's
self-consistency guarantees."""

import json
import os

import numpy as np
import pytest

from posefusion.data import (
    SKELETON_EDGES,
    GenerationError,
    SceneFormatError,
    SynthConfig,
    _ball_rects,
    _camera_rig,
    _rect_pixels,
    _render_depth,
    _sample_person,
    _scene_json,
    generate_dataset,
    generate_synthetic,
    lift_errors,
    load_dataset,
    load_scene,
    load_split,
    make_target_heatmaps,
    quantization_bound_cm,
    save_scene,
    write_split,
)
from posefusion.fusion import JOINT_NAMES, round_half_up
from posefusion.geometry import invert_transform, project_point, transform_point
from posefusion.heatmap import valid_pixel_mask


@pytest.fixture(scope="module")
def small_scenes():
    cfg = SynthConfig(train_scenes=3, test_scenes=2, seed=7)
    train, test = generate_synthetic(cfg)
    return cfg, train, test


def _tree_bytes(root):
    out = {}
    for dirpath, _dirnames, filenames in os.walk(root):
        for fn in filenames:
            p = os.path.join(dirpath, fn)
            out[os.path.relpath(p, root)] = open(p, "rb").read()
    return out


class TestSceneIO:
    def test_round_trip_is_byte_identical(self, small_scenes, tmp_path):
        _, train, _ = small_scenes
        first = tmp_path / "a"
        second = tmp_path / "b"
        save_scene(train[0], first)
        save_scene(load_scene(first), second)
        assert _tree_bytes(first) == _tree_bytes(second)

    def test_single_view_scene_loads_and_works(self, tmp_path):
        cfg = SynthConfig(views=1, camera_heights=(1.6,), train_scenes=1,
                          test_scenes=0, seed=3, min_persons=1, max_persons=1)
        scene = generate_synthetic(cfg)[0][0]
        save_scene(scene, tmp_path / "s")
        loaded = load_scene(tmp_path / "s")
        assert len(loaded.views) == 1
        assert loaded.supporting_views(0) == [0]

    def test_non_rigid_camera_rejected_with_invariant_name(self, small_scenes, tmp_path):
        _, train, _ = small_scenes
        save_scene(train[0], tmp_path / "s")
        doc = json.loads((tmp_path / "s" / "scene.json").read_text())
        doc["views"][1]["camera"]["to_reference"][0] = 1.5  # break orthonormality
        (tmp_path / "s" / "scene.json").write_text(json.dumps(doc))
        with pytest.raises(SceneFormatError, match="orthonormal"):
            load_scene(tmp_path / "s")

    def test_missing_field_names_file_and_field(self, small_scenes, tmp_path):
        _, train, _ = small_scenes
        save_scene(train[0], tmp_path / "s")
        doc = json.loads((tmp_path / "s" / "scene.json").read_text())
        del doc["views"][0]["camera"]["fx"]
        (tmp_path / "s" / "scene.json").write_text(json.dumps(doc))
        with pytest.raises(SceneFormatError, match="fx"):
            load_scene(tmp_path / "s")

    def test_millimeter_units_normalise_to_meters(self, small_scenes, tmp_path):
        _, train, _ = small_scenes
        save_scene(train[0], tmp_path / "s")
        doc = json.loads((tmp_path / "s" / "scene.json").read_text())
        doc["units"] = "millimeters"
        for p in doc["persons"]:
            p["joints3d"] = {k: [c * 1000.0 for c in v] for k, v in p["joints3d"].items()}
        for v in doc["views"]:
            t = v["camera"]["to_reference"]
            for i in (3, 7, 11):
                t[i] *= 1000.0
        (tmp_path / "s" / "scene.json").write_text(json.dumps(doc))
        # depth payload stays in its own unit file; scale it too
        import struct
        for v in range(3):
            p = tmp_path / "s" / f"view{v}_depth.f32"
            raw = p.read_bytes()
            h, w = struct.unpack("<II", raw[:8])
            vals = np.frombuffer(raw[8:], dtype="<f4") * 1000.0
            p.write_bytes(raw[:8] + vals.astype("<f4").tobytes())
        loaded = load_scene(tmp_path / "s")
        orig = train[0]
        got = loaded.joints3d[0]["head"]
        want = orig.joints3d[0]["head"]
        np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-6)

    def test_unknown_units_rejected(self, small_scenes, tmp_path):
        _, train, _ = small_scenes
        save_scene(train[0], tmp_path / "s")
        doc = json.loads((tmp_path / "s" / "scene.json").read_text())
        doc["units"] = "furlongs"
        (tmp_path / "s" / "scene.json").write_text(json.dumps(doc))
        with pytest.raises(SceneFormatError, match="unit"):
            load_scene(tmp_path / "s")

    def test_split_round_trip_and_dataset_folds(self, tmp_path):
        cfg = SynthConfig(train_scenes=2, test_scenes=1, seed=9)
        generate_dataset(cfg, tmp_path)
        split = load_split(tmp_path / "split.json")
        assert split["train"] == ["scene_0000", "scene_0001"]
        assert split["test"] == ["scene_0002"]
        assert [s.id for s in load_dataset(tmp_path, "train")] == split["train"]
        assert len(load_dataset(tmp_path)) == 3
        with pytest.raises(SceneFormatError, match="fold"):
            load_dataset(tmp_path, "day4")


def _reference_scene_json(scene) -> str:
    """scene.json as the json module writes it: the document dict that
    save_scene once built, through json.dumps(indent=2, sort_keys=True)."""
    doc = {
        "id": scene.id,
        "units": "meters",
        "views": [
            {
                "view": sv.view,
                "height": sv.height,
                "width": sv.width,
                "camera": {
                    "fx": sv.camera.fx, "fy": sv.camera.fy,
                    "cx": sv.camera.cx, "cy": sv.camera.cy,
                    "to_reference": [float(x) for x in sv.camera.to_reference.matrix.ravel()],
                },
                "boxes": [
                    {"person": p, "x_min": b.x_min, "y_min": b.y_min,
                     "x_max": b.x_max, "y_max": b.y_max}
                    for p, b in sorted(sv.boxes.items())
                ],
            }
            for sv in scene.views
        ],
        "persons": [
            {
                "person": p,
                "joints3d": {
                    name: scene.joints3d[p][name].tolist() for name in JOINT_NAMES
                },
                "views": [
                    {
                        "view": sv.view,
                        "joints2d": {
                            name: (list(scene.joints2d[(p, sv.view)][name])
                                   if scene.joints2d[(p, sv.view)][name] is not None else None)
                            for name in JOINT_NAMES
                        },
                        "visible": {name: bool(scene.visibility[(p, sv.view)][name])
                                    for name in JOINT_NAMES},
                    }
                    for sv in scene.views
                ],
            }
            for p in scene.persons()
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


class TestSceneWriter:
    """save_scene's writer for the scene.json schema must write the bytes
    of json.dumps(indent=2, sort_keys=True) on the document dict."""

    @staticmethod
    def _check(scene, tmp_path):
        want = _reference_scene_json(scene)
        assert _scene_json(scene) == want
        save_scene(scene, tmp_path / scene.id)
        assert (tmp_path / scene.id / "scene.json").read_bytes() == want.encode("ascii")

    @pytest.mark.parametrize("fields", [
        {},
        {"occlusion_drop": 0.35},
        {"views": 1, "camera_heights": (1.6,)},
        {"image_h": 31, "image_w": 47, "views": 4},
        {"focal": 70},
    ], ids=["default", "occlusion_drop", "1view", "31x47_4views", "int_focal"])
    def test_equals_json_dumps_on_generated_and_reloaded_scenes(self, fields, tmp_path):
        cfg = SynthConfig(train_scenes=6, test_scenes=2, seed=6, **fields)
        train, test = generate_synthetic(cfg)
        for scene in train + test:
            self._check(scene, tmp_path / "generated")
            save_scene(scene, tmp_path / "first" / scene.id)
            self._check(load_scene(tmp_path / "first" / scene.id), tmp_path / "reloaded")
        if fields.get("occlusion_drop"):
            # views without boxes write [], joints outside a view write null
            assert any(not sv.boxes for s in train + test for sv in s.views)
            assert any(pt is None for s in train + test for pts in s.joints2d.values()
                       for pt in pts.values())
        if "focal" in fields:
            assert '"fx": 70,' in _scene_json(train[0])

    def test_equals_json_dumps_on_scenes_resaved_from_millimetres(self, small_scenes, tmp_path):
        _, train, _ = small_scenes
        for scene in train:
            save_scene(scene, tmp_path / "m" / scene.id)
            path = tmp_path / "m" / scene.id / "scene.json"
            doc = json.loads(path.read_text())
            doc["units"] = "millimeters"
            for p in doc["persons"]:
                p["joints3d"] = {k: [c * 1000.0 for c in v] for k, v in p["joints3d"].items()}
            for v in doc["views"]:
                for i in (3, 7, 11):
                    v["camera"]["to_reference"][i] *= 1000.0
            path.write_text(json.dumps(doc))
            self._check(load_scene(tmp_path / "m" / scene.id), tmp_path / "resaved")

    def test_equals_json_dumps_on_escaped_ids_and_non_finite_numbers(self, tmp_path):
        scene = generate_synthetic(SynthConfig(train_scenes=1, test_scenes=0, seed=7))[0][0]
        for scene_id in ['quote"d', "back\\slash", "café ☃", "tab\tnew\nline"]:
            scene.id = scene_id
            assert _scene_json(scene) == _reference_scene_json(scene)
        scene.id = "non_finite"
        scene.joints3d[0]["head"] = np.array([float("nan"), float("inf"), -float("inf")])
        v = scene.supporting_views(0)[0]
        scene.joints2d[(0, v)]["neck"] = (float("-inf"), float("nan"))
        self._check(scene, tmp_path)


class TestGenerator:
    def test_determinism_byte_identical_datasets(self, tmp_path):
        cfg = SynthConfig(train_scenes=2, test_scenes=1, seed=11)
        generate_dataset(cfg, tmp_path / "a")
        generate_dataset(cfg, tmp_path / "b")
        assert _tree_bytes(tmp_path / "a") == _tree_bytes(tmp_path / "b")

    def test_visible_joints_project_inside_their_box(self, small_scenes):
        _, train, test = small_scenes
        for scene in train + test:
            for person in scene.persons():
                for sv in scene.views:
                    if person not in sv.boxes:
                        continue
                    b = sv.boxes[person]
                    for name in JOINT_NAMES:
                        if not scene.visibility[(person, sv.view)][name]:
                            continue
                        x, y = scene.joints2d[(person, sv.view)][name]
                        assert b.x_min <= x < b.x_max
                        assert b.y_min <= y < b.y_max

    def test_stored_2d_equals_exact_projection_of_3d(self, small_scenes):
        _, train, _ = small_scenes
        for scene in train:
            for person in scene.persons():
                for sv in scene.views:
                    cam_from_ref = invert_transform(sv.camera.to_reference)
                    for name in JOINT_NAMES:
                        stored = scene.joints2d[(person, sv.view)][name]
                        if stored is None:
                            continue
                        pc = transform_point(scene.joints3d[person][name], cam_from_ref)
                        x, y = project_point(pc, sv.camera)
                        assert abs(x - stored[0]) < 1e-9
                        assert abs(y - stored[1]) < 1e-9

    def test_depth_zero_exactly_where_nothing_hit(self, small_scenes):
        # the sky above the walls must be 0; every floor/wall/person hit > 0
        _, train, _ = small_scenes
        some_unknown = False
        for scene in train:
            for sv in scene.views:
                r = sv.depth.raster
                assert np.all(r >= 0)
                some_unknown |= bool((r == 0).any())
        assert some_unknown

    def test_anatomical_ordering(self, small_scenes):
        # y is down in the reference camera frame, so up in world means a
        # smaller y; check ordering in world coordinates via camera 0 pose
        cfg, train, _ = small_scenes
        for scene in train:
            for person in scene.persons():
                j = scene.joints3d[person]
                # reference frame y points roughly downwards: head above neck
                assert j["head"][1] < j["neck"][1]
                assert j["neck"][1] < (j["hip_l"][1] + j["hip_r"][1]) / 2.0

    def test_lift_error_within_radius_plus_pixel_footprint(self, small_scenes):
        cfg, train, test = small_scenes
        for scene in train + test:
            errors = lift_errors(scene)
            assert errors
            for (p, name, v), err in errors.items():
                sv = scene.views[v]
                px, py = scene.joints2d[(p, v)][name]
                z = sv.depth.raster[round_half_up(py), round_half_up(px)]
                footprint = z * float(np.hypot(1 / sv.camera.fx, 1 / sv.camera.fy))
                assert err <= cfg.joint_radius + footprint

    def test_quantization_bound_scale(self, small_scenes):
        cfg, train, _ = small_scenes
        for scene in train:
            bound = quantization_bound_cm(scene)
            assert 0.0 < bound < 100.0 * (cfg.joint_radius + 0.06)

    def test_occlusion_drop_reduces_supporting_views(self):
        base = SynthConfig(train_scenes=6, test_scenes=0, seed=13)
        dropped = SynthConfig(train_scenes=6, test_scenes=0, seed=13, occlusion_drop=0.45)
        full, _ = generate_synthetic(base)
        occ, _ = generate_synthetic(dropped)
        def support_counts(scenes):
            return [len(s.supporting_views(p)) for s in scenes for p in s.persons()]
        assert min(support_counts(occ)) >= 1
        assert sum(support_counts(occ)) < sum(support_counts(full))

    def test_invalid_configs_rejected(self):
        with pytest.raises(GenerationError):
            SynthConfig(max_persons=0)
        with pytest.raises(GenerationError):
            SynthConfig(capsule_radius=0.2, joint_radius=0.1)
        with pytest.raises(GenerationError):
            SynthConfig(camera_radius=5.0, room_size=5.0)


def _full_grid_render_depth(pixel_dirs, eye, rot, persons_world, cfg):
    """Reference renderer: every joint sphere and bone capsule against
    every pixel ray, with the arithmetic of ``data._render_depth``."""
    d = pixel_dirs @ rot.T
    o = eye
    n = d.shape[0]
    s_min = 0.05
    best = np.full(n, np.inf)

    def consider(s, mask):
        np.minimum(best, np.where(mask & (s > s_min), s, np.inf), out=best)

    for joints in persons_world:
        for c in [joints[name] for name in JOINT_NAMES]:
            oc = o - c
            a = np.einsum("ij,ij->i", d, d)
            b = 2.0 * d @ oc
            cc = float(oc @ oc) - cfg.joint_radius ** 2
            disc = b * b - 4.0 * a * cc
            hit = disc >= 0.0
            sq = np.sqrt(np.where(hit, disc, 0.0))
            s = (-b - sq) / (2.0 * a)
            consider(s, hit)
        for (na, nb) in SKELETON_EDGES:
            a_pt, b_pt = joints[na], joints[nb]
            axis = b_pt - a_pt
            length = float(np.linalg.norm(axis))
            if length < 1e-9:
                continue
            u = axis / length
            m = o - a_pt
            d_par = d @ u
            dd = d - d_par[:, None] * u
            m_par = float(m @ u)
            mm = m - m_par * u
            a2 = np.einsum("ij,ij->i", dd, dd)
            b2 = 2.0 * dd @ mm
            c2 = float(mm @ mm) - cfg.capsule_radius ** 2
            ok = a2 > 1e-14
            disc = b2 * b2 - 4.0 * a2 * c2
            hit = ok & (disc >= 0.0)
            sq = np.sqrt(np.where(hit, disc, 0.0))
            s = np.where(ok, (-b2 - sq) / np.where(ok, 2.0 * a2, 1.0), np.inf)
            axial = m_par + s * d_par
            consider(s, hit & (axial >= 0.0) & (axial <= length))

    going_down = d[:, 1] < -1e-12
    s_floor = np.where(going_down, -o[1] / np.where(going_down, d[:, 1], 1.0), np.inf)
    consider(s_floor, going_down)
    half = cfg.room_size / 2.0
    for axis_i, value in ((0, half), (0, -half), (2, half), (2, -half)):
        moving = np.abs(d[:, axis_i]) > 1e-12
        s_wall = np.where(moving, (value - o[axis_i]) / np.where(moving, d[:, axis_i], 1.0), np.inf)
        y_hit = o[1] + s_wall * d[:, 1]
        other = 2 - axis_i
        o_hit = o[other] + s_wall * d[:, other]
        consider(s_wall, moving & (y_hit >= 0.0) & (y_hit <= cfg.wall_height)
                 & (np.abs(o_hit) <= half + 1e-9))

    return np.where(np.isfinite(best), best, 0.0)


class TestRenderer:
    """The renderer intersects each sphere and capsule only with the rays
    of its screen-space rectangle; its float64 depth rasters must equal
    the full-grid reference's bit for bit."""

    @staticmethod
    def _compare(cfg, persons_world):
        """Both renderers on every view; returns how many views hold a
        joint sphere that reaches the near plane."""
        world_poses, cameras = _camera_rig(cfg)
        h, w = cfg.image_h, cfg.image_w
        ys, xs = np.mgrid[0:h, 0:w]
        near_views = 0
        for pose, cam in zip(world_poses, cameras):
            dirs = np.stack([(xs.ravel() - cam.cx) / cam.fx, (ys.ravel() - cam.cy) / cam.fy,
                             np.ones(h * w)], axis=1)
            want = _full_grid_render_depth(dirs, pose.translation, pose.rotation,
                                           persons_world, cfg).reshape(h, w)
            got = _render_depth((np.arange(w) - cam.cx) / cam.fx,
                                (np.arange(h) - cam.cy) / cam.fy,
                                pose.translation, pose.rotation, persons_world, cfg)
            assert got.dtype == np.float64 and np.array_equal(got, want)
            z = np.array([(j[name] - pose.translation) @ pose.rotation[:, 2]
                          for j in persons_world for name in JOINT_NAMES])
            near_views += bool((z - cfg.joint_radius <= 0.05).any())
        return near_views

    @pytest.mark.parametrize("fields, draws", [
        ({}, 12),
        ({"image_h": 24, "image_w": 32}, 4),
        ({"image_h": 31, "image_w": 47, "views": 4}, 4),
        ({"views": 1, "camera_heights": (1.6,)}, 4),
        ({"image_h": 128, "image_w": 160}, 2),
        ({"joint_radius": 0.2, "capsule_radius": 0.15, "focal": 30.0}, 4),
    ], ids=["default", "24x32", "31x47_4views", "1view", "128x160", "large_radii"])
    def test_equals_full_grid_on_drawn_persons(self, fields, draws):
        cfg = SynthConfig(seed=21, **fields)
        rng = np.random.default_rng(cfg.seed)
        for _ in range(draws):
            placed = []
            n = int(rng.integers(cfg.min_persons, cfg.max_persons + 1))
            self._compare(cfg, [_sample_person(rng, cfg, placed) for _ in range(n)])

    def test_equals_full_grid_at_the_near_plane(self):
        # a tight room, where arms come within a joint radius of a camera,
        # and a figure shifted so that its wrist sits 12 cm in front of
        # camera 0: that sphere reaches the near plane, and the rays at the
        # border of the view meet it beyond the near plane
        cfg = SynthConfig(camera_radius=0.95, room_size=2.2, spawn_radius=0.7,
                          min_person_gap=0.4, seed=5)
        rng = np.random.default_rng(cfg.seed)
        near_views = 0
        for _ in range(12):
            placed = []
            persons = [_sample_person(rng, cfg, placed) for _ in range(3)]
            near_views += self._compare(cfg, persons)
        assert near_views > 0
        pose = _camera_rig(cfg)[0][0]
        joints = _sample_person(rng, cfg, [])
        shift = pose.translation + 0.12 * pose.rotation[:, 2] - joints["wrist_l"]
        assert self._compare(cfg, [{k: p + shift for k, p in joints.items()}]) == 1

    def test_equals_full_grid_with_a_zero_length_bone(self):
        # the forearm's two ends coincide: that capsule drops out of the
        # batch, and the slices of the capsules after it shift
        cfg = SynthConfig(seed=9)
        rng = np.random.default_rng(cfg.seed)
        for _ in range(4):
            placed = []
            persons = [_sample_person(rng, cfg, placed) for _ in range(2)]
            persons[0]["wrist_l"] = persons[0]["elbow_l"].copy()
            persons[1]["hip_r"] = persons[1]["hip_l"].copy()
            self._compare(cfg, persons)

    def test_equals_full_grid_with_a_person_outside_a_view(self):
        # a figure 2.5 m in front of camera 0 and 3 m to its right: no
        # pixel ray of view 0 can meet it, so every rectangle there is the
        # one-pixel strip at the right border that the widening leaves
        cfg = SynthConfig(seed=13)
        world_poses, cameras = _camera_rig(cfg)
        pose, cam = world_poses[0], cameras[0]
        joints = _sample_person(np.random.default_rng(cfg.seed), cfg, [])
        hip_mid = (joints["hip_l"] + joints["hip_r"]) / 2.0
        shift = (pose.translation + 2.5 * pose.rotation[:, 2] + 3.0 * pose.rotation[:, 0]
                 - hip_mid)
        person = {k: p + shift for k, p in joints.items()}
        col_dirs = (np.arange(cfg.image_w) - cam.cx) / cam.fx
        row_dirs = (np.arange(cfg.image_h) - cam.cy) / cam.fy
        centres = np.array([person[name] for name in JOINT_NAMES])
        rects = _ball_rects((centres - pose.translation) @ pose.rotation,
                            np.array([cfg.joint_radius, cfg.capsule_radius]), col_dirs, row_dirs)
        assert (rects[..., 2:] == (cfg.image_w - 1, cfg.image_w)).all()
        self._compare(cfg, [person])
        empty_room = _full_grid_render_depth(
            np.stack([np.tile(col_dirs, cfg.image_h), np.repeat(row_dirs, cfg.image_w),
                      np.ones(cfg.image_h * cfg.image_w)], axis=1),
            pose.translation, pose.rotation, [], cfg)
        got = _render_depth(col_dirs, row_dirs, pose.translation, pose.rotation, [person], cfg)
        assert np.array_equal(got.ravel(), empty_room)

    def test_equals_full_grid_with_cameras_a_millimetre_inside_a_wall(self):
        # four cameras on a ring 1 mm short of the room's half-width: each
        # sits 1 mm in front of a wall, and the renderer casts each ray only
        # against the wall its direction points to
        cfg = SynthConfig(camera_radius=2.499, room_size=5.0, views=4, seed=17)
        half = cfg.room_size / 2.0
        poses = _camera_rig(cfg)[0]
        gaps = [half - abs(p.translation[[0, 2]]).max() for p in poses]
        assert np.allclose(gaps, 0.001)
        rng = np.random.default_rng(cfg.seed)
        for _ in range(4):
            placed = []
            self._compare(cfg, [_sample_person(rng, cfg, placed) for _ in range(3)])

    def test_equals_full_grid_with_rays_parallel_to_walls(self):
        # axis-aligned cameras with an odd image: the middle column's rays
        # run parallel to two walls (zero direction on that axis), the
        # middle row's parallel to the floor; one eye 1 mm from a wall
        cfg = SynthConfig(image_h=31, image_w=47, seed=19)
        half = cfg.room_size / 2.0
        col_dirs = (np.arange(cfg.image_w) - 23.0) / 40.0
        row_dirs = (np.arange(cfg.image_h) - 15.0) / 40.0
        assert col_dirs[23] == 0.0 and row_dirs[15] == 0.0
        ys, xs = np.mgrid[0:cfg.image_h, 0:cfg.image_w]
        dirs = np.stack([col_dirs[xs.ravel()], row_dirs[ys.ravel()],
                         np.ones(xs.size)], axis=1)
        # camera-to-world rotations looking along -z, +x, +z and -x, y down
        looks = [np.array([[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, -1.0]]),
                 np.array([[0.0, 0.0, 1.0], [0.0, -1.0, 0.0], [1.0, 0.0, 0.0]])]
        looks += [np.diag([-1.0, 1.0, -1.0]) @ r for r in looks]
        eyes = [np.array([0.3, 1.2, -0.4]), np.array([0.0, 1.6, half - 0.001]),
                np.array([-(half - 0.001), 1.5, 0.2])]
        rng = np.random.default_rng(cfg.seed)
        placed = []
        persons = [_sample_person(rng, cfg, placed) for _ in range(2)]
        for rot in looks:
            assert np.isclose(np.linalg.det(rot), 1.0)
            for eye in eyes:
                with np.errstate(invalid="ignore"):   # the reference's inf * 0 off its walls
                    want = _full_grid_render_depth(dirs, eye, rot, persons, cfg)
                got = _render_depth(col_dirs, row_dirs, eye, rot, persons, cfg)
                assert np.array_equal(got.ravel(), want)

    def test_rect_pixels_concatenates_row_major_slices(self):
        # empty rectangles (no rows, no columns, both) take no slice
        h, w = 7, 9
        rects = np.array([[0, 7, 0, 9], [2, 2, 1, 5], [3, 5, 4, 4], [6, 7, 8, 9],
                          [1, 4, 2, 6], [7, 7, 9, 9], [0, 1, 0, 2]])
        idx, bounds = _rect_pixels(rects, w)
        grid = np.arange(h * w).reshape(h, w)
        want = [grid[r0:r1, c0:c1].ravel() for r0, r1, c0, c1 in rects]
        assert bounds.tolist() == np.cumsum([0] + [p.size for p in want]).tolist()
        assert idx.tolist() == np.concatenate(want).tolist()
        idx, bounds = _rect_pixels(rects[[1, 2, 5]], w)
        assert idx.size == 0 and bounds.tolist() == [0, 0, 0, 0]


class TestTargetHeatmaps:
    def test_peak_at_rounded_projection(self, small_scenes):
        _, train, _ = small_scenes
        scene = train[0]
        person = 0
        view = scene.supporting_views(person)[0]
        hm = make_target_heatmaps(scene, view, person, sigma=1.0, amplitude=80.0)
        for j, name in enumerate(JOINT_NAMES):
            if not scene.visibility[(person, view)][name]:
                continue
            px, py = scene.joints2d[(person, view)][name]
            peak = np.unravel_index(np.argmax(hm[j]), hm[j].shape)
            assert peak == (round_half_up(py), round_half_up(px))
            assert hm[j].max() <= 80.0 + 1e-12

    def test_invisible_joint_channel_is_zero(self, small_scenes):
        _, train, _ = small_scenes
        found = False
        for scene in train:
            for person in scene.persons():
                for view in scene.supporting_views(person):
                    hm = make_target_heatmaps(scene, view, person)
                    for j, name in enumerate(JOINT_NAMES):
                        if not scene.visibility[(person, view)][name]:
                            assert np.all(hm[j] == 0.0)
                            found = True
        assert found

    @pytest.fixture(scope="class")
    def oracle_scenes(self):
        return generate_synthetic(SynthConfig(seed=303, train_scenes=30, test_scenes=0))[0]

    def test_fused_pixel_gaussians_equal_the_raster_at_the_valid_pixels(self, oracle_scenes):
        # values and layout: fusion's products take their BLAS path from
        # the strides, so a C-contiguous copy could differ in the last bit
        pairs = 0
        for scene in oracle_scenes:
            for person in scene.persons():
                for view in scene.supporting_views(person):
                    sv = scene.views[view]
                    valid = valid_pixel_mask(sv.boxes[person], sv.depth)
                    full = make_target_heatmaps(scene, view, person)
                    assert full.flags.c_contiguous
                    want = full[:, valid]
                    got = make_target_heatmaps(scene, view, person, mask=valid)
                    assert np.array_equal(got, want)
                    assert got.strides == want.strides and got.flags == want.flags
                    pairs += 1
        assert pairs > 150

    def test_oracle_fusion_equals_the_full_grid_path(self, oracle_scenes):
        from posefusion.pipeline import forward_scene, fused_centers, oracle_fusion_mpjpe

        for scene in oracle_scenes:
            dists = []
            for person in scene.persons():
                support = scene.supporting_views(person)
                rasters = {v: make_target_heatmaps(scene, v, person) for v in support}
                forwards = forward_scene(None, scene, person, None, None,
                                         oracle_heatmaps=rasters)
                centers = fused_centers(None, forwards).values
                for j, name in enumerate(JOINT_NAMES):
                    if any(scene.visibility[(person, v)][name] for v in support):
                        dists.append(float(np.linalg.norm(
                            centers[j] - scene.joints3d[person][name])))
            assert oracle_fusion_mpjpe(scene)[0] == float(np.mean(dists)) * 100.0

    def test_oracle_fusion_stays_under_quantization_bound(self, small_scenes):
        from posefusion.pipeline import oracle_fusion_mpjpe
        cfg, train, test = small_scenes
        for scene in train + test:
            mpjpe, bound = oracle_fusion_mpjpe(scene, cfg.heatmap_sigma,
                                               cfg.heatmap_amplitude)
            assert mpjpe <= bound + 1e-4
