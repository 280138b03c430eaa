"""Cross-view box matching: centre lifting, greedy selection against a
from-scratch brute-force oracle, and the IoU evaluation protocol."""

import itertools
import math

import numpy as np
import pytest

from posefusion.geometry import Camera, RigidTransform
from posefusion.heatmap import BoundingBox, DepthImage
from posefusion.matching import (
    BoxCombination,
    MatchConfig,
    MatchingError,
    UnliftableBoxError,
    box_iou,
    evaluate_matching,
    lift_box_center,
    match_boxes,
    match_centers,
)


def _box(view, person, x0, y0, x1, y1):
    return BoundingBox(view=view, person=person, x_min=x0, y_min=y0, x_max=x1, y_max=y1)


def brute_force_match(centers, t):
    """Independent reference: enumerate every pair/triple, filter by the
    pairwise threshold, order triples-then-pairs by mean distance with a
    lexicographic member tie-break, select greedily, singletons last.
    Returns a set of frozensets of (view, index)."""
    views = sorted(centers)
    candidates = []
    for size in (3, 2):
        for vc in itertools.combinations(views, size):
            for picks in itertools.product(*[range(len(centers[v])) for v in vc]):
                pts = [centers[v][i] for v, i in zip(vc, picks)]
                if any(p is None for p in pts):
                    continue
                ds = [math.dist(a, b) for a, b in itertools.combinations(pts, 2)]
                if max(ds) > t:
                    continue
                members = tuple(sorted(zip(vc, picks)))
                candidates.append((-size, sum(ds) / len(ds), members))
    candidates.sort()
    taken, used = [], set()
    for _negsize, _mean, members in candidates:
        if any(m in used for m in members):
            continue
        used.update(members)
        taken.append(frozenset(members))
    for v in views:
        for i in range(len(centers[v])):
            if (v, i) not in used:
                taken.append(frozenset([(v, i)]))
    return set(taken)


def _as_points(centers):
    return {v: [None if c is None else np.array(c) for c in pts]
            for v, pts in centers.items()}


def _result_sets(combos):
    return {frozenset(c.members.items()) for c in combos}


class TestLiftBoxCenter:
    def _cam(self):
        return Camera(id=0, fx=10.0, fy=10.0, cx=4.0, cy=4.0)

    def test_center_on_principal_point(self):
        depth = DepthImage(view=0, raster=np.full((9, 9), 2.5))
        box = _box(0, 0, 3, 3, 5, 5)  # centre pixel (4, 4) = principal point
        p = lift_box_center(box, depth, self._cam())
        np.testing.assert_allclose(p, [0.0, 0.0, 2.5], atol=1e-12)

    def test_median_fallback_on_unknown_center_depth(self):
        raster = np.full((9, 9), 3.0)
        raster[4, 4] = 0.0  # unknown at the centre
        depth = DepthImage(view=0, raster=raster)
        box = _box(0, 0, 3, 3, 6, 6)
        p = lift_box_center(box, depth, self._cam())
        assert p[2] == pytest.approx(3.0)

    def test_unliftable_box_raises(self):
        depth = DepthImage(view=0, raster=np.zeros((9, 9)))
        with pytest.raises(UnliftableBoxError):
            lift_box_center(_box(0, 0, 3, 3, 6, 6), depth, self._cam())

    def test_extrinsics_applied(self):
        cam = Camera(id=1, fx=10.0, fy=10.0, cx=4.0, cy=4.0,
                     to_reference=RigidTransform.from_rotation_translation(
                         np.eye(3), [1.0, 0.0, 0.0]))
        depth = DepthImage(view=1, raster=np.full((9, 9), 2.0))
        p = lift_box_center(_box(1, 0, 3, 3, 5, 5), depth, cam)
        np.testing.assert_allclose(p, [1.0, 0.0, 2.0], atol=1e-12)

    def test_same_person_centres_within_02m_on_controlled_body(self):
        # a single torso sphere observed by the standard camera ring: each
        # view's box centre lifts onto the sphere surface facing that
        # camera, so the cross-view spread is bounded by ~2x body radius
        from posefusion.data import SynthConfig, _camera_rig
        from posefusion.geometry import invert_transform, project_point, transform_point
        from posefusion.fusion import round_half_up

        cfg = SynthConfig()
        world_poses, cams = _camera_rig(cfg)
        centre_world = np.array([0.1, 1.2, -0.05])
        radius = cfg.joint_radius
        centres = []
        for pose, cam in zip(world_poses, cams):
            pc = transform_point(centre_world, invert_transform(pose))
            px, py = project_point(pc, cam)
            xi, yi = round_half_up(px), round_half_up(py)
            raster = np.full((cfg.image_h, cfg.image_w), 5.0)
            raster[yi - 4:yi + 5, xi - 4:xi + 5] = pc[2] - radius  # front face
            depth = DepthImage(view=cam.id, raster=raster)
            box = _box(cam.id, 0, xi - 4, yi - 4, xi + 5, yi + 5)
            centres.append(lift_box_center(box, depth, cam))
        for a, b in itertools.combinations(centres, 2):
            assert np.linalg.norm(a - b) < 0.2

    def test_generated_scene_centres_support_default_threshold(self):
        # on rendered stick figures the hull centre wanders over the body,
        # so same-person centres spread more; they must still sit safely
        # under the 0.75 m matching threshold in the typical case
        from posefusion.data import SynthConfig, generate_synthetic
        scenes, _ = generate_synthetic(SynthConfig(
            train_scenes=6, test_scenes=0, seed=21, min_persons=1, max_persons=2))
        dists = []
        for scene in scenes:
            for person in scene.persons():
                centres = []
                for sv in scene.views:
                    if person in sv.boxes:
                        centres.append(lift_box_center(sv.boxes[person], sv.depth, sv.camera))
                dists += [np.linalg.norm(a - b)
                          for a, b in itertools.combinations(centres, 2)]
        assert len(dists) >= 10
        assert np.median(dists) < 0.45


class TestMatchCenters:
    def test_coincident_triple(self):
        centers = _as_points({0: [(0, 0, 2.0)], 1: [(0, 0, 2.0)], 2: [(0, 0, 2.0)]})
        combos = match_centers(centers)
        assert len(combos) == 1 and combos[0].size == 3
        assert combos[0].mean_distance == pytest.approx(0.0)

    def test_distance_above_threshold_gives_singletons(self):
        centers = _as_points({0: [(0, 0, 2.0)], 1: [(1.0, 0, 2.0)]})
        combos = match_centers(centers, MatchConfig(t=0.75))
        assert sorted(c.size for c in combos) == [1, 1]

    def test_triple_preferred_over_better_pair(self):
        # a triple with mean distance 0.3 overlaps a pair with mean 0.1;
        # the stated rule still takes the triple first
        centers = _as_points({
            0: [(0.0, 0.0, 2.0)],
            1: [(0.3, 0.0, 2.0)],
            2: [(0.0, 0.1, 2.0)],
        })
        combos = match_centers(centers, MatchConfig(t=0.75))
        assert len(combos) == 1 and combos[0].size == 3

    def test_partition_every_box_once(self, rng):
        for seed in range(30):
            g = np.random.default_rng(seed)
            centers = {
                v: [tuple(g.uniform(-1.5, 1.5, size=3)) for _ in range(g.integers(0, 5))]
                for v in range(3)
            }
            combos = match_centers(_as_points(centers), MatchConfig(t=0.9))
            seen = [m for c in combos for m in c.members.items()]
            expected = [(v, i) for v in centers for i in range(len(centers[v]))]
            assert sorted(seen) == sorted(expected)
            for c in combos:
                if c.size >= 2:
                    pts = [c.centers[v] for v in c.members]
                    dmax = max(np.linalg.norm(a - b)
                               for a, b in itertools.combinations(pts, 2))
                    assert dmax <= 0.9 + 1e-12

    def test_monotone_in_threshold(self):
        g = np.random.default_rng(5)
        centers = _as_points({
            v: [tuple(g.uniform(-1.0, 1.0, size=3)) for _ in range(3)] for v in range(3)
        })
        multi_counts = []
        for t in (0.2, 0.5, 1.0, 2.0, 5.0):
            combos = match_centers(centers, MatchConfig(t=t))
            multi_counts.append(sum(1 for c in combos if c.size >= 2))
        assert multi_counts == sorted(multi_counts)

    def test_matches_brute_force_on_random_instances(self):
        for seed in range(120):
            g = np.random.default_rng(seed)
            raw = {
                v: [tuple(g.uniform(-1.2, 1.2, size=3)) for _ in range(g.integers(0, 5))]
                for v in range(3)
            }
            t = float(g.uniform(0.3, 1.5))
            got = _result_sets(match_centers(_as_points(raw), MatchConfig(t=t)))
            want = brute_force_match(raw, t)
            assert got == want, f"seed {seed}: {got} != {want}"

    def test_unliftable_centres_become_singletons(self):
        centers = {0: [np.array([0, 0, 2.0]), None], 1: [np.array([0, 0, 2.0])]}
        combos = match_centers(centers, MatchConfig(t=0.75))
        sizes = sorted(c.size for c in combos)
        assert sizes == [1, 2]
        singleton = next(c for c in combos if c.size == 1)
        assert singleton.members == {0: 1} and singleton.centers[0] is None

    def test_threshold_validation(self):
        with pytest.raises(MatchingError):
            MatchConfig(t=0.0)

    def test_default_threshold_is_075_m(self):
        assert MatchConfig().t == 0.75


class TestEvaluateMatching:
    def _perfect(self):
        boxes = {v: [_box(v, 0, 2, 2, 10, 12)] for v in range(3)}
        annotated = {0: {v: boxes[v][0] for v in range(3)}}
        combos = [BoxCombination(members={0: 0, 1: 0, 2: 0},
                                 centers={v: np.array([0, 0, 2.0]) for v in range(3)},
                                 mean_distance=0.0)]
        return combos, annotated, boxes

    def test_perfect_boxes_score_one(self):
        combos, annotated, boxes = self._perfect()
        result = evaluate_matching(combos, annotated, boxes)
        assert result[0][1] == pytest.approx(1.0)

    def test_single_box_combination_scores_one_third(self):
        boxes = {0: [_box(0, 0, 2, 2, 10, 12)], 1: [], 2: []}
        annotated = {0: {0: boxes[0][0],
                         1: _box(1, 0, 2, 2, 10, 12),
                         2: _box(2, 0, 2, 2, 10, 12)}}
        combos = [BoxCombination(members={0: 0}, centers={0: None}, mean_distance=None)]
        result = evaluate_matching(combos, annotated, boxes, views=[0, 1, 2])
        assert result[0][1] == pytest.approx(1.0 / 3.0)

    def test_half_overlap_hand_value(self):
        # one view half-overlapping (IoU 1/3), two perfect -> (1 + 1 + 1/3)/3
        boxes = {
            0: [_box(0, 0, 0, 0, 8, 8)],
            1: [_box(1, 0, 0, 0, 8, 8)],
            2: [_box(2, 0, 4, 0, 12, 8)],  # half overlap with [0,8)x[0,8)
        }
        annotated = {0: {v: _box(v, 0, 0, 0, 8, 8) for v in range(3)}}
        combos = [BoxCombination(members={0: 0, 1: 0, 2: 0},
                                 centers={v: np.array([0, 0, 2.0]) for v in range(3)},
                                 mean_distance=0.0)]
        result = evaluate_matching(combos, annotated, boxes)
        assert result[0][1] == pytest.approx((1.0 + 1.0 + 1.0 / 3.0) / 3.0)

    def test_incomplete_annotation_rejected(self):
        combos, annotated, boxes = self._perfect()
        del annotated[0][1]
        with pytest.raises(MatchingError, match="missing"):
            evaluate_matching(combos, annotated, boxes, views=[0, 1, 2])


def test_box_iou_basics():
    a = _box(0, 0, 0, 0, 4, 4)
    assert box_iou(a, a) == 1.0
    assert box_iou(a, _box(0, 0, 4, 4, 8, 8)) == 0.0
    assert box_iou(a, _box(0, 0, 2, 0, 6, 4)) == pytest.approx(8 / 24)
