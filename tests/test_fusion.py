"""The softmax-centre kernel and its tape node's adjoint, the view
clouds, the 3D/2D distance metrics, and the 2D-domain baseline fusion."""

import numpy as np
import pytest

from posefusion import pipeline as P
from posefusion import tensorgrad as tg
from posefusion.data import SceneView
from posefusion.fusion import (
    JOINT_NAMES,
    masked_soft_centers,
    pose_distances,
    round_half_up,
    soft_center,
    soft_center_stack,
    view_cloud_coords,
)
from posefusion.geometry import (
    Camera,
    RigidTransform,
    backproject_grid,
    backproject_pixel,
    transform_point,
)
from posefusion.heatmap import DEFAULT_EPSILON, BoundingBox, DepthImage, valid_pixel_mask

EPS = DEFAULT_EPSILON


def _pose(**joints):
    """A pose with the given joints as (3,) arrays; every other joint absent."""
    pose = {name: None for name in JOINT_NAMES}
    pose.update({name: np.array(p, dtype=float) for name, p in joints.items()})
    return pose


def _scene_view(v, depth, camera=None):
    """View ``v`` with an (H, W) depth raster, seen by ``camera`` (default
    one at the image origin); no colour and no boxes."""
    camera = camera or Camera(id=v, fx=1.0, fy=1.0, cx=0.0, cy=0.0)
    return SceneView(v, camera, None, DepthImage(view=v, raster=depth), {})


def _soft_center_vjp(acts_per_view, coords_per_view, g):
    """The soft_center_3d node's gradients, one per view, for upstream g."""
    tape = tg.Tape()
    tensors = [tg.Tensor(a, requires_grad=True) for a in acts_per_view]
    soft_center_stack(tape, tensors, coords_per_view)
    return tape._nodes[0].vjp(g)


class TestAggregate:
    """Hand values and invariants of the softmax centre of mass."""

    def test_single_surviving_point_is_returned_exactly(self):
        center, _ = soft_center(np.array([5.0, EPS]), np.array([[0.1, 0.2, 0.3], [9.0, 9.0, 9.0]]))
        np.testing.assert_allclose(center, [0.1, 0.2, 0.3], atol=1e-12)

    def test_equal_activations_give_midpoint(self):
        center, w = soft_center(np.array([0.7, 0.7]), np.array([[0, 0, 1.0], [0, 0, 3.0]]))
        np.testing.assert_array_equal(w, [0.5, 0.5])
        assert center[2] == pytest.approx(2.0, abs=1e-12)

    def test_hand_softmax_three_collinear_points(self):
        # softmax(0, ln2, 0) = (1,2,1)/4 -> z = (1 + 4 + 3)/4 = 2.0
        center, w = soft_center(np.array([0.0, np.log(2.0), 0.0]),
                                np.array([[0, 0, 1.0], [0, 0, 2.0], [0, 0, 3.0]]))
        np.testing.assert_allclose(w, [0.25, 0.5, 0.25], atol=1e-15)
        assert center[2] == pytest.approx(2.0, abs=1e-12)

    def test_batched_rows_equal_single_rows(self, rng):
        # the (J, I) form fuses each row as the 1-D form does: the weights
        # bitwise, the centres up to the matrix product's summation order
        coords = rng.normal(size=(50, 3))
        acts = rng.uniform(-20, 20, size=(4, 50))
        centers, w = soft_center(acts, coords)
        assert centers.shape == (4, 3) and w.shape == (4, 50)
        for j in range(4):
            cj, wj = soft_center(acts[j], coords)
            np.testing.assert_array_equal(w[j], wj)
            np.testing.assert_allclose(centers[j], cj, rtol=1e-14, atol=1e-14)

    def test_prediction_in_convex_hull_of_valid_points(self, rng):
        for _ in range(50):
            n = rng.integers(2, 30)
            coords = rng.normal(size=(n, 3))
            acts = rng.uniform(-3, 3, size=n)
            center, w = soft_center(acts, coords)
            assert np.all(w >= 0) and abs(w.sum() - 1.0) < 1e-12
            lo, hi = coords.min(axis=0) - 1e-9, coords.max(axis=0) + 1e-9
            assert np.all(center >= lo) and np.all(center <= hi)

    def test_constant_shift_invariance(self, rng):
        coords = rng.normal(size=(40, 3))
        acts = rng.uniform(-2, 2, size=40)
        base, _ = soft_center(acts, coords)
        shifted, _ = soft_center(acts + 123.456, coords)
        assert np.max(np.abs(base - shifted)) < 1e-9

    def test_masked_values_do_not_affect_prediction(self, rng):
        # two rasters differing only at pixels that get masked must fuse
        # to the same point: masking replaces those values with epsilon
        # and their softmax weight underflows to exact zero
        coords = rng.normal(size=(6, 5, 3)).reshape(30, 3)
        raw_a = rng.uniform(-2, 2, size=(6, 5))
        raw_b = raw_a.copy()
        depth = np.full((6, 5), 2.0)
        depth[rng.random((6, 5)) < 0.4] = 0.0
        depth[0, 0] = 2.0  # keep at least one valid pixel
        d = DepthImage(view=0, raster=depth)
        box = BoundingBox(view=0, person=0, x_min=0, y_min=0, x_max=5, y_max=6)
        raw_b[depth == 0.0] = rng.uniform(50, 100, size=(depth == 0.0).sum())
        valid = valid_pixel_mask(box, d)
        a, _ = soft_center(np.where(valid, raw_a, EPS).ravel(), coords)
        b, _ = soft_center(np.where(valid, raw_b, EPS).ravel(), coords)
        assert np.max(np.abs(a - b)) < 1e-9


class TestMaskedSoftCenters:
    """``masked_soft_centers``: one softmax per row of a (J, V) block over
    the entries its mask keeps, each row with its own points, as the
    baseline lifting fuses a joint over the views that count for it."""

    # The block regroups each centre's sum. Measured against one
    # ``soft_center`` per row on 2000 random (10, V) blocks per V: bitwise
    # up to three entries per row, within 7.1e-16 of the row's largest
    # point coordinate with four to eight.
    BOUND = 2e-15

    def test_rows_match_per_row_soft_center(self):
        g = np.random.default_rng(8)
        worst, empty = 0.0, 0
        for v in range(1, 9):
            for _ in range(200):
                acts = g.normal(size=(10, v)) * g.choice([0.1, 1.0, 10.0])
                points = g.normal(size=(10, v, 3)) + 3.0 * g.normal(size=3)
                keep = g.random((10, v)) < 0.7
                centres = masked_soft_centers(acts, points, keep)
                assert centres.shape == (10, 3)
                for j in range(10):
                    if not keep[j].any():
                        empty += 1
                        continue
                    want, _ = soft_center(acts[j, keep[j]], points[j, keep[j]])
                    scale = np.abs(points[j, keep[j]]).max()
                    worst = max(worst, np.abs(centres[j] - want).max() / scale)
        assert worst <= self.BOUND and empty > 0
        print(f"\nworst difference of the largest coordinate: {worst:.2e}")

    def test_masked_entries_carry_no_weight(self, rng):
        acts = rng.normal(size=(4, 5))
        points = rng.normal(size=(4, 5, 3))
        keep = np.ones((4, 5), dtype=bool)
        keep[:, 2] = False
        moved_acts, moved_points = acts.copy(), points.copy()
        moved_acts[:, 2] = 1e3
        moved_points[:, 2] = 1e6
        np.testing.assert_array_equal(masked_soft_centers(acts, points, keep),
                                      masked_soft_centers(moved_acts, moved_points, keep))

    def test_row_keeping_nothing_stays_finite(self, rng):
        # an all-masked row would be a softmax of -inf alone, NaN; it gives
        # the mean of its points instead, which callers drop
        points = rng.normal(size=(2, 3, 3))
        keep = np.array([[True, False, True], [False, False, False]])
        centres = masked_soft_centers(rng.normal(size=(2, 3)), points, keep)
        np.testing.assert_allclose(centres[1], points[1].mean(axis=0), rtol=1e-15, atol=1e-15)


class TestAggregateAdjoint:
    """The adjoint of the soft_center_3d node, over one or two views:
    dL/dh_i = a_i * <g, c_i - p> per joint row."""

    def test_gradients_sum_to_zero(self, rng):
        for _ in range(20):
            coords = [rng.normal(size=(9, 3)), rng.normal(size=(6, 3))]
            acts = [rng.uniform(-3, 3, size=(2, 9)), rng.uniform(-3, 3, size=(2, 6))]
            grads = _soft_center_vjp(acts, coords, rng.normal(size=(2, 3)))
            assert [g.shape for g in grads] == [(2, 9), (2, 6)]
            np.testing.assert_allclose(grads[0].sum(axis=1) + grads[1].sum(axis=1), 0.0,
                                       atol=1e-9)

    def test_orthogonal_upstream_gives_zero(self):
        # uniform activations, all points on a line, upstream orthogonal
        coords = np.array([[float(i), 0.0, 0.0] for i in range(5)])
        (adj,) = _soft_center_vjp([np.zeros((1, 5))], [coords], np.array([[0.0, 1.0, 0.0]]))
        np.testing.assert_allclose(adj, 0.0, atol=1e-15)

    def test_closed_form_matches_fd_on_random_cloud(self, rng):
        coords = [rng.normal(size=(7, 3)), rng.normal(size=(5, 3))]
        acts = [rng.uniform(-2, 2, size=(2, 7)), rng.uniform(-2, 2, size=(2, 5))]
        g = rng.normal(size=(2, 3))
        adj = np.concatenate(_soft_center_vjp(acts, coords, g), axis=1)
        flat, cloud = np.concatenate(acts, axis=1), np.concatenate(coords)
        step = 1e-6
        for j in range(2):
            for k in range(12):
                bumped = flat[j].copy()
                bumped[k] += step
                hi, _ = soft_center(bumped, cloud)
                bumped[k] -= 2 * step
                lo, _ = soft_center(bumped, cloud)
                fd = float((hi - lo) @ g[j]) / (2 * step)
                assert abs(adj[j, k] - fd) / max(1.0, abs(adj[j, k])) < 1e-6

    def test_fused_node_matches_composed_softmax_chain(self, rng):
        # the chain rule through softmax (Jacobian diag(a) - a a^T) and the
        # weighted sum of coordinates (Jacobian coords^T), as dense matrices
        coords = rng.normal(size=(9, 3))
        acts = rng.uniform(-2, 2, size=9)
        g = rng.normal(size=3)
        (fused,) = _soft_center_vjp([acts.reshape(1, 3, 3)], [coords], g[None, :])
        _, a = soft_center(acts, coords)
        composed = (np.diag(a) - np.outer(a, a)) @ (coords @ g)
        np.testing.assert_allclose(fused.ravel(), composed, atol=1e-12)


class TestLiftHeatmaps:
    """Each view's shared-frame cloud, the positions the 3D soft centre
    weighs."""

    def _setup(self):
        cam0 = Camera(id=0, fx=10.0, fy=10.0, cx=1.0, cy=1.0)
        depth = DepthImage(view=0, raster=np.full((3, 3), 2.0))
        return cam0, depth

    def test_single_pixel_view_at_principal_point(self):
        cam = Camera(id=0, fx=5.0, fy=5.0, cx=0.0, cy=0.0)
        depth = DepthImage(view=0, raster=np.array([[1.7]]))
        cloud = view_cloud_coords(depth, cam)
        assert cloud.shape == (1, 3)
        np.testing.assert_allclose(cloud[0], [0.0, 0.0, 1.7], atol=1e-12)
        center, _ = soft_center(np.array([[4.0]]), cloud)
        np.testing.assert_allclose(center[0], [0.0, 0.0, 1.7], atol=1e-12)

    def test_identity_camera_coordinates_equal_backprojections(self):
        cam, depth = self._setup()
        np.testing.assert_allclose(view_cloud_coords(depth, cam),
                                   backproject_grid(depth.raster, cam), atol=1e-15)

    def test_cloud_size_is_sum_over_views(self, rng):
        # a second view offset by to_reference: its cloud is the first
        # one shifted; fusing both spans 18 entries, split back per view
        cam, depth = self._setup()
        cam1 = Camera(id=1, fx=10.0, fy=10.0, cx=1.0, cy=1.0,
                      to_reference=RigidTransform.from_rotation_translation(np.eye(3), [0.1, 0, 0]))
        clouds = [view_cloud_coords(depth, cam), view_cloud_coords(depth, cam1)]
        np.testing.assert_allclose(clouds[1] - clouds[0], np.tile([0.1, 0, 0], (9, 1)), atol=1e-15)
        acts = [rng.normal(size=(2, 3, 3)), rng.normal(size=(2, 3, 3))]
        grads = _soft_center_vjp(acts, clouds, rng.normal(size=(2, 3)))
        assert [g.shape for g in grads] == [(2, 3, 3), (2, 3, 3)]


class TestMpjpe:
    """pose_distances, the per-joint distances evaluation scores."""

    def test_exact_match_is_zero(self):
        a = _pose(head=(1, 2, 3))
        assert pose_distances(a, a) == {"head": 0.0}

    def test_3_4_5_triangle_in_cm(self):
        pred = _pose(head=(0.03, 0.04, 0.0))
        ref = _pose(head=(0.0, 0.0, 0.0))
        assert pose_distances(pred, ref)["head"] * 100 == pytest.approx(5.0, abs=1e-12)

    def test_mean_over_persons_and_joints(self):
        # distances 1, 2, 3, 4 cm; evaluation keys each person's by person
        pred = [
            _pose(head=(0.01, 0, 0), neck=(0, 0.02, 0)),
            _pose(head=(0, 0, 0.03), neck=(0.04, 0, 0)),
        ]
        ref = [
            _pose(head=(0, 0, 0), neck=(0, 0, 0)),
            _pose(head=(0, 0, 0), neck=(0, 0, 0)),
        ]
        d = {(person, name): dist for person in (0, 1)
             for name, dist in pose_distances(pred[person], ref[person]).items()}
        assert sorted(d) == [(0, "head"), (0, "neck"), (1, "head"), (1, "neck")]
        np.testing.assert_allclose([d[k] for k in sorted(d)], [0.01, 0.02, 0.03, 0.04], atol=1e-15)
        assert np.mean(list(d.values())) * 100 == pytest.approx(2.5, abs=1e-12)

    def test_only_jointly_present_joints_scored(self):
        pred = _pose(head=(0.01, 0, 0), neck=(5, 5, 5))
        ref = _pose(head=(0, 0, 0))  # neck absent in reference
        assert pose_distances(pred, ref) == {"head": pytest.approx(0.01, abs=1e-15)}

    def test_zero_scorable_joints_is_undefined(self):
        assert pose_distances(_pose(), _pose(head=(0, 0, 0))) == {}


class TestCom2d:
    """The per-view 2D soft centre the baseline scores: the pixel
    coordinates weighted by the softmax of the view's fused pixels."""

    @staticmethod
    def _centre(raster, box=None):
        h, w = raster.shape
        box = box or BoundingBox(view=0, person=0, x_min=0, y_min=0, x_max=w, y_max=h)
        valid = box.mask(h, w)
        rows = np.flatnonzero(valid)
        f = P.ViewForward(_scene_view(0, np.ones((h, w))),
                          tg.Tensor(np.tile(raster.ravel()[rows], (len(JOINT_NAMES), 1))),
                          rows, valid)
        return tuple(P._view_centers_2d(None, f).values[0])

    def test_single_survivor_returns_its_coordinates(self):
        box = BoundingBox(view=0, person=0, x_min=2, y_min=1, x_max=3, y_max=2)
        assert self._centre(np.zeros((4, 6)), box) == (2.0, 1.0)

    def test_two_equal_pixels_give_midpoint(self):
        raster = np.full((4, 6), EPS)
        raster[1, 1] = 3.0
        raster[1, 3] = 3.0
        pos = self._centre(raster)
        assert pos[0] == pytest.approx(2.0, abs=1e-9)
        assert pos[1] == pytest.approx(1.0, abs=1e-9)

    def test_consistency_with_3d_aggregate_at_unit_depth(self, rng):
        # identity-intrinsics camera at unit depth: x3d = x2d - cx, so the
        # 2D centre of mass must equal the projected 3D soft centre
        h, w = 5, 7
        cam = Camera(id=0, fx=1.0, fy=1.0, cx=0.0, cy=0.0)
        depth = DepthImage(view=0, raster=np.ones((h, w)))
        raster = rng.normal(size=(h, w))
        p3, _ = soft_center(raster.ravel(), view_cloud_coords(depth, cam))
        pos = self._centre(raster)
        assert pos[0] == pytest.approx(p3[0], abs=1e-9)
        assert pos[1] == pytest.approx(p3[1], abs=1e-9)


class TestLoss2d:
    """The loss node _mean_distance on 2D centres, by hand."""

    @staticmethod
    def _loss(preds, refs):
        out = P._mean_distance(None, [tg.Tensor(p) for p in preds], refs)
        return None if out is None else out.item()

    def test_exact_match_zero(self):
        assert self._loss([[[3.0, 4.0]]], [{0: np.array([3.0, 4.0])}]) == 0.0

    def test_3_4_5_pixels(self):
        assert self._loss([[[3.0, 4.0]]], [{0: np.zeros(2)}]) == pytest.approx(5.0, abs=1e-12)

    def test_multi_view_mean_by_hand(self):
        # view 0: dists 1 and 2; view 1: dists 3 and 4 -> mean 2.5; the
        # row without a target is not scored
        preds = [[[1.0, 0.0], [0.0, 2.0], [50.0, 50.0]], [[3.0, 0.0], [0.0, 4.0]]]
        refs = [{0: np.zeros(2), 1: np.zeros(2)}, {0: np.zeros(2), 1: np.zeros(2)}]
        assert self._loss(preds, refs) == pytest.approx(2.5, abs=1e-12)

    def test_undefined_without_common_joints(self):
        assert self._loss([[[1.0, 1.0]]], [{}]) is None


def _reference_baseline_pose(scene, person, forwards):
    """The lifting that baseline-2d inference used before it read the fused
    pixels directly: each view's activations scattered into an ε raster,
    and each (joint, view) lifted through backproject_pixel and
    transform_point. {joint name: (3,) array or None}."""
    per_view = []
    for f in forwards:
        if not f.valid.any():
            continue
        raster = np.full((len(JOINT_NAMES), f.valid.size), EPS)
        raster[:, f.rows] = f.acts.values
        per_view.append((scene.views[f.view], P._view_centers_2d(None, f).values,
                         raster.reshape((len(JOINT_NAMES),) + f.valid.shape)))
    fused = {}
    for j, name in enumerate(JOINT_NAMES):
        candidates, values = [], []
        for sv, coms, raster in per_view:
            h, w = sv.depth.raster.shape
            px = min(max(round_half_up(coms[j, 0]), 0), w - 1)
            py = min(max(round_half_up(coms[j, 1]), 0), h - 1)
            z = float(sv.depth.raster[py, px])
            if z <= 0.0:
                continue
            candidates.append(transform_point(backproject_pixel((px, py), z, sv.camera),
                                              sv.camera.to_reference))
            values.append(float(raster[j, py, px]))
        fused[name] = (soft_center(np.asarray(values), np.asarray(candidates))[0]
                       if candidates else None)
    return fused


class TestLiftAndFuse2d:
    """Baseline-2d lifting (``pipeline.lift_and_fuse_2d``): each view's 2D
    centres are read at their nearest pixels, and per joint the views
    with known depth there are fused."""

    CAMS = (
        Camera(id=0, fx=10.0, fy=10.0, cx=2.0, cy=2.0),
        Camera(id=1, fx=10.0, fy=10.0, cx=2.0, cy=2.0,
               to_reference=RigidTransform.from_rotation_translation(np.eye(3), [0.5, 0.0, 0.0])),
    )

    def _view(self, v, depth, fused=None, valid=None):
        """View v's forward over a 5x5 depth raster, with activation 1.0 at
        the flat pixels ``fused`` (default: every ``valid`` pixel, by
        default those of known depth)."""
        depth = np.asarray(depth, dtype=np.float64)
        valid = depth > 0.0 if valid is None else valid
        rows = np.flatnonzero(valid) if fused is None else np.asarray(fused, dtype=np.intp)
        acts = tg.Tensor(np.ones((len(JOINT_NAMES), rows.size)))
        return P.ViewForward(_scene_view(v, depth, self.CAMS[v]), acts, rows, valid)

    @staticmethod
    def _fuse(views, head):
        """Fuse every view with the head's 2D centre at ``head`` and the
        other joints' at pixel (2, 2)."""
        coms = np.full((len(JOINT_NAMES), 2), 2.0)
        coms[0] = head
        return P.lift_and_fuse_2d(views, [coms] * len(views))

    def _head(self, views, head):
        fused = self._fuse(views, head)
        return None if fused is None else fused["head"]

    @staticmethod
    def _softmax_inputs(monkeypatch):
        """Record, per lifting, the activations each joint's softmax
        receives (those of the views that count for it), in joint order."""
        calls = []

        def spy(values, points, known):
            calls.append([v[k] for v, k in zip(values, known)])
            return masked_soft_centers(values, points, known)

        monkeypatch.setattr(P, "masked_soft_centers", spy)
        return calls

    def test_single_view_returns_lifted_point(self):
        head = self._head([self._view(0, np.full((5, 5), 2.0))], (3.0, 2.0))
        np.testing.assert_allclose(head, [0.2, 0.0, 2.0], atol=1e-12)

    def test_two_views_equal_values_give_midpoint(self):
        views = [self._view(0, np.full((5, 5), 2.0)), self._view(1, np.full((5, 5), 2.0))]
        head = self._head(views, (2.0, 2.0))
        # view 0 lifts to (0,0,2); view 1 to (0.5,0,2); equal weights -> midpoint
        np.testing.assert_allclose(head, [0.25, 0.0, 2.0], atol=1e-12)

    def test_unknown_depth_drops_view(self, monkeypatch):
        # view 1 fuses every other pixel, but its depth is unknown at the
        # predicted one
        hole = np.full((5, 5), 2.0)
        hole[2, 2] = 0.0
        views = [self._view(0, np.full((5, 5), 2.0)), self._view(1, hole)]
        calls = self._softmax_inputs(monkeypatch)
        head = self._head(views, (2.0, 2.0))
        assert calls[0][0].size == 1  # the head fuses view 0 only
        np.testing.assert_allclose(head, [0.0, 0.0, 2.0], atol=1e-12)

    def test_all_views_dropped_gives_absent(self):
        # every joint's predicted pixel is (2, 2), where no view knows the depth
        hole = np.full((5, 5), 2.0)
        hole[2, 2] = 0.0
        assert self._head([self._view(0, hole), self._view(1, hole)], (2.0, 2.0)) is None

    def test_view_without_valid_pixels_is_dropped(self):
        # a box over unknown depth only: the view's 2D centre is the grid
        # centre, where its depth is known, yet it lifts nothing
        empty = self._view(1, np.full((5, 5), 2.0), valid=np.zeros((5, 5), dtype=bool))
        assert self._fuse([empty], (2.0, 2.0)) is None
        head = self._head([self._view(0, np.full((5, 5), 2.0)), empty], (2.0, 2.0))
        np.testing.assert_allclose(head, [0.0, 0.0, 2.0], atol=1e-12)

    def test_rounding_indexes_nearest_pixel(self):
        raster = np.full((5, 5), 2.0)
        raster[2, 3] = 1.0
        raster[4, 0] = 3.0
        view = self._view(0, raster)
        assert self._head([view], (2.6, 2.4))[2] == pytest.approx(1.0)  # pixel (3, 2)
        assert self._head([view], (2.5, 1.5))[2] == pytest.approx(1.0)  # halves round up
        assert self._head([view], (-3.0, 7.0))[2] == pytest.approx(3.0)  # clamped to (0, 4)

    def test_joint_no_view_counts_is_absent(self):
        # the head's pixel has unknown depth in both views; every other
        # joint is fused
        hole = np.full((5, 5), 2.0)
        hole[1, 3] = 0.0
        pose = self._fuse([self._view(0, hole), self._view(1, hole)], (3.0, 1.0))
        assert pose["head"] is None
        for name in JOINT_NAMES[1:]:
            np.testing.assert_allclose(pose[name], [0.25, 0.0, 2.0], atol=1e-12)

    def test_block_lift_matches_per_joint_reference(self, monkeypatch):
        # each fused joint equals one soft_center over the views that count
        # for it, within TestMaskedSoftCenters.BOUND of the largest point
        # coordinate; a joint no view counts for is None
        from posefusion.data import SynthConfig, generate_synthetic

        calls = []

        def spy(values, points, known):
            calls.append((values, points, known))
            return masked_soft_centers(values, points, known)

        monkeypatch.setattr(P, "masked_soft_centers", spy)
        poses = []
        _, scenes = generate_synthetic(SynthConfig(train_scenes=0, test_scenes=6, seed=505,
                                                   occlusion_drop=0.35))
        predictor = P.ToyPredictor.initialise(0)
        for scene in scenes:
            for person in scene.persons():
                if scene.supporting_views(person):
                    calls.clear()
                    poses.append((P._predict_pose3(predictor, scene, person, "baseline-2d"),
                                  list(calls)))
        # random activations in three views; each joint's pixel lies on a
        # hole in none, some or all of them
        g = np.random.default_rng(4)
        depth = np.full((5, 5), 2.0)
        depth[1, 3] = 0.0
        holes = [depth.copy() for _ in range(3)]
        holes[1][2, 2] = holes[2][3, 1] = 0.0
        forwards = []
        for v, d in enumerate(holes):
            f = self._view(v % 2, d, valid=np.ones((5, 5), dtype=bool))
            f.acts = tg.Tensor(g.normal(size=f.acts.shape))
            forwards.append(f)
        coms = [np.tile([(3.0, 1.0), (2.0, 2.0), (1.0, 3.0), (0.0, 0.0), (4.0, 4.0)], (2, 1))
                + g.uniform(-0.4, 0.4, size=(len(JOINT_NAMES), 2)) for _ in forwards]
        calls.clear()
        poses.append((P.lift_and_fuse_2d(forwards, coms), list(calls)))

        checked = absent = 0
        for pose, ((values, points, known),) in ((p, c) for p, c in poses if c):
            for j, name in enumerate(JOINT_NAMES):
                keep = known[j]
                if not keep.any():
                    assert pose is None or pose[name] is None
                    absent += 1
                    continue
                want, _ = soft_center(values[j, keep], points[j, keep])
                scale = np.abs(points[j, keep]).max()
                assert np.abs(pose[name] - want).max() <= TestMaskedSoftCenters.BOUND * scale
                checked += 1
        assert checked > 100 and absent >= 2
        assert all(pose is None for pose, c in poses if not c)

    def test_pixel_outside_the_fused_pixels_reads_epsilon(self, monkeypatch):
        # view 1 knows the depth everywhere but fuses only pixel 0, so the
        # predicted pixel reads ε and its weight underflows beside view 0's
        views = [self._view(0, np.full((5, 5), 2.0)), self._view(1, np.full((5, 5), 2.0), [0])]
        calls = self._softmax_inputs(monkeypatch)
        head = self._head(views, (2.0, 2.0))
        np.testing.assert_array_equal(calls[0][0], [1.0, EPS])  # both views count
        np.testing.assert_allclose(head, [0.0, 0.0, 2.0], atol=1e-12)
        # alone, the ε view still gives its lifted point
        head = self._head(views[1:], (2.0, 2.0))
        np.testing.assert_allclose(head, [0.5, 0.0, 2.0], atol=1e-12)

    def test_matches_the_raster_path_on_occlusion_scenes(self):
        # the cloud and backproject_pixel + transform_point group their
        # products differently, so positions agree to a few ulps; the
        # stated bound is 1e-12 of the reference point's norm
        from posefusion.data import SynthConfig, generate_synthetic

        _, scenes = generate_synthetic(SynthConfig(train_scenes=0, test_scenes=6, seed=505,
                                                   occlusion_drop=0.35))
        checked = 0
        for scene in scenes:
            for person in scene.persons():
                if not scene.supporting_views(person):
                    continue
                for seed, oracle_cfg in ((0, None), (1, None), (None, (1.0, 80.0))):
                    predictor = None if seed is None else P.ToyPredictor.initialise(seed)
                    pose = P._predict_pose3(predictor, scene, person, "baseline-2d",
                                            oracle_cfg=oracle_cfg)
                    if oracle_cfg is None:
                        forwards = P.forward_scene(predictor, scene, person, None, None)
                    else:
                        oracle = {v: P.make_target_heatmaps(scene, v, person, *oracle_cfg)
                                  for v in scene.supporting_views(person)}
                        forwards = P.forward_scene(None, scene, person, None, None,
                                                   oracle_heatmaps=oracle)
                    ref = _reference_baseline_pose(scene, person, forwards)
                    if all(p is None for p in ref.values()):
                        assert pose is None
                        continue
                    for name in JOINT_NAMES:
                        got = pose[name]
                        assert (got is None) == (ref[name] is None)
                        if got is not None:
                            err = np.linalg.norm(got - ref[name])
                            assert err <= 1e-12 * np.linalg.norm(ref[name])
                            checked += 1
        assert checked > 100


class TestHeatmapToMetricChain:
    def test_fd_through_mask_fusion_and_metric(self):
        # the whole differentiable path from raw heatmap values to the mean
        # 3D joint distance, on a 3-view 16x20 scene; gradient flows through
        # masking, multi-view softmax fusion, and the loss node
        from posefusion.data import generate_synthetic, make_target_heatmaps
        from posefusion.gradcheck import tiny_synth_config
        from posefusion.tensorgrad import Tensor, finite_difference_check

        scenes, _ = generate_synthetic(tiny_synth_config(1))
        scene = scenes[0]
        person = 0
        support = scene.supporting_views(person)
        fixed = {v: make_target_heatmaps(scene, v, person, sigma=1.5, amplitude=2.0)
                 for v in support}
        gt = scene.gt_pose3(person)
        targets = {j: gt[name] for j, name in enumerate(JOINT_NAMES)}

        def fn(tape, var):
            tensors, coords = [], []
            for v in support:
                sv = scene.views[v]
                valid = valid_pixel_mask(sv.boxes[person], sv.depth)
                mask01 = np.broadcast_to(valid, (len(JOINT_NAMES),) + valid.shape)
                raw = var if v == support[0] else Tensor(fixed[v])
                gated = tg.multiply(tape, raw, Tensor(mask01.astype(float)))
                masked = tg.add(tape, gated, Tensor((1.0 - mask01) * EPS))
                tensors.append(masked)
                coords.append(view_cloud_coords(sv.depth, sv.camera))
            centers = soft_center_stack(tape, tensors, coords)
            return P._mean_distance(tape, [centers], [targets])

        err = finite_difference_check(fn, Tensor(fixed[support[0]]), 1e-6)
        assert err < 1e-5


def test_pixel_coordinates_layout():
    # the (x, y) pixel coordinates of a view's fused pixels, row-major
    valid = np.ones((2, 3), dtype=bool)
    f = P.ViewForward(_scene_view(0, np.ones((2, 3))), tg.Tensor(np.zeros((1, 6))),
                      np.flatnonzero(valid), valid)
    np.testing.assert_array_equal(
        f.pixels, [[0, 0], [1, 0], [2, 0], [0, 1], [1, 1], [2, 1]]
    )

