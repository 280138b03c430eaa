"""Hand-checked pinhole math and rigid-transform invariants."""

import numpy as np
import pytest

from posefusion.geometry import (
    BehindCameraError,
    Camera,
    GeometryError,
    RigidTransform,
    backproject_grid,
    backproject_pixel,
    compose,
    invert_transform,
    project_point,
    transform_point,
    transform_points,
)

from conftest import random_rigid


def _cam(fx=500.0, fy=500.0, cx=160.0, cy=120.0):
    return Camera(id=0, fx=fx, fy=fy, cx=cx, cy=cy)


class TestBackprojection:
    def test_principal_point_goes_to_optical_axis(self):
        p = backproject_pixel((160, 120), 2.0, _cam())
        assert tuple(p) == (0.0, 0.0, 2.0)

    def test_zero_depth_collapses_to_origin(self):
        p = backproject_pixel((37, 99), 0.0, _cam())
        assert tuple(p) == (0.0, 0.0, 0.0)

    def test_hand_computed_offset_pixel(self):
        # depth * (x - cx) / fx = 2.0 * 100 / 500 = 0.4
        p = backproject_pixel((260, 120), 2.0, _cam())
        assert p[0] == pytest.approx(0.4, abs=1e-15)
        assert p[1] == pytest.approx(0.0, abs=1e-15)
        assert p[2] == 2.0

    def test_non_finite_depth_rejected(self):
        with pytest.raises(GeometryError):
            backproject_pixel((0, 0), float("nan"), _cam())
        with pytest.raises(GeometryError):
            backproject_pixel((0, 0), float("inf"), _cam())
        with pytest.raises(GeometryError):
            backproject_pixel((0, 0), -0.5, _cam())

    def test_grid_matches_scalar_path(self, rng):
        cam = _cam(fx=70.0, fy=65.0, cx=39.5, cy=31.5)
        depth = rng.uniform(0.0, 5.0, size=(8, 10))
        pts = backproject_grid(depth, cam).reshape(8, 10, 3)
        for (r, c) in [(0, 0), (3, 7), (7, 9)]:
            expected = backproject_pixel((c, r), depth[r, c], cam)
            np.testing.assert_allclose(pts[r, c], expected, atol=1e-15)


class TestRowSubsets:
    """Back-projecting and transforming a subset of a view's pixels gives
    the bits those pixels have in the whole grid: fusion lifts only the
    pixels it reads, and must lift them as the whole cloud did."""

    SIZES = (0, 1, 1, 1, 2, 3, 10, 57, 460)

    def test_rows_are_the_whole_grid_rows(self, rng):
        cam = _cam(fx=70.0, fy=65.0, cx=39.5, cy=31.5)
        depth = rng.uniform(0.0, 5.0, size=(64, 80))
        depth[rng.random(depth.shape) < 0.2] = 0.0
        whole = backproject_grid(depth, cam)
        for n in self.SIZES:
            for rows in (np.sort(rng.choice(depth.size, n, replace=False)),
                         rng.integers(0, depth.size, n)):      # unsorted, repeats
                got = backproject_grid(depth, cam, rows)
                assert got.shape == (n, 3) and got.tobytes() == whole[rows].tobytes(), n

    def test_transformed_rows_are_the_whole_product_rows(self, rng):
        # numpy multiplies a single row through gemv, which rounded 25 of
        # 64 rows differently from gemm in a random trial; transform_points
        # must not
        for _ in range(40):
            t = random_rigid(rng)
            cloud = rng.uniform(-3.0, 3.0, size=(5120, 3))
            whole = transform_points(cloud, t)
            for n in self.SIZES:
                rows = rng.integers(0, len(cloud), n)
                got = transform_points(cloud[rows], t)
                assert got.shape == (n, 3) and got.tobytes() == whole[rows].tobytes(), n

    def test_rows_path_checks_only_the_depths_it_reads(self):
        depth = np.full((3, 4), 2.0)
        depth[0, 1], depth[1, 2], depth[2, 3] = np.nan, np.inf, -1.0
        for row, what in ((1, "non-finite"), (6, "non-finite"), (11, "negative")):
            with pytest.raises(GeometryError, match=what):
                backproject_grid(depth, _cam(), np.array([0, row]))
        np.testing.assert_array_equal(backproject_grid(depth, _cam(), np.array([0, 4, 5]))[:, 2],
                                      [2.0, 2.0, 2.0])
        with pytest.raises(GeometryError, match="non-finite"):
            backproject_grid(depth, _cam())


class TestProjection:
    def test_optical_axis_hits_principal_point(self):
        assert project_point(np.array([0.0, 0.0, 3.0]), _cam()) == (160.0, 120.0)

    def test_inverse_of_backprojection_example(self):
        x, y = project_point(np.array([0.4, 0.0, 2.0]), _cam())
        assert x == pytest.approx(260.0, abs=1e-12)
        assert y == pytest.approx(120.0, abs=1e-12)

    def test_behind_camera_rejected(self):
        with pytest.raises(BehindCameraError):
            project_point(np.array([0.1, 0.2, 0.0]), _cam())
        with pytest.raises(BehindCameraError):
            project_point(np.array([0.1, 0.2, -1.0]), _cam())

    def test_round_trip_1000_random_points(self, rng):
        cam = _cam(fx=420.0, fy=380.0, cx=161.3, cy=119.2)
        worst = 0.0
        for _ in range(1000):
            p = np.array([rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(0.5, 5.0)])
            x, y = project_point(p, cam)
            q = backproject_pixel((x, y), p[2], cam)
            worst = max(worst, np.max(np.abs(p - q)))
        assert worst < 1e-9


class TestRigidTransform:
    def test_identity_leaves_points_unchanged(self):
        t = RigidTransform.identity()
        p = np.array([0.3, -0.7, 2.2])
        q = transform_point(p, t)
        assert tuple(q) == tuple(p)

    def test_pure_translation(self):
        t = RigidTransform.from_rotation_translation(np.eye(3), [1.0, 2.0, 3.0])
        q = transform_point(np.zeros(3), t)
        assert tuple(q) == (1.0, 2.0, 3.0)

    def test_90_degree_rotation_about_z(self):
        rz = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        t = RigidTransform.from_rotation_translation(rz, [0.0, 0.0, 0.0])
        q = transform_point(np.array([1.0, 0.0, 0.0]), t)
        np.testing.assert_allclose(q, [0.0, 1.0, 0.0], atol=1e-12)

    def test_invert_identity_and_translation(self):
        assert invert_transform(RigidTransform.identity()).is_identity()
        t = RigidTransform.from_rotation_translation(np.eye(3), [1.0, 2.0, 3.0])
        np.testing.assert_allclose(invert_transform(t).translation, [-1.0, -2.0, -3.0])

    def test_inverse_round_trip_random(self, rng):
        for _ in range(50):
            t = random_rigid(rng)
            residual = compose(t, invert_transform(t)).matrix - np.eye(4)
            assert np.max(np.abs(residual)) < 1e-12

    def test_composition_associative(self, rng):
        a, b, c = (random_rigid(rng) for _ in range(3))
        left = compose(compose(a, b), c).matrix
        right = compose(a, compose(b, c)).matrix
        assert np.max(np.abs(left - right)) < 1e-12

    def test_rigidity_preserves_pairwise_distances(self, rng):
        t = random_rigid(rng)
        cloud = rng.normal(size=(40, 3))
        moved = transform_points(cloud, t)
        d0 = np.linalg.norm(cloud[:, None] - cloud[None, :], axis=2)
        d1 = np.linalg.norm(moved[:, None] - moved[None, :], axis=2)
        assert np.max(np.abs(d0 - d1)) < 1e-9

    def test_validation_rejects_broken_matrices(self, rng):
        bad_bottom = np.eye(4)
        bad_bottom[3, 0] = 0.1
        with pytest.raises(GeometryError, match="bottom row"):
            RigidTransform(bad_bottom)
        sheared = np.eye(4)
        sheared[0, 1] = 0.01
        with pytest.raises(GeometryError, match="orthonormal"):
            RigidTransform(sheared)
        mirrored = np.eye(4)
        mirrored[0, 0] = -1.0  # orthonormal but determinant -1
        with pytest.raises(GeometryError, match="determinant"):
            RigidTransform(mirrored)

    def test_camera_validation(self):
        with pytest.raises(GeometryError):
            Camera(id=0, fx=-1.0, fy=500.0, cx=0.0, cy=0.0)
        with pytest.raises(GeometryError):
            Camera(id=0, fx=500.0, fy=0.0, cx=0.0, cy=0.0)
