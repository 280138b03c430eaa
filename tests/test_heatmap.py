"""The valid-pixel mask and the 5-channel input convention."""

import numpy as np
import pytest

from posefusion.heatmap import (
    DEFAULT_EPSILON,
    BoundingBox,
    DepthImage,
    HeatmapError,
    build_input_tensor,
    valid_pixel_mask,
)

EPS = DEFAULT_EPSILON


def _depth(h=6, w=8, value=2.0):
    return DepthImage(view=0, raster=np.full((h, w), value))


def _masked(raster, box, depth):
    """The raster's logits as fusion sees them: ε off the valid pixels."""
    valid = valid_pixel_mask(box, depth)
    return np.where(valid, raster, EPS), valid


class TestMasking:
    def test_full_box_valid_depth_leaves_heatmap_unchanged(self, rng):
        raster = rng.normal(size=(6, 8))
        box = BoundingBox(view=0, person=0, x_min=0, y_min=0, x_max=8, y_max=6)
        out, valid = _masked(raster, box, _depth())
        np.testing.assert_array_equal(out, raster)
        assert valid.all()

    def test_unknown_depth_inside_box_becomes_epsilon(self):
        raster = np.ones((6, 8))
        depth = np.full((6, 8), 2.0)
        depth[3, 4] = 0.0  # unknown
        box = BoundingBox(view=0, person=0, x_min=0, y_min=0, x_max=8, y_max=6)
        out, valid = _masked(raster, box, DepthImage(view=0, raster=depth))
        assert out[3, 4] == EPS
        assert not valid[3, 4]
        assert out[0, 0] == 1.0

    def test_unit_area_box_keeps_exactly_one_pixel(self, rng):
        raster = rng.normal(size=(6, 8))
        box = BoundingBox(view=0, person=0, x_min=3, y_min=2, x_max=4, y_max=3)
        out, valid = _masked(raster, box, _depth())
        assert valid.sum() == 1 and valid[2, 3]
        assert out[2, 3] == raster[2, 3]
        others = np.delete(out.ravel(), 2 * 8 + 3)
        assert np.all(others == EPS)

    def test_survivor_count_is_box_and_depth_intersection(self, rng):
        depth = (rng.random((6, 8)) > 0.3) * 2.0
        d = DepthImage(view=0, raster=depth)
        box = BoundingBox(view=0, person=0, x_min=2, y_min=1, x_max=7, y_max=5)
        out, valid = _masked(rng.normal(size=(6, 8)), box, d)
        expected = (depth[1:5, 2:7] > 0).sum()
        assert valid.sum() == expected
        assert (out != EPS).sum() == expected

    def test_valid_pixel_mask(self):
        depth = np.full((4, 4), 3.0)
        depth[0, 0] = 0.0
        box = BoundingBox(view=0, person=0, x_min=0, y_min=0, x_max=2, y_max=2)
        mask = valid_pixel_mask(box, DepthImage(view=0, raster=depth))
        assert mask.sum() == 3 and not mask[0, 0]


class TestValidation:
    def test_degenerate_box_rejected(self):
        with pytest.raises(HeatmapError):
            BoundingBox(view=0, person=0, x_min=3, y_min=0, x_max=3, y_max=4)

    def test_box_outside_image_rejected(self):
        box = BoundingBox(view=0, person=0, x_min=0, y_min=0, x_max=10, y_max=4)
        with pytest.raises(HeatmapError, match="exceeds"):
            box.validate_within(6, 8)

    def test_negative_depth_rejected(self):
        with pytest.raises(HeatmapError):
            DepthImage(view=0, raster=np.array([[-1.0]]))


class TestInputTensor:
    def _parts(self, rng, h=6, w=8):
        colour = rng.random((3, h, w))
        depth = DepthImage(view=0, raster=rng.uniform(0.0, 4.0, size=(h, w)))
        box = BoundingBox(view=0, person=0, x_min=2, y_min=1, x_max=6, y_max=5)
        return colour, depth, box

    def test_channel_order_and_box_area(self, rng):
        colour, depth, box = self._parts(rng)
        inp = build_input_tensor(colour, depth, box)
        assert inp.shape == (5, 6, 8)
        np.testing.assert_array_equal(inp[:3], colour)
        np.testing.assert_array_equal(inp[3], depth.raster)
        assert inp[4].sum() == box.area

    def test_size_mismatch_rejected(self, rng):
        colour, depth, box = self._parts(rng)
        with pytest.raises(HeatmapError, match="size"):
            build_input_tensor(colour[:, :4, :], depth, box)

    def test_window_is_a_slice_with_clipped_colour(self, rng):
        colour, depth, box = self._parts(rng)
        colour = 1.4 * colour - 0.2
        whole = build_input_tensor(colour, depth, box)
        for window in [(0, 0, 6, 8), (1, 2, 3, 5), (5, 7, 1, 1), (0, 6, 6, 2)]:
            top, left, wh, ww = window
            part = build_input_tensor(colour, depth, box, window)
            want = whole[:, top:top + wh, left:left + ww].copy()
            want[:3] = np.clip(want[:3], 0.0, 1.0)
            np.testing.assert_array_equal(part, want)
        for window in [(-1, 0, 2, 2), (0, 0, 7, 8), (0, 7, 1, 2), (2, 2, 0, 1)]:
            with pytest.raises(HeatmapError, match="window"):
                build_input_tensor(colour, depth, box, window)

