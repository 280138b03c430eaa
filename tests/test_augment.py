"""Invertible augmentation: sampling, forward transforms, and the exact
linear inverse applied to heatmaps."""

import math

import numpy as np
import pytest

from posefusion import augment
from posefusion import tensorgrad as tg
from posefusion.augment import (
    AugmentError,
    AugmentationConfig,
    AugmentationRecord,
    InverseWarp,
    apply_to_input,
    identity_record,
    inverse_warp,
    invert_on_heatmap_tensor,
    sample_augmentation,
)
from posefusion.gradcheck import augment_adjoint_error
from posefusion.heatmap import DEFAULT_EPSILON

from conftest import float_inverse_warp

H, W = 16, 20


def _config(**overrides):
    base = dict(image_h=H, image_w=W, crop_h=12, crop_w=16,
                flip_prob=0.5, rot_deg_max=15.0)
    base.update(overrides)
    return AugmentationConfig(**base)


def _gaussian(h, w, cx, cy, sigma):
    ys, xs = np.mgrid[0:h, 0:w]
    return np.exp(-((xs - cx) ** 2 + (ys - cy) ** 2) / (2 * sigma ** 2))


def _input(rng, h=H, w=W):
    channels = np.empty((5, h, w))
    channels[:3] = rng.random((3, h, w))
    channels[3] = rng.uniform(0.5, 4.0, size=(h, w))
    channels[4] = (rng.random((h, w)) > 0.5).astype(float)
    return channels


def _warped(raster, rec, channel):
    """One raster through apply_to_input as ``channel`` of an input that
    is zero elsewhere. The depth channel (3) is a plain slice without
    rotation, exact on any values; the colour channel (0) resamples
    bilinearly, and under the identity jitter leaves values in [0, 1] as
    they are."""
    inp = np.zeros((5,) + raster.shape)
    inp[channel] = raster
    return apply_to_input(inp, rec)[channel]


class TestSampling:
    def test_deterministic_given_seed(self):
        cfg = _config()
        a = sample_augmentation(cfg, np.random.default_rng(42))
        b = sample_augmentation(cfg, np.random.default_rng(42))
        assert a == b

    def test_zero_flip_probability(self, rng):
        cfg = _config(flip_prob=0.0)
        assert not any(sample_augmentation(cfg, rng).flip for _ in range(100))

    def test_draw_statistics_over_10k(self):
        cfg = _config()
        g = np.random.default_rng(7)
        flips, rots = 0, []
        for _ in range(10_000):
            rec = sample_augmentation(cfg, g)
            flips += rec.flip
            rots.append(rec.rotation_deg)
            r0, c0, ch, cw = rec.crop
            assert 0 <= r0 <= H - ch and 0 <= c0 <= W - cw
            assert all(0.8 <= f <= 1.2 for f in rec.jitter)
        assert abs(flips / 10_000 - 0.5) < 0.02
        assert min(rots) >= -15.0 and max(rots) <= 15.0

    def test_crop_larger_than_image_rejected(self):
        with pytest.raises(AugmentError, match="crop"):
            _config(crop_h=H + 1)

    def test_record_crop_window_validated(self):
        with pytest.raises(AugmentError):
            AugmentationRecord(image_h=H, image_w=W, flip=False,
                               crop=(10, 0, 12, 16), rotation_deg=0.0,
                               jitter=(1.0, 1.0, 1.0))


class TestApplyToInput:
    def test_identity_record_is_exact_identity(self, rng):
        inp = _input(rng)
        out = apply_to_input(inp, identity_record(H, W))
        np.testing.assert_array_equal(out, inp)

    def test_flip_reverses_box_mask_columns(self, rng):
        inp = _input(rng)
        rec = AugmentationRecord(image_h=H, image_w=W, flip=True,
                                 crop=(0, 0, H, W), rotation_deg=0.0,
                                 jitter=(1.0, 1.0, 1.0))
        out = apply_to_input(inp, rec)
        np.testing.assert_array_equal(out[4], inp[4][:, ::-1])

    def test_crop_selects_window(self, rng):
        inp = _input(rng)
        rec = AugmentationRecord(image_h=H, image_w=W, flip=False,
                                 crop=(2, 3, 12, 16), rotation_deg=0.0,
                                 jitter=(1.0, 1.0, 1.0))
        out = apply_to_input(inp, rec)
        np.testing.assert_array_equal(out, inp[:, 2:14, 3:19])

    def test_rotation_keeps_mask_binary_and_area(self):
        inp = np.zeros((5, H, W))
        inp[4, 4:12, 6:14] = 1.0  # 64-pixel box mask
        rec = AugmentationRecord(image_h=H, image_w=W, flip=False,
                                 crop=(1, 2, 12, 16), rotation_deg=15.0,
                                 jitter=(1.0, 1.0, 1.0))
        out = apply_to_input(inp, rec)
        mask = out[4]
        assert set(np.unique(mask)) <= {0.0, 1.0}
        # nearest-neighbour resampling preserves the area within 5%
        assert abs(mask.sum() - 64.0) / 64.0 < 0.05

    def test_depth_never_interpolated(self, rng):
        # a depth raster holding only {0, 3} must still hold only {0, 3}
        inp = np.zeros((5, H, W))
        inp[3] = np.where(rng.random((H, W)) > 0.5, 3.0, 0.0)
        rec = AugmentationRecord(image_h=H, image_w=W, flip=True,
                                 crop=(0, 0, H, W), rotation_deg=-11.0,
                                 jitter=(1.0, 1.0, 1.0))
        out = apply_to_input(inp, rec)
        assert set(np.unique(out[3])) <= {0.0, 3.0}

    def test_jitter_touches_colour_only(self, rng):
        inp = _input(rng)
        rec = AugmentationRecord(image_h=H, image_w=W, flip=False,
                                 crop=(0, 0, H, W), rotation_deg=0.0,
                                 jitter=(1.1, 0.9, 1.15))
        out = apply_to_input(inp, rec)
        assert not np.array_equal(out[:3], inp[:3])
        np.testing.assert_array_equal(out[3:], inp[3:])
        assert out[:3].min() >= 0.0 and out[:3].max() <= 1.0

    def test_window_equals_slice_of_whole_crop(self):
        g = np.random.default_rng(3)
        inp = _input(g)
        for rec in [sample_augmentation(_config(jitter_low=0.5, jitter_high=1.5), g)
                    for _ in range(20)] + [identity_record(H, W)]:
            _, _, ch, cw = rec.crop
            whole = apply_to_input(inp, rec)
            for _ in range(3):
                wr, wc = int(g.integers(0, ch)), int(g.integers(0, cw))
                wh, ww = int(g.integers(1, ch - wr + 1)), int(g.integers(1, cw - wc + 1))
                part = apply_to_input(inp, rec, (wr, wc, wh, ww))
                np.testing.assert_array_equal(part, whole[:, wr:wr + wh, wc:wc + ww])
        with pytest.raises(AugmentError, match="window"):
            apply_to_input(inp, identity_record(H, W), (0, 0, H + 1, W))

    def test_channels_equal_per_raster_warps(self):
        # one warp pass for all five channels: colour equals the bilinear
        # warp of the jittered colour, depth and mask the nearest-neighbour
        # warp, bit for bit, on whole crops and on windows of them
        g = np.random.default_rng(5)
        inp = _input(g)
        colour = inp[:3]
        records = [sample_augmentation(_config(jitter_low=0.5, jitter_high=1.5), g)
                   for _ in range(20)]
        assert any(r.flip for r in records) and all(r.rotation_deg != 0.0 for r in records)
        for rec in records:
            mean = augment._grey(colour * rec.jitter[0]).mean()
            jittered = augment._apply_jitter(colour, rec.jitter, mean)
            want = np.stack([_frozen_geometric(c, rec, bilinear=True) for c in jittered]
                            + [_frozen_geometric(c, rec, bilinear=False) for c in inp[3:]])
            _, _, ch, cw = rec.crop
            windows = [(0, 0, ch, cw)]
            for _ in range(3):
                wr, wc = int(g.integers(0, ch)), int(g.integers(0, cw))
                windows.append((wr, wc, int(g.integers(1, ch - wr + 1)),
                                int(g.integers(1, cw - wc + 1))))
            for wr, wc, wh, ww in windows:
                got = apply_to_input(inp, rec, (wr, wc, wh, ww))
                assert np.array_equal(got, want[:, wr:wr + wh, wc:wc + ww]), (rec, wr, wc)


def _inverted(raster, rec):
    """The inverse augmentation of one augmented raster: the flat
    original-frame pixels that have a pre-image in the crop, and their
    values."""
    rows = inverse_warp(rec).rows
    return rows, invert_on_heatmap_tensor(None, tg.Tensor(raster[None]), rec).values[0]


class TestInvertOnHeatmap:
    def test_flip_involution_is_bit_exact(self, rng):
        raster = rng.normal(size=(H, W))
        rec = AugmentationRecord(image_h=H, image_w=W, flip=True,
                                 crop=(0, 0, H, W), rotation_deg=0.0,
                                 jitter=(1.0, 1.0, 1.0))
        flipped = _warped(raster, rec, 3)
        rows, back = _inverted(flipped, rec)
        np.testing.assert_array_equal(rows, np.arange(H * W))
        np.testing.assert_array_equal(back, raster.ravel())

    def test_crop_inverse_identity_on_retained_pixels(self, rng):
        raster = rng.normal(size=(H, W))
        rec = AugmentationRecord(image_h=H, image_w=W, flip=False,
                                 crop=(2, 3, 12, 16), rotation_deg=0.0,
                                 jitter=(1.0, 1.0, 1.0))
        cropped = _warped(raster, rec, 3)
        rows, back = _inverted(cropped, rec)
        retained = np.zeros((H, W), dtype=bool)
        retained[2:14, 3:19] = True
        # pixels cropped away have no pre-image, so the map leaves them out
        np.testing.assert_array_equal(rows, np.flatnonzero(retained))
        np.testing.assert_array_equal(back, raster.ravel()[rows])

    def test_rotation_round_trip_on_smooth_gaussian(self):
        for deg in (-15.0, -10.0, 10.0, 15.0):
            raster = _gaussian(H, W, cx=9.0, cy=8.0, sigma=2.5)
            rec = AugmentationRecord(image_h=H, image_w=W, flip=False,
                                     crop=(0, 0, H, W), rotation_deg=deg,
                                     jitter=(1.0, 1.0, 1.0))
            rotated = _warped(raster, rec, 0)
            rows, back = _inverted(rotated, rec)
            # exclude pixels whose forward image touched the frame edge
            row, col = np.divmod(rows, W)
            interior = (row >= 2) & (row < H - 2) & (col >= 2) & (col < W - 2)
            assert np.max(np.abs(back - raster.ravel()[rows])[interior]) < 0.05

    def test_inverse_map_is_linear(self, rng):
        rec = AugmentationRecord(image_h=H, image_w=W, flip=True,
                                 crop=(1, 2, 12, 16), rotation_deg=8.0,
                                 jitter=(1.0, 1.0, 1.0))
        a = rng.normal(size=(12, 16))
        b = rng.normal(size=(12, 16))
        alpha, beta = 1.7, -0.6

        def inv(r):
            return _inverted(r, rec)[1]

        combo = inv(alpha * a + beta * b)
        parts = alpha * inv(a) + beta * inv(b)
        assert np.max(np.abs(combo - parts)) < 1e-12

    def test_adjoint_matches_finite_differences(self):
        assert augment_adjoint_error(seed=0) < 1e-6

    def test_identity_tensor_path_matches_pure_path(self, rng):
        # a (J, h, w) stack inverts row by row, as J single rasters do;
        # a warp on a mask's footprint reads a window of the crop and
        # gives the whole-crop map's values at the mask's pixels with a
        # pre-image
        rec = AugmentationRecord(image_h=H, image_w=W, flip=True,
                                 crop=(1, 2, 12, 16), rotation_deg=-7.0,
                                 jitter=(1.0, 1.0, 1.0))
        stack = rng.normal(size=(3, 12, 16))
        rows = inverse_warp(rec).rows
        whole = invert_on_heatmap_tensor(None, tg.Tensor(stack), rec).values
        for j in range(3):
            np.testing.assert_array_equal(whole[j], _inverted(stack[j], rec)[1])

        keep = np.zeros((H, W), dtype=bool)
        keep[3:9, 2:15] = True
        warp = inverse_warp(rec, keep)
        assert np.all(keep.ravel()[warp.rows]) and 0 < warp.rows.size < keep.sum()
        np.testing.assert_array_equal(warp.rows, rows[keep.ravel()[rows]])
        top, left, wh, ww = warp.window
        out_w = invert_on_heatmap_tensor(
            None, tg.Tensor(stack[:, top:top + wh, left:left + ww]), rec, warp)
        np.testing.assert_allclose(out_w.values, whole[:, np.searchsorted(rows, warp.rows)],
                                   rtol=0, atol=1e-15)

    @pytest.mark.parametrize("rotation_deg", [0.0, 8.5])
    def test_output_layout_is_transpose_of_pixel_major_array(self, rng, rotation_deg):
        # the (J, n) activations keep the layout of src[:, idx]: fusion's
        # products take their BLAS path from it, so a C-contiguous copy
        # could differ in the last bit
        rec = AugmentationRecord(image_h=H, image_w=W, flip=True,
                                 crop=(1, 2, 12, 16), rotation_deg=rotation_deg,
                                 jitter=(1.0, 1.0, 1.0))
        keep = np.zeros((H, W), dtype=bool)
        keep[3:9, 2:15] = True
        warp = inverse_warp(rec, keep)
        j, (_, _, wh, ww) = 5, warp.window
        out = invert_on_heatmap_tensor(None, tg.Tensor(rng.normal(size=(j, wh, ww))),
                                       rec, warp).values
        assert out.shape == (j, warp.rows.size) and warp.rows.size > 1
        assert out.strides == (8, 8 * j)
        assert out.flags.f_contiguous and not out.flags.c_contiguous
        assert out.flags.owndata and out.flags.writeable and out.flags.aligned

    def test_shape_mismatch_rejected(self):
        rec = AugmentationRecord(image_h=H, image_w=W, flip=False,
                                 crop=(0, 0, 12, 16), rotation_deg=0.0,
                                 jitter=(1.0, 1.0, 1.0))
        with pytest.raises(AugmentError):
            invert_on_heatmap_tensor(None, tg.Tensor(np.zeros((1, H, W))), rec)


class TestPipelineEquivariance:
    def test_fusion_after_inversion_matches_unaugmented_fusion(self, rng):
        """With oracle heatmaps generated in the augmented frame, inverting
        and fusing must reproduce the no-augmentation fusion. Exact for
        flip and crop; the rotation discrepancy is reported, not asserted
        (bilinear resampling tolerance)."""
        from posefusion.data import generate_synthetic, make_target_heatmaps
        from posefusion.gradcheck import tiny_synth_config
        from posefusion.fusion import JOINT_NAMES
        from posefusion import pipeline as P

        scenes, _ = generate_synthetic(tiny_synth_config(3))
        scene = scenes[0]
        person = 0
        support = scene.supporting_views(person)

        def fused_with(records):
            oracle = {}
            for v in support:
                base = make_target_heatmaps(scene, v, person, sigma=1.5, amplitude=3.0)
                if records is None:
                    oracle[v] = base
                else:
                    rec = records[v]
                    # the colour channel carries heatmaps at a quarter
                    # scale, inside [0, 1]; a power of two scales exactly
                    augmented = np.stack([_warped(base[j] / 4, rec, 0) * 4
                                          for j in range(len(JOINT_NAMES))])
                    # pixels with no pre-image carry ε, so fusion gives
                    # them no weight
                    back = np.full(base.shape, DEFAULT_EPSILON)
                    back.reshape(len(JOINT_NAMES), -1)[:, inverse_warp(rec).rows] = \
                        invert_on_heatmap_tensor(None, tg.Tensor(augmented), rec).values
                    oracle[v] = back
            fw = P.forward_scene(None, scene, person, None, None, oracle_heatmaps=oracle)
            return P.fused_centers(None, fw).values

        baseline = fused_with(None)

        flip_crop = {v: AugmentationRecord(
            image_h=scene.views[v].height, image_w=scene.views[v].width,
            flip=(v % 2 == 0), crop=(1, 1, scene.views[v].height - 2,
                                     scene.views[v].width - 2),
            rotation_deg=0.0, jitter=(1.0, 1.0, 1.0)) for v in support}
        delta_fc = np.max(np.abs(fused_with(flip_crop) - baseline))
        # flip/crop retain in-crop activations exactly; only activations
        # cropped away can shift the softmax, and the person sits inside
        assert delta_fc < 1e-6

        rotated = {v: AugmentationRecord(
            image_h=scene.views[v].height, image_w=scene.views[v].width,
            flip=False, crop=(0, 0, scene.views[v].height, scene.views[v].width),
            rotation_deg=(-12.0, 9.0, 14.0)[v % 3], jitter=(1.0, 1.0, 1.0))
            for v in support}
        delta_rot = np.max(np.abs(fused_with(rotated) - baseline))
        print(f"\nrotation equivariance deviation: {delta_rot * 100:.3f} cm "
              f"(bilinear resampling, reported only)")
        assert np.isfinite(delta_rot)


# ---------------------------------------------------------------------------
# Frozen copies of the warps from when the forward warp and the inverse map
# each had their own rotation and their own bilinear taps. The shared
# geometry must keep their bits.


def _frozen_rotation_sources(h, w, deg, ys, xs):
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    rad = math.radians(deg)
    cos, sin = math.cos(rad), math.sin(rad)
    dx, dy = xs - cx, ys - cy
    return cos * dx + sin * dy + cx, -sin * dx + cos * dy + cy


class _FrozenWindowWarp:
    """Flip, rotation and crop of an (H, W) image, computing only
    ``window`` of the crop; the image is flipped before it is sampled."""

    def __init__(self, rec, window):
        self.rec = rec
        r0, c0, _, _ = rec.crop
        wr, wc, self.wh, self.ww = window
        self.top, self.left = r0 + wr, c0 + wc
        if rec.rotation_deg != 0.0:
            self.sx, self.sy = _frozen_rotation_sources(
                rec.image_h, rec.image_w, rec.rotation_deg,
                np.arange(self.top, self.top + self.wh)[:, None],
                np.arange(self.left, self.left + self.ww))

    def sample(self, channels, bilinear, pointwise=None):
        if self.rec.rotation_deg == 0.0:
            if self.rec.flip:
                channels = channels[:, :, ::-1]
            src = channels[:, self.top:self.top + self.wh, self.left:self.left + self.ww]
            return pointwise(src) if pointwise is not None else src.copy()
        v, inside = self._bilinear(channels, pointwise) if bilinear else self._nearest(channels)
        return np.where(inside, v, 0.0)

    def _bilinear(self, channels, pointwise):
        h, w = self.rec.image_h, self.rec.image_w
        sx, sy = self.sx, self.sy
        if self.rec.flip:
            channels = channels[:, :, ::-1]
        inside = (sx >= 0) & (sx <= w - 1) & (sy >= 0) & (sy <= h - 1)
        x0 = np.minimum(np.maximum(np.floor(sx), 0), w - 2).astype(np.intp)
        y0 = np.minimum(np.maximum(np.floor(sy), 0), h - 2).astype(np.intp)
        fx, fy = sx - x0, sy - y0
        wx0, wy0 = 1 - fx, 1 - fy
        if pointwise is not None:
            y_lo, x_lo = y0.min(), x0.min()
            channels = pointwise(channels[:, y_lo:y0.max() + 2, x_lo:x0.max() + 2])
            y0 -= y_lo
            x0 -= x_lo
        row = channels.shape[2]
        flat = np.ascontiguousarray(channels).reshape(channels.shape[0], -1)
        i = y0 * row
        i += x0
        v = np.take(flat, i, axis=1) * (wx0 * wy0)
        i += 1
        v += np.take(flat, i, axis=1) * (fx * wy0)
        i += row - 1
        v += np.take(flat, i, axis=1) * (wx0 * fy)
        i += 1
        v += np.take(flat, i, axis=1) * (fx * fy)
        return v, inside

    def _nearest(self, channels):
        h, w = self.rec.image_h, self.rec.image_w
        xn = np.rint(self.sx).astype(np.intp)
        yn = np.rint(self.sy).astype(np.intp)
        inside = (xn >= 0) & (xn <= w - 1) & (yn >= 0) & (yn <= h - 1)
        i = np.minimum(np.maximum(yn, 0), h - 1) * w
        xn = np.minimum(np.maximum(xn, 0), w - 1)
        i += (w - 1) - xn if self.rec.flip else xn
        flat = np.ascontiguousarray(channels).reshape(channels.shape[0], -1)
        return np.take(flat, i, axis=1), inside


def _frozen_geometric(raster, rec, bilinear):
    """Flip, rotation and crop of one raster."""
    _, _, ch, cw = rec.crop
    return _FrozenWindowWarp(rec, (0, 0, ch, cw)).sample(raster[None], bilinear)[0]


def _frozen_apply_to_input(inp, rec, window):
    colour = inp[:3]
    brightness, contrast, _ = rec.jitter
    mean = augment._grey(colour * brightness).mean() if contrast != 1.0 else None
    warp = _FrozenWindowWarp(rec, window)
    return np.concatenate([
        warp.sample(colour, True, lambda c: augment._apply_jitter(c, rec.jitter, mean)),
        warp.sample(inp[3:], False),
    ])


def _frozen_rotated_inverse_warp(rec, keep):
    """The footprint inverse warp of a record with rotation."""
    h, w = rec.image_h, rec.image_w
    r0, c0, ch, cw = rec.crop
    q = np.flatnonzero(keep)
    ys, xs = np.divmod(q, w)
    if rec.flip:
        xs = (w - 1) - xs
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    rad = math.radians(rec.rotation_deg)
    cos, sin = math.cos(rad), math.sin(rad)
    dx, dy = xs - cx, ys - cy
    xs = cos * dx - sin * dy + cx - c0
    ys = sin * dx + cos * dy + cy - r0
    valid = (xs >= 0) & (xs <= cw - 1) & (ys >= 0) & (ys <= ch - 1)
    rows, xs, ys = q[valid], xs[valid], ys[valid]
    x0 = np.minimum(np.maximum(np.floor(xs), 0), max(cw - 2, 0)).astype(np.intp)
    y0 = np.minimum(np.maximum(np.floor(ys), 0), max(ch - 2, 0)).astype(np.intp)
    x1 = np.minimum(x0 + 1, cw - 1)
    y1 = np.minimum(y0 + 1, ch - 1)
    fx, fy = xs - x0, ys - y0
    wx0, wy0 = 1 - fx, 1 - fy
    tap_y = np.array([y0, y0, y1, y1])
    tap_x = np.array([x0, x1, x0, x1])
    window = (0, 0, 0, 0)
    if rows.size:
        top, left = int(tap_y[0].min()), int(tap_x[0].min())
        window = (top, left, int(tap_y[-1].max()) + 1 - top, int(tap_x[-1].max()) + 1 - left)
    idx = (tap_y - window[0]) * window[3] + tap_x - window[1]
    return InverseWarp(rows=rows, idx=idx, wts=np.array([wx0 * wy0, fx * wy0, wx0 * fy, fx * fy]),
                       window=window)


def _bits(a):
    return a.view(np.uint64)


class TestOneGeometry:
    """The forward warp and the inverse map share one rotation and one
    rule for bilinear taps. apply_to_input must give the frozen forward
    warp's bits, and inverse_warp those of the frozen inverse maps, over
    random records: flips, rotations up to 45°, crops one row or one
    column thin, windows of the crop and random masks of kept pixels."""

    @staticmethod
    def _records(g, n):
        for k in range(n):
            h, w = int(g.integers(2, 24)), int(g.integers(2, 24))
            ch = 1 if k % 4 == 0 else int(g.integers(1, h + 1))
            cw = 1 if k % 4 == 1 else int(g.integers(1, w + 1))
            crop = (int(g.integers(0, h - ch + 1)), int(g.integers(0, w - cw + 1)), ch, cw)
            yield AugmentationRecord(
                image_h=h, image_w=w, flip=bool(g.random() < 0.5), crop=crop,
                rotation_deg=0.0 if k % 5 == 0 else float(g.uniform(-45.0, 45.0)),
                jitter=tuple(float(f) for f in g.uniform(0.5, 1.5, size=3)))

    def test_apply_to_input_matches_frozen_warp(self):
        g = np.random.default_rng(29)
        for rec in self._records(g, 400):
            inp = _input(g, rec.image_h, rec.image_w)
            _, _, ch, cw = rec.crop
            windows = [(0, 0, ch, cw)]
            for _ in range(2):
                wr, wc = int(g.integers(0, ch)), int(g.integers(0, cw))
                windows.append((wr, wc, int(g.integers(1, ch - wr + 1)),
                                int(g.integers(1, cw - wc + 1))))
            for window in windows:
                got = apply_to_input(inp, rec, window)
                want = _frozen_apply_to_input(inp, rec, window)
                assert got.shape == want.shape, (rec, window)
                assert np.array_equal(_bits(got), _bits(want)), (rec, window)

    def test_inverse_warp_matches_frozen_maps(self):
        g = np.random.default_rng(30)
        for rec in self._records(g, 400):
            h, w = rec.image_h, rec.image_w
            frozen = float_inverse_warp if rec.rotation_deg == 0.0 else _frozen_rotated_inverse_warp
            every = np.ones((h, w), dtype=bool)
            for keep in (None, g.random((h, w)) < g.random(), np.zeros((h, w), dtype=bool)):
                got = inverse_warp(rec, keep)
                want = frozen(rec, every if keep is None else keep)
                assert got.window == want.window, rec
                for field in ("rows", "idx", "wts"):
                    a, b = getattr(got, field), getattr(want, field)
                    assert a.dtype == b.dtype and a.shape == b.shape, (rec, field)
                    assert np.array_equal(_bits(a), _bits(b)), (rec, field)
