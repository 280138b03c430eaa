"""Predictor, per-person forward chain, training loops, and evaluation."""

import dataclasses
import json

import numpy as np
import pytest

from posefusion import pipeline as P
from posefusion.augment import (
    AugmentationConfig,
    AugmentationRecord,
    InverseWarp,
    apply_to_input,
    identity_record,
    inverse_warp,
    invert_on_heatmap_tensor,
    sample_augmentation,
)
from posefusion.data import Scene, SceneView, SynthConfig, generate_synthetic
from posefusion.fusion import (
    JOINT_NAMES,
    _multi_view_soft_centers,
    soft_center_stack,
    view_cloud_coords,
)
from posefusion.geometry import Camera
from posefusion.gradcheck import tiny_synth_config
from posefusion.heatmap import (
    DEFAULT_EPSILON,
    BoundingBox,
    DepthImage,
    build_input_tensor,
    valid_pixel_mask,
)
from posefusion.pipeline import (
    PipelineError,
    ToyPredictor,
    TrainConfig,
    evaluate,
    forward_scene,
    train,
)
from posefusion.tensorgrad import Tape, Tensor, backward, finite_difference_check


@pytest.fixture(scope="module")
def tiny_scenes():
    cfg = tiny_synth_config(seed=2)
    cfg = SynthConfig(**{**cfg.__dict__, "train_scenes": 4, "test_scenes": 2,
                         "max_persons": 2})
    return generate_synthetic(cfg)


class TestToyPredictor:
    def test_output_shape_matches_input_with_joint_channels(self, rng):
        p = ToyPredictor.initialise(0)
        out = p.forward(None, rng.random((5, 12, 14)))
        assert out.shape == (len(JOINT_NAMES), 12, 14)

    def test_final_layer_is_linear(self):
        # doubling the last conv's weights and bias doubles the output of a
        # frozen feature stack; a nonlinearity would break proportionality
        rng = np.random.default_rng(0)
        p = ToyPredictor.initialise(0)
        x = rng.random((5, 8, 10))
        base = p.forward(None, x).values
        p.params["conv3_w"].values *= 2.0
        p.params["conv3_b"].values *= 2.0
        assert np.allclose(p.forward(None, x).values, 2.0 * base, atol=1e-12)

    def test_checkpoint_round_trip(self, tmp_path):
        p = ToyPredictor.initialise(3)
        p.save(tmp_path / "m.ckpt", extra={"mode": "proposed-3d"})
        q, extra = ToyPredictor.load(tmp_path / "m.ckpt")
        assert extra["mode"] == "proposed-3d"
        for k in p.params:
            np.testing.assert_array_equal(p.params[k].values, q.params[k].values)

    def test_margins_validated(self, rng):
        p = ToyPredictor.initialise(0)
        with pytest.raises(PipelineError, match="margins"):
            p.forward(None, rng.random((5, 12, 14)), (0, 0, P.HALO + 1, 0))


class TestForwardScene:
    def test_zero_weight_predictor_predicts_valid_pixel_centroid(self, tiny_scenes):
        train_s, _ = tiny_scenes
        scene = train_s[0]
        p = ToyPredictor.initialise(0)
        for k in p.params:
            p.params[k].values[:] = 0.0
        forwards = forward_scene(p, scene, 0, None, None)
        centers = P.fused_centers(None, forwards).values
        for f in forwards:
            np.testing.assert_array_equal(f.rows, np.flatnonzero(f.valid))
        coords = np.concatenate([f.cloud for f in forwards], axis=0)
        valid = np.concatenate([f.valid.ravel() for f in forwards])
        expected = coords[valid].mean(axis=0)
        for j in range(len(JOINT_NAMES)):
            np.testing.assert_allclose(centers[j], expected, atol=1e-9)

    def test_identity_records_match_no_record_path(self, tiny_scenes):
        from posefusion.augment import identity_record
        train_s, _ = tiny_scenes
        scene = train_s[0]
        p = ToyPredictor.initialise(4)
        recs = {sv.view: identity_record(sv.height, sv.width) for sv in scene.views}
        a = forward_scene(p, scene, 0, recs, None)
        b = forward_scene(p, scene, 0, None, None)
        for fa, fb in zip(a, b):
            np.testing.assert_array_equal(fa.rows, fb.rows)
            np.testing.assert_array_equal(fa.acts.values, fb.acts.values)

    def test_per_view_purity_under_box_removal(self, tiny_scenes):
        # shared weights: a view's activations must not depend on
        # which other views are in the person's batch
        import copy
        train_s, _ = tiny_scenes
        scene = train_s[0]
        p = ToyPredictor.initialise(5)
        full = forward_scene(p, scene, 0, None, None)
        reduced_scene = copy.deepcopy(scene)
        kept = full[0].view
        for sv in reduced_scene.views:
            if sv.view != kept:
                sv.boxes.pop(0, None)
        reduced = forward_scene(p, reduced_scene, 0, None, None)
        assert [f.view for f in reduced] == [kept]
        np.testing.assert_array_equal(reduced[0].rows, full[0].rows)
        np.testing.assert_allclose(reduced[0].acts.values, full[0].acts.values,
                                   atol=1e-12)

    def test_no_supporting_views_returns_empty(self, tiny_scenes):
        import copy
        train_s, _ = tiny_scenes
        scene = copy.deepcopy(train_s[0])
        for sv in scene.views:
            sv.boxes.clear()
        assert forward_scene(ToyPredictor.initialise(0), scene, 0, None, None) == []

    def test_first_layer_weight_gradient_matches_fd(self, tiny_scenes):
        # seed chosen so no relu preactivation sits inside the central
        # difference window; a kink there corrupts the FD oracle itself
        train_s, _ = tiny_scenes
        scene = train_s[0]
        base = ToyPredictor.initialise(0)

        def fn(tape, v):
            params = dict(base.params)
            params["conv1_w"] = v
            loss = P._person_loss_3d(tape, forward_scene(ToyPredictor(params),
                                                         scene, 0, None, tape),
                                     scene.gt_pose3(0))
            return loss

        err = finite_difference_check(fn, base.params["conv1_w"], 1e-5)
        assert err < 1e-4


def _take(tape, t, cols):
    """Tape node selecting columns ``cols`` of a (J, m) tensor."""
    out = Tensor(t.values[:, cols], requires_grad=t.requires_grad)

    def vjp(g):
        full = np.zeros(t.shape)
        full[:, cols] = g
        return (full,)

    if tape is not None and out.requires_grad:
        tape.record((t,), out, vjp, "take")
    return out


def _whole_crop_forward(predictor, scene, person, records, tape):
    """Reference for forward_scene: the predictor runs on the whole
    augmented crop, the inverse warp maps every pixel with a pre-image,
    and a separate node keeps those among the valid pixels."""
    out = []
    for sv in scene.views:
        if person not in sv.boxes:
            continue
        box = sv.boxes[person]
        valid = valid_pixel_mask(box, sv.depth)
        rec = records[sv.view]
        inp = build_input_tensor(sv.colour, sv.depth, box)
        inv = invert_on_heatmap_tensor(tape, predictor.forward(tape, apply_to_input(inp, rec)), rec)
        every = inverse_warp(rec).rows
        keep = valid.ravel()[every]
        out.append(P.ViewForward(sv.view, _take(tape, inv, np.flatnonzero(keep)),
                                 every[keep], valid, view_cloud_coords(sv.depth, sv.camera)))
    return out


def _box_free_crop(sv, person, size=12):
    """A record whose crop is a corner of the image clear of the person's box."""
    box = sv.boxes[person]
    for r0 in (0, sv.height - size):
        for c0 in (0, sv.width - size):
            if (r0 + size <= box.y_min or r0 >= box.y_max
                    or c0 + size <= box.x_min or c0 >= box.x_max):
                return AugmentationRecord(image_h=sv.height, image_w=sv.width, flip=False,
                                          crop=(r0, c0, size, size), rotation_deg=0.0,
                                          jitter=(1.0, 1.0, 1.0))
    raise AssertionError("every corner crop overlaps the box")


@pytest.fixture(scope="module")
def cases():
    """(kind, scene, person, records): persons seen in one, two and three
    views (occluded views), each under identity records, sampled records
    (flip and rotation), crops that remove the person's box, and, when
    seen in several views, sampled records but one such crop."""
    _, scenes = generate_synthetic(SynthConfig(seed=12, train_scenes=0, test_scenes=4,
                                               occlusion_drop=0.35))
    rng = np.random.default_rng(0)
    out = []
    for scene in scenes:
        for person in scene.persons():
            views = [sv for sv in scene.views if person in sv.boxes]
            aug = AugmentationConfig(image_h=scene.views[0].height,
                                     image_w=scene.views[0].width, crop_h=56, crop_w=72)
            out.append(("identity", scene, person,
                        {sv.view: identity_record(sv.height, sv.width) for sv in views}))
            out.append(("sampled", scene, person,
                        {sv.view: sample_augmentation(aug, rng) for sv in views}))
            out.append(("box cropped away", scene, person,
                        {sv.view: _box_free_crop(sv, person) for sv in views}))
            if len(views) > 1:
                records = {sv.view: sample_augmentation(aug, rng) for sv in views}
                records[views[0].view] = _box_free_crop(views[0], person)
                out.append(("box cropped away in one view", scene, person, records))
    return out


class TestWindowedForward:
    """forward_scene runs augmentation on the inverse warp's footprint
    grown by HALO, and each predictor layer only on what the next one
    reads; its fused pixels, activations, losses and gradients must equal
    those of the whole-crop path. The fused pixels match exactly. The
    activations agree within 1e-13 of the largest of them: a gemm over
    fewer columns may round its last bits differently."""

    def test_cases_cover_view_counts_and_records(self, cases):
        counts = {len(records) for _kind, _scene, _person, records in cases}
        assert counts == {1, 2, 3}
        sampled = [r for kind, *_rest, recs in cases if kind == "sampled" for r in recs.values()]
        assert any(r.flip for r in sampled) and all(r.rotation_deg != 0.0 for r in sampled)

    @pytest.mark.parametrize("mode", ["proposed-3d", "baseline-2d"])
    def test_matches_whole_crop_path(self, cases, mode):
        predictor = ToyPredictor.initialise(7)
        for kind, scene, person, records in cases:
            results = []
            for run in (P.forward_scene, _whole_crop_forward):
                tape = Tape()
                forwards = run(predictor, scene, person, records, tape)
                if mode == "proposed-3d":
                    loss = P._person_loss_3d(tape, forwards, scene.gt_pose3(person))
                else:
                    loss = P._person_loss_2d(tape, forwards, scene, person)
                grads = backward(tape, loss) if loss is not None else {}
                results.append((forwards, loss, grads))
            (got, loss, grads), (want, ref_loss, ref_grads) = results
            where = f"{kind}, {scene.id} person {person}"
            assert [f.view for f in got] == [f.view for f in want], where
            for f, r in zip(got, want):
                assert np.array_equal(f.rows, r.rows), where
                assert f.acts.shape == (len(JOINT_NAMES), r.rows.size), where
                if r.rows.size:
                    scale = np.abs(r.acts.values).max()
                    diff = np.abs(f.acts.values - r.acts.values).max()
                    assert diff <= 1e-13 * scale, (where, diff / scale)
            if kind == "box cropped away":
                assert all(f.rows.size == 0 for f in got), where
            if ref_loss is None:
                assert loss is None, where
                continue
            assert abs(loss.item() - ref_loss.item()) <= 1e-15 * abs(ref_loss.item()), where
            params = predictor.params.values()
            largest = max(np.abs(ref_grads.get(p, 0.0)).max() for p in params)
            for name, p in predictor.params.items():
                diff = np.abs(grads.get(p, 0.0) - ref_grads.get(p, 0.0)).max()
                assert diff <= 1e-12 * largest, (where, name, diff)


def _float_inverse_warp(rec, keep):
    """The footprint inverse warp of a record without rotation, in the
    float arithmetic it had before it became an integer index map."""
    h, w = rec.image_h, rec.image_w
    r0, c0, ch, cw = rec.crop
    q = np.flatnonzero(keep)
    ys, xs = np.divmod(q, w)
    if rec.flip:
        xs = (w - 1) - xs
    xs = xs.astype(np.float64) - c0
    ys = ys.astype(np.float64) - r0
    inside = (xs >= 0) & (xs <= cw - 1) & (ys >= 0) & (ys <= ch - 1)
    rows = q[inside]
    tap_y, tap_x = ys[inside].astype(np.intp)[None], xs[inside].astype(np.intp)[None]
    window = (0, 0, 0, 0)
    if rows.size:
        top, left = int(tap_y.min()), int(tap_x.min())
        window = (top, left, int(tap_y.max()) + 1 - top, int(tap_x.max()) + 1 - left)
    idx = (tap_y - window[0]) * window[3] + tap_x - window[1]
    return InverseWarp(rows=rows, idx=idx, wts=np.ones((1, rows.size)), window=window)


def _warp_route_forward(predictor, scene, person, records, tape, coords_cache=None):
    """forward_scene as every view ran it before un-augmented views skipped
    augmentation: the whole input built, its window augmented by
    apply_to_input, and the activations inverted through the float warp.
    Records without rotation only; ``coords_cache`` is ignored."""
    out = []
    for sv in scene.views:
        if person not in sv.boxes:
            continue
        box = sv.boxes[person]
        valid = valid_pixel_mask(box, sv.depth)
        rec = records.get(sv.view) if records else None
        if rec is None:
            rec = identity_record(sv.height, sv.width)
        warp = _float_inverse_warp(rec, valid)
        heat = Tensor(np.zeros((len(JOINT_NAMES), 0, 0)))
        if warp.rows.size:
            window, margins = P._input_window(rec, warp.window)
            inp = apply_to_input(build_input_tensor(sv.colour, sv.depth, box), rec, window)
            heat = predictor.forward(tape, inp, margins)
        out.append(P.ViewForward(sv.view, invert_on_heatmap_tensor(tape, heat, rec, warp),
                                 warp.rows, valid, view_cloud_coords(sv.depth, sv.camera)))
    return out


# (x_min, y_min, x_max, y_max) of one person's box in each view of a 12x16
# image: on the top, bottom, left and right borders (the predictor's input
# window is cut short there, margins < HALO), covering the image, one
# pixel (inside, in a corner, on a border), and over unknown depth only
_BORDER_BOXES = [(2, 0, 7, 4), (9, 8, 14, 12), (0, 3, 4, 9), (11, 2, 16, 7), (0, 0, 16, 12),
                 (7, 5, 8, 6), (15, 11, 16, 12), (0, 7, 1, 8), (10, 0, 13, 3)]


def _border_scene():
    """One person seen in a view per box of _BORDER_BOXES. Depth has holes
    (and none at the one-pixel boxes) and is unknown under the last box;
    colour reaches outside [0, 1], which an identity augmentation clips."""
    rng = np.random.default_rng(11)
    h, w = 12, 16
    depth = rng.uniform(1.0, 4.0, size=(h, w))
    depth[rng.random((h, w)) < 0.15] = 0.0
    for x0, y0, x1, y1 in _BORDER_BOXES[5:8]:
        depth[y0, x0] = 2.5
    depth[0:3, 10:13] = 0.0
    views = []
    for v, (x0, y0, x1, y1) in enumerate(_BORDER_BOXES):
        views.append(SceneView(
            view=v, camera=Camera(id=v, fx=14.0, fy=14.0, cx=7.5, cy=5.5),
            colour=rng.uniform(-0.2, 1.2, size=(3, h, w)),
            depth=DepthImage(view=v, raster=depth),
            boxes={0: BoundingBox(view=v, person=0, x_min=x0, y_min=y0, x_max=x1, y_max=y1)}))
    pose = {name: np.array([0.1 * j, -0.05 * j, 2.0]) for j, name in enumerate(JOINT_NAMES)}
    return Scene(id="borders", views=views, n_persons=1, joints3d={0: pose},
                 joints2d={}, visibility={})


def _layout(a):
    return (a.shape, a.strides, a.flags.c_contiguous, a.flags.f_contiguous,
            a.flags.owndata, a.flags.writeable, a.flags.aligned)


class TestUnaugmentedPath:
    """A view without augmentation (no record, or an identity record)
    builds only the input window its predictor reads and inverts through
    the valid pixels' index map into the footprint. It must give the
    augmenting route's bits: activation values and layout, rows, window,
    and with a tape the gradients."""

    def test_border_scene_covers_margins_and_sizes(self):
        scene = _border_scene()
        cut = set()
        sizes = []
        for sv in scene.views:
            valid = valid_pixel_mask(sv.boxes[0], sv.depth)
            sizes.append(int(valid.sum()))
            warp = inverse_warp(identity_record(12, 16), valid, footprint=True)
            if warp.rows.size:
                _, margins = P._input_window(identity_record(12, 16), warp.window)
                cut |= {side for side, m in enumerate(margins) if m < P.HALO}
        assert cut == {0, 1, 2, 3}
        assert sizes.count(1) == 3 and sizes[-1] == 0 and sizes[4] < 12 * 16

    def test_window_and_index_map_match_the_warp_route(self):
        scene = _border_scene()
        for sv in scene.views:
            box = sv.boxes[0]
            valid = valid_pixel_mask(box, sv.depth)
            ident = identity_record(sv.height, sv.width)
            flipped = dataclasses.replace(ident, flip=True)
            cropped = dataclasses.replace(ident, crop=(1, 2, 10, 11))
            for rec in (ident, flipped, cropped):
                got, want = inverse_warp(rec, valid, footprint=True), _float_inverse_warp(rec, valid)
                assert got.window == want.window, (sv.view, rec)
                for field in ("rows", "idx", "wts"):
                    a, b = getattr(got, field), getattr(want, field)
                    assert a.dtype == b.dtype and np.array_equal(a, b), (sv.view, rec, field)
            warp = inverse_warp(ident, valid, footprint=True)
            if not warp.rows.size:
                continue
            window, _ = P._input_window(ident, warp.window)
            direct = build_input_tensor(sv.colour, sv.depth, box, window)
            routed = apply_to_input(build_input_tensor(sv.colour, sv.depth, box), ident, window)
            assert _layout(direct) == _layout(routed), sv.view
            assert direct.tobytes() == routed.tobytes(), sv.view

    @pytest.mark.parametrize("with_tape", [False, True])
    @pytest.mark.parametrize("record", [False, True])
    def test_matches_the_warp_route(self, with_tape, record):
        scene = _border_scene()
        records = ({sv.view: identity_record(sv.height, sv.width) for sv in scene.views}
                   if record else None)
        predictor = ToyPredictor.initialise(2)
        runs = []
        for run in (forward_scene, _warp_route_forward):
            tape = Tape() if with_tape else None
            forwards = run(predictor, scene, 0, records, tape)
            grads = {}
            if with_tape:
                grads = backward(tape, P._person_loss_3d(tape, forwards, scene.gt_pose3(0)))
            runs.append((forwards, grads))
        (got, grads), (want, ref_grads) = runs
        assert [f.view for f in got] == [f.view for f in want]
        for f, r in zip(got, want):
            assert np.array_equal(f.rows, r.rows), f.view
            assert _layout(f.acts.values) == _layout(r.acts.values), f.view
            assert f.acts.values.tobytes() == r.acts.values.tobytes(), f.view
        assert any(f.rows.size == 1 for f in got) and got[-1].rows.size == 0
        if with_tape:
            for name, p in predictor.params.items():
                assert grads[p].tobytes() == ref_grads[p].tobytes(), name


def _eps_raster(tape, f):
    """A view's activations scattered into a (J, H*W) raster holding ε at
    every pixel it does not fuse, as a tape node."""
    vals = np.full((f.acts.shape[0], f.valid.size), DEFAULT_EPSILON)
    vals[:, f.rows] = f.acts.values
    out = Tensor(vals, requires_grad=f.acts.requires_grad)
    if tape is not None and out.requires_grad:
        tape.record((f.acts,), out, lambda g: (g[:, f.rows],), "scatter")
    return out


def _targets(scene, person, views, mode):
    """The targets P._person_loss_3d / _person_loss_2d score."""
    if mode == "proposed-3d":
        gt = scene.gt_pose3(person)
        return [{j: gt[name] for j, name in enumerate(JOINT_NAMES) if gt[name] is not None}]
    refs = [scene.gt_pose2(person, v) for v in views]
    return [{j: np.asarray(ref[name]) for j, name in enumerate(JOINT_NAMES)
             if ref[name] is not None} for ref in refs]


class TestSparseFusion:
    """The 3D and 2D soft centres over each view's fused pixels against
    fusion on ε rasters, which took every pixel of every view: the
    activations scattered into an ε raster, fused over the views' whole
    clouds or the whole pixel grid. ε entries carry exactly zero softmax
    weight, so only summation order differs. A person whose views fuse
    no pixel (crops that remove the box) had all-ε rasters and so a
    uniform softmax: the mean of the whole clouds, or the grid centre."""

    @staticmethod
    def _centres(tape, forwards, mode, dense):
        if mode == "proposed-3d":
            if dense:
                return [soft_center_stack(tape, [_eps_raster(tape, f) for f in forwards],
                                          [f.cloud for f in forwards])]
            return [P.fused_centers(tape, forwards)]
        out = []
        for f in forwards:
            if dense:
                ys, xs = np.indices(f.valid.shape)
                grid = np.stack([xs.ravel(), ys.ravel()], axis=1).astype(np.float64)
                out.append(_multi_view_soft_centers(tape, [_eps_raster(tape, f)], [grid],
                                                    "soft_center_2d"))
            else:
                out.append(P._view_centers_2d(tape, f))
        return out

    @pytest.mark.parametrize("mode", ["proposed-3d", "baseline-2d"])
    def test_matches_fusion_on_eps_rasters(self, cases, mode):
        predictor = ToyPredictor.initialise(3)
        worst = worst_grad = 0.0
        for kind, scene, person, records in cases:
            results = []
            for dense in (False, True):
                tape = Tape()
                forwards = forward_scene(predictor, scene, person, records, tape)
                forwards = [f for f in forwards if f.valid.any()]
                if not forwards:
                    break
                centres = self._centres(tape, forwards, mode, dense)
                targets = _targets(scene, person, [f.view for f in forwards], mode)
                loss = P._mean_distance(tape, centres, targets)
                grads = backward(tape, loss) if loss is not None else {}
                results.append(([c.values for c in centres], grads))
            if not results:
                continue
            (got, grads), (want, ref_grads) = results
            where = f"{kind}, {scene.id} person {person}"
            scale = max(np.abs(c).max() for c in want)
            diff = max(np.abs(g - c).max() for g, c in zip(got, want))
            assert diff <= 1e-13 * scale, (where, diff / scale)
            worst = max(worst, diff / scale)
            params = predictor.params.values()
            largest = max(np.abs(ref_grads.get(p, 0.0)).max() for p in params)
            for name, p in predictor.params.items():
                diff = np.abs(grads.get(p, 0.0) - ref_grads.get(p, 0.0)).max()
                assert diff <= 1e-12 * largest, (where, name, diff)
                if largest:
                    worst_grad = max(worst_grad, diff / largest)
        print(f"\n{mode}: worst difference of the largest entry: centres {worst:.2e}, "
              f"gradients {worst_grad:.2e}")

    def test_cases_include_partial_and_empty_support(self, cases):
        # some person fuses pixels in some views only, and some in none
        partial = empty = False
        for _kind, scene, person, records in cases:
            fused = [f.rows.size > 0 for f in forward_scene(
                ToyPredictor.initialise(3), scene, person, records, None) if f.valid.any()]
            partial |= any(fused) and not all(fused)
            empty |= bool(fused) and not any(fused)
        assert empty and partial


def _scenes_sharing_an_id():
    """Two different scenes with one id: every generated set numbers its
    scenes from scene_0000. The second scene is returned renamed too."""
    a = generate_synthetic(tiny_synth_config(1))[0][0]
    b = generate_synthetic(tiny_synth_config(2))[0][0]
    assert a.id == b.id
    return a, b, dataclasses.replace(b, id=b.id + "_b")


class TestTraining:
    @pytest.mark.parametrize("mode", TrainConfig.MODES)
    def test_no_augment_matches_the_warp_route(self, tiny_scenes, monkeypatch, mode):
        # un-augmented views skip augmentation; curves and parameters keep
        # the bits of the route that augments with identity records
        cfg = TrainConfig(mode=mode, epochs=2, seed=3, augment=False)
        direct = train(cfg, tiny_scenes[0])
        monkeypatch.setattr(P, "forward_scene", _warp_route_forward)
        routed = train(cfg, tiny_scenes[0])
        assert direct.loss_curve == routed.loss_curve
        assert direct.best_epoch == routed.best_epoch
        for name, p in direct.predictor.params.items():
            assert p.values.tobytes() == routed.predictor.params[name].values.tobytes(), name

    def test_scenes_sharing_an_id_keep_their_own_clouds(self):
        a, b, renamed = _scenes_sharing_an_id()
        cfg = TrainConfig(epochs=2, augment=False)
        assert train(cfg, [a, b]).loss_curve == train(cfg, [a, renamed]).loss_curve

    def test_same_seed_gives_identical_curves(self, tiny_scenes):
        train_s, _ = tiny_scenes
        cfg = TrainConfig(mode="proposed-3d", epochs=2, seed=9)
        a = train(cfg, train_s)
        b = train(cfg, train_s)
        assert a.loss_curve == b.loss_curve

    @pytest.mark.parametrize("mode", ["proposed-3d", "baseline-2d"])
    def test_loss_decreases(self, tiny_scenes, mode):
        train_s, _ = tiny_scenes
        cfg = TrainConfig(mode=mode, epochs=5, seed=1)
        res = train(cfg, train_s)
        assert res.loss_curve[-1] < res.loss_curve[0]

    def test_checkpoint_written_on_improvement(self, tiny_scenes, tmp_path):
        train_s, _ = tiny_scenes
        path = tmp_path / "ckpt.bin"
        cfg = TrainConfig(mode="proposed-3d", epochs=2, seed=1,
                          checkpoint_path=str(path))
        res = train(cfg, train_s)
        assert path.exists()
        _, extra = ToyPredictor.load(path)
        assert extra["mode"] == "proposed-3d"
        assert extra["epoch"] == res.best_epoch

    def test_loss_mode_separation(self, tiny_scenes, monkeypatch):
        from posefusion.data import Scene
        train_s, _ = tiny_scenes
        calls = {"pose3": 0, "pose2": 0}
        real3, real2 = Scene.gt_pose3, Scene.gt_pose2

        def spy3(self, person):
            calls["pose3"] += 1
            return real3(self, person)

        def spy2(self, person, view):
            calls["pose2"] += 1
            return real2(self, person, view)

        monkeypatch.setattr(Scene, "gt_pose3", spy3)
        monkeypatch.setattr(Scene, "gt_pose2", spy2)

        train(TrainConfig(mode="baseline-2d", epochs=1, seed=0), train_s)
        assert calls["pose3"] == 0 and calls["pose2"] > 0

        calls["pose3"] = calls["pose2"] = 0
        train(TrainConfig(mode="proposed-3d", epochs=1, seed=0), train_s)
        assert calls["pose2"] == 0 and calls["pose3"] > 0

    def test_tape_node_kinds_are_covered_by_gradcheck(self, tiny_scenes, monkeypatch):
        # one train step per mode records exactly these node kinds, and
        # gradcheck's quick suites record every one of them
        from posefusion import gradcheck as GC
        names = set()
        record = Tape.record

        def spy(self, inputs, output, vjp, name="custom"):
            names.add(name)
            return record(self, inputs, output, vjp, name)

        monkeypatch.setattr(Tape, "record", spy)
        train_s, _ = tiny_scenes
        for mode in TrainConfig.MODES:
            train(TrainConfig(mode=mode, epochs=1, seed=0), train_s[:1])
        program = set(names)
        assert program == {"conv2d", "relu", "invert_augmentation",
                           "soft_center_3d", "soft_center_2d", "mean_distance"}
        names.clear()
        GC.op_gradient_errors(0)
        GC.aggregate_adjoint_error(0)
        GC.augment_adjoint_error(0)
        assert program <= names, program - names

    def test_empty_dataset_rejected(self):
        with pytest.raises(PipelineError, match="empty"):
            train(TrainConfig(epochs=1), [])

    def test_config_validation(self):
        with pytest.raises(PipelineError):
            TrainConfig(mode="both")
        with pytest.raises(PipelineError):
            TrainConfig(epochs=0)
        with pytest.raises(PipelineError):
            TrainConfig.from_dict({"mode": "proposed-3d", "bogus": 1})

    @pytest.mark.parametrize("doc", [
        {"flip_prob": 2.0}, {"flip_prob": -0.1}, {"crop_h": -3}, {"crop_w": 0},
        {"rot_deg_max": -1.0}, {"jitter_low": 5.0}, {"jitter_low": 0.0},
        {"flip_prob": 2.0, "crop_h": -3, "jitter_low": 5.0},
    ])
    def test_config_rejects_augmentation_out_of_range(self, doc):
        # with or without augmentation, and naming the config's source
        for augment in (True, False):
            with pytest.raises(PipelineError, match="^cfg.json: "):
                TrainConfig.from_dict({**doc, "augment": augment}, "cfg.json")


class TestEvaluation:
    def test_report_deterministic_bytes(self, tiny_scenes):
        train_s, test_s = tiny_scenes
        res = train(TrainConfig(mode="proposed-3d", epochs=1, seed=0), train_s)
        a = evaluate(test_s, "proposed-3d", res.predictor).to_json()
        b = evaluate(test_s, "proposed-3d", res.predictor).to_json()
        assert a == b
        parsed = json.loads(a)
        assert parsed["mpjpe_cm"]["average"] > 0

    def test_left_right_averaging(self, tiny_scenes):
        train_s, test_s = tiny_scenes
        res = train(TrainConfig(mode="proposed-3d", epochs=1, seed=0), train_s)
        rep = evaluate(test_s, "proposed-3d", res.predictor)
        for jtype in ("head", "neck", "shoulder", "hip", "elbow", "wrist"):
            assert jtype in rep.mpjpe_cm
        types = [rep.mpjpe_cm[t] for t in ("head", "neck", "shoulder",
                                           "hip", "elbow", "wrist")]
        assert rep.mpjpe_cm["average"] == pytest.approx(float(np.mean(types)))

    def test_single_view_scenes_fill_only_one_view_bucket(self):
        cfg = tiny_synth_config(seed=5)
        cfg = SynthConfig(**{**cfg.__dict__, "views": 1, "camera_heights": (1.6,),
                             "train_scenes": 2, "test_scenes": 2})
        train_s, test_s = generate_synthetic(cfg)
        res = train(TrainConfig(mode="proposed-3d", epochs=1, seed=0), train_s)
        rep = evaluate(test_s, "proposed-3d", res.predictor)
        assert set(rep.per_view_support) == {"1"}

    def test_bucket_pose_counts_partition_scored_poses(self, tiny_scenes):
        train_s, test_s = tiny_scenes
        res = train(TrainConfig(mode="baseline-2d", epochs=1, seed=0), train_s)
        rep = evaluate(test_s, "baseline-2d", res.predictor)
        total = sum(b["pose_count"] for b in rep.per_view_support.values())
        assert total == rep.pose_count

    def test_oracle_eval_beats_trained_model(self, tiny_scenes):
        train_s, test_s = tiny_scenes
        res = train(TrainConfig(mode="proposed-3d", epochs=1, seed=0), train_s)
        trained = evaluate(test_s, "proposed-3d", res.predictor)
        oracle = evaluate(test_s, "proposed-3d", oracle_cfg=(1.0, 80.0))
        assert oracle.mpjpe_cm["average"] < trained.mpjpe_cm["average"]

    def test_modes_give_different_inference(self, tiny_scenes):
        train_s, test_s = tiny_scenes
        res = train(TrainConfig(mode="proposed-3d", epochs=2, seed=0), train_s)
        rep3 = evaluate(test_s, "proposed-3d", res.predictor)
        rep2 = evaluate(test_s, "baseline-2d", res.predictor)
        assert rep3.mpjpe_cm["average"] != rep2.mpjpe_cm["average"]

    def test_empty_dataset_rejected(self):
        with pytest.raises(PipelineError, match="empty"):
            evaluate([], "proposed-3d", ToyPredictor.initialise(0))

    @pytest.mark.parametrize("mode", TrainConfig.MODES)
    def test_scenes_sharing_an_id_keep_their_own_clouds(self, mode):
        a, b, renamed = _scenes_sharing_an_id()
        shared = evaluate([a, b], mode, oracle_cfg=(1.0, 80.0)).to_json()
        assert shared == evaluate([a, renamed], mode, oracle_cfg=(1.0, 80.0)).to_json()
