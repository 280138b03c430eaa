"""Acceptance suite: one test per criterion, each printing a PASS line
with its measured numbers once its assertions hold.

Criterion 7 trains both loss modes on the full 200-scene synthetic set
and criterion 8 reuses the trained proposed-3d model, so those two share
session-scoped fixtures; expect a minute and a half of wall time for
the pair on a 2-core machine.
"""

import itertools
import json
import os
import time

import numpy as np
import pytest

from posefusion import gradcheck as GC
from posefusion import pipeline as P
from posefusion.augment import AugmentationRecord
from posefusion.cli import main as cli_main
from posefusion.data import SynthConfig, generate_synthetic
from posefusion.fusion import soft_center
from posefusion.geometry import Camera, backproject_pixel, project_point
from posefusion.heatmap import DEFAULT_EPSILON, BoundingBox, DepthImage, valid_pixel_mask
from posefusion.matching import MatchConfig, match_centers

from test_augment import _inverted, _warped
from test_matching import brute_force_match, _as_points, _result_sets


def _report(criterion, detail):
    print(f"\nACCEPTANCE {criterion}: PASS - {detail}")


# ---------------------------------------------------------------------------
# shared artifacts for criteria 7 and 8


@pytest.fixture(scope="session")
def full_datasets():
    cfg = SynthConfig(train_scenes=200, test_scenes=50, seed=404)
    train_scenes, test_scenes = generate_synthetic(cfg)
    occ_cfg = SynthConfig(train_scenes=0, test_scenes=50, seed=505, occlusion_drop=0.35)
    _, occlusion_scenes = generate_synthetic(occ_cfg)
    return train_scenes, test_scenes, occlusion_scenes


@pytest.fixture(scope="session")
def trained_models(full_datasets):
    train_scenes, _test, _occ = full_datasets
    t0 = time.perf_counter()
    results = {}
    for mode in ("proposed-3d", "baseline-2d"):
        cfg = P.TrainConfig(mode=mode, epochs=8, seed=2)
        results[mode] = P.train(cfg, train_scenes)
    return results, time.perf_counter() - t0


class TestCriterion1GeometryRoundTrip:
    def test_project_backproject_1000_points(self):
        rng = np.random.default_rng(100)
        cam = Camera(id=0, fx=70.0, fy=68.0, cx=39.5, cy=31.5)
        t0 = time.perf_counter()
        worst = 0.0
        for _ in range(1000):
            p = np.array([rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(0.5, 5.0)])
            x, y = project_point(p, cam)
            q = backproject_pixel((x, y), p[2], cam)
            worst = max(worst, float(np.max(np.abs(p - q))))
        elapsed = time.perf_counter() - t0
        assert worst < 1e-9, f"round-trip error {worst}"
        assert elapsed < 1.0, f"took {elapsed:.2f}s"
        _report("1 (geometry round trip)",
                f"max error {worst:.2e} m over 1000 points in {elapsed:.2f}s")


class TestCriterion2GradientCorrectness:
    def test_all_fd_suites(self):
        t0 = time.perf_counter()
        op_errors = GC.op_gradient_errors(seed=0)
        worst_op = max(op_errors.values())
        assert worst_op < 1e-6, f"op gradients: {op_errors}"
        agg = GC.aggregate_adjoint_error(seed=0)
        assert agg < 1e-6, f"aggregate adjoint: {agg}"
        aug = GC.augment_adjoint_error(seed=0)
        assert aug < 1e-6, f"inverse augmentation adjoint: {aug}"
        chain_errors = GC.full_chain_errors(seed=0)
        worst_chain = max(chain_errors.values())
        assert worst_chain < 1e-4, f"full chain: {chain_errors}"
        elapsed = time.perf_counter() - t0
        assert elapsed < 120.0, f"took {elapsed:.1f}s"
        _report("2 (gradient correctness)",
                f"ops {worst_op:.1e} | aggregate {agg:.1e} | inverse-augment "
                f"{aug:.1e} | full chain {worst_chain:.1e}; {elapsed:.0f}s")


class TestCriterion3FusionOracle:
    def test_oracle_fusion_beats_quantization_bound_on_50_scenes(self):
        cfg = SynthConfig(train_scenes=0, test_scenes=50, seed=303)
        t0 = time.perf_counter()
        _, scenes = generate_synthetic(cfg)
        worst_margin = np.inf
        for scene in scenes:
            mpjpe, bound = P.oracle_fusion_mpjpe(scene, cfg.heatmap_sigma,
                                                 cfg.heatmap_amplitude)
            assert mpjpe <= bound + 1e-4, (
                f"{scene.id}: oracle MPJPE {mpjpe:.4f} cm above bound {bound:.4f} cm")
            worst_margin = min(worst_margin, bound - mpjpe)
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, f"took {elapsed:.1f}s"
        _report("3 (fusion oracle)",
                f"50 scenes, min margin under bound {worst_margin:.3f} cm, "
                f"{elapsed:.0f}s")

    @pytest.mark.xfail(strict=True, reason=(
        "known defect: a joint seen in one view gets softmax weight on the pixel "
        "of an occluding surface next to it, far off in depth; passes once fixed"))
    def test_oracle_fusion_beats_quantization_bound_on_depth_edge_scene(self):
        # oracle MPJPE 8.946 cm against a bound of 8.026 cm
        cfg = SynthConfig(seed=253002, min_persons=3, max_persons=3,
                          train_scenes=1, test_scenes=0)
        train_scenes, test_scenes = generate_synthetic(cfg)
        mpjpe, bound = P.oracle_fusion_mpjpe((train_scenes + test_scenes)[0],
                                             cfg.heatmap_sigma, cfg.heatmap_amplitude)
        assert mpjpe <= bound + 1e-4, f"oracle MPJPE {mpjpe:.4f} cm above bound {bound:.4f} cm"


class TestCriterion4SoftmaxMaskProperties:
    def test_200_random_clouds(self):
        rng = np.random.default_rng(4)
        eps = DEFAULT_EPSILON
        for trial in range(200):
            h, w = int(rng.integers(2, 7)), int(rng.integers(2, 7))
            coords = rng.normal(size=(h * w, 3))
            raw_a = rng.uniform(-3, 3, size=(h, w))
            raw_b = raw_a.copy()
            depth = np.where(rng.random((h, w)) < 0.35, 0.0, 2.0)
            depth[rng.integers(h), rng.integers(w)] = 2.0
            raw_b[depth == 0.0] = rng.uniform(10, 1000, size=int((depth == 0.0).sum()))
            d = DepthImage(view=0, raster=depth)
            box = BoundingBox(view=0, person=0, x_min=0, y_min=0, x_max=w, y_max=h)
            valid = valid_pixel_mask(box, d)
            masked_a = np.where(valid, raw_a, eps)
            masked_b = np.where(valid, raw_b, eps)

            center_a, weights = soft_center(masked_a.ravel(), coords)
            assert abs(weights.sum() - 1.0) < 1e-12
            assert np.all(weights >= 0.0)

            center_b, _ = soft_center(masked_b.ravel(), coords)
            assert np.max(np.abs(center_a - center_b)) < 1e-9

            shifted, _ = soft_center(masked_a.ravel() + 57.3, coords)
            assert np.max(np.abs(center_a - shifted)) < 1e-9

            masked_weight = weights[~valid.ravel()].sum()
            assert masked_weight == 0.0 or masked_weight < np.exp(eps / 2)
        _report("4 (softmax/mask properties)",
                "200 clouds: weight sum 1e-12, masked-value and shift "
                "invariance 1e-9")


class TestCriterion5AugmentationInversion:
    def test_flip_crop_exact_and_rotation_bounded(self):
        rng = np.random.default_rng(5)
        h, w = 24, 30

        flip_rec = AugmentationRecord(image_h=h, image_w=w, flip=True,
                                      crop=(0, 0, h, w), rotation_deg=0.0,
                                      jitter=(1.0, 1.0, 1.0))
        raster = rng.normal(size=(h, w))
        flipped = _warped(raster, flip_rec, 3)
        rows, back = _inverted(flipped, flip_rec)
        assert np.array_equal(rows, np.arange(h * w)), "flip inverse drops pixels"
        assert np.array_equal(back, raster.ravel()), "flip involution not exact"

        crop_rec = AugmentationRecord(image_h=h, image_w=w, flip=False,
                                      crop=(3, 4, 18, 22), rotation_deg=0.0,
                                      jitter=(1.0, 1.0, 1.0))
        cropped = _warped(raster, crop_rec, 3)
        rows, back = _inverted(cropped, crop_rec)
        retained = np.zeros((h, w), dtype=bool)
        retained[3:21, 4:26] = True
        assert np.array_equal(rows, np.flatnonzero(retained)), \
            "crop inverse does not produce exactly the retained pixels"
        assert np.array_equal(back, raster.ravel()[rows]), \
            "crop inverse not exact on retained pixels"

        ys, xs = np.mgrid[0:h, 0:w]
        worst = 0.0
        for deg in (-15.0, -7.5, 7.5, 15.0):
            gauss = np.exp(-((xs - 14.0) ** 2 + (ys - 11.0) ** 2) / (2 * 2.5 ** 2))
            rec = AugmentationRecord(image_h=h, image_w=w, flip=False,
                                     crop=(0, 0, h, w), rotation_deg=deg,
                                     jitter=(1.0, 1.0, 1.0))
            rotated = _warped(gauss, rec, 0)
            rows, back = _inverted(rotated, rec)
            row, col = np.divmod(rows, w)
            interior = (row >= 2) & (row < h - 2) & (col >= 2) & (col < w - 2)
            worst = max(worst, float(np.max(np.abs(back - gauss.ravel()[rows])[interior])))
        assert worst < 0.05, f"rotation round trip error {worst}"
        _report("5 (augmentation inversion)",
                f"flip/crop exact; ±15° rotation round trip max abs {worst:.4f}")


class TestCriterion6MatchingOracle:
    def test_exhaustive_equivalence_500_seeds(self):
        assert MatchConfig().t == 0.75
        t0 = time.perf_counter()
        for seed in range(500):
            rng = np.random.default_rng(seed)
            n_views = int(rng.integers(1, 4))
            raw = {
                v: [tuple(rng.uniform(-1.2, 1.2, size=3))
                    for _ in range(rng.integers(0, 5))]
                for v in range(n_views)
            }
            t = float(rng.uniform(0.3, 1.6))
            cfg = MatchConfig(t=t)
            combos = match_centers(_as_points(raw), cfg)

            got = _result_sets(combos)
            want = brute_force_match(raw, t)
            assert got == want, f"seed {seed}: greedy != brute force"

            seen = sorted(m for c in combos for m in c.members.items())
            expected = sorted((v, i) for v in raw for i in range(len(raw[v])))
            assert seen == expected, f"seed {seed}: partition violated"
            for c in combos:
                if c.size >= 2:
                    pts = [c.centers[v] for v in sorted(c.members)]
                    worst = max(np.linalg.norm(a - b)
                                for a, b in itertools.combinations(pts, 2))
                    assert worst <= t + 1e-12, f"seed {seed}: threshold violated"
        elapsed = time.perf_counter() - t0
        _report("6 (matching oracle)",
                f"500 instances exact vs brute force; partition/threshold "
                f"hold; t=0.75 m default; {elapsed:.0f}s")


class TestCriterion7DirectionalComparison:
    def test_proposed_3d_beats_baseline_2d(self, full_datasets, trained_models):
        _train, test_scenes, _occ = full_datasets
        results, train_time = trained_models
        reports = {}
        for mode in ("proposed-3d", "baseline-2d"):
            reports[mode] = P.evaluate(test_scenes, mode, results[mode].predictor)
        r3 = reports["proposed-3d"].mpjpe_cm
        r2 = reports["baseline-2d"].mpjpe_cm
        assert r3["average"] < r2["average"], (
            f"proposed-3d {r3['average']:.2f} not below baseline-2d {r2['average']:.2f}")
        types = ("head", "neck", "shoulder", "hip", "elbow", "wrist")
        wins = sum(1 for t in types if r3[t] < r2[t])
        assert wins >= 4, f"proposed-3d lower on only {wins}/6 joint types"
        per_type = ", ".join(f"{t}: {r3[t]:.1f} vs {r2[t]:.1f}" for t in types)
        _report("7 (directional 3d-vs-2d)",
                f"avg {r3['average']:.1f} vs {r2['average']:.1f} cm, lower on "
                f"{wins}/6 types ({per_type}); training {train_time / 60:.1f} min "
                f"(target < 15 min)")


class TestCriterion8PerViewSupport:
    def test_more_views_give_lower_error(self, full_datasets, trained_models):
        _train, _test, occlusion_scenes = full_datasets
        results, _t = trained_models
        report = P.evaluate(occlusion_scenes, "proposed-3d",
                            results["proposed-3d"].predictor)
        buckets = report.per_view_support
        assert {"1", "2", "3"} <= set(buckets), f"missing buckets: {set(buckets)}"
        one, two, three = (buckets[k]["average"] for k in ("1", "2", "3"))
        assert three < two < one, (
            f"per-view MPJPE not monotone: 3v {three:.1f}, 2v {two:.1f}, 1v {one:.1f}")
        counts = {k: buckets[k]["pose_count"] for k in ("1", "2", "3")}
        _report("8 (per-supporting-view trend)",
                f"MPJPE cm 1v {one:.1f} > 2v {two:.1f} > 3v {three:.1f} "
                f"(poses {counts})")


class TestCriterion9Determinism:
    def _tree_bytes(self, root):
        out = {}
        for dirpath, _dirnames, filenames in os.walk(root):
            for fn in filenames:
                p = os.path.join(dirpath, fn)
                out[os.path.relpath(p, root)] = open(p, "rb").read()
        return out

    def test_cli_byte_identical_runs(self, tmp_path):
        gen_args = ["--seed", "9", "--train-scenes", "3", "--test-scenes", "2",
                    "--image-h", "16", "--image-w", "20", "--max-persons", "1"]
        for tag in ("a", "b"):
            assert cli_main(["synth-gen", "--out", str(tmp_path / tag)] + gen_args) == 0
        assert self._tree_bytes(tmp_path / "a") == self._tree_bytes(tmp_path / "b")

        artifacts = {}
        for tag in ("a", "b"):
            ckpt = tmp_path / f"{tag}.ckpt"
            curve = tmp_path / f"{tag}_curve.json"
            report = tmp_path / f"{tag}_report.json"
            assert cli_main(["train", "--data", str(tmp_path / "a"),
                             "--mode", "proposed-3d", "--epochs", "2", "--seed", "5",
                             "--checkpoint", str(ckpt), "--curve", str(curve)]) == 0
            assert cli_main(["eval", "--data", str(tmp_path / "a"),
                             "--checkpoint", str(ckpt),
                             "--report", str(report)]) == 0
            artifacts[tag] = (ckpt.read_bytes(), curve.read_bytes(),
                              report.read_bytes())
        assert artifacts["a"] == artifacts["b"]
        _report("9 (determinism)",
                "synth-gen, train, eval byte-identical across two runs")
