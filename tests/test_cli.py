"""CLI subcommands: artifacts, determinism, and exit codes."""

import json
import os
import shutil
import struct

import numpy as np
import pytest

from posefusion.cli import main


def _tree_bytes(root):
    out = {}
    for dirpath, _dirnames, filenames in os.walk(root):
        for fn in filenames:
            p = os.path.join(dirpath, fn)
            out[os.path.relpath(p, root)] = open(p, "rb").read()
    return out


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("ds")
    rc = main(["synth-gen", "--out", str(root), "--seed", "7",
               "--train-scenes", "3", "--test-scenes", "2",
               "--image-h", "16", "--image-w", "20", "--max-persons", "1"])
    assert rc == 0
    return root


class TestSynthGen:
    def test_identical_trees_for_same_seed(self, tmp_path):
        args = ["--seed", "7", "--train-scenes", "2", "--test-scenes", "1",
                "--image-h", "16", "--image-w", "20"]
        assert main(["synth-gen", "--out", str(tmp_path / "a")] + args) == 0
        assert main(["synth-gen", "--out", str(tmp_path / "b")] + args) == 0
        assert _tree_bytes(tmp_path / "a") == _tree_bytes(tmp_path / "b")

    def test_invalid_config_exits_1(self, tmp_path, capsys):
        rc = main(["synth-gen", "--out", str(tmp_path / "x"),
                   "--min-persons", "3", "--max-persons", "1"])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--train-scenes", "--test-scenes"])
    def test_negative_scene_count_exits_1(self, tmp_path, capsys, flag):
        out = tmp_path / "x"
        rc = main(["synth-gen", "--out", str(out), flag, "-1",
                   "--image-h", "16", "--image-w", "20"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert flag[2:].replace("-", "_") in err
        assert not out.exists()

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["synth-gen"])  # missing --out
        assert exc.value.code == 2


class TestTrainEval:
    def test_train_then_eval_round_trip(self, dataset, tmp_path):
        ckpt = tmp_path / "model.ckpt"
        curve = tmp_path / "curve.json"
        rc = main(["train", "--data", str(dataset), "--mode", "proposed-3d",
                   "--epochs", "2", "--seed", "1",
                   "--checkpoint", str(ckpt), "--curve", str(curve)])
        assert rc == 0 and ckpt.exists()
        doc = json.loads(curve.read_text())
        assert doc["mode"] == "proposed-3d" and len(doc["loss_curve"]) == 2

        report = tmp_path / "report.json"
        rc = main(["eval", "--data", str(dataset), "--checkpoint", str(ckpt),
                   "--report", str(report)])
        assert rc == 0
        rep = json.loads(report.read_text())
        assert rep["mode"] == "proposed-3d"
        assert rep["mpjpe_cm"]["average"] > 0

    def test_train_determinism_byte_identical(self, dataset, tmp_path):
        outputs = []
        for tag in ("a", "b"):
            ckpt = tmp_path / f"{tag}.ckpt"
            curve = tmp_path / f"{tag}.json"
            rc = main(["train", "--data", str(dataset), "--mode", "baseline-2d",
                       "--epochs", "2", "--seed", "3",
                       "--checkpoint", str(ckpt), "--curve", str(curve)])
            assert rc == 0
            outputs.append((ckpt.read_bytes(), curve.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_eval_determinism_byte_identical(self, dataset, tmp_path):
        ckpt = tmp_path / "m.ckpt"
        main(["train", "--data", str(dataset), "--mode", "proposed-3d",
              "--epochs", "1", "--seed", "2", "--checkpoint", str(ckpt)])
        reports = []
        for tag in ("a", "b"):
            rep = tmp_path / f"{tag}.json"
            assert main(["eval", "--data", str(dataset), "--checkpoint", str(ckpt),
                         "--report", str(rep)]) == 0
            reports.append(rep.read_bytes())
        assert reports[0] == reports[1]

    def test_config_file_with_cli_override(self, dataset, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mode": "baseline-2d", "epochs": 5, "lr": 1e-3,
                                   "seed": 0}))
        ckpt = tmp_path / "m.ckpt"
        curve = tmp_path / "c.json"
        rc = main(["train", "--config", str(cfg), "--data", str(dataset),
                   "--epochs", "1", "--checkpoint", str(ckpt), "--curve", str(curve)])
        assert rc == 0
        assert len(json.loads(curve.read_text())["loss_curve"]) == 1

    def test_eval_empty_dataset_exits_1(self, tmp_path, capsys):
        root = tmp_path / "empty"
        (root / "scenes").mkdir(parents=True)
        (root / "split.json").write_text('{"test": []}\n')
        rc = main(["eval", "--data", str(root), "--report", str(tmp_path / "r.json"),
                   "--oracle"])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_oracle_eval(self, dataset, tmp_path):
        report = tmp_path / "oracle.json"
        rc = main(["eval", "--data", str(dataset), "--oracle",
                   "--report", str(report)])
        assert rc == 0
        assert json.loads(report.read_text())["mpjpe_cm"]["average"] < 25.0


class TestMatch:
    def test_match_scene_boxes(self, dataset, tmp_path):
        scene_dir = dataset / "scenes" / "scene_0000"
        out = tmp_path / "combos.json"
        rc = main(["match", "--scene", str(scene_dir), "--evaluate",
                   "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["threshold_m"] == 0.75
        assert len(doc["combinations"]) >= 1
        assert all(len(c["members"]) >= 1 for c in doc["combinations"])
        if "evaluation" in doc:
            for entry in doc["evaluation"].values():
                assert 0.0 <= entry["mean_iou"] <= 1.0

    def test_match_detections_file(self, dataset, tmp_path):
        det = tmp_path / "det.json"
        det.write_text(json.dumps({"views": [
            {"view": 0, "boxes": [{"x_min": 2, "y_min": 2, "x_max": 10, "y_max": 12,
                                   "score": 0.9}]},
            {"view": 1, "boxes": []},
            {"view": 2, "boxes": []},
        ]}))
        out = tmp_path / "combos.json"
        rc = main(["match", "--scene", str(dataset / "scenes" / "scene_0000"),
                   "--detections", str(det), "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert len(doc["combinations"]) == 1
        assert doc["combinations"][0]["members"] == {"0": 0}

    def test_missing_scene_exits_1(self, tmp_path, capsys):
        rc = main(["match", "--scene", str(tmp_path / "nope"),
                   "--out", str(tmp_path / "o.json")])
        assert rc == 1
        capsys.readouterr()


class TestFuse:
    def test_fuse_oracle_heatmaps(self, dataset, tmp_path):
        scene_dir = dataset / "scenes" / "scene_0000"
        pose = tmp_path / "pose.json"
        pts = tmp_path / "cloud.txt"
        rc = main(["fuse", "--scene", str(scene_dir), "--person", "0",
                   "--out-pose", str(pose), "--out-points", str(pts)])
        assert rc == 0
        doc = json.loads(pose.read_text())
        assert set(doc["joints_m"]) == {
            "head", "neck", "shoulder_l", "shoulder_r", "hip_l", "hip_r",
            "elbow_l", "elbow_r", "wrist_l", "wrist_r"}
        lines = pts.read_text().strip().splitlines()
        assert lines[0].startswith("#")
        assert len(lines) > 10

    def test_fuse_heatmap_rasters_from_files(self, dataset, tmp_path):
        from posefusion.data import load_scene, make_target_heatmaps
        scene_dir = dataset / "scenes" / "scene_0000"
        scene = load_scene(scene_dir)
        hm_dir = tmp_path / "hm"
        hm_dir.mkdir()
        for v in scene.supporting_views(0):
            hm = make_target_heatmaps(scene, v, 0).astype("<f4")
            with open(hm_dir / f"view{v}_heatmaps.f32", "wb") as f:
                f.write(struct.pack("<III", *hm.shape))
                f.write(hm.tobytes())
        pose = tmp_path / "pose.json"
        rc = main(["fuse", "--scene", str(scene_dir), "--heatmaps", str(hm_dir),
                   "--out-pose", str(pose)])
        assert rc == 0
        doc = json.loads(pose.read_text())
        gt = scene.joints3d[0]["head"].as_array()
        got = np.array(doc["joints_m"]["head"])
        assert np.linalg.norm(gt - got) < 0.5

    def test_bad_person_exits_1(self, dataset, tmp_path, capsys):
        rc = main(["fuse", "--scene", str(dataset / "scenes" / "scene_0000"),
                   "--person", "9", "--out-pose", str(tmp_path / "p.json")])
        assert rc == 1
        capsys.readouterr()


class TestMalformedInputs:
    """Malformed files end in exit 1 and a one-line message naming the
    file and the field, not in a traceback."""

    @staticmethod
    def _error_line(capsys):
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        return err

    def test_checkpoint_header_without_params(self, dataset, tmp_path, capsys):
        ckpt = tmp_path / "m.ckpt"
        ckpt.write_bytes(b'{"extra": {"mode": "proposed-3d"}}\n')
        rc = main(["eval", "--data", str(dataset), "--checkpoint", str(ckpt),
                   "--report", str(tmp_path / "r.json")])
        assert rc == 1
        err = self._error_line(capsys)
        assert str(ckpt) in err and "'params'" in err

    def test_detections_view_entry_without_view(self, dataset, tmp_path, capsys):
        det = tmp_path / "det.json"
        det.write_text(json.dumps({"views": [{"boxes": []}]}))
        rc = main(["match", "--scene", str(dataset / "scenes" / "scene_0000"),
                   "--detections", str(det), "--out", str(tmp_path / "o.json")])
        assert rc == 1
        err = self._error_line(capsys)
        assert str(det) in err and "'view'" in err

    def test_detections_file_not_json(self, dataset, tmp_path, capsys):
        det = tmp_path / "det.json"
        det.write_text("views: none\n")
        rc = main(["match", "--scene", str(dataset / "scenes" / "scene_0000"),
                   "--detections", str(det), "--out", str(tmp_path / "o.json")])
        assert rc == 1
        err = self._error_line(capsys)
        assert str(det) in err and "JSON" in err

    def test_split_fold_not_a_list(self, dataset, tmp_path, capsys):
        root = tmp_path / "ds"
        shutil.copytree(dataset / "scenes", root / "scenes")
        (root / "split.json").write_text(json.dumps({"train": 5}))
        rc = main(["train", "--data", str(root), "--epochs", "1",
                   "--checkpoint", str(tmp_path / "m.ckpt")])
        assert rc == 1
        err = self._error_line(capsys)
        assert str(root / "split.json") in err and "'train'" in err

    def test_checkpoint_with_misshaped_parameter(self, dataset, tmp_path, capsys):
        from posefusion.tensorgrad import Tensor, save_checkpoint
        ckpt = tmp_path / "m.ckpt"
        save_checkpoint(ckpt, {"conv1_w": Tensor(np.zeros((2, 5, 3, 3)))},
                        extra={"mode": "proposed-3d"})
        rc = main(["eval", "--data", str(dataset), "--checkpoint", str(ckpt),
                   "--report", str(tmp_path / "r.json")])
        assert rc == 1
        err = self._error_line(capsys)
        assert str(ckpt) in err and "'conv1_w'" in err

    @staticmethod
    def _mutated_scene(dataset, tmp_path, mutate):
        scene_dir = tmp_path / "scene"
        shutil.copytree(dataset / "scenes" / "scene_0000", scene_dir)
        doc = json.loads((scene_dir / "scene.json").read_text())
        mutate(doc)
        (scene_dir / "scene.json").write_text(json.dumps(doc))
        return scene_dir

    def _fuse_error(self, scene_dir, tmp_path, capsys, *extra):
        rc = main(["fuse", "--scene", str(scene_dir), "--out-pose", str(tmp_path / "p.json"),
                   *extra])
        assert rc == 1
        return self._error_line(capsys)

    @pytest.mark.parametrize("field, mutate", [
        ("'fx'", lambda doc: doc["views"][0]["camera"].update(fx="abc")),
        ("'view'", lambda doc: doc["views"][0].update(view=[1])),
        ("'x_min'", lambda doc: doc["views"][0]["boxes"][0].update(x_min="q")),
    ], ids=["camera_fx_text", "view_index_list", "box_x_min_text"])
    def test_scene_field_of_wrong_type(self, dataset, tmp_path, capsys, field, mutate):
        scene_dir = self._mutated_scene(dataset, tmp_path, mutate)
        err = self._fuse_error(scene_dir, tmp_path, capsys)
        assert str(scene_dir / "scene.json") in err and field in err

    @pytest.mark.parametrize("field, mutate", [
        ("views[0]", lambda doc: doc["views"].__setitem__(0, 1)),
        ("joints2d", lambda doc: doc["persons"][0]["views"][0].update(joints2d=1)),
        ("visible", lambda doc: doc["persons"][0]["views"][0].update(visible=[])),
        ("boxes", lambda doc: doc["views"][0].update(boxes=5)),
        ("persons[0]", lambda doc: doc["persons"].__setitem__(0, 7)),
    ], ids=["view_entry_number", "joints2d_number", "visible_list", "boxes_number",
            "person_entry_number"])
    def test_scene_structure_of_wrong_type(self, dataset, tmp_path, capsys, field, mutate):
        scene_dir = self._mutated_scene(dataset, tmp_path, mutate)
        err = self._fuse_error(scene_dir, tmp_path, capsys)
        assert str(scene_dir / "scene.json") in err and field in err

    def test_scene_file_with_non_ascii_byte(self, dataset, tmp_path, capsys):
        scene_dir = self._mutated_scene(dataset, tmp_path, lambda doc: None)
        path = scene_dir / "scene.json"
        path.write_bytes(path.read_bytes().replace(b'"units"', b'"units\xc3\xa9"', 1))
        err = self._fuse_error(scene_dir, tmp_path, capsys)
        assert str(path) in err and "JSON" in err

    def _heatmap_dir(self, dataset, tmp_path):
        from posefusion.data import load_scene, make_target_heatmaps
        scene_dir = dataset / "scenes" / "scene_0000"
        scene = load_scene(scene_dir)
        hm_dir = tmp_path / "hm"
        hm_dir.mkdir()
        for v in scene.supporting_views(0):
            hm = make_target_heatmaps(scene, v, 0).astype("<f4")
            with open(hm_dir / f"view{v}_heatmaps.f32", "wb") as f:
                f.write(struct.pack("<III", *hm.shape))
                f.write(hm.tobytes())
        return scene_dir, hm_dir, scene.supporting_views(0)[0]

    def test_heatmap_path_is_a_directory(self, dataset, tmp_path, capsys):
        scene_dir, hm_dir, v = self._heatmap_dir(dataset, tmp_path)
        path = hm_dir / f"view{v}_heatmaps.f32"
        path.unlink()
        path.mkdir()
        err = self._fuse_error(scene_dir, tmp_path, capsys, "--heatmaps", str(hm_dir))
        assert str(path) in err and "directory" in err

    def test_heatmap_with_nan_value(self, dataset, tmp_path, capsys):
        # the NaN sits at a corner pixel, outside the person's valid pixels
        scene_dir, hm_dir, v = self._heatmap_dir(dataset, tmp_path)
        path = hm_dir / f"view{v}_heatmaps.f32"
        raw = bytearray(path.read_bytes())
        raw[12:16] = struct.pack("<f", float("nan"))
        path.write_bytes(bytes(raw))
        err = self._fuse_error(scene_dir, tmp_path, capsys, "--heatmaps", str(hm_dir))
        assert str(path) in err and "non-finite" in err

    def test_train_config_field_of_wrong_type(self, dataset, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epochs": "3"}))
        rc = main(["train", "--config", str(cfg), "--data", str(dataset),
                   "--checkpoint", str(tmp_path / "m.ckpt")])
        assert rc == 1
        err = self._error_line(capsys)
        assert str(cfg) in err and "'epochs'" in err

    @pytest.mark.parametrize("doc", [{"rot_deg_max": float("inf")}, {"rot_deg_max": 1e308},
                                     {"jitter_high": float("inf")}, {"lr": float("nan")}],
                             ids=["rot_deg_max_inf", "rot_deg_max_1e308", "jitter_high_inf",
                                  "lr_nan"])
    def test_train_config_number_out_of_range(self, dataset, tmp_path, capsys, doc):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        rc = main(["train", "--config", str(cfg), "--data", str(dataset), "--epochs", "1",
                   "--checkpoint", str(tmp_path / "m.ckpt")])
        assert rc == 1
        assert next(iter(doc)) in self._error_line(capsys)

    @pytest.mark.parametrize("command", [
        ["synth-gen", "--out", "{tmp}/x", "--seed", "-1", "--image-h", "16", "--image-w", "20"],
        ["train", "--data", "{data}", "--seed", "-1", "--checkpoint", "{tmp}/m.ckpt"],
        ["train", "--config", "{cfg}", "--data", "{data}", "--checkpoint", "{tmp}/m.ckpt"],
    ], ids=["synth_gen_flag", "train_flag", "train_config"])
    def test_negative_seed(self, dataset, tmp_path, capsys, command):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": -1}))
        argv = [a.format(tmp=tmp_path, data=dataset, cfg=cfg) for a in command]
        assert main(argv) == 1
        assert "seed" in self._error_line(capsys)
        assert not (tmp_path / "x").exists() and not (tmp_path / "m.ckpt").exists()

    @pytest.mark.parametrize("target", ["checkpoint", "config", "detections", "scene.json",
                                        "split.json"])
    def test_input_file_is_a_directory(self, dataset, tmp_path, capsys, target):
        scene_dir = tmp_path / "ds" / "scenes" / "scene_0000"
        shutil.copytree(dataset / "scenes", tmp_path / "ds" / "scenes")
        shutil.copy(dataset / "split.json", tmp_path / "ds" / "split.json")
        path = {"scene.json": scene_dir / "scene.json",
                "split.json": tmp_path / "ds" / "split.json"}.get(target, tmp_path / target)
        if path.exists():
            path.unlink()
        path.mkdir()
        argv = {
            "checkpoint": ["eval", "--data", str(dataset), "--checkpoint", str(path),
                           "--report", str(tmp_path / "r.json")],
            "config": ["train", "--config", str(path), "--data", str(dataset),
                       "--checkpoint", str(tmp_path / "m.ckpt")],
            "detections": ["match", "--scene", str(dataset / "scenes" / "scene_0000"),
                           "--detections", str(path), "--out", str(tmp_path / "o.json")],
            "scene.json": ["fuse", "--scene", str(scene_dir),
                           "--out-pose", str(tmp_path / "p.json")],
            "split.json": ["eval", "--data", str(tmp_path / "ds"), "--oracle",
                           "--report", str(tmp_path / "r.json")],
        }[target]
        assert main(argv) == 1
        assert str(path) in self._error_line(capsys)


def test_gradcheck_smoke_runs_quick_suites(capsys):
    # the full chain suite is exercised by the acceptance tests; here only
    # confirm the op-level suites run clean through the public API
    from posefusion.gradcheck import (aggregate_adjoint_error,
                                      augment_adjoint_error, op_gradient_errors)
    assert max(op_gradient_errors(0).values()) < 1e-6
    assert aggregate_adjoint_error(0) < 1e-6
    assert augment_adjoint_error(0) < 1e-6


def test_gradcheck_exit_codes(monkeypatch, capsys):
    import posefusion.gradcheck as gc
    monkeypatch.setattr(gc, "run_all", lambda seed, verbose: 0)
    assert main(["gradcheck"]) == 0
    monkeypatch.setattr(gc, "run_all", lambda seed, verbose: 2)
    assert main(["gradcheck"]) == 1
    assert "FAILED" in capsys.readouterr().err
