"""Command-line interface.

Subcommands: synth-gen (write a synthetic dataset), train, eval,
gradcheck (finite-difference verification suites), match (cross-view box
matching), fuse (fuse heatmap rasters into 3D joints). Validation
failures exit 1; usage errors exit 2.
"""

from __future__ import annotations

import argparse
import json
import os
import struct
import sys

import numpy as np

from . import data as D, fusion as F, heatmap as hm, matching as M, pipeline as P
from . import tensorgrad as tg
from .augment import AugmentError
from .geometry import GeometryError

_USER_ERRORS = (
    D.SceneFormatError, D.GenerationError, P.PipelineError, M.MatchingError,
    F.FusionError, hm.HeatmapError, GeometryError, AugmentError,
    tg.TensorGradError, FileNotFoundError, NotADirectoryError, IsADirectoryError,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="posefusion",
        description="Differentiable multi-view fusion of 2D heatmaps into 3D poses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("synth-gen", help="generate a synthetic multi-view dataset")
    g.add_argument("--out", required=True, help="dataset directory to create")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--train-scenes", type=int, default=20)
    g.add_argument("--test-scenes", type=int, default=5)
    g.add_argument("--image-h", type=int, default=64)
    g.add_argument("--image-w", type=int, default=80)
    g.add_argument("--views", type=int, default=3)
    g.add_argument("--min-persons", type=int, default=1)
    g.add_argument("--max-persons", type=int, default=3)
    g.add_argument("--occlusion-drop", type=float, default=0.0,
                   help="probability of dropping a (person, view) box")

    t = sub.add_parser("train", help="train the heatmap predictor")
    t.add_argument("--config", help="JSON file with TrainConfig fields")
    t.add_argument("--data", help="dataset root (overrides config data_root)")
    t.add_argument("--fold", help="split fold to train on (default train)")
    t.add_argument("--mode", choices=["proposed-3d", "baseline-2d"])
    t.add_argument("--epochs", type=int)
    t.add_argument("--lr", type=float)
    t.add_argument("--seed", type=int)
    t.add_argument("--no-augment", action="store_true")
    t.add_argument("--checkpoint", required=True, help="checkpoint output path")
    t.add_argument("--curve", help="write the per-epoch loss curve JSON here")

    e = sub.add_parser("eval", help="evaluate a checkpoint")
    e.add_argument("--data", required=True, help="dataset root")
    e.add_argument("--fold", default="test")
    e.add_argument("--checkpoint", help="trained checkpoint (omit with --oracle)")
    e.add_argument("--mode", choices=["proposed-3d", "baseline-2d"],
                   help="default: the mode recorded in the checkpoint")
    e.add_argument("--oracle", action="store_true",
                   help="score ideal target heatmaps instead of a checkpoint")
    e.add_argument("--report", required=True, help="EvalReport JSON output path")

    c = sub.add_parser("gradcheck", help="run the finite-difference suites")
    c.add_argument("--seed", type=int, default=0)

    m = sub.add_parser("match", help="match boxes across views by lifted centres")
    m.add_argument("--scene", required=True, help="scene directory (depths + cameras)")
    m.add_argument("--detections", help="detections JSON; default: the scene's boxes")
    m.add_argument("--threshold", type=float, default=0.75, help="distance threshold, meters")
    m.add_argument("--evaluate", action="store_true",
                   help="also score mean IoU against the scene's annotated boxes")
    m.add_argument("--out", required=True, help="combinations JSON output path")

    f = sub.add_parser("fuse", help="fuse per-view heatmap rasters into 3D joints")
    f.add_argument("--scene", required=True, help="scene directory")
    f.add_argument("--person", type=int, default=0)
    f.add_argument("--heatmaps", help="directory of view{v}_heatmaps.f32 rasters; "
                                      "default: ideal target heatmaps")
    f.add_argument("--out-pose", required=True, help="fused 3D joints JSON output")
    f.add_argument("--out-points", help="plain-text weighted point list for plotting")
    return parser


# ---------------------------------------------------------------------------
# subcommands


def _cmd_synth_gen(args) -> int:
    cfg = D.SynthConfig(
        seed=args.seed, train_scenes=args.train_scenes, test_scenes=args.test_scenes,
        image_h=args.image_h, image_w=args.image_w, views=args.views,
        min_persons=args.min_persons, max_persons=args.max_persons,
        occlusion_drop=args.occlusion_drop,
    )
    D.generate_dataset(cfg, args.out)
    n = cfg.train_scenes + cfg.test_scenes
    print(f"wrote {n} scenes to {args.out}")
    return 0


def _cmd_train(args) -> int:
    doc = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="ascii") as f:
                doc = json.load(f)
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            raise P.PipelineError(f"{args.config}: not a JSON file: {e}") from None
        if not isinstance(doc, dict):
            raise P.PipelineError(f"{args.config}: expected a JSON object")
    overrides = {
        "data_root": args.data, "fold": args.fold, "mode": args.mode,
        "epochs": args.epochs, "lr": args.lr, "seed": args.seed,
    }
    doc.update({k: v for k, v in overrides.items() if v is not None})
    if args.no_augment:
        doc["augment"] = False
    doc["checkpoint_path"] = args.checkpoint
    cfg = P.TrainConfig.from_dict(doc, args.config or "training config")
    result = P.train(cfg)
    print(f"trained {cfg.mode} for {cfg.epochs} epochs; "
          f"best epoch {result.best_epoch} (loss {min(result.loss_curve):.4f})")
    if args.curve:
        with open(args.curve, "w", encoding="ascii") as f:
            json.dump({"mode": cfg.mode, "loss_curve": result.loss_curve}, f, indent=2)
            f.write("\n")
    return 0


def _cmd_eval(args) -> int:
    scenes = D.load_dataset(args.data, args.fold)
    if args.oracle:
        mode = args.mode or "proposed-3d"
        report = P.evaluate(scenes, mode, oracle_cfg=(1.0, 80.0))
    else:
        if not args.checkpoint:
            raise P.PipelineError("eval needs --checkpoint (or --oracle)")
        predictor, extra = P.ToyPredictor.load(args.checkpoint)
        mode = args.mode or extra.get("mode")
        if mode is None:
            raise P.PipelineError("checkpoint carries no mode; pass --mode")
        report = P.evaluate(scenes, mode, predictor)
    with open(args.report, "w", encoding="ascii") as f:
        f.write(report.to_json())
    print(f"{mode} on {report.scene_count} scenes ({report.pose_count} poses): "
          f"average MPJPE {report.mpjpe_cm['average']:.2f} cm")
    return 0


def _cmd_gradcheck(args) -> int:
    from .gradcheck import run_all
    failures = run_all(seed=args.seed, verbose=True)
    if failures:
        print(f"FAILED: {failures} gradient check(s) above tolerance", file=sys.stderr)
        return 1
    print("all gradient checks passed")
    return 0


def _cmd_match(args) -> int:
    scene = D.load_scene(args.scene)
    depths = {sv.view: sv.depth for sv in scene.views}
    cameras = {sv.view: sv.camera for sv in scene.views}
    if args.detections:
        boxes = M.load_detections(args.detections)
    else:
        boxes = {sv.view: [sv.boxes[p] for p in sorted(sv.boxes)] for sv in scene.views}
    missing = [v for v in boxes if v not in depths]
    if missing:
        raise M.MatchingError(f"detections reference unknown views {missing}")
    combos = M.match_boxes(boxes, depths, cameras, M.MatchConfig(t=args.threshold))
    doc = {
        "threshold_m": args.threshold,
        "combinations": [
            {
                "members": {str(v): i for v, i in sorted(c.members.items())},
                "mean_distance_m": c.mean_distance,
                "centers": {str(v): ([round(x, 6) for x in p.as_array()] if p else None)
                            for v, p in sorted(c.centers.items())},
            }
            for c in combos
        ],
    }
    if args.evaluate:
        annotated = {}
        for sv in scene.views:
            for p, b in sv.boxes.items():
                annotated.setdefault(p, {})[sv.view] = b
        annotated = {p: vb for p, vb in annotated.items()
                     if set(vb) == {sv.view for sv in scene.views}}
        if annotated:
            matched = M.evaluate_matching(combos, annotated, boxes,
                                          views=[sv.view for sv in scene.views])
            doc["evaluation"] = {
                str(p): {"combination": idx, "mean_iou": round(iou, 6)}
                for p, (idx, iou) in matched.items()
            }
    with open(args.out, "w", encoding="ascii") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"{len(combos)} combinations written to {args.out}")
    return 0


def _read_heatmap_file(path):
    with open(path, "rb") as f:
        header = f.read(12)
        if len(header) != 12:
            raise D.SceneFormatError(f"{path}: truncated heatmap header")
        j, h, w = struct.unpack("<III", header)
        raw = f.read()
    if len(raw) != j * h * w * 4:
        raise D.SceneFormatError(f"{path}: expected {j * h * w * 4} payload bytes")
    raster = np.frombuffer(raw, dtype="<f4").reshape(j, h, w).astype(np.float64)
    if not np.all(np.isfinite(raster)):
        raise D.SceneFormatError(f"{path}: heatmap holds non-finite values")
    return raster


def _cmd_fuse(args) -> int:
    scene = D.load_scene(args.scene)
    if not 0 <= args.person < scene.n_persons:
        raise P.PipelineError(f"scene has persons 0..{scene.n_persons - 1}, "
                              f"got --person {args.person}")
    support = scene.supporting_views(args.person)
    if not support:
        raise P.PipelineError(f"person {args.person} has no supporting views")
    if args.heatmaps:
        rasters = {}
        for v in support:
            path = os.path.join(args.heatmaps, f"view{v}_heatmaps.f32")
            rasters[v] = _read_heatmap_file(path)
            sv = scene.views[v]
            if rasters[v].shape != (len(F.JOINT_NAMES), sv.height, sv.width):
                raise D.SceneFormatError(
                    f"{path}: shape {rasters[v].shape} does not match view "
                    f"({len(F.JOINT_NAMES)}, {sv.height}, {sv.width})")
    else:
        rasters = {v: D.make_target_heatmaps(scene, v, args.person) for v in support}

    forwards = P.forward_scene(None, scene, args.person, None, None,
                               oracle_heatmaps=rasters)
    if not any(f.valid.any() for f in forwards):
        raise P.PipelineError("all pixels are exclusion-masked; nothing to fuse")
    centers = P.fused_centers(None, forwards).values
    pose = {
        "person": args.person,
        "joints_m": {name: [float(c) for c in centers[i]]
                     for i, name in enumerate(F.JOINT_NAMES)},
    }
    with open(args.out_pose, "w", encoding="ascii") as f:
        json.dump(pose, f, indent=2, sort_keys=True)
        f.write("\n")
    if args.out_points:
        acts = np.concatenate([fw.acts.values for fw in forwards], axis=1)
        coords = np.concatenate([fw.coords for fw in forwards], axis=0)
        _, weights = F.soft_center(acts, coords)
        with open(args.out_points, "w", encoding="ascii") as f:
            f.write("# joint x_m y_m z_m weight\n")
            for i, name in enumerate(F.JOINT_NAMES):
                for k in np.flatnonzero(weights[i] >= 1e-6):
                    f.write(f"{name} {coords[k, 0]:.6f} {coords[k, 1]:.6f} "
                            f"{coords[k, 2]:.6f} {weights[i, k]:.6e}\n")
    print(f"fused pose written to {args.out_pose}")
    return 0


_COMMANDS = {
    "synth-gen": _cmd_synth_gen,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "gradcheck": _cmd_gradcheck,
    "match": _cmd_match,
    "fuse": _cmd_fuse,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except _USER_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
