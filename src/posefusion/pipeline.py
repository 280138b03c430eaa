"""Trainable toy heatmap predictor, training for both loss modes, and
evaluation with the standard reporting conventions.

The predictor is a small shared-weight convolutional net applied per
view. Training mode "proposed-3d" backpropagates the mean 3D joint
error through fusion, camera projection and inverse augmentation;
"baseline-2d" trains the same network on mean 2D centre-of-mass error
and only lifts to 3D at inference, via depth indexing at the predicted
pixels.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import asdict, dataclass

import numpy as np

from . import tensorgrad as tg
from .augment import (
    AugmentError,
    AugmentationConfig,
    apply_to_input,
    identity_record,
    inverse_warp,
    invert_on_heatmap_tensor,
    sample_augmentation,
)
from .data import (
    Scene,
    _finite_number,
    load_dataset,
    make_target_heatmaps,
    quantization_bound_cm,
)
from .fusion import (
    JOINT_NAMES,
    JOINT_TYPES,
    masked_soft_centers,
    pose_distances,
    soft_center_stack,
    _multi_view_soft_centers,
    view_cloud_coords,
)
from .heatmap import DEFAULT_EPSILON, build_input_tensor, valid_pixel_mask
from .tensorgrad import AdamState, Tape, Tensor, adam_step, backward

__all__ = [
    "PipelineError",
    "ToyPredictor",
    "TrainConfig",
    "TrainResult",
    "EvalReport",
    "forward_scene",
    "fused_centers",
    "train",
    "evaluate",
    "oracle_fusion_mpjpe",
]

J = len(JOINT_NAMES)
HIDDEN_CHANNELS = 16
VIEW_BUCKET_TYPES = ("shoulder", "hip", "elbow", "wrist")


class PipelineError(ValueError):
    """Invalid training/evaluation configuration or inputs."""


# ---------------------------------------------------------------------------
# predictor


class ToyPredictor:
    """conv 5->16 + relu, conv 16->16 + relu, conv 16->J, linear output.

    One instance is shared across views; a forward pass sees one view's
    5-channel input and emits one heatmap per joint at input resolution.
    """

    PARAM_SHAPES = {
        "conv1_w": (HIDDEN_CHANNELS, 5, 3, 3),
        "conv1_b": (HIDDEN_CHANNELS,),
        "conv2_w": (HIDDEN_CHANNELS, HIDDEN_CHANNELS, 3, 3),
        "conv2_b": (HIDDEN_CHANNELS,),
        "conv3_w": (J, HIDDEN_CHANNELS, 3, 3),
        "conv3_b": (J,),
    }

    def __init__(self, params: dict):
        for name, shape in self.PARAM_SHAPES.items():
            if name not in params or params[name].shape != shape:
                raise PipelineError(f"predictor parameter '{name}' missing or misshaped")
        self.params = params

    @classmethod
    def initialise(cls, seed: int) -> "ToyPredictor":
        rng = np.random.default_rng(seed)
        params = {}
        for name, shape in cls.PARAM_SHAPES.items():
            if name.endswith("_b"):
                params[name] = Tensor(np.zeros(shape), requires_grad=True)
            else:
                fan_in = int(np.prod(shape[1:]))
                params[name] = Tensor(rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=shape),
                                      requires_grad=True)
        return cls(params)

    def forward(self, tape: Tape | None, channels: np.ndarray,
                margins: tuple = (0, 0, 0, 0)) -> Tensor:
        """Heatmaps of the (5, H, W) input ``channels``, less ``margins``
        = (top, bottom, left, right): the context pixels the input holds
        beyond the output on each side, at most HALO. A margin below HALO
        means the input ends there at the image border. Each conv then
        computes only what the next one reads: conv l zero-pads a side,
        as a whole-image run does, iff its output reaches that border
        (margin + reach of convs 1..l <= HALO), and runs "valid" there
        otherwise. With every margin 0 this is the whole-image run."""
        if len(margins) != 4 or not all(0 <= m <= HALO for m in margins):
            raise PipelineError(f"margins must be four sides in 0..{HALO}, got {margins}")
        h = Tensor(channels)
        p = self.params
        reach = 0
        for layer, radius in enumerate(_RADII, 1):
            reach += radius
            pad = tuple(radius if m + reach <= HALO else 0 for m in margins)
            h = tg.conv2d(tape, h, p[f"conv{layer}_w"], p[f"conv{layer}_b"], pad)
            if layer < len(_RADII):
                h = tg.relu(tape, h)
        return h

    def save(self, path, extra: dict | None = None) -> None:
        tg.save_checkpoint(path, self.params, extra)

    @classmethod
    def load(cls, path) -> tuple["ToyPredictor", dict]:
        params, extra = tg.load_checkpoint(path)
        try:
            return cls(params), extra
        except PipelineError as e:
            raise PipelineError(f"checkpoint {path}: {e}") from None


# Pixels of context each conv adds to what an output pixel reads, in layer
# order, and in all (HALO): outputs on a window shrunk by HALO equal those
# of a whole-image run.
_RADII = tuple((shape[-1] - 1) // 2 for name, shape in ToyPredictor.PARAM_SHAPES.items()
               if name.endswith("_w"))
HALO = sum(_RADII)


# ---------------------------------------------------------------------------
# per-person forward pass


@dataclass
class ViewForward:
    """One (person, view)'s activations at the pixels it fuses: the valid
    pixels (inside the box, with known depth) that the view's inverse
    augmentation produces."""

    view: int
    acts: Tensor              # (J, n) activations at the fused pixels
    rows: np.ndarray          # (n,) flat pixel indices, row-major
    valid: np.ndarray         # (H, W) bool
    cloud: np.ndarray         # (H*W, 3) shared-frame positions of every pixel

    @property
    def coords(self) -> np.ndarray:
        """(n, 3) shared-frame positions of the fused pixels."""
        return np.take(self.cloud, self.rows, axis=0)

    @property
    def pixels(self) -> np.ndarray:
        """(n, 2) (x, y) pixel coordinates of the fused pixels."""
        out = np.empty((self.rows.size, 2))
        out[:, 1], out[:, 0] = np.divmod(self.rows, self.valid.shape[1])
        return out


def _input_window(rec, footprint: tuple) -> tuple:
    """The part of the augmented crop the predictor reads for
    ``footprint`` (row, col, height, width within the crop): the footprint
    grown by HALO and clipped to the crop, and the margins (top, bottom,
    left, right) it holds beyond the footprint."""
    top, left, h, w = footprint
    _, _, ch, cw = rec.crop
    margins = (min(top, HALO), min(ch - top - h, HALO),
               min(left, HALO), min(cw - left - w, HALO))
    window = (top - margins[0], left - margins[2],
              h + margins[0] + margins[1], w + margins[2] + margins[3])
    return window, margins


def forward_scene(predictor: ToyPredictor, scene: Scene, person: int,
                  records: dict | None, tape: Tape | None,
                  coords_cache: dict | None = None,
                  oracle_heatmaps=None) -> list:
    """Run the per-view chain for one person: build input, augment,
    predict, invert the augmentation at the valid pixels. Returns one
    ViewForward per supporting view (empty list = no supporting views).

    Only the valid pixels (inside the person's box, with known depth) are
    fused, so each view computes only what they read. The inverse warp is
    built for the valid pixels and reads the footprint, the bounding
    rectangle of the crop pixels those read. Augmentation runs on the
    footprint grown by HALO and clipped to the crop, and the predictor
    computes the footprint from it; there its outputs equal those of a
    whole-crop run. The warp gathers the (J, n) activations of the valid
    pixels that have a pre-image in the crop; a view with none of them
    runs no predictor.

    A view without a record, or with an identity record (every inference
    view), builds only that window of its input and runs no augmentation;
    its inverse warp is the valid pixels' index map into the footprint.
    Both give the bits of the augmenting route.

    With ``oracle_heatmaps``, the predictor and augmentation are bypassed
    and the given heatmaps are fused; this is the oracle path used by
    fusion verification. It is either a dict view -> (J, H, W) raster,
    read at the valid pixels, or a function (view, valid) -> (J, n) that
    gives the heatmaps at the valid pixels only, as ``valid_pixel_mask``
    orders them.
    """
    out = []
    for sv in scene.views:
        if person not in sv.boxes:
            continue
        box = sv.boxes[person]
        valid = valid_pixel_mask(box, sv.depth)
        if coords_cache is not None:
            key = (scene.id, sv.view)
            if key not in coords_cache:
                coords_cache[key] = view_cloud_coords(sv.depth, sv.camera)
            cloud = coords_cache[key]
        else:
            cloud = view_cloud_coords(sv.depth, sv.camera)
        if oracle_heatmaps is not None:
            rows = np.flatnonzero(valid)
            acts = Tensor(oracle_heatmaps(sv.view, valid) if callable(oracle_heatmaps)
                          else oracle_heatmaps[sv.view][:, valid])
        else:
            rec = records.get(sv.view) if records else None
            if rec is None:
                rec = identity_record(sv.height, sv.width)
            warp = inverse_warp(rec, valid, footprint=True)
            if warp.rows.size:
                window, margins = _input_window(rec, warp.window)
                if rec.is_identity:
                    inp = build_input_tensor(sv.colour, sv.depth, box, window)
                else:
                    inp = apply_to_input(build_input_tensor(sv.colour, sv.depth, box),
                                         rec, window)
                heat = predictor.forward(tape, inp, margins)
            else:
                heat = Tensor(np.zeros((J, 0, 0)))
            rows = warp.rows
            acts = invert_on_heatmap_tensor(tape, heat, rec, warp)
        out.append(ViewForward(sv.view, acts, rows, valid, cloud))
    return out


def fused_centers(tape: Tape | None, forwards: list) -> Tensor:
    """(J, 3) fused joint positions of one person: per joint, the softmax
    centre of mass over every view's fused pixels, in view order.

    With no fused pixel in any view (crops that remove the box), the
    centre is the mean of the views' whole clouds: the uniform softmax
    that fusion over every pixel gives when each entry is ε."""
    if any(f.rows.size for f in forwards):
        return soft_center_stack(tape, [f.acts for f in forwards],
                                 [f.coords for f in forwards])
    cloud = np.concatenate([f.cloud for f in forwards])
    return Tensor(np.full((J, len(cloud)), 1.0 / len(cloud)) @ cloud)


def _view_centers_2d(tape: Tape | None, f: ViewForward) -> Tensor:
    """(J, 2) softmax centres of mass of one view's fused pixels; the
    pixel-grid centre when it fuses none (a uniform softmax over ε)."""
    if f.rows.size:
        return _multi_view_soft_centers(tape, [f.acts], [f.pixels], "soft_center_2d")
    h, w = f.valid.shape
    return Tensor(np.tile([(w - 1) / 2.0, (h - 1) / 2.0], (J, 1)))


def lift_and_fuse_2d(forwards: list, coms: list, depths: list) -> dict | None:
    """Baseline-2d lifting of one person's pose from its views' 2D centres.

    ``coms[i]`` holds the (J, 2) 2D centres of view ``forwards[i]`` and
    ``depths[i]`` its (H, W) depth raster. Each centre is rounded half up
    to its nearest pixel and clamped to the image; the view contributes
    that pixel's activation and shared-frame position for the joint, and
    counts only where the depth is known there and the view has a valid
    pixel. Per joint, a softmax over the activations of the counting
    views weights their positions, one masked softmax over the (J, V)
    block; a joint no view counts for is absent. Returns the pose, or None
    if every joint is absent.

    A pixel the view does not fuse (outside the box, or with no
    pre-image in the crop) reads the exclusion value ε, low enough that
    its softmax weight underflows to exactly zero beside any fused
    activation; a zero would be a live logit and would pull the fused
    joint towards that view's point."""
    values, points, known = [], [], []
    for f, c, depth in zip(forwards, coms, depths):
        h, w = f.valid.shape
        pix = (np.clip(np.floor(c[:, 1] + 0.5), 0, h - 1) * w
               + np.clip(np.floor(c[:, 0] + 0.5), 0, w - 1)).astype(np.intp)
        # f.rows is sorted, so a pixel is fused exactly when it sits at pos
        pos = np.searchsorted(f.rows, pix)
        fused = pos < f.rows.size
        fused[fused] = f.rows[pos[fused]] == pix[fused]
        read = np.full(J, DEFAULT_EPSILON)
        read[fused] = f.acts.values[fused, pos[fused]]
        values.append(read)
        points.append(f.cloud[pix])
        known.append((depth.ravel()[pix] > 0.0) & f.valid.any())
    values, points, known = (np.stack(arrays, axis=1) for arrays in (values, points, known))
    counted = known.any(axis=1)
    if not counted.any():
        return None
    centres = masked_soft_centers(values, points, known)
    return {name: c if k else None for name, c, k in zip(JOINT_NAMES, centres, counted)}


def _mean_distance(tape: Tape, predictions: list, targets: list) -> Tensor | None:
    """Mean Euclidean distance of predicted joints to their targets, as one
    tape node. ``predictions[i]`` is a (J, k) tensor and ``targets[i]``
    maps its joint rows to (k,) target arrays; rows without a target are
    not scored. None when nothing is scored."""
    terms = [(i, j, predictions[i].values[j] - target)
             for i, rows in enumerate(targets) for j, target in rows.items()]
    if not terms:
        return None
    norms = [float(np.linalg.norm(diff)) for _i, _j, diff in terms]
    total = 0.0
    for n in norms:
        total += n
    count = float(len(terms))

    def vjp(g):
        scale = g / count
        grads = [np.zeros(p.shape) for p in predictions]
        for (i, j, diff), n in zip(terms, norms):
            if n != 0.0:  # subgradient 0 at a zero distance
                grads[i][j] = scale * diff / n
        return tuple(grads)

    return tg._result(tape, tuple(predictions), total / count, vjp, "mean_distance")


def _person_loss_3d(tape: Tape, forwards: list, gt: dict) -> Tensor | None:
    """Mean 3D joint distance (meters) for one person to its pose ``gt``,
    on the tape."""
    targets = {j: gt[name] for j, name in enumerate(JOINT_NAMES) if gt[name] is not None}
    return _mean_distance(tape, [fused_centers(tape, forwards)], [targets])


def _person_loss_2d(tape: Tape, forwards: list, scene: Scene, person: int) -> Tensor | None:
    """Mean 2D joint distance (pixels) over this person's supporting views."""
    coms, targets = [], []
    for f in forwards:
        if not f.valid.any():
            continue
        coms.append(_view_centers_2d(tape, f))
        ref = scene.gt_pose2(person, f.view)
        targets.append({j: np.asarray(ref[name]) for j, name in enumerate(JOINT_NAMES)
                        if ref[name] is not None})
    return _mean_distance(tape, coms, targets)


# ---------------------------------------------------------------------------
# training


_INT = ("an integer", lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool))
_NUMBER = ("a finite number", _finite_number)
_TEXT = ("a string", lambda v: isinstance(v, str))
_PATH = ("a string or null", lambda v: v is None or isinstance(v, str))
# field name -> (what it must be, check)
_FIELD_KINDS = {
    "mode": _TEXT, "epochs": _INT, "lr": _NUMBER, "seed": _INT,
    "augment": ("true or false", lambda v: isinstance(v, bool)),
    "crop_h": _INT, "crop_w": _INT, "flip_prob": _NUMBER, "rot_deg_max": _NUMBER,
    "jitter_low": _NUMBER, "jitter_high": _NUMBER,
    "data_root": _PATH, "fold": _TEXT, "checkpoint_path": _PATH,
}


@dataclass
class TrainConfig:
    mode: str = "proposed-3d"
    epochs: int = 12
    lr: float = 1e-3
    seed: int = 0
    augment: bool = True
    crop_h: int = 56
    crop_w: int = 72
    flip_prob: float = 0.5
    rot_deg_max: float = 15.0
    jitter_low: float = 0.8
    jitter_high: float = 1.2
    data_root: str | None = None
    fold: str = "train"
    checkpoint_path: str | None = None

    MODES = ("proposed-3d", "baseline-2d")

    def __post_init__(self):
        for name in self.__dataclass_fields__:
            value = getattr(self, name)
            kind, accepts = _FIELD_KINDS[name]
            if not accepts(value):
                raise PipelineError(f"training config field '{name}' must be {kind}, "
                                    f"got {value!r}")
        if self.mode not in self.MODES:
            raise PipelineError(f"mode must be one of {self.MODES}, got '{self.mode}'")
        if self.epochs <= 0 or self.lr <= 0:
            raise PipelineError("epochs and lr must be positive")
        if self.seed < 0:
            raise PipelineError(f"seed must not be negative, got {self.seed}")
        # the sampling ranges train draws from; the image size is the crop's
        # here, since each view's crop is clipped to its image
        try:
            AugmentationConfig(
                image_h=self.crop_h, image_w=self.crop_w, crop_h=self.crop_h,
                crop_w=self.crop_w, flip_prob=self.flip_prob, rot_deg_max=self.rot_deg_max,
                jitter_low=self.jitter_low, jitter_high=self.jitter_high)
        except AugmentError as e:
            raise PipelineError(f"training config augmentation: {e}") from None

    @classmethod
    def from_dict(cls, doc: dict, source: str = "training config") -> "TrainConfig":
        """Build a config from a JSON document; errors name ``source``."""
        unknown = set(doc) - set(cls.__dataclass_fields__)
        if unknown:
            raise PipelineError(f"{source}: unknown training config keys: {sorted(unknown)}")
        try:
            return cls(**doc)
        except PipelineError as e:
            raise PipelineError(f"{source}: {e}") from None


@dataclass
class TrainResult:
    predictor: ToyPredictor
    loss_curve: list
    best_epoch: int
    mode: str


def train(cfg: TrainConfig, scenes: list | None = None) -> TrainResult:
    """Deterministic training over scenes (batch = one scene: gradients
    are accumulated over that scene's persons, then one Adam step)."""
    if scenes is None:
        if cfg.data_root is None:
            raise PipelineError("no scenes given and no data_root configured")
        scenes = load_dataset(cfg.data_root, cfg.fold)
    if not scenes:
        raise PipelineError("training dataset is empty")

    rng = np.random.default_rng(cfg.seed)
    predictor = ToyPredictor.initialise(cfg.seed)
    state = AdamState(lr=cfg.lr)
    # one cloud cache per scene: scene ids repeat across datasets
    coords_caches = [{} for _ in scenes]
    curve = []
    best = np.inf
    best_epoch = -1

    for epoch in range(cfg.epochs):
        order = rng.permutation(len(scenes))
        epoch_losses = []
        for idx in order:
            scene = scenes[idx]
            person_grads = []
            person_losses = []
            for person in scene.persons():
                views = scene.supporting_views(person)
                if not views:
                    continue
                records = {}
                for v in views:
                    sv = scene.views[v]
                    if cfg.augment:
                        aug_cfg = AugmentationConfig(
                            image_h=sv.height, image_w=sv.width,
                            crop_h=min(cfg.crop_h, sv.height), crop_w=min(cfg.crop_w, sv.width),
                            flip_prob=cfg.flip_prob, rot_deg_max=cfg.rot_deg_max,
                            jitter_low=cfg.jitter_low, jitter_high=cfg.jitter_high,
                        )
                        records[v] = sample_augmentation(aug_cfg, rng)
                    else:
                        records[v] = identity_record(sv.height, sv.width)
                tape = Tape()
                forwards = forward_scene(predictor, scene, person, records, tape,
                                         coords_cache=coords_caches[idx])
                if not any(f.valid.any() for f in forwards):
                    continue
                if cfg.mode == "proposed-3d":
                    loss = _person_loss_3d(tape, forwards, scene.gt_pose3(person))
                else:
                    loss = _person_loss_2d(tape, forwards, scene, person)
                if loss is None:
                    continue
                grads = backward(tape, loss)
                person_grads.append({name: grads.get(t) for name, t in predictor.params.items()})
                person_losses.append(loss.item())
            if not person_losses:
                continue
            scale = 1.0 / len(person_losses)
            total = {}
            for g in person_grads:
                for name, arr in g.items():
                    if arr is None:
                        continue
                    if name in total:
                        total[name] += arr * scale
                    else:
                        total[name] = arr * scale
            adam_step(predictor.params, total, state)
            epoch_losses.append(float(np.mean(person_losses)))
        mean_loss = float(np.mean(epoch_losses)) if epoch_losses else np.inf
        curve.append(mean_loss)
        if mean_loss < best:
            best = mean_loss
            best_epoch = epoch
            if cfg.checkpoint_path:
                predictor.save(cfg.checkpoint_path,
                               extra={"mode": cfg.mode, "epoch": epoch, "loss": mean_loss})
    if cfg.checkpoint_path and best_epoch < 0:
        predictor.save(cfg.checkpoint_path, extra={"mode": cfg.mode, "epoch": -1})
    return TrainResult(predictor=predictor, loss_curve=curve, best_epoch=best_epoch, mode=cfg.mode)


# ---------------------------------------------------------------------------
# inference and evaluation


def _predict_pose3(predictor: ToyPredictor | None, scene: Scene, person: int,
                   mode: str, coords_cache: dict | None = None,
                   oracle_cfg: tuple | None = None) -> dict | None:
    if oracle_cfg is not None:
        sigma, amplitude = oracle_cfg

        def oracle(view, valid):
            return make_target_heatmaps(scene, view, person, sigma, amplitude, valid)

        forwards = forward_scene(None, scene, person, None, None,
                                 coords_cache=coords_cache, oracle_heatmaps=oracle)
    else:
        forwards = forward_scene(predictor, scene, person, None, None,
                                 coords_cache=coords_cache)
    if not forwards or not any(f.valid.any() for f in forwards):
        return None

    if mode == "proposed-3d":
        return dict(zip(JOINT_NAMES, fused_centers(None, forwards).values))
    return lift_and_fuse_2d(forwards, [_view_centers_2d(None, f).values for f in forwards],
                            [scene.views[f.view].depth.raster for f in forwards])


@dataclass
class EvalReport:
    mode: str
    scene_count: int
    pose_count: int
    mpjpe_cm: dict                     # joint type -> cm, plus "average"
    per_view_support: dict             # str(view count) -> {type: cm, "average": cm, "pose_count": n}

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"


def _mean(values: list) -> float:
    """The mean of a list of floats in ``np.mean``'s own arithmetic (one
    ``np.add.reduce``, then a division), without its overhead."""
    return float(np.add.reduce(values) / len(values))


def _type_scores(distances: dict) -> dict:
    """Per-joint-type MPJPE in cm from {(person-key, joint-name): meters},
    averaging the left and right part scores of paired types."""
    per_joint = {}
    for (_key, name), dist in distances.items():
        per_joint.setdefault(name, []).append(dist)
    scores = {}
    for jtype, members in JOINT_TYPES.items():
        member_scores = [_mean(per_joint[m]) * 100.0 for m in members if m in per_joint]
        if member_scores:
            scores[jtype] = _mean(member_scores)
    return scores


def evaluate(scenes: list, mode: str, predictor: ToyPredictor | None = None,
             oracle_cfg: tuple | None = None) -> EvalReport:
    """Score a dataset: per-joint-type MPJPE with left/right averaging,
    and the per-supporting-view-count breakdown over shoulders, hips,
    elbows and wrists."""
    if mode not in TrainConfig.MODES:
        raise PipelineError(f"unknown evaluation mode '{mode}'")
    if predictor is None and oracle_cfg is None:
        raise PipelineError("evaluate needs a predictor or an oracle configuration")
    if not scenes:
        raise PipelineError("evaluation dataset is empty")
    all_dists = {}
    bucket_dists = {}
    bucket_poses = {}
    pose_count = 0
    for si, scene in enumerate(scenes):
        # one cloud cache per scene: scene ids repeat across datasets
        coords_cache: dict = {}
        for person in scene.persons():
            support = len(scene.supporting_views(person))
            if support == 0:
                continue
            pred = _predict_pose3(predictor, scene, person, mode,
                                  coords_cache=coords_cache, oracle_cfg=oracle_cfg)
            if pred is None:
                continue
            dists = pose_distances(pred, scene.gt_pose3(person))
            if not dists:
                continue
            pose_count += 1
            for name, dv in dists.items():
                all_dists[((si, person), name)] = dv
                bucket_dists.setdefault(support, {})[((si, person), name)] = dv
            bucket_poses[support] = bucket_poses.get(support, 0) + 1

    scores = _type_scores(all_dists)
    if not scores:
        raise PipelineError("no scorable poses in evaluation dataset")
    scores["average"] = _mean([scores[t] for t in JOINT_TYPES if t in scores])

    per_view = {}
    for support, dists in sorted(bucket_dists.items()):
        s = _type_scores(dists)
        entry = {t: s[t] for t in VIEW_BUCKET_TYPES if t in s}
        if entry:
            entry["average"] = _mean(list(entry.values()))
        entry["pose_count"] = bucket_poses[support]
        per_view[str(support)] = entry

    return EvalReport(mode=mode, scene_count=len(scenes), pose_count=pose_count,
                      mpjpe_cm=scores, per_view_support=per_view)


def oracle_fusion_mpjpe(scene: Scene, sigma: float = 1.0,
                        amplitude: float = 80.0) -> tuple[float, float]:
    """Fuse ideal Gaussian heatmaps through the full pipeline and compare
    with the scene's quantization bound.

    Returns (pipeline MPJPE cm, bound cm), both averaged over the joints
    that are visible in at least one supporting view.
    """
    coords_cache: dict = {}
    dists = []
    for person in scene.persons():
        support = scene.supporting_views(person)
        if not support:
            continue
        pred = _predict_pose3(None, scene, person, "proposed-3d", coords_cache,
                              (sigma, amplitude))
        if pred is None:
            continue
        gt = scene.joints3d[person]
        for name in JOINT_NAMES:
            if not any(scene.visibility[(person, v)][name] for v in support):
                continue
            dists.append(float(np.linalg.norm(pred[name] - gt[name])))
    if not dists:
        raise PipelineError(f"{scene.id}: nothing to score in oracle fusion")
    return float(np.mean(dists)) * 100.0, quantization_bound_cm(scene)
