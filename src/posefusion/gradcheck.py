"""Finite-difference verification suites.

Four suites mirror the layers of the differentiation stack: every
forward op and loss node, the softmax-centre node's adjoint, the inverse
augmentation's transpose adjoint, and the full scene-to-loss chain with
respect to every predictor parameter. Between them they record every
node kind a training step puts on the tape. The CLI ``gradcheck``
command runs them all and exits nonzero on any tolerance violation.
"""

from __future__ import annotations

import numpy as np

from . import tensorgrad as tg
from .augment import AugmentationRecord, inverse_warp, invert_on_heatmap_tensor
from .data import SynthConfig, generate_synthetic
from .fusion import _multi_view_soft_centers, soft_center_stack
from .pipeline import ToyPredictor, _mean_distance, _person_loss_3d, forward_scene
from .tensorgrad import Tensor, finite_difference_check

__all__ = ["tiny_synth_config", "op_gradient_errors", "aggregate_adjoint_error",
           "augment_adjoint_error", "full_chain_errors", "run_all"]

OP_TOLERANCE = 1e-6
AGGREGATE_TOLERANCE = 1e-6
AUGMENT_TOLERANCE = 1e-6
CHAIN_TOLERANCE = 1e-4
CHAIN_STEP = 1e-5


def tiny_synth_config(seed: int = 0) -> SynthConfig:
    """A 3-view 16x20 scene configuration for cheap gradient checks.

    Radii are inflated so the coarse pixel grid still sees the figures.
    """
    return SynthConfig(
        image_h=16, image_w=20, focal=14.0,
        min_persons=1, max_persons=1,
        joint_radius=0.14, capsule_radius=0.12,
        train_scenes=1, test_scenes=0, seed=seed,
    )


def _away_from(rng, size, low, high, kink_margin):
    """Uniform values in [low, high] kept clear of zero (relu/norm kinks)."""
    v = rng.uniform(low, high, size=size)
    small = np.abs(v) < kink_margin
    v[small] = np.sign(v[small] + 1e-30) * kink_margin
    return v


def op_gradient_errors(seed: int = 0) -> dict:
    """Max relative FD error for every differentiable forward op and the
    loss node, evaluated at random points bounded in [-3, 3]."""
    rng = np.random.default_rng(seed)
    a = Tensor(rng.uniform(-3, 3, size=(4, 5)))
    b = Tensor(rng.uniform(-3, 3, size=(4, 5)))
    r = Tensor(rng.uniform(-1, 1, size=(4, 5)))
    errors = {}

    def fd(name, fn, point, step=1e-6):
        errors[name] = finite_difference_check(fn, point, step)

    fd("add", lambda tp, v: tg.mean(tp, tg.multiply(tp, tg.add(tp, v, b), r)), a)
    fd("subtract", lambda tp, v: tg.mean(tp, tg.multiply(tp, tg.subtract(tp, a, v), r)), b)
    fd("multiply", lambda tp, v: tg.mean(tp, tg.multiply(tp, tg.multiply(tp, v, b), r)), a)
    fd("scalar_divide", lambda tp, v: tg.mean(tp, tg.multiply(tp, tg.scalar_divide(tp, v, 2.7), r)), a)
    fd("mean", lambda tp, v: tg.mean(tp, v), a)

    relu_in = Tensor(_away_from(rng, (4, 5), -3, 3, 1e-3))
    fd("relu", lambda tp, v: tg.mean(tp, tg.multiply(tp, tg.relu(tp, v), r)), relu_in)

    x_img = Tensor(rng.uniform(-3, 3, size=(2, 6, 7)))
    w_conv = Tensor(rng.uniform(-3, 3, size=(3, 2, 3, 3)))
    b_conv = Tensor(rng.uniform(-3, 3, size=(3,)))
    r_img = Tensor(rng.uniform(-1, 1, size=(3, 6, 7)))

    def conv_loss(tp, y):
        return tg.mean(tp, tg.multiply(tp, y, r_img))

    fd("conv2d_x", lambda tp, v: conv_loss(tp, tg.conv2d(tp, v, w_conv, b_conv)), x_img)
    fd("conv2d_w", lambda tp, v: conv_loss(tp, tg.conv2d(tp, x_img, v, b_conv)), w_conv)
    fd("conv2d_b", lambda tp, v: conv_loss(tp, tg.conv2d(tp, x_img, w_conv, v)), b_conv)
    # "valid" on the top and right, zero-padded on the bottom and left
    mixed, r_mixed = (0, 1, 1, 0), Tensor(r_img.values[:, :5, :6])

    def mixed_loss(tp, x, w):
        return tg.mean(tp, tg.multiply(tp, tg.conv2d(tp, x, w, b_conv, mixed), r_mixed))

    fd("conv2d_x_pad_0110", lambda tp, v: mixed_loss(tp, v, w_conv), x_img)
    fd("conv2d_w_pad_0110", lambda tp, v: mixed_loss(tp, x_img, v), w_conv)

    acts = Tensor(rng.uniform(-3, 3, size=(2, 8)))
    pixels = rng.integers(0, 9, size=(8, 2)).astype(np.float64)
    r_2d = Tensor(rng.uniform(-1, 1, size=(2, 2)))
    fd("soft_center_2d", lambda tp, v: tg.mean(tp, tg.multiply(tp, _multi_view_soft_centers(
        tp, [v], [pixels], "soft_center_2d"), r_2d)), acts)

    norm_in = Tensor(rng.uniform(1, 3, size=(5,)))
    fd("euclidean_norm", lambda tp, v: tg.euclidean_norm(tp, v), norm_in)

    # every scored distance at least 0.1*sqrt(3) from the kink at zero; a
    # constant second prediction adds to the count the mean divides by
    pred = Tensor(rng.uniform(-3, 3, size=(4, 3)))
    targets = {j: pred.values[j] + _away_from(rng, 3, -1, 1, 0.1) for j in (0, 2, 3)}
    other = Tensor(rng.uniform(-3, 3, size=(2, 2)))
    other_targets = {1: other.values[1] + _away_from(rng, 2, -1, 1, 0.1)}
    fd("mean_distance",
       lambda tp, v: _mean_distance(tp, [v, other], [targets, other_targets]), pred)

    # 16 input channels: the conv kernel without a patch matrix
    x16 = Tensor(rng.uniform(-3, 3, size=(16, 5, 6)))
    w16 = Tensor(rng.uniform(-3, 3, size=(3, 16, 3, 3)))
    b16 = Tensor(rng.uniform(-3, 3, size=(3,)))
    r16 = Tensor(rng.uniform(-1, 1, size=(3, 5, 6)))

    def conv16_loss(tp, x, w, b, pad=(1, 1, 1, 1)):
        y = tg.conv2d(tp, x, w, b, pad)
        return tg.mean(tp, tg.multiply(tp, y, Tensor(r16.values[:, :y.shape[1], :y.shape[2]])))

    fd("conv2d_x_16ch", lambda tp, v: conv16_loss(tp, v, w16, b16), x16)
    fd("conv2d_w_16ch", lambda tp, v: conv16_loss(tp, x16, v, b16), w16)
    fd("conv2d_b_16ch", lambda tp, v: conv16_loss(tp, x16, w16, v), b16)
    fd("conv2d_x_16ch_pad_0110", lambda tp, v: conv16_loss(tp, v, w16, b16, mixed), x16)
    return errors


def aggregate_adjoint_error(seed: int = 0, points: int = 12) -> float:
    """FD error of the softmax-centre node's adjoint on a random cloud."""
    rng = np.random.default_rng(seed)
    coords = rng.uniform(-2, 2, size=(points, 3))
    acts = Tensor(rng.uniform(-3, 3, size=(1, points)))
    g = Tensor(rng.uniform(-1, 1, size=(1, 3)))

    def fn(tp, v):
        return tg.mean(tp, tg.multiply(tp, soft_center_stack(tp, [v], [coords]), g))

    return finite_difference_check(fn, acts, 1e-6)


def augment_adjoint_error(seed: int = 0) -> float:
    """FD error of the inverse-augmentation transpose adjoint."""
    rng = np.random.default_rng(seed)
    rec = AugmentationRecord(image_h=12, image_w=14, flip=True,
                             crop=(1, 2, 10, 11), rotation_deg=9.5,
                             jitter=(1.0, 1.0, 1.0))
    x = Tensor(rng.uniform(-3, 3, size=(2, 10, 11)))
    # the cotangent of every original-frame pixel with a pre-image
    rows = inverse_warp(rec).rows
    r = Tensor(rng.uniform(-1, 1, size=(2, 12 * 14))[:, rows])

    def fn(tp, v):
        inv = invert_on_heatmap_tensor(tp, v, rec)
        return tg.mean(tp, tg.multiply(tp, inv, r))

    return finite_difference_check(fn, x, 1e-6)


def full_chain_errors(seed: int = 0) -> dict:
    """FD error of the scene-to-loss chain w.r.t. every predictor
    parameter tensor, on a 3-view 16x20 scene with a non-trivial
    augmentation on each view."""
    scenes, _ = generate_synthetic(tiny_synth_config(seed))
    scene = scenes[0]
    records = {}
    for sv in scene.views:
        records[sv.view] = AugmentationRecord(
            image_h=sv.height, image_w=sv.width,
            flip=(sv.view % 2 == 0),
            crop=(1, 1, sv.height - 2, sv.width - 2),
            rotation_deg=(-6.0, 0.0, 7.5)[sv.view % 3],
            jitter=(1.0, 1.0, 1.0),
        )
    base = ToyPredictor.initialise(seed)
    errors = {}
    for name in sorted(base.params):
        def fn(tp, v, _name=name):
            params = dict(base.params)
            params[_name] = v
            predictor = ToyPredictor(params)
            forwards = forward_scene(predictor, scene, 0, records, tp)
            loss = _person_loss_3d(tp, forwards, scene.gt_pose3(0))
            if loss is None:
                raise RuntimeError("tiny scene produced no scorable joints")
            return loss
        errors[name] = finite_difference_check(fn, base.params[name], CHAIN_STEP)
    return errors


def run_all(seed: int = 0, verbose: bool = False) -> int:
    """Run every suite; returns the number of failed checks."""
    failures = 0

    def report(name, err, tol):
        nonlocal failures
        ok = err < tol
        failures += (not ok)
        if verbose:
            print(f"  {name:<28s} max rel err {err:.3e}  (tol {tol:.0e})  "
                  f"{'ok' if ok else 'FAIL'}")

    if verbose:
        print("forward op gradients:")
    for name, err in op_gradient_errors(seed).items():
        report(name, err, OP_TOLERANCE)
    if verbose:
        print("softmax-centre adjoint:")
    report("aggregate_adjoint", aggregate_adjoint_error(seed), AGGREGATE_TOLERANCE)
    if verbose:
        print("inverse augmentation adjoint:")
    report("invert_on_heatmap", augment_adjoint_error(seed), AUGMENT_TOLERANCE)
    if verbose:
        print("full scene-to-loss chain:")
    for name, err in full_chain_errors(seed).items():
        report(f"chain/{name}", err, CHAIN_TOLERANCE)
    return failures
