import dataclasses

import numpy as np
import pytest

from posefusion.augment import InverseWarp
from posefusion.geometry import RigidTransform


def random_rotation(rng) -> np.ndarray:
    """Uniform random rotation matrix from a random unit quaternion."""
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def random_rigid(rng, translation_scale: float = 2.0) -> RigidTransform:
    return RigidTransform.from_rotation_translation(
        random_rotation(rng), rng.normal(scale=translation_scale, size=3)
    )


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def float_inverse_warp(rec, keep):
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


def materialised(scene):
    """The scene with every view's colour copied into three full writable
    planes: the reference that a grey view, one plane broadcast to three,
    must match bit for bit."""
    return dataclasses.replace(scene, views=[dataclasses.replace(sv, colour=np.array(sv.colour))
                                             for sv in scene.views])
