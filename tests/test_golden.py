"""Golden outputs: training loss curves, evaluation reports and oracle
fusion centres, compared with values recorded in golden.json.

Any change to the arithmetic of the predictor, the augmentation, the
inverse warp or fusion that is not meant to change results must leave
this test passing as it is. Only an intended numeric change re-records
the data, with ``python tests/test_golden.py --record``.
"""

import json
import math
import sys
from pathlib import Path

from posefusion.data import SynthConfig, generate_synthetic, make_target_heatmaps
from posefusion.pipeline import (ToyPredictor, TrainConfig, evaluate, forward_scene,
                                 fused_centers, train)

GOLDEN = Path(__file__).with_name("golden.json")
REL, ABS = 1e-9, 1e-12
MODES = ("proposed-3d", "baseline-2d")


def compute() -> dict:
    train_scenes, _ = generate_synthetic(SynthConfig(seed=11, train_scenes=3, test_scenes=0))
    curves = {mode: train(TrainConfig(mode=mode, epochs=2, seed=0), train_scenes).loss_curve
              for mode in MODES}

    # occluded views give persons seen in one, two and three views
    _, eval_scenes = generate_synthetic(SynthConfig(seed=12, train_scenes=0, test_scenes=4,
                                                    occlusion_drop=0.35))
    predictor = ToyPredictor.initialise(5)
    reports = {mode: json.loads(evaluate(eval_scenes, mode, predictor).to_json())
               for mode in MODES}

    oracle = {}
    for scene in train_scenes[:2]:
        for person in scene.persons():
            heatmaps = {v: make_target_heatmaps(scene, v, person)
                        for v in scene.supporting_views(person)}
            forwards = forward_scene(None, scene, person, None, None, oracle_heatmaps=heatmaps)
            centers = fused_centers(None, forwards)
            oracle[f"{scene.id}/{person}"] = centers.values.tolist()
    return {"loss_curves": curves, "eval_reports": reports, "oracle_centers": oracle}


def _mismatches(got, want, path="") -> list:
    if isinstance(want, dict):
        if not isinstance(got, dict) or got.keys() != want.keys():
            return [f"{path}: keys {sorted(got) if isinstance(got, dict) else got} "
                    f"!= {sorted(want)}"]
        return [m for k in want for m in _mismatches(got[k], want[k], f"{path}/{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: {got} != {want}"]
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in _mismatches(g, w, f"{path}[{i}]")]
    if isinstance(want, float):
        if not (isinstance(got, float) and math.isfinite(got)
                and abs(got - want) <= ABS + REL * abs(want)):
            return [f"{path}: {got!r} != {want!r}"]
        return []
    return [] if got == want and type(got) is type(want) else [f"{path}: {got!r} != {want!r}"]


def test_outputs_match_golden_data():
    mismatches = _mismatches(compute(), json.loads(GOLDEN.read_text(encoding="ascii")))
    assert not mismatches, "\n".join(mismatches[:20])


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_golden.py --record")
    GOLDEN.write_text(json.dumps(compute(), indent=1, sort_keys=True) + "\n", encoding="ascii")
