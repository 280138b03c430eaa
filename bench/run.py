#!/usr/bin/env python3
"""posefusion benchmark: closed-loop train, eval and synth workloads.

Run from the root of a posefusion checkout:

    python3 bench/run.py --workload {train,eval,synth,all} --seed N --seconds S --trace {0,1}
    python3 bench/run.py --record-reference      # rewrite bench/reference.json

One client in one process: each operation starts when the previous one
returns. Inputs are generated from the workload seed; the program only
receives the generated scenes. Operations run in whole cycles over a
fixed list, so every run sees the same mix of scenes and loss modes.

``--trace 0`` measures the end-to-end metrics of BENCHMARK.json with no
instrumentation. ``--trace 1`` runs the same loop untraced for half the
time and traced (bench/tracing.py) for the other half, and reports the
per-layer metrics derived as bench/layers.json says. Human-readable lines
go first; the last line of stdout is the JSON result. ``failed`` counts
every operation that raised or failed a check; ``correct`` is false when
one of them is not among the failures bench/reference.json records for
the program as it was when the references were taken.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".bench_out"

# One BLAS thread: a 2-core machine shared with other work gives the
# steadiest figures single-threaded. Set through POSEFUSION_THREADS, with
# inherited per-library overrides removed so that it takes effect.
BLAS_THREADS = 1

# setup_s is the median of at least SETUP_REPEATS set-ups that together
# take at least SETUP_MIN_S: synth's set-up is one 30 ms operation, too
# short for three samples to give a steady median.
SETUP_REPEATS = 3
SETUP_MIN_S = 1.0
TRAIN_EPOCHS = 2
MODES = ("proposed-3d", "baseline-2d")
REFERENCE_SEEDS = range(10)
# scene_ms_tail is valid with at least this many latencies beyond its
# percentile; the timed loop runs on past --seconds to reach it, for at
# most MEASURE_CAP_S in all.
TAIL_MIN_BEYOND = 10
MEASURE_CAP_S = 120.0
# Criterion 3 allows the oracle MPJPE this far above the quantization bound.
ORACLE_SLACK_CM = 1e-4


def _import_program():
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.pop(var, None)
    os.environ["POSEFUSION_THREADS"] = str(BLAS_THREADS)
    src = ROOT / "src"
    if not (src / "posefusion" / "__init__.py").is_file():
        sys.exit(f"bench: {src / 'posefusion'} not found; run from a posefusion checkout")
    sys.path.insert(0, str(src))
    global np, D, M, P
    # posefusion first: it applies POSEFUSION_THREADS before numpy loads BLAS
    from posefusion import data as D, matching as M, pipeline as P
    import numpy as np


# ---------------------------------------------------------------------------
# output checks


def _close(got, want, rel: float, abs_: float) -> bool:
    """Structural equality with a float tolerance; ints, strings exact."""
    if isinstance(want, dict):
        return (isinstance(got, dict) and got.keys() == want.keys()
                and all(_close(got[k], want[k], rel, abs_) for k in want))
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(_close(g, w, rel, abs_) for g, w in zip(got, want)))
    if isinstance(want, float) and isinstance(got, float):
        return abs(got - want) <= abs_ + rel * abs(want)
    return type(got) is type(want) and got == want


def _finite(value) -> bool:
    if isinstance(value, dict):
        return all(_finite(v) for v in value.values())
    if isinstance(value, list):
        return all(_finite(v) for v in value)
    if isinstance(value, float):
        return math.isfinite(value)
    return True


def _scene_digest(directory: Path) -> str:
    """sha256 over the names and bytes of a scene directory's files."""
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode("ascii") + b"\0" + path.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# scene selection
#
# The work an operation does grows with the number of (person, supporting
# view) pairs in its scene, and a handful of freely drawn scenes varies in
# that by tens of percent from seed to seed. Each workload therefore fixes
# a list of signatures (the sorted supporting-view counts of a scene's
# persons) in the proportions measured on the test suite's own fixtures,
# and takes each from the seed's stream of scenes. The seed still decides
# every scene; the work per cycle hardly depends on it.
#
# TRAIN_SIGNATURES: the acceptance 7/8 training set (default SynthConfig,
# seed 404, 200 scenes) has (3,) 71, (3, 3, 3) 58, (3, 3) 54, (2, 3, 3) 13
# and (2, 3) 4; 14 slots by largest remainder. 4.3% of its persons are
# seen in 2 views, 3.6% here.
# EVAL_SIGNATURES: the criterion-8 set (occlusion_drop=0.35, seed 505, 50
# scenes) halved to 25 slots. Signatures it holds once and that a scene of
# their person count shows under 5% of the time ((1, 1, 1), (1, 1, 3),
# (1, 3, 3)) give way to (1, 1, 2), its most common 3-person signature.
# Persons in 1/2/3 views: fixture 34/42/23%, here 33/45/22%; persons per
# scene 1.98 and 1.96.

TRAIN_SIGNATURES = [(3,)] * 5 + [(3, 3)] * 4 + [(3, 3, 3)] * 4 + [(2, 3, 3)]
EVAL_SIGNATURES = ([(1,)] * 2 + [(2,)] * 3 + [(3,)] * 3
                   + [(1, 2)] * 4 + [(1, 3)] * 2 + [(2, 2)] * 2 + [(2, 3)] * 2
                   + [(1, 1, 2)] * 3 + [(1, 2, 2), (1, 2, 3), (2, 2, 3), (2, 3, 3)])
SYNTH_SIGNATURES = TRAIN_SIGNATURES
SELECT_ATTEMPTS = 1000


def _generate(cfg):
    train, test = D.generate_synthetic(cfg)
    return (train + test)[0]


def _signature(scene) -> tuple:
    return tuple(sorted(len(scene.supporting_views(p)) for p in scene.persons()))


def select_configs(seed: int, signatures: list, **fields) -> list:
    """One single-scene SynthConfig per signature. Scenes with n persons
    come from one stream per (seed, n); each fills the next open slot
    with its signature."""
    picked: dict = {sig: [] for sig in signatures}
    wanted = Counter(signatures)
    for n in sorted({len(sig) for sig in signatures}):
        open_slots = sum(c for sig, c in wanted.items() if len(sig) == n)
        for attempt in range(SELECT_ATTEMPTS):
            cfg = D.SynthConfig(seed=(seed * 10 + n) * SELECT_ATTEMPTS + attempt,
                                min_persons=n, max_persons=n, **fields)
            sig = _signature(_generate(cfg))
            if len(picked.get(sig, ())) < wanted[sig]:
                picked[sig].append(cfg)
                open_slots -= 1
                if not open_slots:
                    break
        else:
            raise RuntimeError(f"no scenes for all {n}-person signatures on seed {seed}")
    return [picked[sig].pop(0) for sig in signatures]


# ---------------------------------------------------------------------------
# workloads: select(seed) picks the scene configurations (not timed);
# setup(seed, configs) builds the inputs and runs one warm-up operation;
# items(state) is one cycle of operations; run(state, item) is the timed
# call; check(state, item, result) returns (reference entry, invariant
# errors); units is the scenes one operation processes, persons(state,
# item) the persons it iterates.


class Train:
    """One operation trains one scene from scratch in each loss mode."""

    name = "train"
    tail_percentile = 75
    units = TRAIN_EPOCHS * len(MODES)

    def select(self, seed):
        return select_configs(seed, TRAIN_SIGNATURES, train_scenes=1, test_scenes=0)

    def setup(self, seed, configs):
        state = {"seed": seed, "scenes": [_generate(c) for c in configs]}
        self.run(state, 0)
        return state

    def items(self, state):
        return range(len(state["scenes"]))

    def run(self, state, item):
        return {mode: P.train(P.TrainConfig(mode=mode, epochs=TRAIN_EPOCHS, seed=state["seed"]),
                              [state["scenes"][item]])
                for mode in MODES}

    def check(self, state, item, result):
        entry = {mode: [float(x) for x in r.loss_curve] for mode, r in result.items()}
        errors = [f"{mode} loss curve {curve}: expected {TRAIN_EPOCHS} finite values"
                  for mode, curve in entry.items()
                  if len(curve) != TRAIN_EPOCHS or not _finite(curve)]
        return entry, errors

    def persons(self, state, item):
        return state["scenes"][item].n_persons * self.units


def _scorable_persons(scene) -> int:
    """Persons with a supporting view whose box holds a known-depth pixel,
    computed from the scene alone."""
    count = 0
    for p in scene.persons():
        for sv in scene.views:
            b = sv.boxes.get(p)
            if b is not None and (sv.depth.raster[b.y_min:b.y_max, b.x_min:b.x_max] > 0).any():
                count += 1
                break
    return count


class Eval:
    """One operation evaluates one scene under each loss mode."""

    name = "eval"
    tail_percentile = 95
    units = len(MODES)

    def select(self, seed):
        return select_configs(seed, EVAL_SIGNATURES, train_scenes=0, test_scenes=1,
                              occlusion_drop=0.35)

    def setup(self, seed, configs):
        scenes = [_generate(c) for c in configs]
        state = {"scenes": scenes, "predictor": P.ToyPredictor.initialise(seed),
                 "scorable": [_scorable_persons(s) for s in scenes]}
        self.run(state, 0)
        return state

    def items(self, state):
        return range(len(state["scenes"]))

    def run(self, state, item):
        return {mode: P.evaluate([state["scenes"][item]], mode, state["predictor"])
                for mode in MODES}

    def check(self, state, item, result):
        entry = {mode: json.loads(r.to_json()) for mode, r in result.items()}
        errors = []
        for mode, report in entry.items():
            if not _finite(report):
                errors.append(f"{mode} EvalReport holds non-finite values")
            if report["pose_count"] != state["scorable"][item]:
                errors.append(f"{mode} pose_count {report['pose_count']} != "
                              f"{state['scorable'][item]} scorable persons")
        return entry, errors

    def persons(self, state, item):
        return state["scenes"][item].n_persons * self.units


class Synth:
    """One operation generates, saves, loads, matches and oracle-fuses one scene."""

    name = "synth"
    tail_percentile = 95
    units = 1

    def select(self, seed):
        return select_configs(seed, SYNTH_SIGNATURES, train_scenes=1, test_scenes=0)

    def setup(self, seed, configs):
        state = {"configs": configs, "work": OUT_DIR / f"work-{os.getpid()}"}
        self._discard(self.run(state, 0))
        return state

    def items(self, state):
        return range(len(state["configs"]))

    def run(self, state, item):
        cfg = state["configs"][item]
        scene = _generate(cfg)
        directory = state["work"] / f"scene_{item}"
        D.save_scene(scene, directory)
        loaded = D.load_scene(directory)
        views = [sv.view for sv in loaded.views]
        boxes = {sv.view: [sv.boxes[p] for p in sorted(sv.boxes)] for sv in loaded.views}
        combos = M.match_boxes(boxes, {sv.view: sv.depth for sv in loaded.views},
                               {sv.view: sv.camera for sv in loaded.views})
        annotated = {}
        for sv in loaded.views:
            for p, b in sv.boxes.items():
                annotated.setdefault(p, {})[sv.view] = b
        annotated = {p: vb for p, vb in annotated.items() if set(vb) == set(views)}
        matched = M.evaluate_matching(combos, annotated, boxes, views) if annotated else {}
        mpjpe, bound = P.oracle_fusion_mpjpe(loaded, cfg.heatmap_sigma, cfg.heatmap_amplitude)
        return {"scene": loaded, "dir": directory, "matched": matched,
                "mpjpe_cm": mpjpe, "bound_cm": bound}

    def check(self, state, item, result):
        directory = result["dir"]
        try:
            digest = _scene_digest(directory)
            resaved = directory.with_name(directory.name + "_resaved")
            D.save_scene(result["scene"], resaved)
            round_trip = _scene_digest(resaved)
        finally:
            self._discard(result)
        ious = [float(iou) for _idx, iou in result["matched"].values()]
        entry = {"digest": digest, "mean_iou": statistics.fmean(ious) if ious else None,
                 "mpjpe_cm": result["mpjpe_cm"], "bound_cm": result["bound_cm"]}
        errors = []
        if round_trip != digest:
            errors.append("save(load(scene)) is not byte-identical to the saved scene")
        if not all(0.0 <= iou <= 1.0 for iou in ious):
            errors.append(f"matching IoU outside [0, 1]: {ious}")
        if not (math.isfinite(entry["mpjpe_cm"])
                and entry["mpjpe_cm"] <= entry["bound_cm"] + ORACLE_SLACK_CM):
            errors.append(f"oracle MPJPE {entry['mpjpe_cm']} cm above the quantization "
                          f"bound {entry['bound_cm']} cm")
        return entry, errors

    @staticmethod
    def _discard(result):
        directory = result["dir"]
        shutil.rmtree(directory, ignore_errors=True)
        shutil.rmtree(directory.with_name(directory.name + "_resaved"), ignore_errors=True)

    def persons(self, state, item):
        return 0


WORKLOADS = {w.name: w for w in (Train(), Eval(), Synth())}


# ---------------------------------------------------------------------------
# references


def record_reference() -> None:
    """Run one cycle of every workload for each reference seed and write
    the checked outputs, and the invariant checks they fail, to
    bench/reference.json."""
    doc = {"tolerance": {"rel": 1e-9, "abs": 1e-12},
           "note": "Outputs of one cycle per workload and seed, recorded with "
                   "'python3 bench/run.py --record-reference'. Floats compare within "
                   "abs + rel * |reference|; integers, strings and digests exactly. "
                   "known_failures lists, per seed, workload and item, the invariant "
                   "checks the recorded output already failed: they still count as "
                   "failed operations, but only a failure not listed there makes a "
                   "run incorrect.",
           "seeds": {}, "known_failures": {}}
    for seed in REFERENCE_SEEDS:
        doc["seeds"][str(seed)] = per_workload = {}
        for wl in WORKLOADS.values():
            state = wl.setup(seed, wl.select(seed))
            entries = []
            for item in wl.items(state):
                entry, errors = wl.check(state, item, wl.run(state, item))
                if errors:  # recorded all the same: the reference is what the program does
                    print(f"bench: {wl.name} seed {seed} item {item}: {errors}", file=sys.stderr)
                    known = doc["known_failures"].setdefault(str(seed), {})
                    known.setdefault(wl.name, {})[str(item)] = errors
                entries.append(entry)
            per_workload[wl.name] = entries
        print(f"recorded seed {seed}", flush=True)
    seeds = ",\n".join(
        f'  "{seed}": {{\n' + ",\n".join(
            f'   "{name}": [\n' + ",\n".join("    " + json.dumps(e, sort_keys=True) for e in entries)
            + "\n   ]" for name, entries in per_workload.items()) + "\n  }"
        for seed, per_workload in doc["seeds"].items())
    text = (f'{{\n "note": {json.dumps(doc["note"])},\n "tolerance": {json.dumps(doc["tolerance"])},'
            f'\n "known_failures": {json.dumps(doc["known_failures"], sort_keys=True)},'
            f'\n "seeds": {{\n{seeds}\n }}\n}}\n')
    json.loads(text)
    (BENCH_DIR / "reference.json").write_text(text, encoding="ascii")


# ---------------------------------------------------------------------------
# timed loop


def run_phase(wl, state, seconds: float, reference, tracer=None, tail_pct=None) -> dict:
    """Run whole cycles until ``seconds`` have passed and, given
    ``tail_pct``, until TAIL_MIN_BEYOND latencies lie beyond that
    percentile (for at most MEASURE_CAP_S). Returns latencies (ms per
    scene, one per completed operation), busy time and failure counts.
    An operation that raises is failed and untimed; one whose failed
    checks are not those reference.json lists for it is unexpected."""
    items = wl.items(state)
    known = reference["known_failures"] if reference is not None else {}
    lat_ms, busy, units, attempted, failed, unexpected = [], 0.0, 0, 0, 0, 0
    cycle_counts, last = [], {}
    errors_seen = []
    start = time.perf_counter()
    while True:
        for item in items:
            attempted += 1
            if tracer is not None:
                tracer.op = attempted
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    result = wl.run(state, item)
                else:
                    result = tracer.call(f"bench.{wl.name}", wl.run, (state, item), {})
            except Exception as e:  # an operation that raises counts as failed
                failed += 1
                unexpected += 1
                errors_seen.append(f"{item}: {type(e).__name__}: {e}")
                continue
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.active = False
            entry, errors = wl.check(state, item, result)
            if tracer is not None:
                tracer.active = True
            if reference is not None and not _close(entry, reference["entries"][item],
                                                    reference["rel"], reference["abs"]):
                errors.append("output differs from bench/reference.json")
            if errors:  # counted as failed; it still ran to completion, so it is timed
                failed += 1
                unexpected += errors != known.get(str(item))
                errors_seen.extend(f"{item}: {e}" for e in errors)
            busy += dt
            units += wl.units
            lat_ms.append(dt * 1e3 / wl.units)
            if tracer is not None:
                tracer.counts["pipeline.persons_total"] += wl.persons(state, item)
        if tracer is not None:
            now = dict(tracer.counts)
            cycle_counts.append({k: v - last.get(k, 0) for k, v in now.items()})
            last = now
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and (tail_pct is None or elapsed >= MEASURE_CAP_S
                                   or _tail(lat_ms, tail_pct)[1] >= TAIL_MIN_BEYOND):
            break
    for line in errors_seen[:10]:
        print(f"bench: failed operation {line}", file=sys.stderr)
    return {"lat_ms": lat_ms, "busy": busy, "units": units, "attempted": attempted,
            "failed": failed, "unexpected": unexpected, "cycle_counts": cycle_counts}


def _tail(samples: list, pct: int):
    """Nearest-rank percentile and the number of samples above its rank."""
    ordered = sorted(samples)
    if not ordered:
        return math.nan, 0
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def _blas_threads_in_effect():
    """Thread count OpenBLAS reports, or None where it cannot be asked."""
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as f:
            libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _context(args) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas_name = "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas_name,
            "blas_threads": int(os.environ["POSEFUSION_THREADS"]),
            "blas_threads_in_effect": _blas_threads_in_effect(),
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


def _per_layer(wl, tracer, phase, overhead: float, layers: dict) -> dict:
    self_ms = tracer.self_ms()
    spans = tracer.span_counts()
    counts = tracer.counts
    counts["pipeline.persons_skipped"] = (counts["pipeline.persons_total"]
                                          - counts["pipeline.persons_used"])
    units = phase["units"]
    values, missing = {}, []
    for name, spec in layers.items():
        if "overhead" in spec:
            values[name] = overhead
            continue
        sources = spec.get("self_ms") or [spec["source"]]
        if wl.name in spec["workloads"] and not any(spans[s] for s in sources):
            missing.append(name)
        if "self_ms" in spec:
            values[name] = sum(self_ms.get(s, 0.0) for s in spec["self_ms"]) / units
        elif "count" in spec:
            values[name] = counts[spec["count"]] / units
        else:
            num, den = spec["ratio"]
            values[name] = counts[num] / counts[den] if counts[den] else 0.0
    return values, missing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=["train", "eval", "synth", "all"],
                        help="'all' runs each workload in turn, in its own process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="measuring time; default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="rewrite bench/reference.json from the current program")
    args = parser.parse_args(argv)
    if not args.record_reference and args.workload is None:
        parser.error("--workload is required")
    if args.seconds is None:
        args.seconds = float(json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.workload == "all":
        status = 0
        for name in ("train", "eval", "synth"):
            print(f"== {name}", flush=True)
            status |= subprocess.run([sys.executable, __file__, "--workload", name,
                                      "--seed", str(args.seed), "--seconds", str(args.seconds),
                                      "--trace", str(args.trace)]).returncode
        return status

    _import_program()
    try:
        if args.record_reference:
            record_reference()
            return 0
        return _run(args)
    finally:
        shutil.rmtree(OUT_DIR / f"work-{os.getpid()}", ignore_errors=True)


def _run(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="ascii"))
    layers = json.loads((BENCH_DIR / "layers.json").read_text(encoding="ascii"))["per_layer"]
    units_of = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    wl = WORKLOADS[args.workload]
    reference = None
    ref_doc = json.loads((BENCH_DIR / "reference.json").read_text(encoding="ascii"))
    if str(args.seed) in ref_doc["seeds"]:
        reference = {**ref_doc["tolerance"],
                     "entries": ref_doc["seeds"][str(args.seed)][wl.name],
                     "known_failures": ref_doc["known_failures"].get(str(args.seed), {})
                                                                .get(wl.name, {})}

    context = _context(args)
    print("context " + json.dumps(context, sort_keys=True))
    if context["blas_threads_in_effect"] not in (None, BLAS_THREADS):
        print(f"bench: BLAS runs {context['blas_threads_in_effect']} threads, "
              f"not {BLAS_THREADS}", file=sys.stderr)
        return 3

    t0 = time.perf_counter()
    configs = wl.select(args.seed)
    print(f"note scene selection {time.perf_counter() - t0:.3f} s (not part of setup_s)")
    setup_times = []
    while not setup_times or not args.trace and (len(setup_times) < SETUP_REPEATS
                                                 or sum(setup_times) < SETUP_MIN_S):
        t0 = time.perf_counter()
        state = wl.setup(args.seed, configs)
        setup_times.append(time.perf_counter() - t0)

    correct = True
    if not args.trace:
        phase = run_phase(wl, state, args.seconds, reference, tail_pct=wl.tail_percentile)
        if not phase["units"]:
            print("bench: every operation failed", file=sys.stderr)
            return 1
        tail, beyond = _tail(phase["lat_ms"], wl.tail_percentile)
        if beyond < TAIL_MIN_BEYOND:
            print(f"bench: only {beyond} latencies beyond p{wl.tail_percentile} in "
                  f"{MEASURE_CAP_S:g} s; scene_ms_tail is not valid", file=sys.stderr)
            return 1
        metrics = {
            "setup_s": statistics.median(setup_times),
            "scenes_per_s": phase["units"] / phase["busy"],
            "scene_ms_p50": statistics.median(phase["lat_ms"]),
            "scene_ms_tail": tail,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        notes = {
            "setup_s": f"median of {len(setup_times)} set-ups",
            "scene_ms_tail": f"p{wl.tail_percentile} of {len(phase['lat_ms'])} samples, "
                             f"{beyond} beyond it",
        }
    else:
        import tracing

        untraced = run_phase(wl, state, args.seconds / 2.0, reference)
        tracer = tracing.Tracer()
        saved = tracing.install(tracer)
        try:
            phase = run_phase(wl, state, args.seconds / 2.0, reference, tracer)
        finally:
            tracing.uninstall(saved)
        if not (phase["units"] and untraced["units"]):
            print("bench: every operation failed", file=sys.stderr)
            return 1
        overhead = (untraced["units"] / untraced["busy"]) - (phase["units"] / phase["busy"])
        metrics, missing = _per_layer(wl, tracer, phase, overhead, layers)
        tracer.write(str(OUT_DIR / f"trace-{wl.name}-seed{args.seed}.jsonl"), context)
        if missing:
            print(f"bench: no spans on {wl.name} for expected per-layer metrics {missing}",
                  file=sys.stderr)
            return 3
        cycles = phase["cycle_counts"]
        if any(c != cycles[0] for c in cycles):
            print("bench: per-cycle counts differ between identical cycles", file=sys.stderr)
            correct = False
        notes = {"trace.overhead_scenes_per_s":
                 f"untraced {untraced['units'] / untraced['busy']:.3f}, traced "
                 f"{phase['units'] / phase['busy']:.3f} scenes/s"}
        for key in ("attempted", "failed", "unexpected"):
            phase[key] += untraced[key]

    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    if set(metrics) != set(wanted):
        print(f"bench: metrics {sorted(set(metrics) ^ set(wanted))} disagree with "
              "BENCHMARK.json", file=sys.stderr)
        return 3
    attempted, failed, unexpected = phase["attempted"], phase["failed"], phase["unexpected"]
    for name in wanted:
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"metric {name} {metrics[name]:.6g} {units_of[name]}{note}")
    print(f"metric op_failure_ratio {failed / attempted:.6g} ratio "
          f"({failed} failed of {attempted} attempted; {failed - unexpected} of them "
          "fail as the known_failures of bench/reference.json record)")
    result = {
        "correct": correct and unexpected == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units_of[name]} for name in wanted},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
