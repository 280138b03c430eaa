"""Tracing the posefusion program from outside, for the benchmark.

The program is not modified. ``install`` replaces posefusion's public
functions at the module bindings their callers look up at call time
(``tensorgrad.conv2d`` for ``tg.conv2d``, ``pipeline.backward``, ...) with
wrappers that record a span around the original call, and wraps
``Tape.record`` so that every registered vjp is timed when ``backward``
runs it. ``uninstall`` puts the originals back.

Spans stay in memory as (name, start, end, parent, op) rows and are
written out once, at the end. A span's self time is its duration minus
the time its child spans cover; spans nest strictly (one thread), so the
covered time is the sum of the children's durations.
"""

from __future__ import annotations

import json
import os
from collections import Counter, defaultdict
from time import perf_counter

from posefusion import data, fusion, matching, pipeline, tensorgrad


# Tape node name -> span name of its vjp.
_VJP_SPANS = {
    "conv2d": "tensorgrad.conv2d.vjp",
    "add": "tensorgrad.elementwise.vjp",
    "subtract": "tensorgrad.elementwise.vjp",
    "multiply": "tensorgrad.elementwise.vjp",
    "scalar_divide": "tensorgrad.elementwise.vjp",
    "relu": "tensorgrad.elementwise.vjp",
    "euclidean_norm": "tensorgrad.elementwise.vjp",
    "invert_augmentation": "augment.invert.vjp",
    "soft_center_3d": "fusion.soft_center_3d.vjp",
    "soft_center_2d": "fusion.soft_center_2d.vjp",
}

_ELEMENTWISE = ("add", "subtract", "multiply", "scalar_divide", "relu", "euclidean_norm")


class Tracer:
    """Span and counter store for one traced phase."""

    def __init__(self):
        self.spans: list = []          # [name, start, end, parent index, op id]
        self.counts: Counter = Counter()
        self.op = -1
        self.active = True             # off while the benchmark checks outputs
        self._stack: list = []

    def call(self, name: str, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        row = [name, 0.0, 0.0, parent, self.op]
        self.spans.append(row)
        self._stack.append(idx)
        row[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            row[2] = perf_counter()
            self._stack.pop()

    def self_ms(self) -> dict:
        """Total self time in ms per span name."""
        covered = [0.0] * len(self.spans)
        for name, t0, t1, parent, _op in self.spans:
            if parent >= 0:
                covered[parent] += t1 - t0
        totals: dict = defaultdict(float)
        for i, (name, t0, t1, _parent, _op) in enumerate(self.spans):
            totals[name] += (t1 - t0 - covered[i]) * 1e3
        return dict(totals)

    def span_counts(self) -> Counter:
        return Counter(row[0] for row in self.spans)

    def write(self, path: str, context: dict) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="ascii") as f:
            f.write(json.dumps({"context": context, "counts": dict(self.counts),
                                "fields": ["name", "start", "end", "parent", "op"]}) + "\n")
            for row in self.spans:
                f.write(json.dumps(row) + "\n")


def _dir_bytes(directory) -> int:
    return sum(e.stat().st_size for e in os.scandir(directory) if e.is_file())


# ---------------------------------------------------------------------------
# counters taken at the wrapped boundaries: pre(counts, args, kwargs) runs
# before the call, post(counts, args, kwargs, result) after it


def _conv_macs(c, a, k):
    x, w = a[1], a[2]
    n = x.shape[0] if x.values.ndim == 4 else 1
    h, wd = x.shape[-2:]
    c["tensorgrad.conv2d.macs"] += n * h * wd * w.shape[0] * w.shape[1] * 9


def _invert_calls(c, a, k):
    c["augment.invert.calls"] += 1
    c["augment.invert.identity"] += int(a[2].is_identity)


def _soft_center_entries(c, a, k):
    c["fusion.soft_center_3d.entries"] += sum(t.values.size for t in a[1])


def _cache_lookups(c, a, k):
    scene, person, cache = a[1], a[2], k.get("coords_cache")
    if cache is None:
        return
    for sv in scene.views:
        if person in sv.boxes:
            c["pipeline.coords_lookups"] += 1
            c["pipeline.coords_hits"] += int((scene.id, sv.view) in cache)


def _valid_pixels(c, a, k, forwards):
    for f in forwards:
        c["heatmap.valid_pixels"] += int(f.valid.sum())
        c["heatmap.fused_pixels"] += int(f.valid.size)


def _person_used(c, a, k, result):
    c["pipeline.persons_used"] += 1


def _scored(c, a, k, dists):
    if dists:
        c["pipeline.persons_used"] += 1


def _grid_call(c, a, k):
    c["geometry.backproject_grid.calls"] += 1


def _bytes_written(c, a, k, result):
    c["data.bytes_written"] += _dir_bytes(a[1])


def _bytes_read(c, a, k):
    c["data.bytes_read"] += _dir_bytes(a[0])


def _combinations(c, a, k, combos):
    c["matching.combinations"] += len(combos)
    c["matching.multi_view"] += sum(1 for combo in combos if combo.size >= 2)


# (owner, attribute, span name, pre, post)
_BINDINGS = [
    (tensorgrad, "conv2d", "tensorgrad.conv2d.fwd", _conv_macs, None),
    *[(tensorgrad, op, "tensorgrad.elementwise.fwd", None, None) for op in _ELEMENTWISE],
    (pipeline, "backward", "tensorgrad.backward", None, _person_used),
    (pipeline, "adam_step", "tensorgrad.adam_step", None, None),
    (pipeline, "sample_augmentation", "augment.sample", None, None),
    (pipeline, "apply_to_input", "augment.apply_to_input", None, None),
    (pipeline, "invert_on_heatmap_tensor", "augment.invert.fwd", _invert_calls, None),
    (pipeline, "build_input_tensor", "heatmap.build_input", None, None),
    (pipeline, "valid_pixel_mask", "heatmap.valid_pixel_mask", None, None),
    (pipeline, "soft_center_stack", "fusion.soft_center_3d.fwd", _soft_center_entries, None),
    # pipeline calls the shared kernel directly for its 2D centres
    (pipeline, "_multi_view_soft_centers", "fusion.soft_center_2d.fwd", None, None),
    (pipeline, "lift_and_fuse_2d", "fusion.lift_and_fuse_2d", None, None),
    (pipeline, "pose_distances", "fusion.pose_distances", None, _scored),
    (fusion, "backproject_grid", "geometry.backproject_grid", _grid_call, None),
    (pipeline, "forward_scene", "pipeline.forward_scene", _cache_lookups, _valid_pixels),
    (pipeline.ToyPredictor, "forward", "pipeline.predictor_fwd", None, None),
    (pipeline, "train", "pipeline.train", None, None),
    (pipeline, "make_target_heatmaps", "data.target_heatmaps", None, None),
    (data, "generate_synthetic", "data.generate", None, None),
    (data, "save_scene", "data.save", None, _bytes_written),
    (data, "load_scene", "data.load", _bytes_read, None),
    (matching, "match_boxes", "matching.match_boxes", None, _combinations),
    (matching, "evaluate_matching", "matching.evaluate", None, None),
]


def _wrapper(tracer: Tracer, fn, name, pre, post):
    counts = tracer.counts

    def traced(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        if pre is not None:
            pre(counts, args, kwargs)
        result = tracer.call(name, fn, args, kwargs)
        if post is not None:
            post(counts, args, kwargs, result)
        return result

    return traced


def install(tracer: Tracer) -> list:
    """Wrap every traced binding; returns what ``uninstall`` restores."""
    saved = []
    for owner, attr, name, pre, post in _BINDINGS:
        original = owner.__dict__[attr]
        saved.append((owner, attr, original))
        setattr(owner, attr, _wrapper(tracer, original, name, pre, post))

    record = tensorgrad.Tape.__dict__["record"]
    saved.append((tensorgrad.Tape, "record", record))
    counts = tracer.counts

    def traced_record(self, inputs, output, vjp, name="custom"):
        counts["tensorgrad.tape_nodes"] += 1
        span = _VJP_SPANS.get(name, f"vjp.{name}")

        def timed_vjp(g):
            return tracer.call(span, vjp, (g,), {})

        return record(self, inputs, output, timed_vjp, name)

    tensorgrad.Tape.record = traced_record
    return saved


def uninstall(saved: list) -> None:
    for owner, attr, original in reversed(saved):
        setattr(owner, attr, original)

