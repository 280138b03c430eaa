"""What the benchmark in bench/ relies on in the program: the failures
bench/reference.json records, with their exact messages, traced runs
whose per-layer spans all exist and whose counts repeat exactly, and the
bytes of the scenes a synth cycle writes.

The benchmark's own modules are loaded from bench/ and driven through
their workload interface (select, setup, run, check), as bench/run.py
drives them."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from posefusion import data, matching, pipeline

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench(tmp_path_factory):
    run = _load("run")
    # what run._import_program binds, without its changes to the environment
    run.np, run.D, run.M, run.P = np, data, matching, pipeline
    run.OUT_DIR = tmp_path_factory.mktemp("bench_out")
    return run


def _known_failures():
    doc = json.loads((BENCH / "reference.json").read_text(encoding="ascii"))
    return [(int(seed), workload, int(item), messages)
            for seed, workloads in sorted(doc["known_failures"].items())
            for workload, items in sorted(workloads.items())
            for item, messages in sorted(items.items())]


@pytest.mark.parametrize("seed, workload, item, messages", _known_failures())
def test_known_failure_messages_unchanged(bench, seed, workload, item, messages):
    wl = bench.WORKLOADS[workload]
    state = wl.setup(seed, wl.select(seed))
    _entry, errors = wl.check(state, item, wl.run(state, item))
    assert errors == messages


@pytest.mark.parametrize("workload", ["train", "eval", "synth"])
def test_traced_item_has_every_span_and_repeats_its_counts(bench, workload):
    tracing = _load("tracing")
    layers = json.loads((BENCH / "layers.json").read_text(encoding="ascii"))["per_layer"]
    wl = bench.WORKLOADS[workload]
    state = wl.setup(0, wl.select(0))
    tracer = tracing.Tracer()
    saved = tracing.install(tracer)
    try:
        counts = []
        for _ in range(2):
            before = dict(tracer.counts)
            result = wl.run(state, 0)
            counts.append({k: v - before.get(k, 0) for k, v in tracer.counts.items()})
            if workload == "synth":
                wl._discard(result)
    finally:
        tracing.uninstall(saved)
    assert counts[0] == counts[1]
    if workload != "synth":  # synth runs no predictor
        assert counts[0]["tensorgrad.conv2d.macs"] > 0
    _values, missing = bench._per_layer(wl, tracer, {"units": 2 * wl.units}, 0.0, layers)
    assert missing == []


def test_synth_cycle_writes_the_recorded_scene_bytes(bench):
    # each digest covers scene.json, the colour PPMs and the float32 depth
    # rasters, so one flipped depth bit changes it
    recorded = json.loads((BENCH / "reference.json").read_text(encoding="ascii"))
    wl = bench.WORKLOADS["synth"]
    state = wl.setup(0, wl.select(0))
    digests = [wl.check(state, item, wl.run(state, item))[0]["digest"]
               for item in wl.items(state)]
    assert digests == [entry["digest"] for entry in recorded["seeds"]["0"]["synth"]]
