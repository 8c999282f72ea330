"""The benchmark's traced per-layer metrics name real functions.

A traced benchmark run wraps every public function of the four layer modules
and reports a metric for each name BENCHMARK.json lists; a listed function
that was renamed, made private or moved stops that run with "metrics named in
BENCHMARK.json but not produced".  This reads BENCHMARK.json and never edits
it."""

import importlib
import inspect
import json
from pathlib import Path

LAYERS = ("quantum", "lhv", "experiments", "cli")
BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def test_traced_names_are_public_layer_functions():
    metrics = json.loads(BENCHMARK.read_text())["per_layer"]
    traced = {
        tuple(m["name"].split(".")[:2]) for m in metrics if m["name"].split(".")[0] in LAYERS
    }
    assert {layer for layer, _ in traced} == set(LAYERS)
    for layer, name in sorted(traced):
        module = importlib.import_module(f"bellbox.{layer}")
        fn = getattr(module, name, None)
        assert not name.startswith("_"), f"{layer}.{name}"
        assert inspect.isfunction(fn) and fn.__module__ == module.__name__, f"{layer}.{name}"
