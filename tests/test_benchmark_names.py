"""The benchmark's traced per-layer metrics name real functions.

A traced benchmark run wraps every public function of the four layer modules
and reports a metric for each name BENCHMARK.json lists; a listed function
that was renamed, made private or moved stops that run with "metrics named in
BENCHMARK.json but not produced".  The work counts it takes at a call read the
call's arguments by parameter name.  This reads BENCHMARK.json and
bench/tracing.py and never edits them."""

import importlib
import importlib.util
import inspect
import json
from pathlib import Path

LAYERS = ("quantum", "lhv", "experiments", "cli")
ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = ROOT / "BENCHMARK.json"


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


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)  # bench/ is not a package
    return tracing


def test_counted_arguments_are_parameters():
    # a traced run reads each counted argument, and each render's format, by
    # parameter name: a renamed parameter fails only that run, with a KeyError
    tracing = _tracing()
    for qualname, (_, param, _) in tracing.COUNTERS.items():
        layer, name = qualname.split(".")
        fn = getattr(importlib.import_module(f"bellbox.{layer}"), name)
        if param is not None:
            assert param in inspect.signature(fn).parameters, qualname
    render = importlib.import_module("bellbox.cli").render
    assert "fmt" in inspect.signature(render).parameters


def test_traced_sweep_report_counts_its_points(capsys):
    # the bell-sweep report computes its points through quantum_bell_sweep,
    # so a traced sweep op counts them: 13 x 13 at 15 degrees
    tracer = _tracing().Tracer()
    restore = tracer.install()
    try:
        main = importlib.import_module("bellbox.cli").main
        assert tracer.op(0, lambda: main(["bell-sweep", "--grid-step", "15"])) == 0
    finally:
        restore()
    capsys.readouterr()
    metrics = tracer.metrics()
    assert metrics["experiments.quantum_bell_sweep.calls"] == 1
    assert metrics["experiments.quantum_bell_sweep.points"] == 169


def test_traced_monte_carlo_counts_its_draws():
    # the montecarlo workload's per-layer metrics: a sharded classical
    # estimate tallies through lhv.sample_indices once a shard, and the bell
    # estimate reads one Born probability per axis pair
    tracer = _tracing().Tracer()
    restore = tracer.install()
    try:
        experiments = importlib.import_module("bellbox.experiments")
        ens = importlib.import_module("bellbox.lhv").build_singlet_ensemble()
        tracer.op(0, lambda: experiments.mc_classical_estimate(ens, 1000, 7, shards=4))
        tracer.op(1, lambda: experiments.mc_bell_estimate(1.0, 2.0, 1000, 7))
    finally:
        restore()
    metrics = tracer.metrics()
    assert metrics["lhv.sample_indices.draws"] == 1000
    assert metrics["lhv.sample_indices.calls"] == 4
    assert metrics["experiments.mc_bell_estimate.draws"] == 1000
    assert metrics["quantum.joint_outcome_prob.calls"] == 3


def test_traced_bell_point_reads_one_born_probability_a_pair():
    # quantum_bell_point checks its closed forms against the same three Born
    # probabilities the bell estimator draws from
    tracer = _tracing().Tracer()
    restore = tracer.install()
    try:
        experiments = importlib.import_module("bellbox.experiments")
        tracer.op(0, lambda: experiments.quantum_bell_point(1.0, 2.0))
    finally:
        restore()
    metrics = tracer.metrics()
    assert metrics["experiments.quantum_bell_point.calls"] == 1
    assert metrics["quantum.joint_outcome_prob.calls"] == 3
