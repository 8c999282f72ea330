"""Command-line surface: argument handling, report payloads, schema
conformance of the JSON output, CSV/text rendering, file output, exit codes."""

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import stat
import subprocess
import sys
import tempfile
import threading
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from unittest import mock

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import bellbox
from bellbox import cli
from bellbox.cli import SCHEMA_PATH, main, parse_args, render, run
from bellbox import experiments, lhv
from bellbox.experiments import PhysicsAssertionError
from oracles import RENDERERS, sweep_records

# one argv per distinct report shape the schema must cover
VARIANTS = [
    ["singlet-bell"],
    ["singlet-bell", "--samples", "2000", "--seed", "3"],
    ["bell-sweep", "--grid-step", "15"],
    ["ghz-parity"],
    ["order-demo"],
    ["lhv-enumerate", "singlet"],
    ["lhv-enumerate", "ghz"],
    ["classical-mc", "singlet", "--samples", "2000"],
    ["classical-mc", "ghz", "--samples", "2000"],
    ["state-report"],
    ["state-report", "--theta1", "37.5"],
]


# without --samples nothing is drawn, so the seed is echoed as null
UNUSED_SEED = ["singlet-bell", "--seed", "5"]

EXACT = {"exact": True, "sampled": False}
SAMPLED = {"exact": True, "sampled": True}
# the config echo and provenance of each report above, as written before the
# echo was derived from the options each subparser declares
ENVELOPES = {
    ("singlet-bell",): (
        {"theta1_deg": 60.0, "theta2_deg": 120.0, "samples": None, "seed": None,
         "grid_step_deg": None, "target": None, "format": "json", "output": None},
        EXACT,
    ),
    ("singlet-bell", "--samples", "2000", "--seed", "3"): (
        {"theta1_deg": 60.0, "theta2_deg": 120.0, "samples": 2000, "seed": 3,
         "grid_step_deg": None, "target": None, "format": "json", "output": None},
        SAMPLED,
    ),
    ("singlet-bell", "--seed", "5"): (
        {"theta1_deg": 60.0, "theta2_deg": 120.0, "samples": None, "seed": None,
         "grid_step_deg": None, "target": None, "format": "json", "output": None},
        EXACT,
    ),
    ("bell-sweep", "--grid-step", "15"): (
        {"theta1_deg": None, "theta2_deg": None, "samples": None, "seed": None,
         "grid_step_deg": 15.0, "target": None, "format": "json", "output": None},
        EXACT,
    ),
    ("ghz-parity",): (
        {"theta1_deg": None, "theta2_deg": None, "samples": None, "seed": None,
         "grid_step_deg": None, "target": None, "format": "json", "output": None},
        EXACT,
    ),
    ("order-demo",): (
        {"theta1_deg": 60.0, "theta2_deg": 120.0, "samples": None, "seed": None,
         "grid_step_deg": None, "target": None, "format": "json", "output": None},
        EXACT,
    ),
    ("lhv-enumerate", "singlet"): (
        {"theta1_deg": None, "theta2_deg": None, "samples": None, "seed": None,
         "grid_step_deg": None, "target": "singlet", "format": "json", "output": None},
        EXACT,
    ),
    ("lhv-enumerate", "ghz"): (
        {"theta1_deg": None, "theta2_deg": None, "samples": None, "seed": None,
         "grid_step_deg": None, "target": "ghz", "format": "json", "output": None},
        EXACT,
    ),
    ("classical-mc", "singlet", "--samples", "2000"): (
        {"theta1_deg": None, "theta2_deg": None, "samples": 2000, "seed": 0,
         "grid_step_deg": None, "target": "singlet", "format": "json", "output": None},
        SAMPLED,
    ),
    ("classical-mc", "ghz", "--samples", "2000"): (
        {"theta1_deg": None, "theta2_deg": None, "samples": 2000, "seed": 0,
         "grid_step_deg": None, "target": "ghz", "format": "json", "output": None},
        SAMPLED,
    ),
    ("state-report",): (
        {"theta1_deg": 90.0, "theta2_deg": None, "samples": None, "seed": None,
         "grid_step_deg": None, "target": None, "format": "json", "output": None},
        EXACT,
    ),
    ("state-report", "--theta1", "37.5"): (
        {"theta1_deg": 37.5, "theta2_deg": None, "samples": None, "seed": None,
         "grid_step_deg": None, "target": None, "format": "json", "output": None},
        EXACT,
    ),
}


def run_json(argv):
    env = run(parse_args(argv + ["--format", "json"]))
    return json.loads(render(env, "json"))


class TestParsing:
    def test_angles_stored_in_degrees(self):
        config = parse_args(["singlet-bell", "--theta1", "45", "--theta2", "90"])
        assert (config.theta1_deg, config.theta2_deg) == (45.0, 90.0)
        assert config.theta1 == pytest.approx(math.pi / 4)
        assert config.theta2 == pytest.approx(math.pi / 2)

    def test_defaults(self):
        config = parse_args(["singlet-bell"])
        assert (config.theta1_deg, config.theta2_deg) == (60.0, 120.0)
        assert config.samples is None
        assert config.seed == 0
        assert config.format == "text"
        assert config.output_path is None

    def test_classical_mc_sample_default(self):
        config = parse_args(["classical-mc", "singlet"])
        assert config.samples == 100_000
        assert config.target == "singlet"

    def test_usage_errors_exit_one(self, capsys):
        assert main(["no-such-command"]) == 1
        assert main([]) == 1
        assert main(["bell-sweep", "--grid-step", "0"]) == 1
        assert main(["singlet-bell", "--samples", "0"]) == 1
        assert main(["lhv-enumerate", "neither"]) == 1
        assert main(["singlet-bell", "--theta1", "nan"]) == 1
        assert main(["bell-sweep", "--grid-step", "1e-300"]) == 1
        assert main(["bell-sweep", "--grid-step", "0.01"]) == 1
        assert main(["classical-mc", "singlet", "--seed", "-1"]) == 1
        assert main(["classical-mc", "ghz", "--seed", "-5"]) == 1
        assert main(["singlet-bell", "--samples", "10", "--seed", "-1"]) == 1
        assert main(["classical-mc", "singlet", "--samples", "10000001"]) == 1
        assert main(["classical-mc", "ghz", "--samples", "99999999999999999999999"]) == 1
        assert main(["singlet-bell", "--samples", "1000000000000"]) == 1
        assert main(["singlet-bell", "--theta1", "-inf"]) == 1
        assert main(["bell-sweep", "--grid-step", "-1e-3"]) == 1
        assert main(["bell-sweep", "--grid", "-1e-3"]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "--grid-step 1e-300 gives more than 4,000,000 grid points" in err
        assert "--seed must not be negative" in err
        assert "--samples must be at most 10,000,000" in err
        assert "angles must be finite" in err
        assert "--grid-step must be positive" in err
        assert "expected one argument" not in err
        # an error parse_args finds after argparse is done names the command,
        # as argparse's own errors for it do
        for argv, message in ((["bell-sweep", "--grid-step", "0"], "--grid-step must be positive"),
                              (["singlet-bell", "--samples", "0"], "--samples must be at least 1")):
            assert main(argv) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"usage: bellbox {argv[0]} [-h] ")
            assert err.endswith(f"\nbellbox {argv[0]}: error: {message}\n")

    def test_sample_cap_is_inclusive(self):
        argv = ["classical-mc", "ghz", "--samples", str(experiments.MAX_SAMPLES)]
        assert parse_args(argv).samples == experiments.MAX_SAMPLES

    def test_negative_values_with_exponents(self, capsys):
        # argparse alone reads -1e5 as an option, not as the value of --theta2
        for joined in (["--theta2=-1e5"], ["--theta1=-3e299", "--theta2=-2.5E-3"]):
            spaced = [part for arg in joined for part in arg.split("=")]
            assert main(["singlet-bell", *joined, "--format", "json"]) == 0
            want = capsys.readouterr().out
            assert main(["singlet-bell", *spaced, "--format", "json"]) == 0
            assert capsys.readouterr().out == want
        assert parse_args(["order-demo", "--theta1", "-1e1"]).theta1_deg == -10.0
        # argparse expands a unique prefix of an option
        assert parse_args(["state-report", "--the", "-1e1"]).theta1_deg == -10.0
        assert parse_args(["bell-sweep", "--grid", "15"]).grid_step_deg == 15.0

    def test_unused_negative_seed_is_accepted(self):
        # without --samples, singlet-bell draws nothing, so its seed is unused
        assert parse_args(["singlet-bell", "--seed", "-1"]).seed == -1

    def test_grid_cap_admits_a_tenth_of_a_degree(self):
        config = parse_args(["bell-sweep", "--grid-step", "0.1"])
        assert config.grid_step_deg == 0.1
        assert experiments._axis_count(math.radians(0.1)) == 1801

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "singlet-bell" in capsys.readouterr().out


class TestPayloads:
    def test_singlet_bell_values(self):
        doc = run_json(["singlet-bell"])
        results = doc["results"]
        assert results["p_q_ab"] == pytest.approx(0.125, abs=1e-12)
        assert results["p_q_bc"] == pytest.approx(0.125, abs=1e-12)
        assert results["p_q_ac"] == pytest.approx(0.375, abs=1e-12)
        assert results["bell_gap"] == pytest.approx(-0.125, abs=1e-12)
        assert results["violated"] is True
        assert "estimates" not in results

    def test_singlet_bell_with_sampling(self):
        doc = run_json(["singlet-bell", "--samples", "4000", "--seed", "6"])
        estimates = doc["results"]["estimates"]
        assert set(estimates) == {"p_q_ab", "p_q_bc", "p_q_ac"}
        for block in estimates.values():
            assert block["samples"] == 4000
            assert block["seed"] == 6
            assert 0.0 <= block["estimate"] <= 1.0
        assert doc["provenance"] == {"exact": True, "sampled": True}

    def test_config_echo_nulls_unused_keys(self):
        doc = run_json(["order-demo"])
        config = doc["config"]
        assert config["theta1_deg"] == 60.0
        assert config["samples"] is None
        assert config["grid_step_deg"] is None
        assert config["target"] is None
        assert config["format"] == "json"

    @pytest.mark.parametrize("argv", VARIANTS + [UNUSED_SEED], ids=" ".join)
    def test_config_echo_and_provenance(self, argv):
        config, provenance = ENVELOPES[tuple(argv)]
        doc = run_json(argv)
        # key order too: it is part of the report's bytes
        assert list(doc["config"].items()) == list(config.items())
        assert doc["provenance"] == provenance

    def test_lhv_enumerate_singlet(self):
        env = run(parse_args(["lhv-enumerate", "singlet"]))
        assert env.results["vertex_count"] == 8
        assert env.results["min_gap"] == 0
        assert env.results["all_satisfied"] is True
        assert env.results["uniform"]["p_ab"] == Fraction(1, 4)
        assert len(env.results["vertices"]) == 8

    def test_lhv_enumerate_ghz(self):
        doc = run_json(["lhv-enumerate", "ghz"])
        results = doc["results"]
        assert results["total_assignments"] == 64
        assert results["survivor_count"] == 8
        assert results["all_xxx_positive"] is True
        assert results["matches_designed_ensemble"] is True
        assert all(row["xxx_product"] == 1 for row in results["survivors"])

    def test_ghz_parity(self):
        doc = run_json(["ghz-parity"])
        results = doc["results"]
        assert results["contradiction"] is True
        assert results["classical"] == {"xyy": 1, "yxy": 1, "yyx": 1, "xxx": 1}
        assert results["quantum"]["xxx"] == pytest.approx(-1.0, abs=1e-12)
        assert results["impossible_outcomes"]["all_ok"] is True
        assert len(results["impossible_outcomes"]["rows"]) == 24

    def test_classical_mc_single_draw_is_an_indicator(self):
        doc = run_json(["classical-mc", "singlet", "--samples", "1"])
        for block in doc["results"]["estimates"].values():
            assert block["estimate"] in (0.0, 1.0)
            assert block["exact"] == "1/4"

    def test_bell_sweep_payload(self):
        doc = run_json(["bell-sweep", "--grid-step", "30"])
        results = doc["results"]
        assert results["point_count"] == 7 * 7
        assert len(results["points"]) == 7 * 7
        assert results["argmin_theta1_deg"] == pytest.approx(60.0)
        assert results["argmin_theta2_deg"] == pytest.approx(120.0)
        assert results["min_gap"] == pytest.approx(-0.125, abs=1e-9)

    def test_sweep_stops_at_180_degrees(self):
        # 7 and 50 do not divide 180: the grid ends at the last whole step
        # within range instead of running past it
        for step, last in ((7, 175.0), (50, 150.0)):
            doc = run_json(["bell-sweep", "--grid-step", str(step)])
            points = doc["results"]["points"]
            size = int(180 // step) + 1
            assert doc["results"]["point_count"] == len(points) == size * size
            assert points[-1]["theta1_deg"] == pytest.approx(last)
            assert points[-1]["theta2_deg"] == pytest.approx(last)

    def test_large_angles_reduce_mod_360(self):
        def angles(t1, t2):
            return ["--theta1", repr(t1), "--theta2", repr(t2)]

        big = (1.23e300, 9.87e299)  # 184 and 40 degrees mod 360
        reduced = tuple(math.fmod(t, 360.0) for t in big)
        cases = (
            ("singlet-bell", angles, ("theta1_deg", "theta2_deg")),
            ("order-demo", angles, ("theta1_deg", "theta2_deg")),
            ("state-report", lambda t1, _: ["--theta1", repr(t1)], ("axis",)),
        )
        for command, flags, echoed in cases:
            huge = [command, *flags(*big)]
            assert main(huge) == 0
            got, want = run_json(huge)["results"], run_json([command, *flags(*reduced)])["results"]
            for key in echoed:
                got.pop(key), want.pop(key)
            assert got == want, command
        doc = run_json(["singlet-bell", "--theta1", "1e300"])
        assert doc["config"]["theta1_deg"] == 1e300
        assert doc["results"]["theta1_deg"] == 1e300

    def test_state_report_payload(self):
        doc = run_json(["state-report"])
        results = doc["results"]
        assert results["singlet"]["reduced_site1_diag"] == [0.5, 0.5]
        assert results["singlet"]["invariance_residual"] <= 1e-12
        assert results["axis_distributions"]["mixed"] == [0.5, 0.5]


class TestSchema:
    def test_schema_file_is_valid(self):
        schema = json.loads(SCHEMA_PATH.read_text())
        jsonschema.Draft202012Validator.check_schema(schema)

    def test_every_variant_validates(self):
        schema = json.loads(SCHEMA_PATH.read_text())
        validator = jsonschema.Draft202012Validator(schema)
        for argv in VARIANTS:
            doc = run_json(argv)
            errors = list(validator.iter_errors(doc))
            assert not errors, f"{argv}: {errors[0].message if errors else ''}"


class TestRendering:
    def test_csv_header_is_stable(self):
        env = run(parse_args(["singlet-bell"]))
        csv_text = render(env, "csv")
        assert csv_text.splitlines()[0] == (
            "theta1_deg,theta2_deg,p_ab,p_bc,p_ac,bell_gap,violated"
        )

    def test_exact_rationals_survive_rendering(self):
        env = run(parse_args(["classical-mc", "singlet", "--samples", "100"]))
        assert '"1/4"' in render(env, "json")
        assert any(line.endswith(",1/4") for line in render(env, "csv").splitlines())

    def test_text_format_shape(self):
        env = run(parse_args(["ghz-parity"]))
        text = render(env, "text")
        lines = text.splitlines()
        assert lines[0] == "bellbox ghz-parity"
        assert lines[1].startswith("config: ")
        assert lines[2] == "provenance: exact=true sampled=false"
        assert any(line.startswith("pattern") for line in lines)

    def test_rendering_is_deterministic(self):
        argv = ["classical-mc", "ghz", "--samples", "500", "--seed", "11"]
        first = render(run(parse_args(argv)), "json")
        second = render(run(parse_args(argv)), "json")
        assert first == second

    def test_unknown_format_rejected(self):
        env = run(parse_args(["order-demo"]))
        with pytest.raises(ValueError):
            render(env, "yaml")

    def test_results_table_of_other_columns_rejected_in_json(self):
        env = run(parse_args(["bell-sweep", "--grid-step", "90"]))
        env.results["points"] = cli.Table(("name",), (["a", "b"],))
        with pytest.raises(TypeError, match="float64 or bool"):
            render(env, "json")


# sha256 of the stdout of `python -m bellbox bell-sweep --grid-step S --format F`
# as written before the sweep was stored and rendered as columns (1, 15), and
# before its rows were rendered a block at a time (0.5)
SWEEP_DIGESTS = {
    ("0.5", "json"): "3ecc98afc479b7e73eafcdf9d7f03fbb5c05ae5688790680ef435c5bc412c114",
    ("0.5", "csv"): "84b3b0abf549449b8d9427ed6ca93dbcb74403082e34365166a71f4ea30f8868",
    ("0.5", "text"): "a2e2f2e93934770b748aab417ad20e182720e3d874a6fe8510fec44284d4f073",
    ("1", "json"): "ac4d75ba13f8a5b79d80f6fa671eb799e30686458f5221ad9331694444718f49",
    ("1", "csv"): "7054e04f434e4a01588ed0f85de8f2072f169e87e528bff9a15c77c3d8722b2a",
    ("1", "text"): "fe9b550754a370171946f6bd15d784e67d2a3f78bb4ca2366cf08c422a20df53",
    ("15", "json"): "da4c4194cad6f100e78f6cc37f2bf8f177179ccb2ae257d63c21e68a1c272a19",
    ("15", "csv"): "455470dd35f6b69338d0515e3692c3726eeb94943dfb7d6e54772ad8234ba951",
    ("15", "text"): "d27d7eac13da869ad92d01acfc0ed3d62029efc6944a638befd2fdc7c547c694",
}


@pytest.mark.parametrize("step,fmt", sorted(SWEEP_DIGESTS))
def test_sweep_report_bytes_are_pinned(step, fmt):
    env = dict(os.environ, PYTHONPATH=str(Path(bellbox.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "bellbox", "bell-sweep", "--grid-step", step, "--format", fmt],
        capture_output=True, env=env, check=True,
    )
    assert hashlib.sha256(proc.stdout).hexdigest() == SWEEP_DIGESTS[step, fmt]


# sha256 of main(argv.split())'s stdout with COLUMNS=80: each VARIANTS report
# in every format, then --help at the top level and for every command, as
# written before the handlers derived their JSON from their table rows and
# the help texts read their defaults from the parser
STDOUT_DIGESTS = {
    "singlet-bell --format json": "90cb6efe9862bc2cb84ba7167696c2c821027f0d3e6cfbfaf7e8be208269a4bb",
    "singlet-bell --format csv": "20645eab8df192ab41f19aef41aa8ef6ce5699cbd5264c353a1531e794709d53",
    "singlet-bell --format text": "8f6fb6c952ba16bec7810b6d79954d4eebc97b27959d053f3ed109ab4ca4b30e",
    "singlet-bell --samples 2000 --seed 3 --format json": "7299eeef8a7cb204701029c9ba23377468aa5f71a9f7edf7d08a0ad4aad8562a",
    "singlet-bell --samples 2000 --seed 3 --format csv": "20645eab8df192ab41f19aef41aa8ef6ce5699cbd5264c353a1531e794709d53",
    "singlet-bell --samples 2000 --seed 3 --format text": "5d612c26a8f3d2f6b6015fe983d606ad9fd8c56c94671b59deb9bf486f0b3791",
    "bell-sweep --grid-step 15 --format json": "da4c4194cad6f100e78f6cc37f2bf8f177179ccb2ae257d63c21e68a1c272a19",
    "bell-sweep --grid-step 15 --format csv": "455470dd35f6b69338d0515e3692c3726eeb94943dfb7d6e54772ad8234ba951",
    "bell-sweep --grid-step 15 --format text": "d27d7eac13da869ad92d01acfc0ed3d62029efc6944a638befd2fdc7c547c694",
    "ghz-parity --format json": "b2e40e66ab77cd637bac3a6b12c42bd21501f51c6f1629b512071e963c73a4b1",
    "ghz-parity --format csv": "6ed2fd44b58afef4be72683436a3e854c161197b742f9189cba6ca66a42dfeb7",
    "ghz-parity --format text": "314dd605ad666a5cb33bcae48c9a6238a77fbb8fb5241bb66eed91f0deaddb46",
    "order-demo --format json": "da9262bed5775ff29143a42831f2d4bfa9c58d6551381368dc60b9082b4cb39a",
    "order-demo --format csv": "911dcd842ba827ed00174fb0417df0c634fee12d80985673112eb3d16ae698dc",
    "order-demo --format text": "b01b3524d6d1396d4039a58472344689fb43cd9c59e481bb159b8275d606512e",
    "lhv-enumerate singlet --format json": "14a481944362a97e498552a44783b69f918c39e819f964366e5df69fa823e83b",
    "lhv-enumerate singlet --format csv": "bb7133fad1ba451435ec017d3f0efe78e226c2f800c4b0eee56ad1b72b8e6acc",
    "lhv-enumerate singlet --format text": "899894f091ed6c6b0c9a11cbfa609c891a33565db1933a9fa5f76c40d5873d34",
    "lhv-enumerate ghz --format json": "9298deb3362e8fdc8a882ce4d927d6b90e08d06ab831d32a3c5ade7bdc1bfcb0",
    "lhv-enumerate ghz --format csv": "4243462bc44f8a2bde2b9e861400cf03027cb0ce099a80d29835904fb4258bec",
    "lhv-enumerate ghz --format text": "ffcc71c8b4bba1c1b426a2c9c965ceb4148882ac80a8c5dbf8b1c8a67b17f679",
    "classical-mc singlet --samples 2000 --format json": "608d9855b539a88c374982229c26b378ab5c6afbdb92d52ee6ea91c41bdffb87",
    "classical-mc singlet --samples 2000 --format csv": "0acff84325526448a11d75a8d3cdd3101d22dafcc36b12545a16991b6245c228",
    "classical-mc singlet --samples 2000 --format text": "00be30434641b8d4f13c09d602fb5c0c20b7d9eab7f00d78f16484c78b9cc686",
    "classical-mc ghz --samples 2000 --format json": "10772959be4ea51093d6b44385fba3c53c6cf3a6f4353af6a7ad22f5c69ec201",
    "classical-mc ghz --samples 2000 --format csv": "2574e12dd9c41e4427ac799ddc8c3724e3469f1d02dbeb8545505be1bb7af62f",
    "classical-mc ghz --samples 2000 --format text": "59d9f900efc434e646c6337c509b8b8940392cfa0306105a069492543a131d8e",
    "state-report --format json": "4e3b416eb78583e81aed60b9eebc44f2d882695859d37d5e63d89984fe04d412",
    "state-report --format csv": "8a3cd2fcfaa4fcec9698150958e95cce6ee51a55349599317b1befd5b9d74d46",
    "state-report --format text": "cc6e2366324011473f7daff0c51ce21e9c7d990eef19868a80e2a74ddeb40d63",
    "state-report --theta1 37.5 --format json": "83408bdb15e3169551fa9401615af32083802c0643b07a295e1c4e6d2fcf9865",
    "state-report --theta1 37.5 --format csv": "a9adb6e64149b216e276af8b6a2c5447339150168e19b775f4397d5f4ddb73c6",
    "state-report --theta1 37.5 --format text": "36cefa33c3520ec2f68d528065f49c559c614ae8d0ed970a0be8c55b875ff2f5",
    "--help": "a8ab3efb89b4b7364896c264feef0e73acefec369b7044fbaa94d54ea9cdafb4",
    "singlet-bell --help": "fbfbdbf8fa45ea573ddc6f357d90b17b659dfdb3afa0e427c46bb6adcaa22857",
    "bell-sweep --help": "8db5be6356456cdbe2ee7333f4b9f711aa4f71971e717b569af1f65a8d3fe8fd",
    "ghz-parity --help": "fbbbcf253884223910c4184295189950faaef957dba364fbb0ae60adcdef44aa",
    "order-demo --help": "4a344d55db020a7ccb86ff4e40dba1a8bee1af6a0c4ad233e70fa9775a0bedb8",
    "lhv-enumerate --help": "d2cecdf0f87a0cfecc390bc4a3991ad84bb6738f09df065b78ccd2e11fbec478",
    "classical-mc --help": "fa6db3d0ad0bf17065545c77d0cbed336dd223420cb8ce236927d69077911761",
    "state-report --help": "0625501566a022a2989e7573c2a999acc09d348032f74aac284832ef7ea3b4ae",
}


@pytest.mark.parametrize("argv", sorted(STDOUT_DIGESTS))
def test_stdout_bytes_are_pinned(argv, monkeypatch):
    if argv.endswith("--help") and sys.version_info[:2] != (3, 11):
        pytest.skip("help layout is argparse's and changes between Python versions")
    monkeypatch.setenv("COLUMNS", "80")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv.split()) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == STDOUT_DIGESTS[argv]


BLOCK = cli._BLOCK_ROWS
# cells that csv.writer quotes, and blank or whitespace-ended ones, which a
# text line must keep as they are, padded or at its end
AWKWARD = ("a,b", 'say "hi"', "", "two\nlines", "tab\t", "pad  ", " ", "plain")


def _expanded(column):
    """A Table column with one value a row: a coded column's values at its
    codes."""
    return column.values[column.codes(0, len(column))] if isinstance(column, cli._Coded) else column


def _expanded_env(env: cli.ReportEnvelope) -> cli.ReportEnvelope:
    """env with the coded columns of its table and of its points expanded."""
    expand = lambda table: dataclasses.replace(table, columns=tuple(map(_expanded, table.columns)))
    results = dict(env.results, points=expand(env.results["points"]))
    return dataclasses.replace(env, results=results, table=expand(env.table))


def _sweep_env(rows: int) -> cli.ReportEnvelope:
    """A bell-sweep report cut or repeated to rows points; its CSV and text
    table has one more column, of AWKWARD strings, so some text lines end in
    whitespace, which they keep.  Repeated, a coded column stays coded, as
    its rows repeat as np.resize repeats them, and its codes run across
    every row block and render block; cut, it is expanded to one value a
    row, as a coded column's values must each be used by a row."""
    env = run(parse_args(["bell-sweep", "--grid-step", "15"]))
    columns = tuple(dataclasses.replace(column, length=rows)
                    if isinstance(column, cli._Coded) and rows >= len(column)
                    else np.resize(_expanded(column), rows) for column in env.table.columns)
    notes = tuple(AWKWARD[i % len(AWKWARD)] for i in range(rows - 1))
    # the widest note is in the last row; the last column is not padded, so
    # no line before it takes that width
    notes += ("the widest note, in the last row",) if rows else ()
    results = dict(env.results, points=cli.Table(cli.BELL_POINT_KEYS, columns))
    table = cli.Table(env.table.header + ("note",), columns + (notes,), env.table.covers)
    return dataclasses.replace(env, results=results, table=table)


@pytest.mark.parametrize("rows", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 2])
@pytest.mark.parametrize("fmt", sorted(RENDERERS))
def test_render_matches_oracle_at_block_edges(fmt, rows, monkeypatch):
    env = _sweep_env(rows)
    want = RENDERERS[fmt](_expanded_env(env))
    # the coded columns as one value a row, from np.resize of the expanded
    # 15 degree columns
    resized = [np.resize(_expanded(column), rows) for column in run(
        parse_args(["bell-sweep", "--grid-step", "15"])).table.columns]
    assert all(map(np.array_equal, map(_expanded, env.table.columns), resized))
    assert render(env, fmt) == want
    # across render-block edges too: at 64 rows a render block, the tables
    # of block edges +-1 rows end in a part block, of one row at 8193
    monkeypatch.setattr(cli, "_RENDER_ROWS", 64)
    assert render(env, fmt) == want


def _traced_sweep(step: str, fmt: str) -> tuple[int, int]:
    """The tracemalloc peak of one bell-sweep report, built and written to
    os.devnull, and the bytes of the table's columns held meanwhile."""
    tracemalloc.start()
    try:
        env = run(parse_args(["bell-sweep", "--grid-step", step]))
        cli.emit(env, fmt, os.devnull)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    arrays = {}
    for column in env.table.columns:
        array = column.values if isinstance(column, cli._Coded) else column
        arrays[id(array)] = array.nbytes
    return peak, sum(arrays.values())


@pytest.mark.parametrize("fmt", sorted(RENDERERS))
def test_peak_memory_follows_the_render_block(fmt, monkeypatch):
    # 4141 rows a render block: the 2 degree sweep (8,281 points) is 2 blocks
    # and the 1 degree sweep (32,761 points) 8.  Less the columns the report
    # holds (17 bytes a point: p_bc, bell_gap and violated; the axis
    # columns hold one value an axis point), the 8-block report must peak
    # within 0.25 MiB of the 2-block one.  Holding the whole grid's cell texts added about 0.9 MiB
    # more, and its 49-byte records would add 1.1 MiB.
    monkeypatch.setattr(cli, "_RENDER_ROWS", 4141)
    two, held_two = _traced_sweep("2", fmt)
    eight, held_eight = _traced_sweep("1", fmt)
    assert eight - held_eight <= two - held_two + 2**18


# header and cell texts: CSV specials, whitespace a text line keeps, and %.
# A lone "\r" is left out of the CSV cells: csv.writer quotes it or not
# depending on the Python version, and _csv_field pins the 3.11 rule
# (test_csv_field_rule).
CSV_TEXTS = st.text(alphabet=[",", '"', "\n", " ", "\t", "%", "a", "é"], max_size=4)
TEXTS = st.text(alphabet=[",", '"', "\n", "\r", " ", "\t", "%", "a", "é"], max_size=4)


@st.composite
def tables(draw, results_only=False, texts=TEXTS):
    """Small Tables of random columns, with header and str cells drawn from
    texts; results_only keeps to the finite float64 and bool columns a Table
    inside results may hold."""
    kinds = ("float", "bool") if results_only else ("str", "int", "float", "bool")
    floats = st.floats(allow_nan=not results_only, allow_infinity=not results_only)
    rows = draw(st.integers(0, 5))
    header, columns = [], []
    for _ in range(draw(st.integers(1, 4))):
        header.append(draw(texts))
        kind = draw(st.sampled_from(kinds))
        if kind == "str":
            values = tuple(draw(st.lists(texts, min_size=rows, max_size=rows)))
        elif kind == "int":
            values = tuple(draw(st.lists(st.integers(-10**6, 10**6), min_size=rows, max_size=rows)))
        elif kind == "float":
            values = np.array(draw(st.lists(floats, min_size=rows, max_size=rows)), dtype=np.float64)
        else:
            values = np.array(draw(st.lists(st.booleans(), min_size=rows, max_size=rows)), dtype=bool)
        columns.append(values)
    return cli.Table(tuple(header), tuple(columns))


def _envelope(results: dict, table: cli.Table) -> cli.ReportEnvelope:
    return cli.ReportEnvelope("demo", {"format": "text"}, {"exact": True, "sampled": False},
                              results, table)


@settings(max_examples=300, deadline=None)
@given(tables(texts=CSV_TEXTS))
def test_csv_tables_match_oracle(table):
    env = _envelope({"n": 1}, table)
    assert render(env, "csv") == RENDERERS["csv"](env)


@settings(max_examples=300, deadline=None)
@given(tables())
def test_text_tables_match_oracle(table):
    # uncovered results print a line per leaf, nested dicts and lists too
    results = {"n": 1, "shown": {"a": [0.5, True], "b": {}, "c": [{"d": "x"}]},
               "covered": {"e": 2}, "empty": []}
    env = _envelope(results, dataclasses.replace(table, covers=("covered",)))
    assert render(env, "text") == RENDERERS["text"](env)


def _neighbours(x: float, ulps: int) -> list[float]:
    """x and the floats up to ulps steps either side of it."""
    out = [x]
    for direction in (math.inf, -math.inf):
        y = x
        for _ in range(ulps):
            y = math.nextafter(y, direction)
            out.append(y)
    return out


@st.composite
def near_duplicate_columns(draw, rows, finite=True):
    """float64 columns of values whose 12-digit texts mostly coincide:
    values a few ulps apart, both zeros, the floats either side of a 13-digit
    number ending in 5, where the 12th digit rounds up, and of
    9.999999999995e<k>, where it rounds up to a power of ten; subnormals and
    values above 1e290, whose rounding keys are not sure."""
    values = [0.0, -0.0] if finite else [0.0, -0.0, math.nan, -math.nan]
    for _ in range(draw(st.integers(1, 3))):
        x = draw(st.floats(allow_nan=not finite, allow_infinity=not finite))
        values += _neighbours(x, draw(st.integers(1, 4)))
        digits = draw(st.integers(10**11, 10**12 - 1)) * 10 + 5
        sign = draw(st.sampled_from("+-"))
        values += _neighbours(float(f"{sign}{digits}e{draw(st.integers(-40, 40))}"), 1)
        values += _neighbours(float(f"{sign}9.999999999995e{draw(st.integers(-300, 300))}"), 2)
        values += _neighbours(float(f"{sign}{draw(st.integers(1, 2**52 - 1)) * 5e-324}"), 2)
        values += _neighbours(math.copysign(draw(st.floats(1e290, 1e308)), float(f"{sign}1")), 2)
    values = [v for v in values if math.isfinite(v) or not finite]
    return np.array(draw(st.lists(st.sampled_from(values), min_size=rows, max_size=rows)))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 40).flatmap(lambda rows: near_duplicate_columns(rows, finite=False)))
def test_distinct_cells_keeps_each_text_once(column):
    texts, index = cli._distinct_cells(column)
    assert len(set(texts)) == len(texts)
    assert [texts[i] for i in index] == [cli._cell(v) for v in column]


@st.composite
def coded_columns(draw, rows, finite=True):
    """A coded float64 column of rows rows: near-duplicate values, each for
    every rows at a time, cycled from a drawn offset, and each used by at
    least one row."""
    every = draw(st.integers(1, 4))
    # rows of size * every hold every value
    size = draw(st.integers(min(rows, 1), max(min(rows, 1), min(rows // every, 40))))
    values = draw(near_duplicate_columns(size, finite))
    return cli._Coded(values, every, rows, draw(st.integers(0, 2 * size * every)))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 80).flatmap(lambda rows: coded_columns(rows, finite=False)))
def test_coded_column_cells_are_those_of_its_rows(column):
    texts, index = cli._distinct_cells(column)
    want_texts, want_index = cli._distinct_cells(_expanded(column))
    # one text per value, and the column itself as the row index
    assert len(texts) == len(column.values)
    assert index is column
    assert set(texts) == set(want_texts)
    codes = index.codes(0, len(index))
    assert [texts[i] for i in codes] == [want_texts[i] for i in want_index]
    # a cut of the column, as a render block takes, keeps its rows' codes
    cut = len(column) // 3
    assert np.array_equal(column[cut:].codes(0, len(column) - cut), codes[cut:])


@st.composite
def coded_tables(draw):
    """(coded columns of one length and a column of AWKWARD notes of that
    length): a blank note leaves a coded column's padded cell and the
    separator after it at the end of a line."""
    rows = draw(st.integers(0, 30))
    columns = [draw(coded_columns(rows)) for _ in range(draw(st.integers(1, 3)))]
    return columns, tuple(draw(st.lists(st.sampled_from(AWKWARD), min_size=rows, max_size=rows)))


@settings(max_examples=100, deadline=None)
@given(coded_tables())
def test_coded_columns_render_as_their_rows(drawn):
    columns, notes = drawn

    def env_of(columns):
        points = cli.Table(tuple(f"c{j}" for j in range(len(columns))), tuple(columns))
        table = cli.Table(points.header + ("note",), points.columns + (notes,), ("points",))
        return _envelope({"points": points}, table)

    values = [column.values.copy() for column in columns]
    expanded = env_of([_expanded(column) for column in columns])
    for fmt in sorted(RENDERERS):
        assert render(env_of(columns), fmt) == RENDERERS[fmt](expanded)
    # rendering leaves the values, whose texts it indexes, as they were
    assert all(map(np.array_equal, values, (column.values for column in columns)))


@pytest.mark.parametrize("step", ["15", "1", "0.5"])
def test_sweep_axis_columns_are_coded_by_axis(step):
    sweep = experiments.quantum_bell_sweep(math.radians(float(step)))
    points, per_axis = sweep_records(sweep), round(180 / float(step)) + 1
    columns = dict(zip(cli.BELL_POINT_KEYS, run(parse_args(["bell-sweep", "--grid-step", step]))
                       .table.columns))
    replaced = {"theta1_deg": np.degrees(points.theta1), "theta2_deg": np.degrees(points.theta2),
                "p_q_ab": points.p_q_AB, "p_q_ac": points.p_q_AC}
    for key, column in columns.items():
        if key not in replaced:
            assert isinstance(column, np.ndarray), key
            continue
        assert isinstance(column, cli._Coded), key
        # no array a row is held: the codes are made when asked for
        assert [a for a in vars(column).values() if isinstance(a, np.ndarray)] == [column.values]
        codes = column.codes(0, len(column))
        assert codes.dtype == np.int32
        assert len(column.values) == per_axis == len(np.unique(codes)), key
        assert column.values[codes].tobytes() == replaced[key].tobytes(), key


def test_distinct_cells_joins_texts_across_a_block_edge():
    # distinct values in bit order, once the four NaNs are made one: -0.0,
    # then 0.0, 1.0, ..., then five ulp neighbours of 1e6 (one text) across
    # the edge between the first two blocks, then more numbers and the NaN
    run = _neighbours(1e6, 2)
    nans = np.array([np.nan, -np.nan, np.nan, -np.nan])
    nans.view(np.int64)[2:] |= 1
    before = np.arange(BLOCK - 3 - len(run) // 2, dtype=np.float64)
    column = np.concatenate([before, [-0.0], nans, run, 2e6 + np.arange(BLOCK)])
    column = np.random.default_rng(5).permutation(np.concatenate([column, column[::7]]))
    bits = np.unique(np.where(np.isnan(column), np.nan, column).view(np.int64))
    edge = np.searchsorted(bits, np.array(sorted(run)).view(np.int64))
    assert edge[0] < BLOCK <= edge[-1]
    # the values either side of the edge share one sure key, carried over it
    keys = cli._rounding_keys(bits[BLOCK - 1:BLOCK + 1].view(np.float64))
    assert keys[0] == keys[1]
    texts, index = cli._distinct_cells(column)
    assert len(set(texts)) == len(texts)
    assert texts.count(cli._cell(1e6)) == texts.count("nan") == 1
    assert [texts[i] for i in index] == [cli._cell(v) for v in column]


def _key_decimal(key: float) -> Decimal:
    """The 12-digit decimal magnitude a sure rounding key stands for."""
    exponent, digits = divmod(int(abs(key)), 10**12)
    if not digits:  # rint rounded up to the next power of ten
        exponent, digits = exponent - 1, 10**12
    return Decimal(digits).scaleb(exponent - 300 - 11)


@settings(max_examples=500, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
@example(9.999999999995e-3)
@example(math.nextafter(1e6, 0))
@example(1e6)
@example(1e-290)
@example(1.0000000000005)
@example(123456789012.5)
@example(-2.5e-7)
@example(1e290)
def test_sure_rounding_key_is_the_12_digit_decimal(x):
    key = cli._rounding_keys(np.array([x]))[0]
    if not math.isnan(key):
        assert math.copysign(1.0, key) == math.copysign(1.0, x)
        assert _key_decimal(key) == Decimal(cli._number_text(abs(x)))


def test_bell_gap_is_formatted_about_once_a_text():
    column = run(parse_args(["bell-sweep", "--grid-step", "0.5"])).table.columns[
        cli.BELL_POINT_KEYS.index("bell_gap")]
    calls, number_text = [], cli._number_text
    with mock.patch.object(cli, "_number_text", lambda x: calls.append(x) or number_text(x)):
        texts, index = cli._distinct_cells(column)
    # 91,118 distinct values, 43,420 texts
    assert len(np.unique(column)) > 2 * len(texts)
    assert len(calls) <= len(texts) + len(texts) // 100


@st.composite
def near_duplicate_tables(draw):
    rows = draw(st.integers(0, 40))
    columns = [draw(near_duplicate_columns(rows)) for _ in range(draw(st.integers(1, 3)))]
    return cli.Table(tuple(f"c{j}" for j in range(len(columns))), tuple(columns))


@settings(max_examples=200, deadline=None)
@given(near_duplicate_tables())
def test_near_duplicate_floats_match_oracle(table):
    env = _envelope({"points": table}, dataclasses.replace(table, covers=("points",)))
    for fmt in sorted(RENDERERS):
        assert render(env, fmt) == RENDERERS[fmt](env)


@pytest.mark.parametrize("text,alone,want", [
    ("plain", False, "plain"),
    ("a,b", False, '"a,b"'),
    ('say "hi"', False, '"say ""hi"""'),
    ("two\nlines", False, '"two\nlines"'),
    ("cr\r", False, "cr\r"),
    ("cr\r,", False, '"cr\r,"'),
    ("", False, ""),
    ("", True, '""'),
])
def test_csv_field_rule(text, alone, want):
    assert cli._csv_field(text, alone) == want


@settings(max_examples=200, deadline=None)
@given(tables(results_only=True), tables(results_only=True))
def test_json_tables_in_results_match_oracle(first, second):
    env = _envelope({"first": first, "nested": {"second": second, "n": 2}}, first)
    assert render(env, "json") == RENDERERS["json"](env)


# where a 12-digit text and its float's repr are laid out apart: fixed point
# against exponents (1e-4 and 1e-5; 1e12 to 1e16), integers, zeros, and ties
# that round the 12th digit up
JSON_EDGES = [1e-4, 1e-5, 9.99999999999e-5, 0.00012345678901234, 1e11 + 0.5, 1e12, 1.5e15,
              1.5e16, 123.0, -0.0, 0.0, 0.1, 2.0 / 3.0, -1234567.8901234, 1e-300, 1.7e308]


@settings(max_examples=500, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
@example(5e-324)
@example(2.2250738585072014e-308)
@example(-0.0)
@example(1.0)
@example(1e-05)
@example(1e12)
@example(123456789012345.0)
@example(9.99999999999e15)
@example(1e16)
def test_json_number_is_json_dumps_of_the_text(x):
    text = cli._number_text(x)
    assert cli._json_number(text) == json.dumps(float(text))


def test_json_numbers_match_oracle_at_layout_edges():
    signed = np.array(JSON_EDGES + [-v for v in JSON_EDGES])
    table = cli.Table(("x",), (np.resize(signed, 100),))
    env = _envelope({"points": table}, dataclasses.replace(table, covers=("points",)))
    assert render(env, "json") == RENDERERS["json"](env)


@pytest.mark.parametrize("fmt", sorted(RENDERERS))
def test_report_is_written_a_block_at_a_time(fmt, tmp_path, monkeypatch):
    writes = []

    class Recorder(io.StringIO):
        def write(self, text):
            writes.append(text)
            return super().write(text)

    def written(env) -> str:
        """env's report, checked to be what emit writes to stdout, as the
        writes recorded, and to a file."""
        writes.clear()
        cli.emit(env, fmt)
        cli.emit(env, fmt, str(tmp_path / "report"))
        whole = render(env, fmt)
        assert "".join(writes) == whole == (tmp_path / "report").read_text()
        return whole

    monkeypatch.setattr(sys, "stdout", Recorder())
    monkeypatch.setattr(cli, "_BLOCK_ROWS", 64)
    whole = written(run(parse_args(["bell-sweep", "--grid-step", "5"])))
    assert len(writes) > 1
    # the envelope without rows, and the longest row: a JSON row is an
    # object of one line per key and two for its braces
    head = len(render(_sweep_env(0), fmt))
    row = max(map(len, whole.splitlines(keepends=True)))
    row *= len(cli.BELL_POINT_KEYS) + 2 if fmt == "json" else 1
    assert max(map(len, writes)) <= head + cli._BLOCK_ROWS * row < len(whole) / 4

    # a block of 8,192 rows is written in pieces of at most _WRITE_BYTES
    # bytes: the 2 degree sweep (8,281 rows) is 2 blocks
    monkeypatch.setattr(cli, "_BLOCK_ROWS", BLOCK)
    whole = written(run(parse_args(["bell-sweep", "--grid-step", "2"])))
    assert len(whole) > 8 * cli._WRITE_BYTES
    assert max(len(w.encode()) for w in writes) <= cli._WRITE_BYTES
    if fmt == "json":
        return
    # unless a single row is longer: a note of more bytes than the bound,
    # though of fewer characters, is written alone, its neighbours apart
    env = _sweep_env(2000)
    notes = list(env.table.columns[-1])
    notes[1000] = "\u00e9" * (cli._WRITE_BYTES // 2 + 1)
    env = dataclasses.replace(env, table=dataclasses.replace(
        env.table, columns=env.table.columns[:-1] + (tuple(notes),)))
    written(env)
    long = [w for w in writes if len(w.encode()) > cli._WRITE_BYTES]
    assert len(long) == 1 and long[0].count("\n") == 1 and long[0].endswith(notes[1000] + "\n")


def test_rows_that_fit_one_piece_are_written_as_one():
    # csv: the header line, then the rows; text: the envelope's head, the
    # header line, then the rows
    for argv in VARIANTS:
        for fmt, chunks in (("csv", 2), ("text", 3)):
            env = run(parse_args(argv + ["--format", fmt]))
            assert len(list(cli._chunks(env, fmt))) == chunks, (argv, fmt)
    # json: the envelope's head, the points' rows, their closing bracket,
    # then the tail
    env = run(parse_args(["bell-sweep", "--grid-step", "30"]))
    assert len(list(cli._chunks(env, "json"))) == 4


def test_pieces_are_sized_in_bytes_of_utf8():
    # rows of 20,000 two-byte characters: three fit in _WRITE_BYTES counted
    # in characters, one counted in bytes
    notes = ("\u00e9" * 20000,) * 4
    env = _envelope({"n": 1}, cli.Table(("note",), (notes,)))
    header, *pieces = cli._chunks(env, "csv")
    assert [piece.encode() for piece in pieces] == [(note + "\n").encode() for note in notes]


@pytest.mark.parametrize("fmt", sorted(RENDERERS))
@pytest.mark.parametrize("argv", VARIANTS, ids=" ".join)
def test_output_file_holds_the_stdout_bytes(argv, fmt, tmp_path, capsys):
    target = tmp_path / "report"
    env = run(parse_args(argv + ["--format", fmt, "--output", str(target)]))
    cli.emit(env, fmt)
    cli.emit(env, fmt, str(target))
    out = capsys.readouterr().out
    assert target.read_bytes() == out.encode()
    assert list(tmp_path.iterdir()) == [target]
    # the text table cuts no line, so it relies on cells without trailing whitespace
    assert fmt != "text" or all(line == line.rstrip() for line in out.split("\n"))


_born, _closed_form = experiments.joint_outcome_prob, experiments._closed_form_probs
# the bell_gap field stored at single precision, every other field as before
_SINGLE_GAP = np.dtype([(name, np.float32 if name == "bell_gap" else dtype)
                        for name, (dtype, _) in experiments.BELL_POINT_DTYPE.fields.items()])

# One row per check a report makes, keyed by the start of its message: the
# smallest patch that breaks the value the check guards, never the check
# itself, and an argv whose report makes the check.
CHECK_BREAKS = {
    "parity contradiction did not materialize": (
        # every quantum parity expectation +1, xxx too
        lambda mp: mp.setattr(experiments, "product_expectation", lambda state, obs: 1.0),
        ["ghz-parity"],
    ),
    "an outcome probability missed its 0-or-1/4 target": (
        lambda mp: mp.setattr(experiments, "joint_outcome_prob",
                              lambda *args: _born(*args) + 1e-6),
        ["ghz-parity"],
    ),
    "parity enumeration certificate failed": (
        # a rule of two mixed patterns admits 16 of the 64 assignments
        lambda mp: mp.setattr(lhv, "MIXED_PATTERNS", lhv.MIXED_PATTERNS[:2]),
        ["lhv-enumerate", "ghz"],
    ),
    "inequality enumeration certificate failed": (
        # in reverse order the pairs give the vertex (1, -1, 1) a gap of -1
        lambda mp: mp.setattr(lhv, "COINCIDENCE_PAIRS", lhv.COINCIDENCE_PAIRS[::-1]),
        ["lhv-enumerate", "singlet"],
    ),
    "closed form and state-vector probability disagree for AB": (
        lambda mp: mp.setattr(experiments, "_closed_form_probs",
                              lambda t1, t2: tuple(p + 1e-6 for p in _closed_form(t1, t2))),
        ["singlet-bell"],
    ),
    "designed ensemble parity xyy is not constant": (
        # the swiss sign is +1 on half the designed boxes, -1 on the rest
        lambda mp: mp.setattr(lhv.GhzBoxing, "pattern_product", lambda box, pattern: box.swiss),
        ["ghz-parity"],
    ),
    "bell_gap or violated inconsistent with the probabilities": (
        # gaps rounded to single precision differ from the ones recomputed
        lambda mp: mp.setattr(experiments, "BELL_POINT_DTYPE", _SINGLE_GAP),
        ["bell-sweep", "--grid-step", "30"],
    ),
}


class TestOutputAndExitCodes:
    def test_writes_report_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        assert main(["order-demo", "--format", "json", "--output", str(target)]) == 0
        doc = json.loads(target.read_text())
        assert doc["command"] == "order-demo"
        assert capsys.readouterr().out == ""

    def test_output_dir_env_resolves_relative_paths(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path))
        assert main(["order-demo", "--format", "json", "--output", "rel.json"]) == 0
        assert (tmp_path / "rel.json").exists()

    def test_absolute_output_ignores_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path / "elsewhere"))
        target = tmp_path / "abs.json"
        assert main(["order-demo", "--format", "json", "--output", str(target)]) == 0
        assert target.exists()

    def test_unwritable_output_exits_one(self, tmp_path, capsys):
        target = tmp_path / "missing" / "deep" / "report.json"
        assert main(["order-demo", "--output", str(target)]) == 1
        assert "bellbox:" in capsys.readouterr().err

    def test_closed_stdout_exits_one(self):
        # a shell's >&- starts the process with stdout closed: sys.stdout is None
        env = dict(os.environ, PYTHONPATH=str(Path(bellbox.__file__).parents[1]))
        proc = subprocess.run(["sh", "-c", '"$0" -m bellbox singlet-bell >&-', sys.executable],
                              stderr=subprocess.PIPE, env=env)
        assert proc.returncode == 1
        assert proc.stderr.decode().splitlines() == ["bellbox: standard output is closed"]

    def test_unencodable_output_path_exits_one(self, tmp_path, capsys):
        # Python reads the argv byte 0xff as "\udcff", which every format's
        # echo of the path cannot encode as UTF-8
        target = tmp_path / "\udcff.out"
        for fmt in sorted(cli._RENDERERS):
            assert main(["order-demo", "--format", fmt, "--output", str(target)]) == 1, fmt
            err = capsys.readouterr().err
            assert err.startswith("usage: bellbox order-demo ")
            assert err.endswith(
                "\nbellbox order-demo: error: --output must be a path UTF-8 can encode\n")
            # neither the report nor its temporary file is left behind
            assert list(tmp_path.iterdir()) == []

    def test_failure_midstream_keeps_the_old_file(self, tmp_path, monkeypatch, capsys):
        target = tmp_path / "sweep.csv"
        target.write_bytes(b"old bytes")
        render_csv = cli._RENDERERS["csv"]

        def broken(env):
            chunks = render_csv(env)
            yield next(chunks)
            raise OSError("no space left on device")

        monkeypatch.setitem(cli._RENDERERS, "csv", broken)
        argv = ["bell-sweep", "--grid-step", "15", "--format", "csv", "--output", str(target)]
        assert main(argv) == 1
        assert capsys.readouterr().err == "bellbox: no space left on device\n"
        assert target.read_bytes() == b"old bytes"
        assert list(tmp_path.iterdir()) == [target]

    def test_symlinked_output_updates_the_link_target(self, tmp_path, capsys):
        (tmp_path / "real").mkdir()
        real = tmp_path / "real" / "report.csv"
        real.write_bytes(b"old bytes")
        link = tmp_path / "link.csv"
        link.symlink_to(os.path.join("real", "report.csv"))
        assert main(["order-demo", "--format", "csv", "--output", str(link)]) == 0
        assert link.is_symlink() and os.readlink(link) == os.path.join("real", "report.csv")
        assert real.read_bytes() == render(run(parse_args(["order-demo", "--format", "csv"])),
                                           "csv").encode()
        assert sorted(tmp_path.rglob("*")) == [link, tmp_path / "real", real]

    def test_file_mode_is_what_open_gives(self, tmp_path):
        old_umask = os.umask(0o027)
        try:
            (tmp_path / "plain").touch()
            assert main(["order-demo", "--output", str(tmp_path / "new")]) == 0
        finally:
            os.umask(old_umask)
        mode = stat.S_IMODE((tmp_path / "plain").stat().st_mode)
        assert mode == 0o640
        assert stat.S_IMODE((tmp_path / "new").stat().st_mode) == mode
        # open keeps an existing file's mode
        (tmp_path / "new").chmod(0o600)
        assert main(["order-demo", "--output", str(tmp_path / "new")]) == 0
        assert stat.S_IMODE((tmp_path / "new").stat().st_mode) == 0o600

    def test_fifo_output_is_written_in_place(self, tmp_path):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        argv = ["bell-sweep", "--grid-step", "15", "--format", "csv"]
        received = []
        # daemon: a failed run never opens the FIFO, and the reader must not
        # keep the test process alive
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
        reader.start()
        assert main(argv + ["--output", str(fifo)]) == 0
        reader.join(timeout=10)
        assert received == [render(run(parse_args(argv)), "csv").encode()]
        assert stat.S_ISFIFO(fifo.stat().st_mode)
        assert list(tmp_path.iterdir()) == [fifo]

    def test_dev_stdout_output_reaches_a_pipe(self):
        # /dev/stdout links to the pipe through /proc, where the path
        # realpath gives for it does not exist
        env = dict(os.environ, PYTHONPATH=str(Path(bellbox.__file__).parents[1]))
        argv = ["order-demo", "--format", "csv"]
        proc = subprocess.run([sys.executable, "-m", "bellbox", *argv, "--output", "/dev/stdout"],
                              capture_output=True, env=env)
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert proc.stdout == render(run(parse_args(argv)), "csv").encode()

    def test_physics_assertion_exits_two(self, monkeypatch, capsys):
        def broken():
            raise PhysicsAssertionError("forced failure")

        monkeypatch.setattr("bellbox.experiments.ghz_contradiction_report", broken)
        assert main(["ghz-parity"]) == 2
        assert "physics assertion failed" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["bell-sweep", "--grid-step", "30"], ["singlet-bell"]])
    def test_failed_bell_record_check_exits_two(self, argv, monkeypatch, tmp_path, capsys):
        closed_form, born = experiments._closed_form_probs, experiments.joint_outcome_prob
        monkeypatch.setattr(experiments, "_closed_form_probs",
                            lambda t1, t2: tuple(3 * p for p in closed_form(t1, t2)))
        # the Born rule agrees with the tripled closed forms, so what fails is
        # the check that each probability lies in [0, 1/2]
        monkeypatch.setattr(experiments, "joint_outcome_prob", lambda *args: 3 * born(*args))
        assert main([*argv, "--output", str(tmp_path / "report")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("bellbox: physics assertion failed: p_q_")
        assert err.count("\n") == 1 and "out of [0, 1/2]" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("message", sorted(CHECK_BREAKS))
    def test_every_check_can_fire(self, message, monkeypatch, tmp_path, capsys):
        breaks, argv = CHECK_BREAKS[message]
        breaks(monkeypatch)
        assert main([*argv, "--output", str(tmp_path / "report")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"bellbox: physics assertion failed: {message}")
        assert err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_stdout_round_trip(self, capsys):
        assert main(["lhv-enumerate", "ghz", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["results"]["survivor_count"] == 8


def _subparsers() -> dict[str, argparse.ArgumentParser]:
    parser = cli._build_parser()
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


SUBPARSERS = _subparsers()


def test_float_options_are_the_parsers_float_options():
    # _join_negative_floats reads a negative value after exactly these
    declared = {option for parser in SUBPARSERS.values() for action in parser._actions
                if action.type is float for option in action.option_strings}
    assert sorted(cli._FLOAT_OPTIONS) == sorted(declared)


# option values argparse or parse_args must either take or reject cleanly
AWKWARD_NUMBERS = st.sampled_from([
    "0", "-0", "-1", "-1e5", "2.5E1", "1e300", "-3e299", "1e400", "1e-300", "5e-324",
    "inf", "-inf", "nan", "0x10", "1_000", "", "abc",
])


# the --output files the fuzz test draws: ASCII, non-ASCII, and a name
# holding the argv byte 0xff, which parse_args rejects
OUTPUT_NAMES = ("report.out", "\u00e9.out", "\udcff.out")


def _option_values(action: argparse.Action):
    """Values to draw for one option.  Grid steps finer than 10 degrees and
    sample counts above 50 are drawn only where parse_args rejects them, so
    every report stays small."""
    if action.choices:
        return st.sampled_from([*sorted(action.choices), "other"])
    if action.dest == "grid_step_deg":
        steps = st.floats(min_value=10.0) | st.floats(max_value=0.05)
        return steps.map(repr) | AWKWARD_NUMBERS
    if action.dest == "samples":
        counts = st.integers(-3, 50) | st.integers(min_value=experiments.MAX_SAMPLES + 1)
        return counts.map(str) | AWKWARD_NUMBERS
    if action.type is int:
        return st.integers(-3, 10**30).map(str) | AWKWARD_NUMBERS
    if action.type is float:
        return st.floats().map(repr) | AWKWARD_NUMBERS
    # --output, relative to the output directory the test sets
    return st.sampled_from([*OUTPUT_NAMES, "", ".", "missing/report.out"])


@st.composite
def cli_argv(draw):
    """argv built from the parser's own commands, options and choices: each
    option or positional present or not, option names sometimes cut to a
    prefix, values sometimes joined with '='."""
    command = draw(st.sampled_from(sorted(SUBPARSERS)))
    words = []
    for action in SUBPARSERS[command]._actions:
        if isinstance(action, argparse._HelpAction):
            if draw(st.integers(0, 30)) == 0:
                words.append([action.option_strings[-1]])
        elif not action.option_strings:
            if draw(st.integers(0, 9)):
                words.append([draw(_option_values(action))])
        elif draw(st.booleans()):
            name = draw(st.sampled_from(action.option_strings))
            if draw(st.integers(0, 4)) == 0:
                name = name[:draw(st.integers(3, len(name)))]
            value = draw(_option_values(action))
            words.append([f"{name}={value}"] if draw(st.booleans()) else [name, value])
    return [command, *(word for group in draw(st.permutations(words)) for word in group)]


def _run_main(argv, workdir: Path):
    """Exit code, stdout, stderr and the --output files of one main(argv),
    each read and removed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    written = {}
    for name in OUTPUT_NAMES:
        report = workdir / name
        if report.is_file():
            written[name] = report.read_bytes()
            report.unlink()
    return code, out.getvalue(), err.getvalue(), written


@settings(max_examples=150, deadline=None)
@given(cli_argv())
def test_fuzzed_argv_gives_a_report_or_a_usage_error(argv):
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.dict(os.environ, {cli.OUTPUT_DIR_ENV: tmp}):
        first = _run_main(argv, Path(tmp))
        assert first[0] in (0, 1), first
        assert "Traceback" not in first[2]
        assert _run_main(argv, Path(tmp)) == first
        # no line of a text report, on stdout or in a file, ends in whitespace
        for report in [first[1], *(report.decode() for report in first[3].values())]:
            if report.startswith(f"{cli.TOOL_NAME} {argv[0]}\n"):
                assert all(line == line.rstrip() for line in report.split("\n"))
        # no temporary file is left, whether the run wrote a report or not
        assert os.listdir(tmp) == []
