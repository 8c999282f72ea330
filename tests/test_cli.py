"""Command-line surface: argument handling, report payloads, schema
conformance of the JSON output, CSV/text rendering, file output, exit codes."""

import hashlib
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest

import bellbox
from bellbox import cli
from bellbox.cli import SCHEMA_PATH, main, parse_args, render, run
from bellbox import experiments
from bellbox.experiments import PhysicsAssertionError

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
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "--grid-step 1e-300 gives more than 4,000,000 grid points" in err
        assert "--seed must not be negative" in err

    def test_unused_negative_seed_is_accepted(self):
        # without --samples, singlet-bell draws nothing, so its seed is unused
        assert parse_args(["singlet-bell", "--seed", "-1"]).seed == -1

    def test_grid_cap_admits_a_tenth_of_a_degree(self):
        config = parse_args(["bell-sweep", "--grid-step", "0.1"])
        assert config.grid_step_deg == 0.1
        assert experiments._sweep_point_count(math.radians(0.1)) == 1801 * 1801

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
# as written before the sweep was stored and rendered as columns
SWEEP_DIGESTS = {
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

    def test_physics_assertion_exits_two(self, monkeypatch, capsys):
        def broken():
            raise PhysicsAssertionError("forced failure")

        monkeypatch.setattr("bellbox.experiments.ghz_contradiction_report", broken)
        assert main(["ghz-parity"]) == 2
        assert "physics assertion failed" in capsys.readouterr().err

    def test_stdout_round_trip(self, capsys):
        assert main(["lhv-enumerate", "ghz", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["results"]["survivor_count"] == 8
