"""End-to-end acceptance gate.

Ten numbered checks, each printing one PASS/FAIL line even under pytest's
capture, so a plain `pytest` run shows the scoreboard.  Tolerances and time
budgets are asserted inside each check; a budget miss fails the check."""

import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

import bellbox
from bellbox.experiments import (
    mc_bell_estimate,
    mc_classical_estimate,
    order_dependence_report,
    quantum_bell_sweep,
)
from bellbox.lhv import (
    AttributeTriple,
    SingletBoxing,
    bell_check,
    build_ghz_ensemble,
    build_singlet_ensemble,
    enumerate_ghz_lhv,
    enumerate_singlet_lhv,
)
from bellbox.quantum import (
    MeasurementAxis,
    joint_outcome_prob,
    singlet_invariance_residual,
    singlet_state,
)
from bellbox.cli import main as cli_main
from oracles import closed_form_sequential, ensemble_from_counts

T1_DEG, T2_DEG = 60.0, 120.0
T1, T2 = math.radians(T1_DEG), math.radians(T2_DEG)


def _report(capsys, num, label, fn):
    try:
        fn()
    except BaseException:
        with capsys.disabled():
            print(f"ACCEPTANCE {num:02d} FAIL {label}")
        raise
    with capsys.disabled():
        print(f"ACCEPTANCE {num:02d} PASS {label}")


def test_01_cli_reports_the_violating_point(capsys):
    # the child imports the bellbox this test imported, installed or not
    env = dict(os.environ, PYTHONPATH=str(Path(bellbox.__file__).parents[1]))

    def check():
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "bellbox", "singlet-bell",
             "--theta1", "60", "--theta2", "120", "--format", "json"],
            capture_output=True, text=True, env=env,
        )
        elapsed = time.perf_counter() - start
        assert proc.returncode == 0, proc.stderr
        results = json.loads(proc.stdout)["results"]
        assert abs(results["p_q_ab"] - 0.125) <= 1e-12
        assert abs(results["p_q_bc"] - 0.125) <= 1e-12
        assert abs(results["p_q_ac"] - 0.375) <= 1e-12
        assert results["violated"] is True
        assert elapsed < 1.0

    _report(capsys, 1, "CLI reports the violating point", check)


def test_02_all_classical_ensembles_obey_the_inequality(capsys):
    def check():
        start = time.perf_counter()
        cert = enumerate_singlet_lhv()
        assert len(cert.vertices) == 8
        assert cert.all_satisfied and cert.min_gap == 0
        triples = [
            AttributeTriple(d, r, s)
            for d in (1, -1) for r in (1, -1) for s in (1, -1)
        ]
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            counts = rng.integers(0, 10, size=8)
            if not counts.any():
                counts[0] = 1
            ens = ensemble_from_counts(
                (SingletBoxing(t), int(c))
                for t, c in zip(triples, counts)
            )
            report = bell_check(ens)
            assert report.satisfied
            assert report.bell_lhs >= report.p_AC  # exact Fraction comparison
        designed = bell_check(build_singlet_ensemble())
        quarter = Fraction(1, 4)
        assert (designed.p_AB, designed.p_BC, designed.p_AC) == (quarter,) * 3
        assert time.perf_counter() - start < 1.0

    _report(capsys, 2, "classical ensembles obey the inequality", check)


def test_03_parity_contradiction(capsys):
    def check():
        from bellbox.cli import parse_args, run

        start = time.perf_counter()
        results = run(parse_args(["ghz-parity"])).results
        for pattern in ("xyy", "yxy", "yyx"):
            assert abs(results["quantum"][pattern] - 1.0) <= 1e-12
        assert abs(results["quantum"]["xxx"] + 1.0) <= 1e-12
        assert results["classical"] == {"xyy": 1, "yxy": 1, "yyx": 1, "xxx": 1}
        assert results["contradiction"] is True
        assert time.perf_counter() - start < 1.0

    _report(capsys, 3, "parity contradiction between the two accounts", check)


def test_04_parity_enumeration(capsys):
    def check():
        start = time.perf_counter()
        cert = enumerate_ghz_lhv()
        assert cert.total_assignments == 64
        assert len(cert.survivors) == 8
        assert cert.all_xxx_positive
        assert cert.matches_designed_ensemble
        assert time.perf_counter() - start < 1.0

    _report(capsys, 4, "8 of 64 assignments survive the parity rules", check)


def test_05_rotational_invariance_and_marginals(capsys):
    def check():
        state = singlet_state()
        rng = np.random.default_rng(55)
        for _ in range(100):
            axis = MeasurementAxis(rng.uniform(0.0, math.pi), rng.uniform(0.0, 2.0 * math.pi))
            assert singlet_invariance_residual(axis) <= 1e-12
            for site in (0, 1):
                for sign in (1, -1):
                    axes = [None, None]
                    outcomes = [None, None]
                    axes[site], outcomes[site] = axis, sign
                    p = joint_outcome_prob(state, tuple(axes), tuple(outcomes))
                    assert abs(p - 0.5) <= 1e-12

    _report(capsys, 5, "axis-independent singlet with even marginals", check)


def test_06_order_dependent_sequential_probabilities(capsys):
    def check():
        report = order_dependence_report(T1, T2)
        assert abs(report.prob_order_123 - 0.09375) <= 1e-12
        assert abs(report.prob_order_132 - 0.28125) <= 1e-12
        ref123, ref132 = closed_form_sequential(T1, T2)
        assert abs(report.prob_order_123 - ref123) <= 1e-12
        assert abs(report.prob_order_132 - ref132) <= 1e-12

    _report(capsys, 6, "sequential outcome probabilities depend on order", check)


def test_07_half_degree_sweep_minimum(capsys):
    def check():
        start = time.perf_counter()
        sweep = quantum_bell_sweep(math.radians(0.5))
        assert abs(sweep.minimum.bell_gap + 0.125) <= 1e-6
        cell = 0.5 + 1e-9
        assert abs(math.degrees(sweep.minimum.theta1) - T1_DEG) <= cell
        assert abs(math.degrees(sweep.minimum.theta2) - T2_DEG) <= cell
        assert time.perf_counter() - start < 30.0

    _report(capsys, 7, "half-degree sweep pins the minimum gap", check)


def test_08_monte_carlo_converges_for_nearly_all_seeds(capsys):
    def check():
        start = time.perf_counter()
        n = 1_000_000
        quantum_exact = {"AB": 0.125, "BC": 0.125, "AC": 0.375}
        singlet_ens = build_singlet_ensemble()
        ghz_ens = build_ghz_ensemble()
        good = 0
        for seed in range(100):
            ok = True
            estimates = mc_bell_estimate(T1, T2, n, seed)
            for label, exact in quantum_exact.items():
                sigma = math.sqrt(exact * (1.0 - exact) / n)
                ok &= abs(estimates[label].estimate - exact) <= 4.0 * sigma
            report = mc_classical_estimate(singlet_ens, n, seed)
            sigma = math.sqrt(0.25 * 0.75 / n)
            for p in (report.p_AB, report.p_BC, report.p_AC):
                ok &= abs(p - 0.25) <= 4.0 * sigma
            ghz = mc_classical_estimate(ghz_ens, n, seed)
            # the parity products are constants, so their oracle has zero
            # standard error: only exact agreement passes
            ok &= ghz.means == (1.0, 1.0, 1.0, 1.0)
            good += ok
        assert good >= 99, f"only {good} of 100 seeds inside 4 standard errors"
        assert time.perf_counter() - start < 60.0

    _report(capsys, 8, "million-sample estimates track their oracles", check)


def test_09_impossible_outcomes(capsys):
    def check():
        from bellbox.experiments import impossible_outcomes_check

        report = impossible_outcomes_check()
        negative = [r for r in report.rows if r.outcomes[0] * r.outcomes[1] * r.outcomes[2] == -1]
        positive = [r for r in report.rows if r.outcomes[0] * r.outcomes[1] * r.outcomes[2] == 1]
        assert len(negative) == 12 and len(positive) == 12
        assert all(r.prob <= 1e-12 for r in negative)
        assert all(abs(r.prob - 0.25) <= 1e-12 for r in positive)
        assert report.all_ok

    _report(capsys, 9, "zero weight on forbidden outcome patterns", check)


def test_10_identical_seeds_give_identical_report_files(capsys, tmp_path):
    def check():
        commands = (
            ["classical-mc", "singlet", "--samples", "20000", "--seed", "17"],
            ["singlet-bell", "--samples", "20000", "--seed", "17"],
        )
        for i, base in enumerate(commands):
            # identical argv both times, including the destination
            path = tmp_path / f"run{i}.json"
            argv = base + ["--format", "json", "--output", str(path)]
            assert cli_main(argv) == 0
            first = path.read_bytes()
            assert cli_main(argv) == 0
            assert first == path.read_bytes()

    _report(capsys, 10, "seeded runs write byte-identical reports", check)
