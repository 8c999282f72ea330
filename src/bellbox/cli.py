"""Command-line surface and deterministic report emission.

Angles are taken in degrees on the command line and converted to radians
internally.  Exit codes: 0 success, 1 usage or I/O problems, 2 a physics
assertion failed (a value the theory pins down came out wrong).  JSON reports
carry a schema_version and validate against report_schema.json shipped next
to this module; identical invocations produce byte-identical output.

Relative --output paths resolve against the BELLBOX_OUTPUT_DIR environment
variable when it is set.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import operator
import os
import shutil
import sys
from dataclasses import asdict, dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__, experiments, lhv, quantum
from .experiments import _BLOCK_ROWS, PhysicsAssertionError

TOOL_NAME = "bellbox"
SCHEMA_VERSION = "1"
OUTPUT_DIR_ENV = "BELLBOX_OUTPUT_DIR"
SCHEMA_PATH = Path(__file__).with_name("report_schema.json")

BELL_ROW_HEADER = ("theta1_deg", "theta2_deg", "p_ab", "p_bc", "p_ac", "bell_gap", "violated")
# the same fields as JSON keys
BELL_POINT_KEYS = ("theta1_deg", "theta2_deg", "p_q_ab", "p_q_bc", "p_q_ac", "bell_gap", "violated")


@dataclass(frozen=True)
class RunConfig:
    """One command's settings: each field is a parser option's dest.  A field
    the command's subparser does not declare is None; defaults live in the
    parser only.  run echoes every field but command, output_path as "output"."""

    command: str
    theta1_deg: float | None = None
    theta2_deg: float | None = None
    samples: int | None = None
    seed: int | None = None
    grid_step_deg: float | None = None
    target: str | None = None
    format: str | None = None
    output_path: str | None = None

    # Degrees are reduced mod 360 before the conversion, so a huge finite
    # angle keeps its meaning; fmod is exact and leaves |x| < 360 alone.
    @property
    def theta1(self) -> float:
        return math.radians(math.fmod(self.theta1_deg, 360.0))

    @property
    def theta2(self) -> float:
        return math.radians(math.fmod(self.theta2_deg, 360.0))


@dataclass(frozen=True)
class Table:
    """Tabular view of a report, held as columns: the CSV body, also shown by
    the text format.  A Table inside results renders in JSON as a list of
    objects keyed by its header; its columns must be finite float64 or bool.

    columns holds one sequence per header entry, all of one length; each
    distinct value of a float64 or bool array is formatted once per render
    block (_RENDER_ROWS rows) it appears in, twice in the text format's later
    blocks.  A column may be coded (_Coded): its values, each formatted once,
    read by rows in a fixed pattern, as a sweep holds a column that reads one
    axis.  covers lists the top-level results keys the table already presents,
    so the text format does not repeat them as scalar lines.

    The text format cuts no line, so a line keeps any trailing whitespace
    its cells have; no report's cell has any (each is a number, a bool, a
    fraction or a fixed ASCII name).
    """

    header: tuple[str, ...]
    columns: tuple
    covers: tuple[str, ...] = ()

    @classmethod
    def from_rows(cls, header, rows, covers=()) -> Table:
        columns = tuple(zip(*rows)) if rows else ((),) * len(header)
        return cls(header, columns, covers)

    def __len__(self) -> int:
        return len(self.columns[0]) if self.columns else 0


@dataclass(frozen=True, eq=False)
class _Coded:
    """A Table column that reads one axis of a grid: row i of its length
    rows holds values[(offset + i) // every % len(values)], values being a
    numpy array of values each used by some row (a cut of the column, as a
    render block takes, may use fewer).  A sweep's theta1 column holds each
    theta1 value for a row of theta2 values (every is the theta2 count),
    and its theta2 column cycles through the theta2 values (every is 1), so
    it needs no array a row: codes() makes the index into values of the
    rows asked for."""

    values: np.ndarray
    every: int
    length: int
    offset: int = 0

    def __len__(self) -> int:
        return self.length

    def __getitem__(self, part: slice) -> _Coded:
        start, stop, _ = part.indices(self.length)
        return _Coded(self.values, self.every, max(stop - start, 0), self.offset + start)

    def codes(self, start: int, stop: int) -> np.ndarray:
        """The index into values of rows start to stop, as int32: a sweep
        has at most MAX_SWEEP_POINTS rows."""
        rows = np.arange(self.offset + start, self.offset + stop, dtype=np.int32)
        return rows // self.every % len(self.values)


@dataclass(frozen=True)
class ReportEnvelope:
    command: str
    config: dict
    provenance: dict
    results: dict
    table: Table


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; 2 is reserved for physics
    # assertions here, so usage problems exit 1 instead
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--format",
        choices=tuple(_RENDERERS),
        default="text",
        help="report format (default: %(default)s)",
    )
    p.add_argument(
        "--output",
        dest="output_path",
        metavar="PATH",
        help="write the report to a file instead of stdout; relative paths "
        f"resolve against ${OUTPUT_DIR_ENV} when set",
    )


def _add_angles(p: argparse.ArgumentParser) -> None:
    p.add_argument("--theta1", dest="theta1_deg", type=float, default=60.0, metavar="DEG",
                   help="first measurement angle in degrees (default: %(default)g)")
    p.add_argument("--theta2", dest="theta2_deg", type=float, default=120.0, metavar="DEG",
                   help="second measurement angle in degrees (default: %(default)g)")


def _build_parser() -> _Parser:
    parser = _Parser(
        prog=TOOL_NAME,
        description="Exact and sampled correlation contrasts between entangled "
        "spin states and their classical boxed-attribute ensembles.",
    )
    parser.add_argument("--version", action="version", version=f"{TOOL_NAME} {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    # each command's parser, which reports the errors parse_args finds later
    parser.commands = sub.choices

    p = sub.add_parser("singlet-bell", help="coincidence probabilities and the "
                       "inequality gap for the two-spin state at one angle pair")
    _add_angles(p)
    p.add_argument("--samples", type=int, metavar="N",
                   help="also report Monte Carlo estimates from N joint draws")
    p.add_argument("--seed", type=int, default=0, help="sampling seed (default: %(default)s)")
    _add_common(p)

    p = sub.add_parser("bell-sweep", help="gap over an inclusive angle grid "
                       "covering [0, 180] degrees on both axes")
    p.add_argument("--grid-step", dest="grid_step_deg", type=float, default=1.0, metavar="DEG",
                   help="grid spacing in degrees (default: %(default)g)")
    _add_common(p)

    p = sub.add_parser("ghz-parity", help="three-spin parity expectations vs "
                       "the classical ensemble constants, with the impossible-"
                       "outcome table")
    _add_common(p)

    p = sub.add_parser("order-demo", help="sequential-measurement probability "
                       "for two measurement orders of the same outcomes")
    _add_angles(p)
    _add_common(p)

    p = sub.add_parser("lhv-enumerate", help="exhaustive certificates for the "
                       "classical ensembles")
    p.add_argument("target", choices=("singlet", "ghz"),
                   help="which classical model to enumerate")
    _add_common(p)

    p = sub.add_parser("classical-mc", help="sampled classical correlations "
                       "against their exact values")
    p.add_argument("target", choices=("singlet", "ghz"),
                   help="which designed ensemble to sample")
    p.add_argument("--samples", type=int, default=100000, metavar="N",
                   help="number of box draws (default: %(default)s)")
    p.add_argument("--seed", type=int, default=0, help="sampling seed (default: %(default)s)")
    _add_common(p)

    p = sub.add_parser("state-report", help="state amplitudes, reduced matrices, "
                       "and mixed-vs-superposition distributions along a probe axis")
    p.add_argument("--theta1", dest="theta1_deg", type=float, default=90.0, metavar="DEG",
                   help="probe axis polar angle in degrees (default: %(default)g)")
    _add_common(p)

    return parser


# Options that take a float: argparse reads a value such as -1e5 or -inf as
# an option of its own, not as this option's value.
_FLOAT_OPTIONS = ("--theta1", "--theta2", "--grid-step")


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _takes_float(arg: str) -> bool:
    """True for a float option, or a prefix argparse may expand to one."""
    return len(arg) > 2 and arg.startswith("--") and any(
        option.startswith(arg) for option in _FLOAT_OPTIONS
    )


def _join_negative_floats(argv: list[str]) -> list[str]:
    """argv with each float option followed by a negative number joined to
    it ("--theta2=-1e5"), so argparse reads the number as its value."""
    out = []
    for arg in argv:
        if out and _takes_float(out[-1]) and arg.startswith("-") and _is_float(arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def parse_args(argv=None) -> RunConfig:
    parser = _build_parser()
    ns = parser.parse_args(_join_negative_floats(sys.argv[1:] if argv is None else list(argv)))
    config = RunConfig(**vars(ns))
    parser = parser.commands[config.command]
    samples, grid_step = config.samples, config.grid_step_deg
    angles = (config.theta1_deg, config.theta2_deg)
    if not all(math.isfinite(theta) for theta in angles if theta is not None):
        parser.error("angles must be finite")
    if samples is not None and samples < 1:
        parser.error("--samples must be at least 1")
    if samples is not None and samples > experiments.MAX_SAMPLES:
        parser.error(f"--samples must be at most {experiments.MAX_SAMPLES:,}")
    # the seed is used only when something is sampled
    if samples is not None and config.seed < 0:
        parser.error("--seed must not be negative")
    if config.output_path is not None:
        # every format echoes the path; argv bytes UTF-8 cannot decode arrive as surrogates
        try:
            config.output_path.encode("utf-8")
        except UnicodeEncodeError:
            parser.error("--output must be a path UTF-8 can encode")
    if grid_step is not None:
        if not (math.isfinite(grid_step) and grid_step > 0):
            parser.error("--grid-step must be positive")
        try:
            experiments._axis_count(math.radians(grid_step))
        except ValueError:
            parser.error(f"--grid-step {grid_step:g} gives more than "
                         f"{experiments.MAX_SWEEP_POINTS:,} grid points")
    return config


def _bell_fields(fields, theta1_deg, theta2_deg, p_ab, p_ac) -> tuple:
    """BELL_POINT_KEYS values: those that read one angle given, the rest
    looked up by BellPoint field name in fields."""
    return (theta1_deg, theta2_deg, p_ab, fields["p_q_BC"], p_ac, fields["bell_gap"],
            fields["violated"])


def _cmd_singlet_bell(config: RunConfig):
    point = experiments.quantum_bell_point(config.theta1, config.theta2)
    row = _bell_fields(vars(point), config.theta1_deg, config.theta2_deg, point.p_q_AB,
                       point.p_q_AC)
    results = dict(zip(BELL_POINT_KEYS, row))
    if config.samples is not None:
        estimates = experiments.mc_bell_estimate(
            config.theta1, config.theta2, config.samples, config.seed
        )
        results["estimates"] = {
            f"p_q_{label.lower()}": {
                "estimate": est.estimate,
                "std_error": est.std_error,
                "samples": est.samples,
                "seed": est.seed,
            }
            for label, est in estimates.items()
        }
    table = Table.from_rows(BELL_ROW_HEADER, [row], covers=BELL_POINT_KEYS)
    return results, table


def _cmd_bell_sweep(config: RunConfig):
    sweep = experiments.quantum_bell_sweep(math.radians(config.grid_step_deg))
    minimum = sweep.minimum
    # the fields that read one angle are coded by that angle's grid index:
    # theta1's for each row of theta2 values, theta2's at every point
    count = len(sweep.points)
    # np.degrees rounds exactly as math.degrees does; theta2 is theta1
    degrees = np.degrees(sweep.theta1)
    columns = _bell_fields(
        sweep.points,
        _Coded(degrees, sweep.shape[1], count),
        _Coded(degrees, 1, count),
        _Coded(sweep.p_q_AB, sweep.shape[1], count),
        _Coded(sweep.p_q_AC, 1, count),
    )
    results = {
        "grid_step_deg": config.grid_step_deg,
        "point_count": count,
        "min_gap": minimum.bell_gap,
        "argmin_theta1_deg": math.degrees(minimum.theta1),
        "argmin_theta2_deg": math.degrees(minimum.theta2),
        "points": Table(BELL_POINT_KEYS, columns),
    }
    table = Table(BELL_ROW_HEADER, columns, covers=("points",))
    return results, table


def _cmd_ghz_parity(config: RunConfig):
    report = experiments.ghz_contradiction_report()
    impossible = experiments.impossible_outcomes_check()
    if not report.contradiction:
        raise PhysicsAssertionError("parity contradiction did not materialize")
    if not impossible.all_ok:
        raise PhysicsAssertionError("an outcome probability missed its 0-or-1/4 target")
    results = {
        "quantum": dict(report.quantum),
        "classical": dict(report.classical),
        "contradiction": report.contradiction,
        "impossible_outcomes": {
            "all_ok": impossible.all_ok,
            "rows": [dict(vars(row)) for row in impossible.rows],
        },
    }
    table = Table.from_rows(
        header=("pattern", "quantum_expectation", "classical_constant"),
        rows=[
            (pat, report.quantum[pat], report.classical[pat])
            for pat in lhv.PARITY_PATTERNS
        ],
        covers=("quantum", "classical"),
    )
    return results, table


def _cmd_order_demo(config: RunConfig):
    report = experiments.order_dependence_report(config.theta1, config.theta2)
    results = {
        "theta1_deg": config.theta1_deg,
        "theta2_deg": config.theta2_deg,
        "prob_order_123": report.prob_order_123,
        "prob_order_132": report.prob_order_132,
        "equal": report.equal,
    }
    table = Table.from_rows(
        header=tuple(results),
        rows=[tuple(results.values())],
        covers=tuple(results),
    )
    return results, table


def _correlation_fields(report: lhv.CorrelationReport) -> dict:
    return {
        "p_ab": report.p_AB,
        "p_bc": report.p_BC,
        "p_ac": report.p_AC,
        "bell_lhs": report.bell_lhs,
        "satisfied": report.satisfied,
    }


def _cmd_lhv_enumerate(config: RunConfig):
    if config.target == "ghz":
        cert = lhv.enumerate_ghz_lhv()
        if not (cert.all_xxx_positive and cert.matches_designed_ensemble
                and len(cert.survivors) == 8):
            raise PhysicsAssertionError("parity enumeration certificate failed")
        results = {
            "target": "ghz",
            "total_assignments": cert.total_assignments,
            "survivor_count": len(cert.survivors),
            "all_xxx_positive": cert.all_xxx_positive,
            "matches_designed_ensemble": cert.matches_designed_ensemble,
            "survivors": [
                {"dark": list(a.dark), "round": list(a.round), "xxx_product": a.xxx_product}
                for a in cert.survivors
            ],
        }
        table = Table.from_rows(
            header=("dark1", "dark2", "dark3", "round1", "round2", "round3", "xxx_product"),
            rows=[(*a.dark, *a.round, a.xxx_product) for a in cert.survivors],
            covers=("survivors",),
        )
    else:
        cert = lhv.enumerate_singlet_lhv()
        if not (cert.all_satisfied and cert.min_gap == 0):
            raise PhysicsAssertionError("inequality enumeration certificate failed")
        header = ("dark", "round", "swiss", "p_ab", "p_bc", "p_ac", "bell_gap")
        rows = [
            (v.triple.dark, v.triple.round, v.triple.swiss, v.i_AB, v.i_BC, v.i_AC, v.gap)
            for v in cert.vertices
        ]
        results = {
            "target": "singlet",
            "vertex_count": len(cert.vertices),
            "min_gap": cert.min_gap,
            "all_satisfied": cert.all_satisfied,
            "tight_vertex_count": len(cert.tight_vertices),
            "uniform": _correlation_fields(cert.uniform_report),
            "vertices": [dict(zip(header, row)) for row in rows],
        }
        table = Table.from_rows(header, rows, covers=("vertices",))
    return results, table


def _cmd_classical_mc(config: RunConfig):
    if config.target == "ghz":
        ens = lhv.build_ghz_ensemble()
        report = experiments.mc_classical_estimate(ens, config.samples, config.seed)
        header = ("pattern", "mean", "constant_on_draws")
        rows = list(zip(lhv.PARITY_PATTERNS, report.means, report.constant_on_draws))
        results = {
            "target": "ghz",
            "samples": config.samples,
            "seed": config.seed,
            "patterns": {
                pat: dict(zip(header[1:], rest),
                          exact_constant=lhv.parity_product(ens, pat).constant)
                for pat, *rest in rows
            },
        }
        covers = ("patterns",)
    else:
        ens = lhv.build_singlet_ensemble()
        sampled = _correlation_fields(experiments.mc_classical_estimate(ens, config.samples, config.seed))
        exact = _correlation_fields(lhv.bell_check(ens))
        header = ("quantity", "estimate", "std_error", "exact")
        rows = [
            (name, est, experiments.binomial_std_error(est, config.samples), exact[name])
            for name, est in sampled.items() if name.startswith("p_")
        ]
        results = {
            "target": "singlet",
            "samples": config.samples,
            "seed": config.seed,
            "estimates": {name: dict(zip(header[1:], rest)) for name, *rest in rows},
            "bell_lhs": sampled["bell_lhs"],
            "satisfied": sampled["satisfied"],
        }
        covers = ("estimates",)
    return results, Table.from_rows(header, rows, covers)


def _complex_pairs(amplitudes: np.ndarray) -> list:
    return [[a.real, a.imag] for a in amplitudes]


def _cmd_state_report(config: RunConfig):
    axis = quantum.MeasurementAxis(config.theta1)
    singlet = quantum.singlet_state()
    ghz = quantum.ghz_state()
    distributions = quantum.mixed_vs_superposition_report(axis)
    results = {
        "axis": {"theta_deg": config.theta1_deg, "phi_deg": 0.0},
        "singlet": {
            "amplitudes": _complex_pairs(singlet.amplitudes),
            "reduced_site1_diag": list(quantum.partial_trace(singlet, 1).entries.diagonal().real),
            "invariance_residual": quantum.singlet_invariance_residual(axis),
        },
        "ghz": {
            "amplitudes": _complex_pairs(ghz.amplitudes),
            "reduced_site2_diag": list(quantum.partial_trace(ghz, 2).entries.diagonal().real),
        },
        "axis_distributions": {
            "mixed": list(distributions.mixed),
            "superposition": list(distributions.superposition),
        },
    }
    rows = []
    for section, payload in results.items():
        for key, value in _flatten_leaves(payload):
            rows.append((section, key, _cell(value)))
    table = Table.from_rows(
        header=("section", "key", "value"),
        rows=rows,
        covers=tuple(results),
    )
    return results, table


_HANDLERS = {
    "singlet-bell": _cmd_singlet_bell,
    "bell-sweep": _cmd_bell_sweep,
    "ghz-parity": _cmd_ghz_parity,
    "order-demo": _cmd_order_demo,
    "lhv-enumerate": _cmd_lhv_enumerate,
    "classical-mc": _cmd_classical_mc,
    "state-report": _cmd_state_report,
}


def run(config: RunConfig) -> ReportEnvelope:
    results, table = _HANDLERS[config.command](config)
    echo = asdict(config)
    del echo["command"]
    # output_path is the last field, so "output" keeps its place in the echo
    echo["output"] = echo.pop("output_path")
    sampled = config.samples is not None
    if not sampled:
        echo["seed"] = None  # the seed is used only when something is sampled
    return ReportEnvelope(
        command=config.command,
        config=echo,
        provenance={"exact": True, "sampled": sampled},
        results=results,
        table=table,
    )


# The text of every float in a report, in every format: 12 significant digits.
_number_text = "{:.12g}".format


def _jsonify(value, tables: list):
    """JSON-ready copy of value.  Each Table is appended to tables and stands
    in the copy as a placeholder string, replaced by _render_json."""
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, (float, np.floating)):
        return float(_number_text(float(value)))
    if value is None or isinstance(value, str):
        return value
    if isinstance(value, Table):
        tables.append(value)
        return _placeholder(len(tables) - 1)
    if isinstance(value, dict):
        return {k: _jsonify(v, tables) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v, tables) for v in value]
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _placeholder(index: int) -> str:
    # no argv string can hold a NUL, so no other string in a report matches
    return f"\0table{index}"


def _cell(value) -> str:
    """A scalar's text: a float's _number_text, else its JSON value as text."""
    if isinstance(value, (float, np.floating)):
        return _number_text(float(value))
    value = _jsonify(value, [])
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _is_column(column, dtype) -> bool:
    """True for a numpy column of dtype."""
    return isinstance(column, np.ndarray) and column.dtype == dtype


def _rounding_keys(values: np.ndarray) -> np.ndarray:
    """Each float64 value's magnitude rounded to 12 significant digits, with
    its sign, as one float key, or NaN where the key is not sure.

    With e = floor(log10|x|), the key holds e and rint(|x| * 10**(11 - e)).
    The product is off by a few ulp, under 3e-4 of the 12th digit, so the
    key is the correctly rounded decimal, and equal keys have one text,
    unless the product is within 1e-3 of a .5 tie or outside [1e11, 1e12),
    or x is 0, not finite, at most 1e-290 or at least 1e290."""
    magnitude = np.abs(values)
    sure = (magnitude > 1e-290) & (magnitude < 1e290)
    magnitude = np.where(sure, magnitude, 1.0)
    e = np.floor(np.log10(magnitude))
    scaled = magnitude * 10.0 ** (11 - e)
    digits = np.rint(scaled)
    sure &= (scaled >= 1e11) & (scaled < 1e12) & (np.abs(scaled - digits) < 0.499)
    return np.where(sure, np.copysign((e + 300) * 1e12 + digits, values), np.nan)


def _distinct_cells(column, final=list) -> tuple[list[str], np.ndarray | _Coded]:
    """The cell texts of one Table column, as _cell writes them, each once
    for a float64 or bool column, passed through final (texts to the list of
    the format's texts), and the index of each row's text: an int32 array (a
    sweep has at most MAX_SWEEP_POINTS rows), or a coded column.

    A float64 column's distinct values are taken a block at a time, sorted
    by their bits, which keeps -0.0 and 0.0 apart.  Values that round to one
    text are then neighbours (NaNs are made one NaN first).  They are
    grouped by their 12-digit rounding first (_rounding_keys), and only the
    first value of a group, or one whose key is not sure, is formatted:
    about once a text.  A text is new where it differs from the one before, which also
    joins groups of one text, such as 9.999999999995e-3's and 0.01's.  The
    0.5 degree sweep's bell_gap has 91,118 values in 130,321 rows but 43,420
    texts, from 43,521 calls (1 degree: 22,824, 10,896 and 10,919).

    A bool column's texts are those present, false before true (their bit
    order), and its index is read off the column without a sort.  A coded
    column's texts are those of its values, one per value (so a text may
    repeat), and the column itself stands for the row index: its codes()
    are each row's index, so no array per row is made."""
    if isinstance(column, _Coded):
        texts, index = _distinct_cells(column.values, final)
        return [texts[i] for i in index.tolist()], column
    if _is_column(column, np.bool_):
        has_false, has_true = not column.all(), bool(column.any())
        texts = final(["false"] * has_false + ["true"] * has_true)
        # with false absent, every row reads the one text, true
        return texts, column.astype(np.int32) if has_false else np.zeros(len(column), np.int32)
    if not _is_column(column, np.float64):
        return final(map(_cell, column)), np.arange(len(column), dtype=np.int32)
    if np.isnan(column).any():
        column = np.where(np.isnan(column), np.nan, column)
    bits = column.view(np.int64).flatten()
    order = bits.argsort()
    bits = bits[order]
    # first: where a new value starts in sorted order, then where a new text does
    first = np.ones(len(bits), dtype=bool)
    np.not_equal(bits[1:], bits[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    bits = bits[starts]
    texts, last, key = [], "", np.nan
    for start in range(0, len(bits), _BLOCK_ROWS):
        values = bits[start:start + _BLOCK_ROWS].view(np.float64)
        # formatted where a key differs from the one before (NaN != NaN),
        # then marked where a text does
        formatted = np.ones(len(values), dtype=bool)
        keys = _rounding_keys(values)
        np.not_equal(keys[1:], keys[:-1], out=formatted[1:])
        formatted[0] = keys[0] != key
        key = keys[-1]
        at = np.flatnonzero(formatted)
        block = list(map(_number_text, values[at].tolist()))
        changed = list(map(operator.ne, block, [last, *block]))
        formatted[at] = changed
        first[starts[start:start + len(values)]] = formatted
        texts += final(itertools.compress(block, changed))
        last = block[-1]
    index = np.empty(len(column), dtype=np.int32)
    index[order] = np.cumsum(first, dtype=np.int32) - 1
    return texts, index


def _json_number(text: str) -> str:
    """json.dumps(float(text)) for a _number_text text of a finite float.

    A text without an exponent is a normal float of at most 12 significant
    digits, so its shortest repr has the same digits, in fixed point too,
    with ".0" after a whole number.  Subnormals and values of 1e12 or more
    have an exponent in their text and take repr."""
    if "e" in text:
        return repr(float(text))
    return text if "." in text else text + ".0"


def _json_cells(column, before: str, after: str) -> tuple[list[str], np.ndarray | _Coded]:
    """The JSON text of each value in one Table column, as json.dumps writes
    _jsonify's copy of it, between before and after: the distinct texts and
    each row's index into them; finite float64 and bool columns only, or
    coded columns of such values."""
    values = column.values if isinstance(column, _Coded) else column
    if _is_column(values, np.float64) and np.isfinite(values).all():
        final = lambda texts: [f"{before}{_json_number(t)}{after}" for t in texts]
    elif _is_column(values, np.bool_):
        final = lambda texts: [before + t + after for t in texts]
    else:
        raise TypeError("a Table inside results needs finite float64 or bool columns")
    return _distinct_cells(column, final)


# Most bytes of UTF-8 in one write of table rows, unless a single row is
# longer: under glibc's 128 KiB mmap threshold, so each piece and its encoded
# copy reuse heap memory instead of mapping and unmapping pages every write.
_WRITE_BYTES = 2**16


def _row_blocks(columns: list[tuple[list[str], np.ndarray | _Coded]]):
    """The rows of a table as text, gathered a block of _BLOCK_ROWS rows at
    a time and yielded in pieces of at most _WRITE_BYTES bytes of UTF-8, or
    of one row that is longer.

    columns holds one (texts, index) pair per column: a list of str and the
    index into it of each row's cell, an int32 array or a coded column
    (whose codes are made a block at a time), all of one length.
    Row i is texts[index[i]] of the first column + that of the second + ...:
    each text carries the separator before its cell, and the last column's
    the row end too.  Cells are gathered a block at a time, so no whole
    column of them is ever held.

    Each piece but a block's last holds as many rows as fit in _WRITE_BYTES
    at the widest row, the sum of each column's longest text in bytes of
    UTF-8, or one row if none fits."""
    count = len(columns[0][1])
    widest = 0
    for j, (texts, index) in enumerate(columns):
        encoded = texts if all(map(str.isascii, texts)) else map(str.encode, texts)
        widest += max(map(len, encoded), default=0)
        # in place of the list, so only one column is held as both
        columns[j] = np.array(texts, dtype=object), index
    step = max(1, _WRITE_BYTES // max(1, widest))
    block = np.empty((min(count, _BLOCK_ROWS), len(columns)), dtype=object)
    for start in range(0, count, _BLOCK_ROWS):
        stop = min(count, start + _BLOCK_ROWS)
        rows = block[: stop - start]
        for j, (texts, index) in enumerate(columns):
            rows[:, j] = texts[index.codes(start, stop) if isinstance(index, _Coded)
                               else index[start:stop]]
        for at in range(0, len(rows), step):
            yield "".join(rows[at:at + step].ravel().tolist())


# Rows whose cell texts a renderer builds and holds at a time, in every
# format: a table of more rows is rendered one such block after another, so
# its cell texts never span it.  The 1 and 0.5 degree sweeps (32,761 and
# 130,321 rows) are one block each.
_RENDER_ROWS = 2**17


def _table_rows(table: Table, cells):
    """The rows of a table as text chunks, a render block of _RENDER_ROWS
    rows at a time: _row_blocks of the list of cells(j, part) of each column
    j, part being the column's rows in the block (a coded column keeps all
    its values).  Each block is handed straight to _row_blocks, so its texts
    are dropped before the next block's are built."""
    for start in range(0, len(table), _RENDER_ROWS):
        part = slice(start, start + _RENDER_ROWS)
        yield from _row_blocks([cells(j, column[part]) for j, column in enumerate(table.columns)])


def _json_rows(table: Table, indent: str):
    """The table as json.dumps(indent=2) writes a list of objects whose
    opening line is indented by indent, in chunks."""
    if not len(table):
        yield "[]"
        return
    inner = indent + "  "
    keys = [json.dumps(key) + ": " for key in table.header]
    # each row opens with the comma after the row before; the first's is "["
    befores = [",\n" + inner + "{\n" + inner + "  " + keys[0]]
    befores += [",\n" + inner + "  " + key for key in keys[1:]]
    afters = [""] * (len(keys) - 1) + ["\n" + inner + "}"]
    chunks = _table_rows(table, lambda j, rows: _json_cells(rows, befores[j], afters[j]))
    yield "[" + next(chunks)[1:]
    yield from chunks
    yield "\n" + indent + "]"


def _flatten_leaves(value, prefix: str = ""):
    """Depth-first (path, leaf) pairs: a dict adds ".key" to the path, a list
    or tuple "[i]"."""
    if isinstance(value, dict):
        for k, v in value.items():
            yield from _flatten_leaves(v, f"{prefix}.{k}" if prefix else str(k))
    elif isinstance(value, (list, tuple)):
        for i, v in enumerate(value):
            yield from _flatten_leaves(v, f"{prefix}[{i}]")
    else:
        yield prefix, value


def _envelope_doc(env: ReportEnvelope, tables: list) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": TOOL_NAME, "version": __version__},
        "command": env.command,
        "config": _jsonify(env.config, tables),
        "provenance": _jsonify(env.provenance, tables),
        "results": _jsonify(env.results, tables),
    }


def _render_json(env: ReportEnvelope):
    tables = []
    text = json.dumps(_envelope_doc(env, tables), indent=2) + "\n"
    start = 0
    for index, table in enumerate(tables):
        token = json.dumps(_placeholder(index))
        at = text.index(token, start)
        line = text[text.rindex("\n", 0, at) + 1:at]
        indent = line[: len(line) - len(line.lstrip(" "))]
        yield text[start:at]
        yield from _json_rows(table, indent)
        start = at + len(token)
    yield text[start:]


def _csv_field(text: str, alone: bool) -> str:
    """A cell as Python 3.11's csv.writer writes it with the default dialect
    and "\\n" line ends: quoted, with its quotes doubled, when it holds a
    comma, a quote or a newline.  A carriage return alone is not quoted.
    alone says the cell is the only one in its row.

    The rule is fixed here rather than taken from the running interpreter's
    csv module, so a report's bytes do not depend on the Python version."""
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    # an empty row would read as a blank line
    return '""' if alone and not text else text


def _render_csv(env: ReportEnvelope):
    """The CSV text of the table: the header line, then the rows in blocks."""
    table = env.table
    alone = len(table.header) == 1
    last = len(table.header) - 1

    def cells(j, rows):
        before, after = "," if j else "", "\n" if j == last else ""
        return _distinct_cells(rows, lambda ts: [before + _csv_field(t, alone) + after for t in ts])

    yield ",".join(_csv_field(str(h), alone) for h in table.header) + "\n"
    yield from _table_rows(table, cells)


def _render_text(env: ReportEnvelope):
    lines = [f"{TOOL_NAME} {env.command}"]
    config_bits = " ".join(
        f"{k}={_cell(v)}" for k, v in env.config.items() if v is not None
    )
    lines.append(f"config: {config_bits}")
    lines.append(
        "provenance: exact={} sampled={}".format(
            _cell(env.provenance["exact"]), _cell(env.provenance["sampled"])
        )
    )
    uncovered = {k: v for k, v in env.results.items() if k not in env.table.covers}
    scalars = [f"{path} = {_cell(leaf)}" for path, leaf in _flatten_leaves(uncovered)]
    if scalars:
        lines.append("")
        lines.extend(scalars)
    lines.append("")
    yield "\n".join(lines) + "\n"
    yield from _text_table(env.table)


def _text_table(table: Table):
    """The table as lines of text, in chunks: the header, then one line per
    row.  Every column but the last is padded to its widest cell, and
    columns are two spaces apart; no line is cut.

    The widths come before the first row: from a first pass over the render
    blocks after the first, which keeps only each column's widest text, then
    from the first block's texts, kept for its rows.  So a table of N render
    blocks builds its texts 2N - 1 times."""
    header = [str(h) for h in table.header]
    last = len(header) - 1
    rest = Table(table.header, tuple(column[_RENDER_ROWS:] for column in table.columns))
    widths = list(map(len, header))
    for start in range(0, len(rest), _RENDER_ROWS):
        widths = [max([w, *map(len, _distinct_cells(column[start:start + _RENDER_ROWS])[0])])
                  for w, column in zip(widths, rest.columns)]
    block = [_distinct_cells(column[:_RENDER_ROWS]) for column in table.columns]
    widths = [max([w, *map(len, texts)]) for w, (texts, _) in zip(widths, block)]

    def padded(j, texts, index):
        lead, end = "  " if j else "", "\n" if j == last else ""
        width = 0 if end else widths[j]
        return [lead + t.ljust(width) + end for t in texts], index

    yield "  ".join([*map(str.ljust, header[:last], widths), header[last]]) + "\n"
    # popped last column first: a column's bare texts go once its padded ones are built
    yield from _row_blocks([padded(j, *block.pop()) for j in reversed(range(len(header)))][::-1])
    yield from _table_rows(rest, lambda j, rows: padded(j, *_distinct_cells(rows)))


# the --format choices, in the order --help lists them
_RENDERERS = {"json": _render_json, "csv": _render_csv, "text": _render_text}


def _chunks(env: ReportEnvelope, fmt: str):
    """The report as an iterator of strings: the head of the envelope, each
    piece of table rows as it is joined (_row_blocks), then the tail."""
    if fmt not in _RENDERERS:
        raise ValueError(f"unknown format {fmt!r}")
    return _RENDERERS[fmt](env)


def render(env: ReportEnvelope, fmt: str) -> str:
    return "".join(_chunks(env, fmt))


def resolve_output_path(destination: str) -> Path:
    path = Path(destination)
    if not path.is_absolute():
        base = os.environ.get(OUTPUT_DIR_ENV)
        if base:
            path = Path(base) / path
    return path


@contextlib.contextmanager
def _output(destination: str | None):
    """The stream a report is written to; destination None means stdout.

    A file gets the whole report or keeps its old bytes: the report goes to
    a new file beside the target (symlinks resolved), renamed over it once
    written and removed if writing fails.  A target that exists and is not
    a regular file (a FIFO, /dev/stdout on a pipe) is written in place."""
    if destination is None:
        # sys.stdout is None when the process started with stdout closed
        if sys.stdout is None:
            raise OSError("standard output is closed")
        yield sys.stdout
        return
    path = resolve_output_path(destination)
    # os.stat follows /dev/stdout to the pipe or terminal it stands for,
    # where the path realpath gives for it may not exist
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", encoding="utf-8") as out:
            yield out
        return
    target = os.path.realpath(path)
    temp = os.path.join(os.path.dirname(target), f".{TOOL_NAME}-{os.urandom(6).hex()}.tmp")
    try:
        # mode 0o666 less the umask, as open gives a new file
        fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:
        exc.filename = str(path)
        raise
    try:
        with open(fd, "w", encoding="utf-8") as out:
            yield out
        if os.path.exists(target):
            shutil.copymode(target, temp)  # an old file keeps its mode
        os.replace(temp, target)
    except BaseException:
        os.unlink(temp)
        raise


def emit(env: ReportEnvelope, fmt: str, destination: str | None = None) -> None:
    """Write the report a chunk at a time; destination None means stdout."""
    chunks = _chunks(env, fmt)
    with _output(destination) as out:
        out.writelines(chunks)


def main(argv=None) -> int:
    try:
        config = parse_args(argv)
    except SystemExit as exc:
        return exc.code  # argparse exits through ArgumentParser.exit, with an int
    try:
        env = run(config)
        emit(env, config.format, config.output_path)
    except PhysicsAssertionError as exc:
        print(f"{TOOL_NAME}: physics assertion failed: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"{TOOL_NAME}: {exc}", file=sys.stderr)
        return 1
    return 0
