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
import csv
import io
import json
import math
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__, experiments, lhv, quantum
from .experiments import PhysicsAssertionError

TOOL_NAME = "bellbox"
SCHEMA_VERSION = "1"
OUTPUT_DIR_ENV = "BELLBOX_OUTPUT_DIR"
SCHEMA_PATH = Path(__file__).with_name("report_schema.json")

COMMANDS = (
    "singlet-bell",
    "bell-sweep",
    "ghz-parity",
    "order-demo",
    "lhv-enumerate",
    "classical-mc",
    "state-report",
)

BELL_ROW_HEADER = ("theta1_deg", "theta2_deg", "p_ab", "p_bc", "p_ac", "bell_gap", "violated")
# the same fields as JSON keys
BELL_POINT_KEYS = ("theta1_deg", "theta2_deg", "p_q_ab", "p_q_bc", "p_q_ac", "bell_gap", "violated")

_CONFIG_KEYS = (
    "theta1_deg",
    "theta2_deg",
    "samples",
    "seed",
    "grid_step_deg",
    "target",
    "format",
    "output",
)


@dataclass(frozen=True)
class RunConfig:
    command: str
    theta1_deg: float = 60.0
    theta2_deg: float = 120.0
    samples: int | None = None
    seed: int = 0
    grid_step_deg: float = 1.0
    target: str | None = None
    format: str = "text"
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

    columns holds one sequence per header entry, all of one length; float64
    and bool arrays are rendered a whole column at a time.  covers lists the
    top-level results keys the table already presents, so the text format
    does not repeat them as scalar lines.
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
        choices=("json", "csv", "text"),
        default="text",
        help="report format (default: text)",
    )
    p.add_argument(
        "--output",
        metavar="PATH",
        help="write the report to a file instead of stdout; relative paths "
        f"resolve against ${OUTPUT_DIR_ENV} when set",
    )


def _add_angles(p: argparse.ArgumentParser) -> None:
    p.add_argument("--theta1", type=float, default=60.0, metavar="DEG",
                   help="first measurement angle in degrees (default: 60)")
    p.add_argument("--theta2", type=float, default=120.0, metavar="DEG",
                   help="second measurement angle in degrees (default: 120)")


def _build_parser() -> _Parser:
    parser = _Parser(
        prog=TOOL_NAME,
        description="Exact and sampled correlation contrasts between entangled "
        "spin states and their classical boxed-attribute ensembles.",
    )
    parser.add_argument("--version", action="version", version=f"{TOOL_NAME} {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("singlet-bell", help="coincidence probabilities and the "
                       "inequality gap for the two-spin state at one angle pair")
    _add_angles(p)
    p.add_argument("--samples", type=int, metavar="N",
                   help="also report Monte Carlo estimates from N joint draws")
    p.add_argument("--seed", type=int, default=0, help="sampling seed (default: 0)")
    _add_common(p)

    p = sub.add_parser("bell-sweep", help="gap over an inclusive angle grid "
                       "covering [0, 180] degrees on both axes")
    p.add_argument("--grid-step", type=float, default=1.0, metavar="DEG",
                   help="grid spacing in degrees (default: 1)")
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
                   help="number of box draws (default: 100000)")
    p.add_argument("--seed", type=int, default=0, help="sampling seed (default: 0)")
    _add_common(p)

    p = sub.add_parser("state-report", help="state amplitudes, reduced matrices, "
                       "and mixed-vs-superposition distributions along a probe axis")
    p.add_argument("--theta1", type=float, default=90.0, metavar="DEG",
                   help="probe axis polar angle in degrees (default: 90)")
    _add_common(p)

    return parser


def parse_args(argv=None) -> RunConfig:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    theta1 = getattr(ns, "theta1", 60.0)
    theta2 = getattr(ns, "theta2", 120.0)
    samples = getattr(ns, "samples", None)
    grid_step = getattr(ns, "grid_step", 1.0)
    if not (math.isfinite(theta1) and math.isfinite(theta2)):
        parser.error("angles must be finite")
    if samples is not None and samples < 1:
        parser.error("--samples must be at least 1")
    seed = getattr(ns, "seed", 0)
    # the seed is used only when something is sampled
    if seed < 0 and samples is not None:
        parser.error("--seed must not be negative")
    if ns.command == "bell-sweep":
        if not (math.isfinite(grid_step) and grid_step > 0):
            parser.error("--grid-step must be positive")
        try:
            experiments._sweep_point_count(math.radians(grid_step))
        except ValueError:
            parser.error(f"--grid-step {grid_step:g} gives more than "
                         f"{experiments.MAX_SWEEP_POINTS:,} grid points")
    return RunConfig(
        command=ns.command,
        theta1_deg=theta1,
        theta2_deg=theta2,
        samples=samples,
        seed=seed,
        grid_step_deg=grid_step,
        target=getattr(ns, "target", None),
        format=ns.format,
        output_path=ns.output,
    )


def _config_echo(config: RunConfig, used: tuple[str, ...]) -> dict:
    values = {
        "theta1_deg": config.theta1_deg,
        "theta2_deg": config.theta2_deg,
        "samples": config.samples,
        "seed": config.seed,
        "grid_step_deg": config.grid_step_deg,
        "target": config.target,
        "format": config.format,
        "output": config.output_path,
    }
    used = used + ("format", "output")
    return {k: (values[k] if k in used else None) for k in _CONFIG_KEYS}


def _cmd_singlet_bell(config: RunConfig):
    point = experiments.quantum_bell_point(config.theta1, config.theta2)
    row = (config.theta1_deg, config.theta2_deg, point.p_q_AB, point.p_q_BC,
           point.p_q_AC, point.bell_gap, point.violated)
    results = dict(zip(BELL_POINT_KEYS, row))
    used = ("theta1_deg", "theta2_deg")
    sampled = False
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
        used += ("samples", "seed")
        sampled = True
    table = Table.from_rows(BELL_ROW_HEADER, [row], covers=BELL_POINT_KEYS)
    return results, table, {"exact": True, "sampled": sampled}, used


def _cmd_bell_sweep(config: RunConfig):
    sweep = experiments.quantum_bell_sweep(math.radians(config.grid_step_deg))
    points = sweep.points
    # np.degrees rounds exactly as math.degrees does
    columns = (np.degrees(points.theta1), np.degrees(points.theta2), points.p_q_AB,
               points.p_q_BC, points.p_q_AC, points.bell_gap, points.violated)
    results = {
        "grid_step_deg": config.grid_step_deg,
        "point_count": len(points),
        "min_gap": sweep.min_gap,
        "argmin_theta1_deg": math.degrees(sweep.minimum.theta1),
        "argmin_theta2_deg": math.degrees(sweep.minimum.theta2),
        "points": Table(BELL_POINT_KEYS, columns),
    }
    table = Table(BELL_ROW_HEADER, columns, covers=("points",))
    return results, table, {"exact": True, "sampled": False}, ("grid_step_deg",)


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
            "rows": [
                {
                    "setting": r.setting,
                    "outcomes": list(r.outcomes),
                    "prob": r.prob,
                    "expected": r.expected,
                    "ok": r.ok,
                }
                for r in impossible.rows
            ],
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
    return results, table, {"exact": True, "sampled": False}, ()


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
    return results, table, {"exact": True, "sampled": False}, ("theta1_deg", "theta2_deg")


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
        results = {
            "target": "singlet",
            "vertex_count": len(cert.vertices),
            "min_gap": cert.min_gap,
            "all_satisfied": cert.all_satisfied,
            "tight_vertex_count": len(cert.tight_vertices),
            "uniform": _correlation_fields(cert.uniform_report),
            "vertices": [
                {
                    "dark": v.triple.dark,
                    "round": v.triple.round,
                    "swiss": v.triple.swiss,
                    "p_ab": v.i_AB,
                    "p_bc": v.i_BC,
                    "p_ac": v.i_AC,
                    "bell_gap": v.gap,
                }
                for v in cert.vertices
            ],
        }
        table = Table.from_rows(
            header=("dark", "round", "swiss", "p_ab", "p_bc", "p_ac", "bell_gap"),
            rows=[
                (v.triple.dark, v.triple.round, v.triple.swiss, v.i_AB, v.i_BC,
                 v.i_AC, v.gap)
                for v in cert.vertices
            ],
            covers=("vertices",),
        )
    return results, table, {"exact": True, "sampled": False}, ("target",)


def _cmd_classical_mc(config: RunConfig):
    used = ("target", "samples", "seed")
    if config.target == "ghz":
        ens = lhv.build_ghz_ensemble()
        report = experiments.mc_classical_estimate(ens, config.samples, config.seed)
        patterns = {}
        for i, pat in enumerate(lhv.PARITY_PATTERNS):
            patterns[pat] = {
                "mean": report.means[i],
                "constant_on_draws": report.constant_on_draws[i],
                "exact_constant": lhv.parity_product(ens, pat).constant,
            }
        results = {
            "target": "ghz",
            "samples": config.samples,
            "seed": config.seed,
            "patterns": patterns,
        }
        table = Table.from_rows(
            header=("pattern", "mean", "constant_on_draws"),
            rows=[
                (pat, patterns[pat]["mean"], patterns[pat]["constant_on_draws"])
                for pat in lhv.PARITY_PATTERNS
            ],
            covers=("patterns",),
        )
    else:
        ens = lhv.build_singlet_ensemble()
        sampled = experiments.mc_classical_estimate(ens, config.samples, config.seed)
        exact = lhv.bell_check(ens)
        quantities = (
            ("p_ab", sampled.p_AB, exact.p_AB),
            ("p_bc", sampled.p_BC, exact.p_BC),
            ("p_ac", sampled.p_AC, exact.p_AC),
        )
        estimates = {}
        rows = []
        for name, est, oracle in quantities:
            se = math.sqrt(est * (1.0 - est) / config.samples)
            estimates[name] = {"estimate": est, "std_error": se, "exact": oracle}
            rows.append((name, est, se, oracle))
        results = {
            "target": "singlet",
            "samples": config.samples,
            "seed": config.seed,
            "estimates": estimates,
            "bell_lhs": sampled.bell_lhs,
            "satisfied": sampled.satisfied,
        }
        table = Table.from_rows(
            header=("quantity", "estimate", "std_error", "exact"),
            rows=rows,
            covers=("estimates",),
        )
    return results, table, {"exact": True, "sampled": True}, used


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
            "reduced_site1_diag": [
                quantum.partial_trace(singlet, 1).entries[i, i].real for i in range(2)
            ],
            "invariance_residual": quantum.singlet_invariance_residual(axis),
        },
        "ghz": {
            "amplitudes": _complex_pairs(ghz.amplitudes),
            "reduced_site2_diag": [
                quantum.partial_trace(ghz, 2).entries[i, i].real for i in range(2)
            ],
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
    return results, table, {"exact": True, "sampled": False}, ("theta1_deg",)


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
    results, table, provenance, used = _HANDLERS[config.command](config)
    return ReportEnvelope(
        command=config.command,
        config=_config_echo(config, used),
        provenance=provenance,
        results=results,
        table=table,
    )


def _round12(x: float) -> float:
    return float(format(x, ".12g"))


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
        return _round12(float(value))
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
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".12g")
    return str(value)


def _is_column(column, dtype) -> bool:
    """True for a numpy column of dtype."""
    return isinstance(column, np.ndarray) and column.dtype == dtype


def _format12(values: list) -> list[str]:
    return list(map("{:.12g}".format, values))


def _json12(values: list) -> list[str]:
    # json.dumps writes a float as its repr
    return list(map(repr, map(float, _format12(values))))


def _map_distinct(fn, column: np.ndarray) -> list[str]:
    """fn applied to the distinct values of a float64 column, spread back
    over the whole column.

    Sweep columns repeat a few hundred values each.  Values are told apart by
    their bits, so -0.0 and 0.0 stay distinct."""
    bits, inverse = np.unique(column.view(np.int64), return_inverse=True)
    texts = np.array(fn(bits.view(np.float64).tolist()), dtype=object)
    return texts[inverse.reshape(-1)].tolist()


def _column_cells(column) -> list[str]:
    """The CSV and text cells of one Table column, as _cell writes them."""
    if _is_column(column, np.float64):
        return _map_distinct(_format12, column)
    if _is_column(column, np.bool_):
        return np.where(column, "true", "false").tolist()
    return [_cell(v) for v in column]


def _json_cells(column) -> list[str]:
    """The JSON text of each value in one Table column, as json.dumps writes
    _jsonify's copy of it.  Only finite float64 and bool columns are
    supported."""
    if _is_column(column, np.float64) and np.isfinite(column).all():
        return _map_distinct(_json12, column)
    if _is_column(column, np.bool_):
        return _column_cells(column)
    raise TypeError("a Table inside results needs finite float64 or bool columns")


def _json_rows(table: Table, indent: str) -> str:
    """The table as json.dumps(indent=2) writes a list of objects whose
    opening line is indented by indent."""
    if not len(table):
        return "[]"
    inner = indent + "  "
    fields = (",\n" + inner + "  ").join(
        json.dumps(key).replace("%", "%%") + ": %s" for key in table.header
    )
    template = inner + "{\n" + inner + "  " + fields + "\n" + inner + "}"
    rows = map(template.__mod__, zip(*map(_json_cells, table.columns)))
    return "[\n" + ",\n".join(rows) + "\n" + indent + "]"


def _flatten_leaves(value, prefix: str = ""):
    """Depth-first (path, leaf) pairs; lists of scalars count as one leaf each."""
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


def _render_json(env: ReportEnvelope) -> str:
    tables = []
    text = json.dumps(_envelope_doc(env, tables), indent=2) + "\n"
    for index in reversed(range(len(tables))):
        token = json.dumps(_placeholder(index))
        at = text.rindex(token)
        line = text[text.rindex("\n", 0, at) + 1:at]
        indent = line[: len(line) - len(line.lstrip(" "))]
        text = text[:at] + _json_rows(tables[index], indent) + text[at + len(token):]
    return text


def _render_csv(env: ReportEnvelope) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(env.table.header)
    writer.writerows(zip(*map(_column_cells, env.table.columns)))
    return buf.getvalue()


def _is_rows(value) -> bool:
    """True for values the text format shows as a row count."""
    return isinstance(value, (list, tuple)) and bool(value) and isinstance(value[0], dict)


def _text_scalars(results: dict, covered: tuple[str, ...]) -> list[str]:
    lines = []
    for key, value in results.items():
        if key in covered:
            continue
        if _is_rows(value):
            lines.append(f"{key}: {len(value)} rows")
            continue
        if isinstance(value, dict):
            for path, leaf in _flatten_leaves(value, key):
                if _is_rows(leaf):
                    lines.append(f"{path}: {len(leaf)} rows")
                else:
                    lines.append(f"{path} = {_cell(leaf)}")
            continue
        lines.append(f"{key} = {_cell(value)}")
    return lines


def _render_text(env: ReportEnvelope) -> str:
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
    scalars = _text_scalars(env.results, env.table.covers)
    if scalars:
        lines.append("")
        lines.extend(scalars)
    lines.append("")
    columns = [
        [str(h), *_column_cells(column)]
        for h, column in zip(env.table.header, env.table.columns)
    ]
    template = "  ".join(f"%-{max(map(len, cells))}s" for cells in columns)
    lines.extend(line.rstrip() for line in map(template.__mod__, zip(*columns)))
    return "\n".join(lines) + "\n"


def render(env: ReportEnvelope, fmt: str) -> str:
    if fmt == "json":
        return _render_json(env)
    if fmt == "csv":
        return _render_csv(env)
    if fmt == "text":
        return _render_text(env)
    raise ValueError(f"unknown format {fmt!r}")


def resolve_output_path(destination: str) -> Path:
    path = Path(destination)
    if not path.is_absolute():
        base = os.environ.get(OUTPUT_DIR_ENV)
        if base:
            path = Path(base) / path
    return path


def emit(env: ReportEnvelope, fmt: str, destination: str | None = None) -> None:
    """Render and write the report; destination None means stdout."""
    text = render(env, fmt)
    if destination is None:
        sys.stdout.write(text)
    else:
        resolve_output_path(destination).write_text(text, encoding="utf-8")


def main(argv=None) -> int:
    try:
        config = parse_args(argv)
    except SystemExit as exc:
        if isinstance(exc.code, int):
            return exc.code
        return 0 if exc.code is None else 1
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
