"""Output checks for every op, against oracles written here from the closed
forms and the certificates the paper pins down.

A check returns None for a correct output and a one-line reason otherwise;
a corrupted output is a failed op, never an exception out of the benchmark.

    reports  JSON validates against src/bellbox/report_schema.json and its
             results match; CSV and text tables (and text scalar lines) match
    sweep    min gap -1/8 at (60, 120), point_count points in grid order,
             every point on the closed forms; CSV has point_count + 1 rows
    mc       each estimate within 6 sigma of its exact value; the parity
             products constant on every draw
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import re

import numpy as np

# Reports print floats to 12 significant digits, and no value checked here
# exceeds 360 in magnitude.
TOL = 1e-9
# Below this |gap| (or |p123 - p132|) the sign flag is not checked: the
# program and this oracle may round a zero to opposite signs.
FLAG_SLACK = 1e-9
SQRT_HALF = math.sqrt(0.5)
PARITY_PATTERNS = ("xyy", "yxy", "yyx", "xxx")
BELL_HEADER = ("theta1_deg", "theta2_deg", "p_ab", "p_bc", "p_ac", "bell_gap", "violated")
POINT_FIELDS = ("theta1_deg", "theta2_deg", "p_q_ab", "p_q_bc", "p_q_ac", "bell_gap", "violated")
# jsonschema needs ~25 s for the 130k points of a 0.5 degree sweep, so the
# schema sees the envelope with every k-th point (about this many); every
# point is still checked field by field below.
SCHEMA_POINTS = 256
# one-sided tail of a normal distribution beyond 6 sigma
SIX_SIGMA_TAIL = 0.5 * math.erfc(6.0 / math.sqrt(2.0))


class CheckFailed(Exception):
    pass


def expect(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def coincidence_probs(theta1_deg: float, theta2_deg: float) -> tuple[float, float, float]:
    t1, t2 = math.radians(theta1_deg), math.radians(theta2_deg)
    return (
        0.5 * math.sin(t1 / 2) ** 2,
        0.5 * math.sin((t2 - t1) / 2) ** 2,
        0.5 * math.sin(t2 / 2) ** 2,
    )


def _flag(value: float, flag: bool):
    return None if abs(value) < FLAG_SLACK else flag


def flatten(value, prefix: str = ""):
    """(path, leaf) pairs in the order and notation of the text format."""
    if isinstance(value, dict):
        for k, v in value.items():
            yield from flatten(v, f"{prefix}.{k}" if prefix else str(k))
    elif isinstance(value, (list, tuple)):
        for i, v in enumerate(value):
            yield from flatten(v, f"{prefix}[{i}]")
    else:
        yield prefix, value


def _options(argv: list[str]) -> dict:
    return {argv[i]: argv[i + 1] for i in range(len(argv) - 1) if argv[i].startswith("--")}


# -- expected reports --------------------------------------------------------
# Each returns (results as in JSON, table header, table rows).  None marks a
# value that is not checked; fractions are strings as the report prints them.


def _singlet_bell(opts):
    t1, t2 = float(opts["--theta1"]), float(opts["--theta2"])
    pab, pbc, pac = coincidence_probs(t1, t2)
    gap = pab + pbc - pac
    violated = _flag(gap, gap < 0)
    results = {"theta1_deg": t1, "theta2_deg": t2, "p_q_ab": pab, "p_q_bc": pbc,
               "p_q_ac": pac, "bell_gap": gap, "violated": violated}
    return results, BELL_HEADER, [(t1, t2, pab, pbc, pac, gap, violated)]


def _order_demo(opts):
    t1, t2 = float(opts["--theta1"]), float(opts["--theta2"])
    r1, r2 = math.radians(t1), math.radians(t2)
    # collapse onto each eigenstate in turn, starting from the mixed state
    shared = math.cos((r2 - r1) / 2) ** 2
    p123 = 0.5 * math.sin(r1 / 2) ** 2 * shared
    p132 = 0.5 * math.sin(r2 / 2) ** 2 * shared
    equal = _flag(p123 - p132, False)
    results = {"theta1_deg": t1, "theta2_deg": t2, "prob_order_123": p123,
               "prob_order_132": p132, "equal": equal}
    return results, tuple(results), [(t1, t2, p123, p132, equal)]


def _ghz_parity(opts):
    quantum = {"xyy": 1.0, "yxy": 1.0, "yyx": 1.0, "xxx": -1.0}
    classical = {p: 1 for p in PARITY_PATTERNS}
    rows = []
    for setting in ("xyy", "yxy", "yyx"):
        for signs in itertools.product((1, -1), repeat=3):
            prob = 0.25 if signs[0] * signs[1] * signs[2] == 1 else 0.0
            rows.append({"setting": setting, "outcomes": list(signs), "prob": prob,
                         "expected": prob, "ok": True})
    results = {"quantum": quantum, "classical": classical, "contradiction": True,
               "impossible_outcomes": {"all_ok": True, "rows": rows}}
    header = ("pattern", "quantum_expectation", "classical_constant")
    return results, header, [(p, quantum[p], classical[p]) for p in PARITY_PATTERNS]


def _lhv_singlet():
    vertices = []
    for d, r, s in itertools.product((1, -1), repeat=3):
        i_ab, i_bc, i_ac = int(d == 1 and r == -1), int(r == 1 and s == -1), int(d == 1 and s == -1)
        vertices.append({"dark": d, "round": r, "swiss": s, "p_ab": i_ab, "p_bc": i_bc,
                         "p_ac": i_ac, "bell_gap": i_ab + i_bc - i_ac})
    gaps = [v["bell_gap"] for v in vertices]
    results = {
        "target": "singlet",
        "vertex_count": 8,
        "min_gap": 0,
        "all_satisfied": min(gaps) >= 0,
        "tight_vertex_count": gaps.count(0),
        "uniform": {"p_ab": "1/4", "p_bc": "1/4", "p_ac": "1/4", "bell_lhs": "1/2",
                    "satisfied": True},
        "vertices": vertices,
    }
    header = ("dark", "round", "swiss", "p_ab", "p_bc", "p_ac", "bell_gap")
    return results, header, [tuple(v.values()) for v in vertices]


def _lhv_ghz():
    survivors = []
    for signs in itertools.product((1, -1), repeat=6):
        d, r = signs[:3], signs[3:]
        if d[0] * r[1] * r[2] == r[0] * d[1] * r[2] == r[0] * r[1] * d[2] == 1:
            survivors.append({"dark": list(d), "round": list(r), "xxx_product": d[0] * d[1] * d[2]})
    results = {
        "target": "ghz",
        "total_assignments": 64,
        "survivor_count": 8,
        "all_xxx_positive": True,
        "matches_designed_ensemble": True,
        "survivors": survivors,
    }
    header = ("dark1", "dark2", "dark3", "round1", "round2", "round3", "xxx_product")
    return results, header, [(*s["dark"], *s["round"], s["xxx_product"]) for s in survivors]


def _state_report(opts):
    theta = float(opts["--theta1"])
    s = math.sin(math.radians(theta))
    zero = [0.0, 0.0]
    results = {
        "axis": {"theta_deg": theta, "phi_deg": 0.0},
        "singlet": {
            "amplitudes": [zero, [SQRT_HALF, 0.0], [-SQRT_HALF, 0.0], zero],
            "reduced_site1_diag": [0.5, 0.5],
            "invariance_residual": 0.0,
        },
        "ghz": {
            "amplitudes": [[SQRT_HALF, 0.0]] + [zero] * 6 + [[-SQRT_HALF, 0.0]],
            "reduced_site2_diag": [0.5, 0.5],
        },
        "axis_distributions": {"mixed": [0.5, 0.5], "superposition": [(1 + s) / 2, (1 - s) / 2]},
    }
    rows = [(section, path, leaf) for section, payload in results.items()
            for path, leaf in flatten(payload)]
    return results, ("section", "key", "value"), rows


def expected_report(argv: list[str]):
    opts = _options(argv)
    command = argv[0]
    if command == "singlet-bell":
        return _singlet_bell(opts)
    if command == "order-demo":
        return _order_demo(opts)
    if command == "ghz-parity":
        return _ghz_parity(opts)
    if command == "lhv-enumerate":
        return _lhv_singlet() if argv[1] == "singlet" else _lhv_ghz()
    if command == "state-report":
        return _state_report(opts)
    raise CheckFailed(f"no oracle for {command}")


# -- comparisons ---------------------------------------------------------------


def compare(actual, expected, path: str = "results") -> None:
    """Structural comparison of a parsed JSON value with its expectation."""
    if expected is None:
        return
    if isinstance(expected, dict):
        expect(isinstance(actual, dict) and set(actual) == set(expected),
               f"{path}: keys {sorted(actual) if isinstance(actual, dict) else actual!r}")
        for k, v in expected.items():
            compare(actual[k], v, f"{path}.{k}")
    elif isinstance(expected, list):
        expect(isinstance(actual, list) and len(actual) == len(expected), f"{path}: length")
        for i, (a, e) in enumerate(zip(actual, expected)):
            compare(a, e, f"{path}[{i}]")
    elif isinstance(expected, (int, str)):  # bool is an int
        expect(type(actual) is type(expected) and actual == expected,
               f"{path}: {actual!r} != {expected!r}")
    else:
        expect(isinstance(actual, (int, float)) and not isinstance(actual, bool)
               and abs(actual - expected) <= TOL, f"{path}: {actual!r} != {expected!r}")


def compare_cell(cell: str, expected, where: str) -> None:
    """A CSV or text cell against its expectation."""
    if expected is None:
        return
    if isinstance(expected, bool):
        expect(cell == ("true" if expected else "false"), f"{where}: {cell!r}")
    elif isinstance(expected, (int, str)):
        expect(cell == str(expected), f"{where}: {cell!r} != {expected!r}")
    else:
        expect(abs(float(cell) - expected) <= TOL, f"{where}: {cell!r} != {expected!r}")


def compare_rows(header, rows, exp_header, exp_rows) -> None:
    expect(tuple(header) == tuple(exp_header), f"header {header!r}")
    expect(len(rows) == len(exp_rows), f"{len(rows)} rows, expected {len(exp_rows)}")
    for i, (row, exp) in enumerate(zip(rows, exp_rows)):
        expect(len(row) == len(exp), f"row {i}: {len(row)} cells")
        for cell, value, name in zip(row, exp, exp_header):
            compare_cell(cell, value, f"row {i} {name}")


def parse_csv(text: str):
    rows = list(csv.reader(io.StringIO(text)))
    expect(rows, "empty csv")
    return rows[0], rows[1:]


_SCALAR = re.compile(r"(\S+) = (\S+)")
_ROWS = re.compile(r"(\S+): (\d+) rows")


def parse_text(text: str, command: str):
    """(scalar lines, table header, table rows) of a text report."""
    expect(text.endswith("\n"), "text report does not end with a newline")
    lines = text[:-1].split("\n")
    expect(len(lines) > 4 and lines[0] == f"bellbox {command}", "text title line")
    expect(lines[1].startswith("config: ") and lines[2].startswith("provenance: "),
           "text config/provenance lines")
    expect(lines[3] == "", "text: no blank line after provenance")
    blocks = "\n".join(lines[4:]).split("\n\n")
    expect(len(blocks) in (1, 2), f"text: {len(blocks)} blocks")
    scalars = blocks[0].split("\n") if len(blocks) == 2 else []
    table = [line.split() for line in blocks[-1].split("\n")]
    return scalars, table[0], table[1:]


def check_scalars(lines: list[str], results: dict) -> None:
    flat = dict(flatten(results))
    for line in lines:
        m = _ROWS.fullmatch(line)
        if m:
            expect(len(results.get(m[1], ())) == int(m[2]), f"text: {line!r}")
            continue
        m = _SCALAR.fullmatch(line)
        expect(m and m[1] in flat, f"text: unexpected line {line!r}")
        compare_cell(m[2], flat[m[1]], f"text {m[1]}")


# -- sweep -----------------------------------------------------------------


def check_grid(step: float, columns: dict) -> None:
    """Every point of a sweep against the closed forms, in theta1-major order.

    columns maps BELL_HEADER names to numpy arrays (violated as bool)."""
    n_axis = round(180 / step) + 1
    axis = step * np.arange(n_axis)
    t1, t2 = np.repeat(axis, n_axis), np.tile(axis, n_axis)
    expect(columns["theta1_deg"].size == t1.size, f"{columns['theta1_deg'].size} points")
    r1, r2 = np.radians(t1), np.radians(t2)
    expected = {
        "theta1_deg": t1,
        "theta2_deg": t2,
        "p_ab": 0.5 * np.sin(r1 / 2) ** 2,
        "p_bc": 0.5 * np.sin((r2 - r1) / 2) ** 2,
        "p_ac": 0.5 * np.sin(r2 / 2) ** 2,
    }
    expected["bell_gap"] = expected["p_ab"] + expected["p_bc"] - expected["p_ac"]
    for name, values in expected.items():
        worst = float(np.max(np.abs(columns[name] - values)))
        expect(worst <= TOL, f"{name} off the closed form by {worst:.3g}")
    gap = expected["bell_gap"]
    clear = np.abs(gap) >= FLAG_SLACK
    expect(np.array_equal(columns["violated"][clear], gap[clear] < 0), "violated flags")
    best = int(np.argmin(columns["bell_gap"]))
    expect(abs(columns["bell_gap"][best] + 0.125) <= TOL, "min gap is not -1/8")
    expect(abs(t1[best] - 60) <= TOL and abs(t2[best] - 120) <= TOL,
           f"min gap at ({t1[best]}, {t2[best]}), not (60, 120)")


def _table_columns(rows) -> dict:
    cols = list(zip(*rows))
    expect(len(cols) == len(BELL_HEADER), "sweep rows have the wrong width")
    out = {name: np.array(col, dtype=float) for name, col in zip(BELL_HEADER[:6], cols)}
    flags = np.array(cols[6])
    expect(np.isin(flags, ("true", "false")).all(), "violated cells")
    out["violated"] = flags == "true"
    return out


def _check_sweep_summary(get, step: float, count: int) -> None:
    expect(abs(float(get("grid_step_deg")) - step) <= TOL, "grid_step_deg")
    expect(int(get("point_count")) == count, f"point_count {get('point_count')}")
    expect(abs(float(get("min_gap")) + 0.125) <= TOL, f"min_gap {get('min_gap')}")
    expect(abs(float(get("argmin_theta1_deg")) - 60) <= TOL
           and abs(float(get("argmin_theta2_deg")) - 120) <= TOL, "argmin is not (60, 120)")


# -- monte carlo -----------------------------------------------------------


def _binomial_tail(n: int, p: float, k: int) -> float:
    """P(X >= k) for k above the mean, else P(X <= k), X ~ Binomial(n, p)."""
    log_n = math.lgamma(n + 1)
    lp, lq = math.log(p), math.log1p(-p)

    def pmf(j):
        return math.exp(log_n - math.lgamma(j + 1) - math.lgamma(n - j + 1) + j * lp + (n - j) * lq)

    if k > n * p:
        return sum(pmf(j) for j in range(k, min(n, k + 4000) + 1))
    return sum(pmf(j) for j in range(max(0, k - 4000), k + 1))


def within_six_sigma(estimate: float, p: float, n: int) -> bool:
    """Whether a binomial frequency is within 6 sigma of p.  With fewer than
    ~100 expected hits the normal approximation undercounts the tail, so the
    exact binomial tail is held to the normal 6-sigma tail instead."""
    hits = round(estimate * n)
    if p <= 0.0 or p >= 1.0:
        return hits == round(p * n)
    var = n * p * (1 - p)
    if var >= 100:
        return abs(hits - n * p) <= 6 * math.sqrt(var)
    return _binomial_tail(n, p, hits) >= SIX_SIGMA_TAIL


def check_mc(op: dict, result: dict) -> None:
    n = op["samples"]
    if op["fn"] == "bell":
        exact = coincidence_probs(op["theta1_deg"], op["theta2_deg"])
        expect(list(result) == ["AB", "BC", "AC"], f"labels {list(result)}")
        for (label, (est, se, samples, seed)), p in zip(result.items(), exact):
            expect(samples == n and seed == op["seed"], f"{label}: samples/seed echo")
            expect(abs(se - math.sqrt(est * (1 - est) / n)) <= 1e-12, f"{label}: std_error")
            expect(within_six_sigma(est, p, n), f"{label}: {est} vs exact {p} at n={n}")
    elif op["fn"] == "singlet":
        p = result["p"]
        for label, est in zip(("p_AB", "p_BC", "p_AC"), p):
            expect(within_six_sigma(est, 0.25, n), f"{label}: {est} vs exact 1/4 at n={n}")
        expect(abs(result["bell_lhs"] - (p[0] + p[1])) <= 1e-12, "bell_lhs")
        expect(result["satisfied"] == (result["bell_lhs"] >= p[2]), "satisfied flag")
    else:
        expect(result["means"] == [1.0] * 4, f"parity means {result['means']}")
        expect(result["constant_on_draws"] == [True] * 4,
               f"constant_on_draws {result['constant_on_draws']}")


# -- entry point ---------------------------------------------------------------


class Checker:
    def __init__(self, schema_path):
        import jsonschema

        schema = json.loads(open(schema_path, encoding="utf-8").read())
        self.validator = jsonschema.Draft202012Validator(schema)

    def check(self, op: dict, data: bytes | None = None, result=None) -> str | None:
        """None if the op's output is right, else the reason it is not."""
        try:
            if "argv" in op:
                self._report(op, data)
            else:
                check_mc(op, result)
        except CheckFailed as exc:
            return str(exc)
        except Exception as exc:  # unparseable output: a failed op, not a crash
            return f"{type(exc).__name__}: {exc}"
        return None

    def _validate(self, doc: dict) -> None:
        error = next(iter(self.validator.iter_errors(doc)), None)
        expect(error is None, f"schema: {error.message[:200] if error else ''}")

    def _report(self, op: dict, data: bytes) -> None:
        text = data.decode("utf-8")
        argv, fmt = op["argv"], op["fmt"]
        if argv[0] == "bell-sweep":
            self._sweep(float(argv[2]), op["work"], fmt, text)
            return
        results, header, rows = expected_report(argv)
        if fmt == "json":
            doc = json.loads(text)
            self._validate(doc)
            expect(doc["command"] == argv[0], f"command {doc['command']!r}")
            compare(doc["results"], results)
        elif fmt == "csv":
            compare_rows(*parse_csv(text), header, rows)
        else:
            scalars, got_header, got_rows = parse_text(text, argv[0])
            check_scalars(scalars, results)
            compare_rows(got_header, got_rows, header, rows)

    def _sweep(self, step: float, count: int, fmt: str, text: str) -> None:
        if fmt == "json":
            doc = json.loads(text)
            results = doc["results"]
            points = results["points"]
            stride = max(1, len(points) // SCHEMA_POINTS)
            sample = dict(doc, results=dict(results, points=points[::stride] + points[-1:]))
            self._validate(sample)
            expect(doc["command"] == "bell-sweep", f"command {doc['command']!r}")
            _check_sweep_summary(results.__getitem__, step, count)
            expect(all(tuple(p) == POINT_FIELDS for p in points), "point fields")
            columns = {
                name: np.array([p[field] for p in points], dtype=float)
                for name, field in zip(BELL_HEADER[:6], POINT_FIELDS)
            }
            expect(all(type(p["violated"]) is bool for p in points), "violated types")
            columns["violated"] = np.array([p["violated"] for p in points])
            check_grid(step, columns)
        elif fmt == "csv":
            header, rows = parse_csv(text)
            expect(tuple(header) == BELL_HEADER, f"header {header!r}")
            expect(len(rows) == count, f"{len(rows) + 1} csv rows, expected point_count + 1")
            check_grid(step, _table_columns(rows))
        else:
            scalars, header, rows = parse_text(text, "bell-sweep")
            values = dict(_SCALAR.fullmatch(line).groups() for line in scalars)
            _check_sweep_summary(values.__getitem__, step, count)
            expect(tuple(header) == BELL_HEADER, f"header {header!r}")
            check_grid(step, _table_columns(rows))
