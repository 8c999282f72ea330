"""Reference implementations the tests compare the package against.

closed_form_sequential is the textbook formula for the sequential
measurements.  unit_vector is an axis's direction in Cartesian
coordinates.  axis_eigenvectors, joint_outcome_prob and product_expectation
are bellbox's earlier Born rule, which rebuilt an axis's eigenvectors and
operator on every call and contracted each site with np.tensordot; the
axis's stored eigenbasis and operator, quantum.joint_outcome_prob and
quantum.product_expectation must give the same bits, since reports print
their residues.  born_prob is joint_outcome_prob's earlier body, which
contracted every pattern from the whole state; each entry of
quantum.joint_outcome_probs, which contracts a suffix of outcomes shared by
several patterns once, must have its bits.  bell_sweep_records is
bellbox's earlier sweep, which built each field over the whole grid and
then copied them into records; quantum_bell_sweep computes a block of rows
at a time and holds the one-angle probability once per axis value, and
sweep_records must expand what it holds to the same bytes.  jsonify and
json_text are bellbox's earlier JSON path, a JSON-ready copy of the report
then json.dumps(indent=2), each Table inside results standing in the copy
as a placeholder string that render_json replaces with its rows; cli's
one-walk writer must give the same text.  The render_*
functions render a report a row at a time: csv.writer for CSV, and one
%-template per row for the text table and for the JSON rows of a Table
inside results.  The text template pads every column but the last to its
widest cell and cuts nothing from a line.  cli renders whole blocks of rows
at a time and must write the same bytes.  draw_indices and mc_bell_tallies
are bellbox's earlier samplers, which kept the outcome index of every draw
and drew each axis pair from its four-outcome Born distribution; the
per-outcome tallies lhv.sample_indices and mc_bell_estimate read must come
from the same draws.  ensemble_from_counts builds the mixtures the tests
draw at random: integer counts over boxes, normalised to exact weights.
pure_state_error, density_matrix_error, partial_trace,
sequential_measure_prob, singlet_invariance_residual,
mixed_vs_superposition_report and check_bell_fields are the earlier bodies
of the sites that called numpy's Python-level wrappers (np.all, np.max,
np.min, np.trace, np.moveaxis, np.real, np.outer, np.kron, np.any), which
now make the ufunc or ndarray call those wrappers make: each must give the
same bits, or the same verdict and message.  scalar, cell and json_scalar
are the earlier isinstance chain that gave every report scalar its text,
which cli's exact-type table now gives the types it holds; flatten_leaves
is the earlier generator walk of the text head's and state-report's
leaves."""

import csv
import io
import itertools
import json
import math
from fractions import Fraction
from json.encoder import encode_basestring_ascii

import numpy as np

import bellbox
from bellbox import cli, experiments, quantum
from bellbox.lhv import Ensemble
from bellbox.quantum import MeasurementAxis


def closed_form_sequential(theta1: float, theta2: float) -> tuple[float, float]:
    """Reference values for order_dependence_report: half the squared sine of
    half the first measured angle times the squared cosine of half the angle
    between the later two."""
    shared = math.cos((theta2 - theta1) / 2.0) ** 2
    return (
        0.5 * math.sin(theta1 / 2.0) ** 2 * shared,
        0.5 * math.sin(theta2 / 2.0) ** 2 * shared,
    )


def unit_vector(axis: MeasurementAxis) -> tuple[float, float, float]:
    """The unit vector along axis, from its canonical theta and phi."""
    return (
        math.sin(axis.theta) * math.cos(axis.phi),
        math.sin(axis.theta) * math.sin(axis.phi),
        math.cos(axis.theta),
    )


def axis_eigenvectors(theta: float, phi: float) -> tuple[np.ndarray, np.ndarray]:
    """The +1 and -1 eigenvectors of the spin component along (theta, phi),
    with the half-angle phases."""
    half = 0.5 * theta
    up_phase = complex(math.cos(0.5 * phi), -math.sin(0.5 * phi))
    down_phase = up_phase.conjugate()
    plus = np.array([up_phase * math.cos(half), down_phase * math.sin(half)])
    minus = np.array([-up_phase * math.sin(half), down_phase * math.cos(half)])
    return plus, minus


def joint_outcome_prob(amplitudes: np.ndarray, angles, outcomes) -> float:
    """Born probability of the outcome signs, one (theta, phi) pair or None
    (unmeasured) per site, contracting the last measured site first."""
    num_sites = amplitudes.shape[0].bit_length() - 1
    tensor = amplitudes.reshape((2,) * num_sites)
    for k in range(num_sites - 1, -1, -1):
        if angles[k] is None:
            continue
        plus, minus = axis_eigenvectors(*angles[k])
        eigvec = plus if outcomes[k] == 1 else minus
        tensor = np.tensordot(eigvec.conj(), tensor, axes=([0], [k]))
    return float(np.sum(np.abs(tensor) ** 2))


def born_prob(state: quantum.PureState, axes, outcomes) -> float:
    """quantum.joint_outcome_prob of one pattern as it was before the Born
    table: the same steps, each pattern contracted from the whole state."""
    quantum._check_measurement_args(state.num_sites, axes, outcomes)
    tensor = state.as_tensor()
    for k in range(state.num_sites - 1, -1, -1):
        axis, outcome = axes[k], outcomes[k]
        if axis is None:
            continue
        eigvec = axis.basis[:, 0 if outcome == 1 else 1].conj().reshape(1, 2)
        tensor = quantum._contract(eigvec, tensor, k).reshape(tensor.shape[1:])
    return float(np.sum(np.abs(tensor) ** 2))


def product_expectation(amplitudes: np.ndarray, factors) -> float:
    """Expectation of a product of spin components, one (theta, phi) pair or
    None (identity) per site, applying the first site's operator first and
    moving its site back into place after each contraction."""
    num_sites = amplitudes.shape[0].bit_length() - 1
    tensor = amplitudes.reshape((2,) * num_sites)
    for k, angles in enumerate(factors):
        if angles is None:
            continue
        basis = np.column_stack(axis_eigenvectors(*angles))
        operator = (basis * [1, -1]) @ basis.conj().T
        tensor = np.moveaxis(np.tensordot(operator, tensor, axes=([1], [k])), 0, k)
    return float(np.vdot(amplitudes, tensor.reshape(-1)).real)


def draw_indices(probs, rng: np.random.Generator, count: int) -> np.ndarray:
    """The outcome index of each of count draws from the finite distribution
    probs, one uniform a draw, by right-side search on the cumulative
    boundaries with the last one set to 1."""
    cum = np.cumsum(probs)
    cum[-1] = 1.0
    return np.searchsorted(cum, rng.random(count), side="right")


def mc_bell_tallies(theta1: float, theta2: float, samples: int, seed: int,
                    shards: int) -> dict[str, np.ndarray]:
    """Each axis pair's tallies of its four joint outcomes, (+, +) first.
    Shard i draws samples // shards, one more if i < samples % shards, from
    the stream seeded [seed, i], the pairs in AB, BC, AC order."""
    state = quantum.singlet_state()
    n1, n2, n3 = (MeasurementAxis(t) for t in (0.0, theta1, theta2))
    outcomes = list(itertools.product((1, -1), repeat=2))
    pair_probs = {
        label: [quantum.joint_outcome_prob(state, axes, signs) for signs in outcomes]
        for label, axes in (("AB", (n1, n2)), ("BC", (n2, n3)), ("AC", (n1, n3)))
    }
    tallies = dict.fromkeys(pair_probs, 0)
    base, extra = divmod(samples, shards)
    for shard in range(min(samples, shards)):
        rng = np.random.default_rng([seed, shard])
        for label, probs in pair_probs.items():
            drawn = draw_indices(probs, rng, base + (shard < extra))
            tallies[label] += np.bincount(drawn, minlength=len(probs))
    return tallies


def ensemble_from_counts(pairs) -> Ensemble:
    """The ensemble weighting each (box, count) pair by count over the total;
    rows with count 0 are dropped."""
    pairs = [(b, int(c)) for b, c in pairs]
    total = sum(c for _, c in pairs)
    return Ensemble(tuple((b, Fraction(c, total)) for b, c in pairs if c > 0))


def bell_sweep_records(step: float) -> np.recarray:
    """The records sweep_records expands quantum_bell_sweep(step) to, from
    one meshgrid over the whole grid."""
    axis = step * np.arange(experiments._axis_count(step))
    g1, g2 = np.meshgrid(axis, axis, indexing="ij")
    probs = experiments._closed_form_probs(g1, g2)
    return np.rec.fromarrays(
        [a.reshape(-1) for a in (g1, g2, *probs, *experiments._gap_and_flag(*probs))],
        dtype=experiments.BELL_POINT_DTYPE,
    )


def sweep_records(sweep: experiments.BellSweep) -> np.recarray:
    """A BellSweep as BELL_POINT_DTYPE records, one per point in grid order:
    the axis and its one-angle field, repeated along the other axis, for
    each angle in turn."""
    records = np.recarray(len(sweep.points), dtype=experiments.BELL_POINT_DTYPE)
    grid = records.reshape(len(sweep.theta), len(sweep.theta))
    grid["theta1"] = sweep.theta[:, None]
    grid["p_q_AB"] = sweep.p_q_axis[:, None]
    grid["theta2"] = sweep.theta
    grid["p_q_AC"] = sweep.p_q_axis
    for name in sweep.points.dtype.names:
        records[name] = sweep.points[name]
    return records


def _cells(column) -> list[str]:
    return [cli._cell(v) for v in column]


def _json_cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    return json.dumps(float(format(float(value), ".12g")))


def _json_rows(table: cli.Table, indent: str) -> str:
    if not len(table):
        return "[]"
    inner = indent + "  "
    fields = (",\n" + inner + "  ").join(
        json.dumps(key).replace("%", "%%") + ": %s" for key in table.header
    )
    template = inner + "{\n" + inner + "  " + fields + "\n" + inner + "}"
    columns = [[_json_cell(v) for v in column] for column in table.columns]
    rows = map(template.__mod__, zip(*columns))
    return "[\n" + ",\n".join(rows) + "\n" + indent + "]"


def jsonify(value, tables: list):
    """JSON-ready copy of value.  Each Table is appended to tables and stands
    in the copy as a placeholder string, replaced by render_json."""
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, (float, np.floating)):
        return float(cli._number_text(float(value)))
    if value is None or isinstance(value, str):
        return value
    if isinstance(value, cli.Table):
        tables.append(value)
        return _placeholder(len(tables) - 1)
    if isinstance(value, dict):
        return {k: jsonify(v, tables) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonify(v, tables) for v in value]
    raise TypeError(f"cannot serialize {type(value).__name__}")


def json_text(value) -> str:
    """json.dumps(indent=2) of value's JSON-ready copy, for a value without
    Tables."""
    return json.dumps(jsonify(value, []), indent=2)


def _placeholder(index: int) -> str:
    # no argv string can hold a NUL, so no other string in a report matches
    return f"\0table{index}"


def render_json(env: cli.ReportEnvelope) -> str:
    tables = []
    doc = {
        "schema_version": cli.SCHEMA_VERSION,
        "tool": {"name": cli.TOOL_NAME, "version": bellbox.__version__},
        "command": env.command,
        **{key: jsonify(getattr(env, key), tables) for key in ("config", "provenance", "results")},
    }
    text = json.dumps(doc, indent=2) + "\n"
    for index in reversed(range(len(tables))):
        token = json.dumps(_placeholder(index))
        at = text.rindex(token)
        line = text[text.rindex("\n", 0, at) + 1:at]
        indent = line[: len(line) - len(line.lstrip(" "))]
        text = text[:at] + _json_rows(tables[index], indent) + text[at + len(token):]
    return text


def render_csv(env: cli.ReportEnvelope) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(env.table.header)
    writer.writerows(zip(*map(_cells, env.table.columns)))
    return buf.getvalue()


def _leaf_lines(path: str, value, lines: list) -> None:
    """Appends "path = cell" for each leaf under value: a dict adds ".key"
    to the path, a list or tuple "[i]"."""
    if isinstance(value, dict):
        for key, item in value.items():
            _leaf_lines(f"{path}.{key}", item, lines)
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            _leaf_lines(f"{path}[{i}]", item, lines)
    else:
        lines.append(f"{path} = {cli._cell(value)}")


def render_text(env: cli.ReportEnvelope) -> str:
    lines = [f"{cli.TOOL_NAME} {env.command}"]
    config_bits = " ".join(
        f"{k}={cli._cell(v)}" for k, v in env.config.items() if v is not None
    )
    lines.append(f"config: {config_bits}")
    lines.append(
        "provenance: exact={} sampled={}".format(
            cli._cell(env.provenance["exact"]), cli._cell(env.provenance["sampled"])
        )
    )
    scalars = []
    for key, value in env.results.items():
        if key not in env.table.covers:
            _leaf_lines(key, value, scalars)
    if scalars:
        lines.append("")
        lines.extend(scalars)
    lines.append("")
    columns = [
        [str(h), *_cells(column)]
        for h, column in zip(env.table.header, env.table.columns)
    ]
    template = "".join(f"%-{max(map(len, cells))}s  " for cells in columns[:-1]) + "%s"
    lines.extend(map(template.__mod__, zip(*columns)))
    return "\n".join(lines) + "\n"


RENDERERS = {"json": render_json, "csv": render_csv, "text": render_text}


def pure_state_error(amplitudes) -> str | None:
    """The message of the ValueError PureState's earlier checks raised for
    amplitudes, or None for a state they admitted."""
    amps = np.array(amplitudes, dtype=complex)
    if amps.ndim != 1 or amps.shape[0] not in (2, 4, 8):
        return "amplitude vector must have length 2, 4 or 8"
    if not np.all(np.isfinite(amps.view(float))):
        return "amplitudes must be finite"
    if abs(np.linalg.norm(amps) - 1.0) > quantum.ATOL:
        return "state is not normalized"
    return None


def density_matrix_error(entries) -> str | None:
    """The message of the ValueError DensityMatrix's earlier checks raised
    for entries, or None for a matrix they admitted."""
    mat = np.array(entries, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] not in (2, 4, 8):
        return "density matrix must be square with dimension 2, 4 or 8"
    if not np.all(np.isfinite(mat.view(float))):
        return "entries must be finite"
    if np.max(np.abs(mat - mat.conj().T)) > quantum.ATOL:
        return "density matrix must be Hermitian"
    if abs(np.trace(mat).real - 1.0) > quantum.ATOL or abs(np.trace(mat).imag) > quantum.ATOL:
        return "density matrix must have unit trace"
    if np.min(np.linalg.eigvalsh(mat)) < -1e-10:
        return "density matrix must be positive semidefinite"
    return None


def partial_trace(state: quantum.PureState, keep_site: int) -> np.ndarray:
    """The entries of quantum.partial_trace(state, keep_site), kept site
    moved first with np.moveaxis."""
    kept_first = np.moveaxis(state.as_tensor(), keep_site - 1, 0).reshape(2, -1)
    return kept_first @ kept_first.conj().T


def sequential_measure_prob(initial: quantum.DensityMatrix, steps) -> float:
    """quantum.sequential_measure_prob with np.real and np.outer."""
    rho = initial.entries
    total = 1.0
    for axis, sign in steps:
        eigvec = axis.basis[:, 0 if sign == 1 else 1]
        prob = float(np.real(np.vdot(eigvec, rho @ eigvec)))
        if prob <= 0.0:
            return 0.0
        rho = np.outer(eigvec, eigvec.conj())
        total *= prob
    return total


def singlet_invariance_residual(axis: MeasurementAxis) -> float:
    """quantum.singlet_invariance_residual with np.kron."""
    plus, minus = axis.basis.T
    rewritten = (np.kron(plus, minus) - np.kron(minus, plus)) / math.sqrt(2.0)
    return float(np.linalg.norm(quantum.singlet_state().amplitudes - rewritten))


def mixed_vs_superposition_report(axis: MeasurementAxis) -> tuple:
    """(mixed, superposition) of quantum.mixed_vs_superposition_report, the
    superposition built and validated on each call."""
    rho = quantum.maximally_mixed()
    phi_state = quantum.PureState(np.array([1.0, 1.0]) / math.sqrt(2.0))
    return (tuple(sequential_measure_prob(rho, [(axis, s)]) for s in (1, -1)),
            tuple(born_prob(phi_state, [axis], [s]) for s in (1, -1)))


def check_bell_fields(p_ab, p_bc, p_ac, bell_gap, violated) -> None:
    """experiments._check_bell_fields with np.all and np.any."""
    for name, p in zip(("p_q_AB", "p_q_BC", "p_q_AC"), (p_ab, p_bc, p_ac)):
        if not np.all((0.0 <= p) & (p <= 0.5 + quantum.ATOL)):
            raise ValueError(f"{name} out of [0, 1/2]: {np.min(p)} to {np.max(p)}")
    gap, flag = experiments._gap_and_flag(p_ab, p_bc, p_ac)
    if np.any(bell_gap != gap) or np.any(violated != flag):
        raise ValueError("bell_gap or violated inconsistent with the probabilities")


def scalar(value):
    """A report scalar's JSON value by the isinstance chain: a bool, int,
    None, str (a Fraction's "n/d") or a float to 12 digits."""
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(cli._number_text(float(value)))
    if value is None or isinstance(value, str):
        return value
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def cell(value) -> str:
    """A scalar's cell text: a float's 12-digit text, else its JSON value as
    text."""
    if isinstance(value, (float, np.floating)):
        return cli._number_text(float(value))
    value = scalar(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def json_scalar(value) -> str:
    """A scalar's text in a JSON report, as json.dumps writes its JSON value."""
    value = scalar(value)
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    text = repr(value)
    return {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity",
            "True": "true", "False": "false", "None": "null"}.get(text, text)


def flatten_leaves(value, prefix: str = ""):
    """Depth-first (path, leaf) pairs: a dict adds ".key" to the path, a list
    or tuple "[i]"."""
    if isinstance(value, dict):
        for k, v in value.items():
            yield from flatten_leaves(v, f"{prefix}.{k}" if prefix else str(k))
    elif isinstance(value, (list, tuple)):
        for i, v in enumerate(value):
            yield from flatten_leaves(v, f"{prefix}[{i}]")
    else:
        yield prefix, value
