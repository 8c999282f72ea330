"""Reference implementations the tests compare the package against.

closed_form_sequential is the textbook formula for the sequential
measurements.  unit_vector is an axis's direction in Cartesian
coordinates.  axis_eigenvectors and joint_outcome_prob are bellbox's
earlier Born rule, which rebuilt an axis's eigenvectors on every call; the
axis's stored eigenbasis and quantum.joint_outcome_prob must give the same
bits, since reports print their residues.  bell_sweep_records is
bellbox's earlier sweep, which built each field over the whole grid and
then copied them into records; quantum_bell_sweep computes a block of rows
at a time and holds each one-angle field once per axis value, and
sweep_records must expand what it holds to the same bytes.  The render_*
functions render a report a row at a time: csv.writer for CSV, and one
%-template per row for the text table and for the JSON rows of a Table
inside results.  The text template pads every column but the last to its
widest cell and cuts nothing from a line.  cli renders whole blocks of rows
at a time and must write the same bytes.  draw_indices and mc_bell_tallies
are bellbox's earlier samplers, which kept the outcome index of every draw
and drew each axis pair from its four-outcome Born distribution; the
per-outcome tallies lhv.sample_indices and mc_bell_estimate read must come
from the same draws."""

import csv
import io
import itertools
import json
import math

import numpy as np

from bellbox import cli, experiments, quantum
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
    each axis and its one-angle field repeated along the other axis."""
    records = np.recarray(len(sweep.points), dtype=experiments.BELL_POINT_DTYPE)
    grid = records.reshape(sweep.shape)
    for name in ("theta1", "p_q_AB"):
        grid[name] = getattr(sweep, name)[:, None]
    for name in ("theta2", "p_q_AC"):
        grid[name] = getattr(sweep, name)
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


def render_json(env: cli.ReportEnvelope) -> str:
    tables = []
    text = json.dumps(cli._envelope_doc(env, tables), indent=2) + "\n"
    for index in reversed(range(len(tables))):
        token = json.dumps(cli._placeholder(index))
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
