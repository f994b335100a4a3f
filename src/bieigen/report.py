"""Deterministic report serialization.

JSON output is key-sorted, floats are rendered with 17 significant digits
(enough to round-trip any double exactly), and no environment-dependent state
enters the stream, so identical inputs produce byte-identical reports.

Each document is written once: `to_json` appends its pieces (a value, or
the brackets, keys and separators of a container) to one list and joins
that list once, so no part of the text is copied into a larger string
before the final join. The CSV is one join of its lines.

The per-point rows of a report are a `Table`, held by column: it checks its
columns for non-finite values when it is built, formats each column once,
and renders its JSON and its CSV from the same cell strings. Its JSON pieces
are its cells and the text between them (between two cells of a row,
between two rows, before the first and after the last), each piece of text
built once per table, not once per row; a CSV line is one `",".join`.

A report has one checked document, built once (`require_finite`,
`residual_table`), which every one of its formats reads.
"""

import math
from functools import cached_property
from itertools import repeat

import numpy as np

from .analysis import dots, inf_norms
from .jets import first_index

FORMAT_VERSION = "1"


class NonFiniteError(ValueError):
    """A report value is infinite or NaN (an overflow during evaluation)."""


def format_float(x) -> str:
    if not math.isfinite(x):
        raise NonFiniteError(f"refusing to serialize non-finite value {x}")
    return format(float(x), ".17g")


def to_json(obj) -> str:
    """Render nested dicts/lists with sorted keys and fixed float formatting:
    the pieces of the document and its final newline, joined once."""
    out = []
    _json(obj, "\n", out)
    out.append("\n")
    return "".join(out)


def _json(obj, newline, out):
    """Append the JSON text of obj to the list `out` as pieces: a scalar as
    one, a container as its opening, its items with the separators and keys
    before them, and its closing. `newline` is a line break and the indent
    of the line on which obj starts."""
    if isinstance(obj, Table):
        obj.json(newline, out)
        return
    if isinstance(obj, dict):
        items = [(_key(key) + ": ", obj[key]) for key in sorted(obj)]
        brackets = "{}"
    elif isinstance(obj, (list, tuple, np.ndarray)):
        items = [("", item) for item in obj]
        brackets = "[]"
    else:
        out.append(_scalar(obj))
        return
    if not items:
        out.append(brackets)
        return
    inner = newline + "  "
    before = brackets[0] + inner
    for key, value in items:
        out.append(before + key)
        _json(value, inner, out)
        before = "," + inner
    out.append(newline + brackets[1])


def _scalar(obj):
    if isinstance(obj, (float, np.floating)):
        return format_float(obj)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, str):
        return _escape(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")


def _key(key):
    if not isinstance(key, str):
        raise TypeError(f"JSON keys must be strings, got {key!r}")
    return _escape(key)


# `"`, `\`, newline and tab get their short escapes, every other control
# character below U+0020 a `\u00XX` escape; the rest is written verbatim.
# The table holds every ASCII code point (a miss is slow in str.translate).
_ESCAPES = {**{code: f"\\u{code:04x}" if code < 0x20 else chr(code)
               for code in range(0x80)},
            ord('"'): '\\"', ord("\\"): "\\\\", ord("\n"): "\\n",
            ord("\t"): "\\t"}


def _escape(s):
    return '"' + s.translate(_ESCAPES) + '"'


def _require_finite(doc, sections):
    """Raise NonFiniteError naming the first non-finite float in the named
    sections of a document, in document order; a section holds values and
    dicts of values."""
    leaves = []
    for section in sections:
        for key, value in sorted(doc[section].items()):
            if isinstance(value, dict):
                leaves += [((section, key, k), v) for k, v in sorted(value.items())
                           if isinstance(v, float)]
            elif isinstance(value, float):
                leaves.append(((section, key), value))
    bad = first_index(~np.isfinite(np.array([v for _, v in leaves], dtype=float)))
    if bad is not None:
        path, value = leaves[bad]
        raise NonFiniteError(f"non-finite value {value} for {'.'.join(path)}")


def _format_column(values) -> list:
    """format(x, ".17g") of each value of a float array. Report columns
    repeat their values, so each distinct value (by its bits, which keeps
    -0.0 apart from 0.0) is formatted once."""
    bits, where = np.unique(np.ascontiguousarray(values, dtype=float).view(np.int64),
                            return_inverse=True)
    text = [format(x, ".17g") for x in bits.view(float).tolist()]
    return np.array(text, dtype=object)[where].tolist()


class Table:
    """Report rows that share their keys, held by column.

    `columns` maps each key, in CSV column order, to a (P,) float array, or
    to None for a column of None cells; the `point` column is a (P, m) array
    whose cells are lists, written as the CSV columns u1..um. `defined` maps
    a (P,) column's key to the mask of the rows that hold a value; its other
    cells are None. None is `null` in JSON and an empty CSV cell.

    A table is checked for non-finite values when it is built, and formatted
    on its first render, each column once for both formats."""

    def __init__(self, columns, defined=None):
        self.columns = columns
        self.defined = defined or {}
        self.rows = len(columns["point"])
        self._require_finite()

    def _require_finite(self):
        """Raise NonFiniteError naming the first non-finite value in the
        order of the JSON rows: row by row, keys sorted, list cells in
        order. The cells are one (K, P) array, a row per JSON cell of a
        point in that order, a cell outside its column's defined rows read
        as 0.0; its mask read point by point is in JSON order, so one search
        finds the first bad cell."""
        keys, blocks = [], []
        for key in sorted(self.columns):
            values = self.columns[key]
            if values is None:
                continue
            if key in self.defined:
                values = np.where(self.defined[key], values, 0.0)
            block = values.T if values.ndim == 2 else values[None]
            keys += [(key, k) for k in range(len(block))]
            blocks.append(block)
        first = first_index(~np.isfinite(np.concatenate(blocks)).T.ravel())
        if first is None:
            return
        row, cell = divmod(first, len(keys))
        key, k = keys[cell]
        value, path = self.columns[key][row], f"points[{row}].{key}"
        if key == "point":
            value, path = value[k], f"{path}[{k}]"
        point = tuple(self.columns["point"][row].tolist())
        raise NonFiniteError(
            f"non-finite value {float(value)} for {path} at point {point}")

    @cached_property
    def _cells(self):
        """key -> one list of cell strings per column, m lists for `point`;
        a None cell is `null`."""
        cells = {}
        for key, values in self.columns.items():
            if values is None:
                cells[key] = [["null"] * self.rows]
            elif key == "point":
                cells[key] = [_format_column(v) for v in values.T]
            else:
                column = _format_column(values)
                if key in self.defined:
                    for i in np.flatnonzero(~self.defined[key]).tolist():
                        column[i] = "null"
                cells[key] = [column]
        return cells

    def json(self, newline, out):
        """Append the rows, as `_json` writes a list of objects that starts
        on the line `newline` ends, to the pieces `out`: the cells and the
        text between them. The text before each cell of a row (escaped,
        sorted keys and the point's brackets) and the text that ends one row
        and starts the next are built once, and placed by strided slice
        assignment."""
        if not self.rows:
            out.append("[]")
            return
        cells = self._cells
        outer = newline + "  "
        inner = outer + "  "
        item = inner + "  "
        columns, gaps, text = [], [], "{"  # text: since the last cell
        for key in sorted(cells):
            text += ("," if columns else "") + inner + _key(key) + ": "
            if key == "point":
                gaps += [text + "[" + item] + ["," + item] * (len(cells[key]) - 1)
                text = inner + "]"
            else:
                gaps.append(text)
                text = ""
            columns += cells[key]
        end = text + outer + "}"
        first = "[" + outer + gaps[0]
        gaps[0] = end + "," + outer + gaps[0]  # ends one row, starts the next
        n, rows, start = len(columns), self.rows, len(out)
        out += repeat(None, 2 * n * rows)
        for k, (gap, column) in enumerate(zip(gaps, columns)):
            out[start + 2 * k::2 * n] = [gap] * rows
            out[start + 2 * k + 1::2 * n] = column
        out[start] = first
        out.append(end + newline + "]")

    def csv(self) -> str:
        """A header line, then one line per row, each one `",".join`, and
        the final line break, joined once: with one separator throughout,
        that costs less than the JSON's placed separators. A None cell is
        empty."""
        cells = self._cells
        header = [name for key in cells for name in (
            [f"u{k + 1}" for k in range(len(cells[key]))] if key == "point" else [key])]
        columns = []
        for key, column in cells.items():
            if self.columns[key] is None or key in self.defined:
                column = [["" if cell == "null" else cell for cell in column[0]]]
            columns += column
        return "\n".join([",".join(header), *map(",".join, zip(*columns)), ""])


# --------------------------------------------------------------------------
# classification report -> plain data
# --------------------------------------------------------------------------

VERDICTS = (  # report attribute, text label
    ("is_isometric", "isometric"),
    ("is_constant_density", "constant density"),
    ("is_harmonic", "harmonic"),
    ("is_biharmonic", "biharmonic"),
    ("is_biharmonic_submanifold", "biharmonic (submanifold form)"),
    ("is_biharmonic_constant_density", "biharmonic (constant-density form)"),
    ("is_eigenmap", "eigenmap"),
    ("is_bieigenmap", "bi-eigenmap"),
    ("is_buckling", "buckling eigenmap"),
    ("is_proper_bieigenmap", "proper bi-eigenmap"),
)


def _point_columns(report):
    """(columns, defined) of a classification's per-point `Table`, in CSV
    column order. The submanifold and full residual norms are those of its
    residual table; mean curvature and the submanifold residual are defined
    on the isometric rows."""
    s = report.samples

    def norms(vectors):  # np.linalg.norm of each row
        return None if vectors is None else np.sqrt(dots(vectors, vectors))

    def table(name):
        residual = report.residuals.get(name)
        return None if residual is None else residual.per_point

    columns = {
        "point": s.points,
        "energy_density": s.energy_density,
        "phi_norm": np.sqrt(s.phi_sq),
        "lap_phi_norm": np.sqrt(s.lap_sq),
        "bilap_phi_norm": norms(s.bilap_phi),
        "tension_norm": norms(s.tension),
        "mean_curvature_norm": s.mean_curvature_norm,
        "div_theta": s.div_theta,
        "lap_energy_density": s.lap_energy_density,
        "grad_energy_norm": norms(s.grad_energy_pushforward),
        "residual_submanifold": table("biharmonic_submanifold"),
        "residual_full": table("biharmonic_full"),
        # the pointwise-density form, which the residual table does not hold
        "residual_constant_density": None if s.residual_constant_density is None
        else inf_norms(s.residual_constant_density),
        "gram_defect": s.gram_defect,
        "sphere_defect": s.sphere_defect,
        "constraint_defect": s.constraint_defect,
    }
    return columns, {"mean_curvature_norm": s.isometric,
                     "residual_submanifold": s.isometric}


def _header(report) -> dict:
    """The sections of the classification document: all of it but
    `format_version`, `name` and `points`."""
    return {
        "map": {
            "dimension": report.dim,
            "ambient_dimension": report.ambient_dim,
            "target": report.target,
            "radius": report.radius if report.target == "sphere" else None,
        },
        "settings": {
            "samples": report.sample_count,
            "tol_abs": report.tol,
            "tol_rel": report.tol,
        },
        "constants": {
            "lambda_hat": report.constants.lambda_hat,
            "mu_hat": report.constants.mu_hat,
            "rho_hat": report.constants.rho_hat,
            "c_hat": report.constants.c_hat,
        },
        "verdicts": {key: getattr(report, key) for key, _ in VERDICTS},
        "residual_norms": {
            key: {"max": rn.max, "rms": rn.rms}
            for key, rn in report.residuals.items()
        },
        "spreads": report.spreads,
        "defects": {
            "max_gram": report.max_gram_defect,
            "max_sphere": report.max_sphere_defect,
            "max_constraint": report.max_constraint_defect,
        },
        "mean_curvature": {
            "max_norm": report.eta_max_norm,
            "max_deviation_from_unit": report.eta_deviation_from_unit,
        },
    }


def require_finite(report):
    """The checked classification document of a report: (header, table), its
    sections but `format_version`, `name` and `points` (see `_header`) and its
    per-point `Table`. Raises NonFiniteError naming the first non-finite
    value, in document order (keys sorted, `points` row by row), and the
    sample point when it is in a row. Every format reads this, so JSON, CSV,
    text and `verify` refuse a report alike. The pair is kept on the report
    only once every check passed, so it is built and checked once, JSON and
    CSV share the table's cells, and a report changed after that renders as
    it was."""
    if report.document is None:
        header = _header(report)
        _require_finite(header, sorted(s for s in header if s < "points"))
        table = Table(*_point_columns(report))
        _require_finite(header, sorted(s for s in header if s > "points"))
        report.document = header, table
    return report.document


def classification_dict(name, report, settings=None) -> dict:
    """The classification document. Its `points` is the report's `Table`,
    which `to_json` writes as a list of row objects."""
    header, table = require_finite(report)
    return {"format_version": FORMAT_VERSION, "name": name, **header,
            "settings": {**header["settings"], **(settings or {})},
            "points": table}


def classification_text(name, report) -> str:
    """A summary of the checked document's header: the map, settings,
    constants, verdicts, residual norms and mean curvature."""
    header = require_finite(report)[0]
    mapping, settings, c = header["map"], header["settings"], header["constants"]
    target = mapping["target"] if mapping["target"] != "sphere" \
        else f"sphere (radius {mapping['radius']:g})"
    lines = [f"classification of {name}",
             f"  domain dimension {mapping['dimension']}, ambient dimension "
             f"{mapping['ambient_dimension']}, target {target}",
             f"  samples {settings['samples']}, tol_abs {settings['tol_abs']:g}, "
             f"tol_rel {settings['tol_rel']:g}"]
    rho = "n/a" if c["rho_hat"] is None else f"{c['rho_hat']:.12g}"
    lines.append(f"  constants: lambda_hat {c['lambda_hat']:.12g}  "
                 f"mu_hat {c['mu_hat']:.12g}  rho_hat {rho}  c_hat {c['c_hat']:.12g}")
    lines.append("  verdicts:")
    for key, label in VERDICTS:
        value = header["verdicts"][key]
        shown = "n/a" if value is None else ("yes" if value else "no")
        lines.append(f"    {label:36s} {shown}")
    lines.append("  residual max-norms:")
    for key, rn in sorted(header["residual_norms"].items()):
        lines.append(f"    {key:36s} max {rn['max']:.3e}  rms {rn['rms']:.3e}")
    eta = header["mean_curvature"]
    if eta["max_norm"] is not None:
        lines.append(f"  mean curvature: max norm {eta['max_norm']:.12g}, "
                     f"max deviation from 1 {eta['max_deviation_from_unit']:.3e}")
    return "\n".join(lines) + "\n"


def classification_csv(name, report) -> str:
    """The JSON report's per-point rows, coordinates first."""
    return require_finite(report)[1].csv()


def residual_table(name, equation, report, key) -> dict:
    """The residual document of the residual `key` of a classification: its
    per-point max-norms by sample point, a `Table`, and their max and rms
    (and the fitted density c of the constant-density form), checked for
    non-finite values in document order: the table when it is built, then
    the summary. `to_json` writes it, its `points` write the CSV."""
    residual = report.residuals[key]
    doc = {"format_version": FORMAT_VERSION, "name": name, "equation": equation,
           "points": Table({"point": report.samples.points, "residual": residual.per_point}),
           "summary": {"max": residual.max, "rms": residual.rms}}
    if key == "biharmonic_constant_density":
        doc["summary"]["c"] = report.constants.c_hat
    _require_finite(doc, ["summary"])
    return doc


def residual_table_text(doc) -> str:
    summary, columns = doc["summary"], doc["points"].columns
    lines = [f"{doc['equation']} residual for {doc['name']}"]
    if "c" in summary:
        lines.append(f"  constant energy density c = {summary['c']:.12g}")
    lines.append("  point -> residual max-norm")
    for point, norm in zip(columns["point"].tolist(), columns["residual"].tolist()):
        coords = ", ".join(f"{x:.6f}" for x in point)
        lines.append(f"    ({coords})  {norm:.6e}")
    lines.append(f"  max {summary['max']:.6e}  rms {summary['rms']:.6e}")
    return "\n".join(lines) + "\n"
