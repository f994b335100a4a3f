"""The report stage against the references of `_oracles`.

`report.to_json` appends the pieces of a document to one list and joins it
once; it is checked against `_oracles.json_text`, which writes each value's
text recursively as one string, on random documents with `Table`s in them,
and its transient memory is bounded. `report.Table` writes the per-point
rows of a report by column. Its JSON is checked against `json_text` of the
same rows as plain dicts, and its CSV against a row-by-row writer. Its
finiteness gate is checked against a recursive walk of the same document,
which names the first non-finite value in document order, and its one-pass
search over a table's cells against a search of one column at a time.
"""

import dataclasses
import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _oracles import csv_rows, json_text, require_finite_walk, table_first_non_finite
from bieigen import report as rpt
from bieigen.catalog import catalog_get
from bieigen.classify import classify, verdicts
from bieigen.manifest import build_map

SPECIAL = (-0.0, 0.0, 5e-324, -5e-324, 1e16, 1e-7, 1.7976931348623157e308,
           -1.7976931348623157e308)
FLOATS = st.one_of(st.sampled_from(SPECIAL),
                   st.floats(allow_nan=False, allow_infinity=False))
# classification columns, and keys that need JSON escapes (a control
# character and a NUL among them), or hold a literal `%`
KEYS = ("energy_density", "mean_curvature_norm", "residual_full", "gram_defect",
        "100% max", 'say "hi"', "back\\slash", "tab\there", "nul\x00byte")


@st.composite
def tables(draw):
    """(columns, defined) of a random table, of 0 rows or more: a
    classification-like one, with None columns and None cells on random
    rows, or a residual one."""
    dim = draw(st.integers(1, 4))
    rows = draw(st.integers(0, 12))

    def values(width):
        cells = draw(st.lists(FLOATS, min_size=rows * width, max_size=rows * width))
        return np.array(cells, dtype=float).reshape(rows, width)

    columns, defined = {"point": values(dim)}, {}
    if draw(st.booleans()):
        columns["residual"] = values(1)[:, 0]
        return columns, defined
    for key in draw(st.lists(st.sampled_from(KEYS), min_size=1, unique=True)):
        kind = draw(st.sampled_from(("values", "none", "masked")))
        columns[key] = None if kind == "none" else values(1)[:, 0]
        if kind == "masked":
            defined[key] = np.array(draw(st.lists(st.booleans(), min_size=rows,
                                                  max_size=rows)), dtype=bool)
    return columns, defined


def row_dicts(columns, defined):
    """The rows of a table as dicts, the way reports held them before."""
    rows = []
    for i in range(len(columns["point"])):
        row = {}
        for key, values in columns.items():
            if key == "point":
                row[key] = values[i].tolist()
            elif values is None or (key in defined and not defined[key][i]):
                row[key] = None
            else:
                row[key] = float(values[i])
        rows.append(row)
    return rows


@settings(max_examples=200, deadline=None)
@given(tables(), st.integers(0, 3))
# no rows: JSON `[]`, CSV a header line only
@example(({"point": np.zeros((0, 2)), "residual": np.zeros(0)}, {}), 1)
# one key besides `point`, sorted before it: each row ends with the point's `]`
@example(({"point": np.array([[0.5, -0.0], [1e-300, 2.0]]),
           "energy_density": np.array([1.0, 0.25])}, {}), 1)
# escaped keys, one of them a NUL, around the point
@example(({"point": np.array([[0.5], [2.0]]), "nul\x00byte": np.array([1.0, 0.25]),
           "tab\there": None, "residual_full": np.array([3.0, 4.0])},
          {"residual_full": np.array([False, True])}), 0)
def test_table_json_and_csv_match_the_row_writers(table, depth):
    columns, defined = table

    def nested(points):  # the table `depth` objects deep
        for _ in range(depth):
            points = {"name": "x", "points": points, "summary": {"max": 1.0}}
        return points

    rows = row_dicts(columns, defined)
    assert rpt.to_json(nested(rpt.Table(columns, defined))) == json_text(nested(rows)) + "\n"

    dim = columns["point"].shape[1]
    header = [f"u{k + 1}" for k in range(dim)] + [k for k in columns if k != "point"]
    expected = csv_rows(header, [row["point"] + [row[k] for k in header[dim:]]
                                 for row in rows])
    assert rpt.Table(columns, defined).csv() == expected


def _pair(value):
    return value, value


def _table_pair(table):
    columns, defined = table
    return rpt.Table(columns, defined), row_dicts(columns, defined)


def _container_pairs(children):
    """(document, plain) pairs of lists, tuples and dicts of child pairs."""
    items = st.lists(children, max_size=4)
    return st.one_of(
        items.map(lambda xs: ([d for d, _ in xs], [p for _, p in xs])),
        items.map(lambda xs: (tuple(d for d, _ in xs), [p for _, p in xs])),
        st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=6), children,
                        max_size=4).map(
            lambda kv: ({k: d for k, (d, _) in kv.items()},
                        {k: p for k, (_, p) in kv.items()})))


SCALARS = st.one_of(FLOATS, FLOATS.map(np.float64), st.integers(-2 ** 70, 2 ** 70),
                    st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64), st.booleans(),
                    st.none(), st.text(max_size=6))
ARRAYS = st.lists(FLOATS, max_size=6).map(np.array) | \
    st.lists(FLOATS, min_size=6, max_size=6).map(lambda xs: np.array(xs).reshape(2, 3))
# (document, plain): the document may hold Tables, numpy scalars and arrays,
# and tuples; plain holds the same values with each Table's rows as dicts
DOCUMENTS = st.recursive(st.one_of(SCALARS.map(_pair), ARRAYS.map(_pair),
                                   tables().map(_table_pair)),
                         _container_pairs, max_leaves=12)


@settings(max_examples=200, deadline=None)
@given(DOCUMENTS)
@example(_pair({}))
@example(_pair([]))
@example(_pair({"a": [], "b": {}, "c": ()}))
@example(_pair({'say "hi"': np.float64(-0.0), "nul\x00byte": np.int64(-7)}))
def test_to_json_matches_the_recursive_writer(pair):
    document, plain = pair
    assert rpt.to_json(document) == json_text(plain) + "\n"


def test_to_json_holds_at_most_twice_the_document():
    # the pieces of a document are joined once: at its peak, to_json holds
    # the document and the list of its pieces, not copies of the text; the
    # cells are formatted before, so only the rendering is measured
    _, smap = build_map(catalog_get("kfold_equator_S2").manifest)
    doc = rpt.classification_dict("kfold_equator_S2", classify(smap, 1024))
    assert doc["points"]._cells
    tracemalloc.start()
    try:
        text = rpt.to_json(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(text) > 500_000
    assert peak <= 2 * len(text), peak / len(text)


# --------------------------------------------------------------------------
# the finiteness gate
# --------------------------------------------------------------------------

@functools.cache
def base_report(entry):
    _, smap = build_map(catalog_get(entry).manifest)
    return classify(smap, 8)


def copied(report, isometric=None):
    """A copy of a report whose arrays and dicts can be changed freely."""
    s = report.samples
    samples = dataclasses.replace(s, **{
        f.name: getattr(s, f.name).copy() for f in dataclasses.fields(s)
        if getattr(s, f.name) is not None})
    if isometric is not None:
        samples.isometric = np.array(isometric)
    return dataclasses.replace(
        report, samples=samples,
        residuals={k: dataclasses.replace(rn, per_point=rn.per_point.copy())
                   for k, rn in report.residuals.items()},
        spreads={k: None if v is None else dict(v) for k, v in report.spreads.items()})


def header_targets(report):
    """Every non-None float the header of a report holds, as a setter."""
    def constant(name):
        def put(r, value):
            r.constants = dataclasses.replace(r.constants, **{name: value})
        return put

    def attribute(name):
        return lambda r, value: setattr(r, name, value)

    def residual(key, stat):
        def put(r, value):
            r.residuals[key] = dataclasses.replace(r.residuals[key], **{stat: value})
        return put

    def spread(key, stat):
        return lambda r, value: r.spreads[key].__setitem__(stat, value)

    targets = [constant(name) for name in ("lambda_hat", "mu_hat", "rho_hat", "c_hat")
               if getattr(report.constants, name) is not None]
    targets += [attribute(name) for name in (
        "tol", "max_gram_defect", "max_sphere_defect", "max_constraint_defect",
        "eta_max_norm", "eta_deviation_from_unit") if getattr(report, name) is not None]
    targets += [residual(key, stat) for key in report.residuals for stat in ("max", "rms")]
    targets += [spread(key, stat) for key, v in report.spreads.items() if v is not None
                for stat in ("abs", "rel")]
    return targets


SQUARES = ("phi_sq", "lap_sq", "mean_curvature_norm")  # <x, x> and |x| columns


def cell_targets(report):
    """Every per-point array a report's table reads, as a setter of (row,
    component). A sum of squares or a norm is never -inf, so the SQUARES
    columns take +inf for it."""
    def sample(name):
        def put(r, row, k, value):
            if name in SQUARES:
                value = abs(value)
            values = getattr(r.samples, name)
            if values.ndim == 1:
                values[row] = value
            else:
                values[row, k % values.shape[1]] = value
        return put

    def residual(key):
        return lambda r, row, k, value: r.residuals[key].per_point.__setitem__(row, value)

    s = report.samples
    names = [f.name for f in dataclasses.fields(s)
             if f.name != "isometric" and getattr(s, f.name) is not None]
    return [sample(name) for name in names] + [residual(key) for key in report.residuals]


def gate_message(report):
    try:
        rpt.require_finite(report)
    except rpt.NonFiniteError as err:
        return str(err)
    return None


def walk_message(report):
    """The message of the recursive walk over the same document with its
    rows as dicts."""
    columns, defined = rpt._point_columns(report)
    doc = {"format_version": rpt.FORMAT_VERSION, "name": "x", **rpt._header(report),
           "points": row_dicts(columns, defined)}
    try:
        require_finite_walk(doc)
    except ValueError as err:
        return str(err)
    return None


BAD = st.sampled_from((float("inf"), float("-inf"), float("nan")))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(("clifford_torus_S3", "kfold_equator_S2",
                        "nonisometric_buckling_S2", "round_sphere_chart_S2_in_R3")),
       st.data())
def test_gate_names_the_first_non_finite_value_in_document_order(entry, data):
    base = base_report(entry)
    rows = len(base.samples)
    report = copied(base, data.draw(st.lists(st.booleans(), min_size=rows,
                                             max_size=rows)))
    headers, cells = header_targets(report), cell_targets(report)
    for _ in range(data.draw(st.integers(1, 4))):
        value = data.draw(BAD)
        if data.draw(st.booleans()):
            data.draw(st.sampled_from(headers))(report, value)
        else:
            row = data.draw(st.integers(0, 1) | st.integers(0, rows - 1))
            data.draw(st.sampled_from(cells))(report, row, data.draw(st.integers(0, 3)),
                                             value)
    expected = walk_message(report)
    assert expected is not None or gate_message(report) is None
    assert gate_message(report) == expected


@settings(max_examples=300, deadline=None)
@given(tables(), st.data())
def test_table_gate_names_the_cell_the_column_by_column_search_names(table, data):
    # several cells at once, any column and any row, defined or not: the
    # one-pass search must name the cell the search of each column names
    columns, defined = table
    columns = {k: None if v is None else v.copy() for k, v in columns.items()}
    cells = [(key, k) for key, v in columns.items() if v is not None and len(v)
             for k in range(v.shape[1] if v.ndim == 2 else 1)]
    for _ in range(data.draw(st.integers(0, 6)) if cells else 0):
        key, k = data.draw(st.sampled_from(cells))
        row = data.draw(st.integers(0, len(columns[key]) - 1))
        value = data.draw(st.sampled_from((math.nan, math.inf, -math.inf, -0.0)))
        if columns[key].ndim == 2:
            columns[key][row, k] = value
        else:
            columns[key][row] = value
    try:
        rpt.Table(columns, defined)
    except rpt.NonFiniteError as err:
        got = str(err)
    else:
        got = None
    assert got == table_first_non_finite(columns, defined)


def test_a_later_column_of_row_0_comes_before_an_earlier_column_of_row_1():
    report = copied(base_report("clifford_torus_S3"))
    report.samples.energy_density[1] = float("inf")
    report.samples.sphere_defect[0] = float("nan")
    point = tuple(report.samples.points[0].tolist())
    expected = f"non-finite value nan for points[0].sphere_defect at point {point}"
    assert gate_message(report) == walk_message(report) == expected


def test_within_a_row_the_first_key_comes_first():
    report = copied(base_report("clifford_torus_S3"))
    report.samples.tension[2, 1] = float("-inf")
    report.samples.bilap_phi[2, 0] = float("inf")
    point = tuple(report.samples.points[2].tolist())
    expected = f"non-finite value inf for points[2].bilap_phi_norm at point {point}"
    assert gate_message(report) == walk_message(report) == expected


def test_cells_outside_a_columns_rows_are_not_checked():
    base = base_report("clifford_torus_S3")
    rows = len(base.samples)
    isometric = [True] + [False] * (rows - 1)
    report = copied(base, isometric)
    report.samples.mean_curvature_norm[1] = float("inf")
    report.residuals["biharmonic_submanifold"].per_point[2] = float("nan")
    assert gate_message(report) is None and walk_message(report) is None
    report = copied(base, isometric)
    report.samples.mean_curvature_norm[0] = float("nan")
    assert gate_message(report) == walk_message(report)
    assert "points[0].mean_curvature_norm" in gate_message(report)


@pytest.mark.parametrize("row", [0, 5])
@pytest.mark.parametrize("column, cell", [
    ("gram_defect", "gram_defect"), ("sphere_defect", "sphere_defect"),
    ("constraint_defect", "constraint_defect"), ("mean_curvature_norm", "mean_curvature_norm")])
def test_a_nan_sample_is_skipped_by_the_maxima_and_named_at_its_point(column, cell, row):
    # the maxima over the samples skip a NaN wherever it is, so the gate
    # names the point that holds it, not a maximum that names no point
    entry = "clifford_torus_S3"
    _, smap = build_map(catalog_get(entry).manifest)
    report = copied(base_report(entry))
    s = report.samples
    getattr(s, column)[row] = math.nan
    redone = verdicts(smap, s, report.constants, report.tol)
    rest = np.arange(len(s)) != row
    assert s.isometric.all()
    eta = s.mean_curvature_norm[rest]
    assert redone.max_gram_defect == np.max(s.gram_defect[rest])
    assert redone.max_sphere_defect == np.max(s.sphere_defect[rest])
    assert redone.max_constraint_defect == np.max(s.constraint_defect[rest])
    assert redone.eta_max_norm == np.max(eta)
    assert redone.eta_deviation_from_unit == np.max(np.abs(eta - 1.0))
    point = tuple(s.points[row].tolist())
    expected = f"non-finite value nan for points[{row}].{cell} at point {point}"
    assert gate_message(redone) == walk_message(redone) == expected


def test_header_before_points_and_after_points():
    report = copied(base_report("clifford_torus_S3"))
    report.samples.energy_density[0] = float("inf")
    report.residuals["eigen"] = dataclasses.replace(report.residuals["eigen"],
                                                    rms=float("nan"))
    assert gate_message(report).startswith("non-finite value inf for points[0].")
    report.max_sphere_defect = float("-inf")
    assert gate_message(report) == "non-finite value -inf for defects.max_sphere"
    report.samples.energy_density[0] = 1.0
    report.max_sphere_defect = 0.0
    assert gate_message(report) == "non-finite value nan for residual_norms.eigen.rms"


def test_json_and_csv_of_a_report_share_one_table():
    report = copied(base_report("kfold_equator_S2"))
    doc = rpt.classification_dict("x", report)
    assert doc["points"] is report.document[1]
    rpt.classification_csv("x", report)
    assert report.document[1] is doc["points"]
    # a copy starts without one
    assert dataclasses.replace(report).document is None


@pytest.mark.parametrize("render", [
    lambda report: rpt.to_json(rpt.classification_dict("x", report)),
    lambda report: rpt.classification_csv("x", report),
    lambda report: rpt.classification_text("x", report),
], ids=["json", "csv", "text"])
def test_every_library_format_refuses_a_non_finite_header_value(render):
    report = copied(base_report("great_circle_S2"))
    report.constants = dataclasses.replace(report.constants, lambda_hat=float("nan"))
    with pytest.raises(rpt.NonFiniteError,
                       match=r"^non-finite value nan for constants\.lambda_hat$"):
        render(report)
    assert report.document is None  # a refused report keeps nothing


def test_no_library_path_formats_a_non_finite_cell():
    report = copied(base_report("kfold_equator_S2"))
    report.samples.div_theta[2] = float("inf")
    for render in (lambda: rpt.classification_csv("x", report),
                   lambda: rpt.to_json(rpt.classification_dict("x", report))):
        with pytest.raises(rpt.NonFiniteError, match=r"points\[2\]\.div_theta"):
            render()
