"""Deterministic report serialization.

JSON output is key-sorted, floats are rendered with 17 significant digits
(enough to round-trip any double exactly), and no environment-dependent state
enters the stream, so identical inputs produce byte-identical reports.
"""

import math

import numpy as np

from .analysis import dots, inf_norms

FORMAT_VERSION = "1"


class NonFiniteError(ValueError):
    """A report value is infinite or NaN (an overflow during evaluation)."""


def format_float(x) -> str:
    if not math.isfinite(x):
        raise NonFiniteError(f"refusing to serialize non-finite value {x}")
    return format(float(x), ".17g")


def require_finite(doc, where="", point=None):
    """Raise NonFiniteError naming the first non-finite float of a report
    document by key path, and by sample point inside a per-point row. Checked
    before any format is rendered, so JSON, CSV and text fail alike."""
    if isinstance(doc, dict):
        point = doc.get("point", point)
        for key in sorted(doc):
            require_finite(doc[key], f"{where}.{key}" if where else key, point)
    elif isinstance(doc, (list, tuple)):
        for k, item in enumerate(doc):
            require_finite(item, f"{where}[{k}]", point)
    elif isinstance(doc, float) and not math.isfinite(doc):
        at = f" at point {tuple(point)}" if point is not None else ""
        raise NonFiniteError(f"non-finite value {doc} for {where}{at}")


def to_json(obj) -> str:
    """Render nested dicts/lists with sorted keys and fixed float formatting."""
    return _json(obj, "\n") + "\n"


def _json(obj, newline):
    """obj as JSON text; `newline` is a line break and the indent of the line
    on which obj starts."""
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
    inner = newline + "  "
    if isinstance(obj, dict):
        items = [f"{_key(key)}: {_json(obj[key], inner)}" for key in sorted(obj)]
        brackets = "{}"
    elif isinstance(obj, (list, tuple, np.ndarray)):
        items = [_json(item, inner) for item in obj]
        brackets = "[]"
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")
    if not items:
        return brackets
    return brackets[0] + inner + ("," + inner).join(items) + newline + brackets[1]


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


def _point_columns(report) -> dict:
    """The per-point quantities of a classification, one list per key, in
    CSV column order. The submanifold and full residual norms are those of
    its residual table."""
    s = report.samples
    isometric = s.isometric.tolist()

    def norms(vectors):  # np.linalg.norm of each row
        if vectors is None:
            return [None] * len(s)
        return np.sqrt(dots(vectors, vectors)).tolist()

    def maxima(vectors):
        return [None] * len(s) if vectors is None else inf_norms(vectors).tolist()

    def table(name):
        residual = report.residuals.get(name)
        return maxima(None) if residual is None else residual.per_point.tolist()

    def where_isometric(values):
        return [v if iso else None for v, iso in zip(values, isometric)]

    return {
        "point": s.points.tolist(),
        "energy_density": s.energy_density.tolist(),
        "phi_norm": norms(s.phi),
        "lap_phi_norm": norms(s.lap_phi),
        "bilap_phi_norm": norms(s.bilap_phi),
        "tension_norm": norms(s.tension),
        "mean_curvature_norm": where_isometric(norms(s.mean_curvature)),
        "div_theta": s.div_theta.tolist(),
        "lap_energy_density": s.lap_energy_density.tolist(),
        "grad_energy_norm": norms(s.grad_energy_pushforward),
        "residual_submanifold": where_isometric(table("biharmonic_submanifold")),
        "residual_full": table("biharmonic_full"),
        # the pointwise-density form, which the residual table does not hold
        "residual_constant_density": maxima(s.residual_constant_density),
        "gram_defect": s.gram_defect.tolist(),
        "sphere_defect": s.sphere_defect.tolist(),
        "constraint_defect": s.constraint_defect.tolist(),
    }


def classification_dict(name, report, settings=None) -> dict:
    columns = _point_columns(report)
    return {
        "format_version": FORMAT_VERSION,
        "name": name,
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
            **(settings or {}),
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
        "points": [dict(zip(columns, values)) for values in zip(*columns.values())],
    }


def classification_text(name, report) -> str:
    lines = [f"classification of {name}"]
    target = report.target if report.target != "sphere" \
        else f"sphere (radius {report.radius:g})"
    lines.append(f"  domain dimension {report.dim}, ambient dimension "
                 f"{report.ambient_dim}, target {target}")
    lines.append(f"  samples {report.sample_count}, tol_abs {report.tol:g}, "
                 f"tol_rel {report.tol:g}")
    c = report.constants
    rho = "n/a" if c.rho_hat is None else f"{c.rho_hat:.12g}"
    lines.append(f"  constants: lambda_hat {c.lambda_hat:.12g}  "
                 f"mu_hat {c.mu_hat:.12g}  rho_hat {rho}  c_hat {c.c_hat:.12g}")
    lines.append("  verdicts:")
    for key, label in VERDICTS:
        value = getattr(report, key)
        shown = "n/a" if value is None else ("yes" if value else "no")
        lines.append(f"    {label:36s} {shown}")
    lines.append("  residual max-norms:")
    for key in sorted(report.residuals):
        rn = report.residuals[key]
        lines.append(f"    {key:36s} max {rn.max:.3e}  rms {rn.rms:.3e}")
    if report.eta_max_norm is not None:
        lines.append(f"  mean curvature: max norm {report.eta_max_norm:.12g}, "
                     f"max deviation from 1 {report.eta_deviation_from_unit:.3e}")
    return "\n".join(lines) + "\n"


def _csv(header, rows) -> str:
    """A header line, then one line per row of numbers (None: an empty cell)."""
    lines = [",".join(header)]
    lines += [",".join(["" if x is None else format_float(x) for x in row])
              for row in rows]
    return "\n".join(lines) + "\n"


def _params(dim):
    return [f"u{k + 1}" for k in range(dim)]


def classification_csv(name, report) -> str:
    """The JSON report's per-point rows, coordinates first."""
    columns = _point_columns(report)
    points = columns.pop("point")
    rows = zip(points, zip(*columns.values()))
    return _csv(_params(report.dim) + list(columns),
                [point + list(values) for point, values in rows])


def residual_table_text(name, equation, rows, summary) -> str:
    lines = [f"{equation} residual for {name}"]
    if "c" in summary:
        lines.append(f"  constant energy density c = {summary['c']:.12g}")
    lines.append("  point -> residual max-norm")
    for point, norm in rows:
        coords = ", ".join(f"{x:.6f}" for x in point)
        lines.append(f"    ({coords})  {norm:.6e}")
    lines.append(f"  max {summary['max']:.6e}  rms {summary['rms']:.6e}")
    return "\n".join(lines) + "\n"


def residual_table_json(name, equation, rows, summary) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "name": name,
        "equation": equation,
        "points": [{"point": [float(x) for x in point], "residual": norm}
                   for point, norm in rows],
        "summary": summary,
    }


def residual_table_csv(rows, dim) -> str:
    return _csv(_params(dim) + ["residual"], [[*point, norm] for point, norm in rows])
