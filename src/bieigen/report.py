"""Deterministic report serialization.

JSON output is key-sorted, floats are rendered with 17 significant digits
(enough to round-trip any double exactly), and no environment-dependent state
enters the stream, so identical inputs produce byte-identical reports.
"""

import io
import math

import numpy as np

from .analysis import dots, inf_norms

FORMAT_VERSION = "1"

CSV_POINT_COLUMNS = [
    "energy_density", "phi_norm", "lap_phi_norm", "bilap_phi_norm",
    "tension_norm", "mean_curvature_norm", "div_theta", "lap_energy_density",
    "grad_energy_norm", "residual_submanifold", "residual_full",
    "residual_constant_density", "gram_defect", "sphere_defect",
    "constraint_defect",
]


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
    out = io.StringIO()
    _write_json(obj, out, 0)
    out.write("\n")
    return out.getvalue()


def _write_json(obj, out, indent):
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        out.write("null")
    elif isinstance(obj, bool):
        out.write("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.write(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.write(format_float(obj))
    elif isinstance(obj, str):
        out.write(_escape(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.write("{}")
            return
        out.write("{\n")
        keys = sorted(obj)
        for k, key in enumerate(keys):
            if not isinstance(key, str):
                raise TypeError(f"JSON keys must be strings, got {key!r}")
            out.write(f"{inner}{_escape(key)}: ")
            _write_json(obj[key], out, indent + 1)
            out.write(",\n" if k + 1 < len(keys) else "\n")
        out.write(pad + "}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            out.write("[]")
            return
        out.write("[\n")
        for k, item in enumerate(seq):
            out.write(inner)
            _write_json(item, out, indent + 1)
            out.write(",\n" if k + 1 < len(seq) else "\n")
        out.write(pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")


def _escape(s):
    out = ['"']
    for ch in s:
        if ch == '"':
            out.append('\\"')
        elif ch == "\\":
            out.append("\\\\")
        elif ch == "\n":
            out.append("\\n")
        elif ch == "\t":
            out.append("\\t")
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04x}")
        else:
            out.append(ch)
    out.append('"')
    return "".join(out)


# --------------------------------------------------------------------------
# classification report -> plain data
# --------------------------------------------------------------------------

def point_rows(samples) -> list:
    """One plain-data row per sample point of a SampleBatch."""
    s = samples
    isometric = s.isometric.tolist()

    def norms(vectors):  # np.linalg.norm of each row
        if vectors is None:
            return [None] * len(s)
        return np.sqrt(dots(vectors, vectors)).tolist()

    def maxima(vectors):
        return [None] * len(s) if vectors is None else inf_norms(vectors).tolist()

    def where_isometric(values):
        return [v if iso else None for v, iso in zip(values, isometric)]

    columns = {
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
        "residual_submanifold": where_isometric(maxima(s.residual_submanifold)),
        "residual_full": maxima(s.residual_full),
        "residual_constant_density": maxima(s.residual_constant_density),
        "gram_defect": s.gram_defect.tolist(),
        "sphere_defect": s.sphere_defect.tolist(),
        "constraint_defect": s.constraint_defect.tolist(),
    }
    return [dict(zip(columns, values)) for values in zip(*columns.values())]


def classification_dict(name, report, settings=None) -> dict:
    doc = {
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
        "verdicts": {
            "is_isometric": report.is_isometric,
            "is_constant_density": report.is_constant_density,
            "is_harmonic": report.is_harmonic,
            "is_biharmonic": report.is_biharmonic,
            "is_biharmonic_submanifold": report.is_biharmonic_submanifold,
            "is_biharmonic_constant_density": report.is_biharmonic_constant_density,
            "is_eigenmap": report.is_eigenmap,
            "is_bieigenmap": report.is_bieigenmap,
            "is_buckling": report.is_buckling,
            "is_proper_bieigenmap": report.is_proper_bieigenmap,
        },
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
        "points": point_rows(report.samples),
    }
    return doc


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
    for key, value in (
            ("isometric", report.is_isometric),
            ("constant density", report.is_constant_density),
            ("harmonic", report.is_harmonic),
            ("biharmonic", report.is_biharmonic),
            ("biharmonic (submanifold form)", report.is_biharmonic_submanifold),
            ("biharmonic (constant-density form)", report.is_biharmonic_constant_density),
            ("eigenmap", report.is_eigenmap),
            ("bi-eigenmap", report.is_bieigenmap),
            ("buckling eigenmap", report.is_buckling),
            ("proper bi-eigenmap", report.is_proper_bieigenmap)):
        shown = "n/a" if value is None else ("yes" if value else "no")
        lines.append(f"    {key:36s} {shown}")
    lines.append("  residual max-norms:")
    for key in sorted(report.residuals):
        rn = report.residuals[key]
        lines.append(f"    {key:36s} max {rn.max:.3e}  rms {rn.rms:.3e}")
    if report.eta_max_norm is not None:
        lines.append(f"  mean curvature: max norm {report.eta_max_norm:.12g}, "
                     f"max deviation from 1 {report.eta_deviation_from_unit:.3e}")
    return "\n".join(lines) + "\n"


def classification_csv(name, report) -> str:
    out = io.StringIO()
    params = [f"u{k + 1}" for k in range(report.dim)]
    out.write(",".join(params + CSV_POINT_COLUMNS) + "\n")
    for row in point_rows(report.samples):
        cells = [format_float(x) for x in row["point"]]
        for col in CSV_POINT_COLUMNS:
            value = row[col]
            cells.append("" if value is None else format_float(value))
        out.write(",".join(cells) + "\n")
    return out.getvalue()


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
    out = io.StringIO()
    params = [f"u{k + 1}" for k in range(dim)]
    out.write(",".join(params + ["residual"]) + "\n")
    for point, norm in rows:
        out.write(",".join([format_float(x) for x in point]
                           + [format_float(norm)]) + "\n")
    return out.getvalue()
