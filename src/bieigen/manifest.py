"""Manifest documents: the JSON surface describing a chart plus a map.

Schema (all expressions are strings in the map-definition language; domain
bounds may be numbers or constant expressions such as "2*pi/sqrt(2)"):

    {
      "name": str,
      "chart": {
        "params":   [str, ...],            # 1 to 4 identifiers
        "domain":   [[lo, hi], ...],       # one closed interval per param
        "periodic": [bool, ...],           # optional, defaults to all false
        "metric":   {"mode": "explicit", "g": [[expr, ...], ...]}   # upper triangle
                  | {"mode": "induced", "immersion": [expr, ...]}
      },
      "map": {
        "target": "sphere" | "euclidean",
        "radius": number,                  # sphere only, optional, default 1
        "components": [expr, ...]
      }
    }

Unknown keys are rejected so that typos fail loudly. Validation errors carry
enough position information to locate bad expressions.
"""

import json
from typing import Mapping

from .analysis import SphereMap
from .charts import Chart
from .exprs import ParseError, UnboundVariableError, eval_value, parse
from .jets import JetDomainError

_IDENT_OK = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_")


class ManifestError(ValueError):
    """Schema or expression problem in a manifest document."""


def _require_keys(doc, required, optional, where):
    if not isinstance(doc, Mapping):
        raise ManifestError(f"{where} must be a JSON object")
    unknown = set(doc) - set(required) - set(optional)
    if unknown:
        raise ManifestError(f"{where} has unknown keys: {sorted(unknown)}")
    missing = set(required) - set(doc)
    if missing:
        raise ManifestError(f"{where} is missing keys: {sorted(missing)}")


def _expr(text, where):
    if not isinstance(text, str):
        raise ManifestError(f"{where} must be an expression string, got {text!r}")
    try:
        return parse(text)
    except ParseError as err:
        raise ManifestError(f"{where}: {err}") from err


def _bound(value, where):
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    if isinstance(value, str):
        try:
            return float(eval_value(parse(value), {}))
        except (ParseError, JetDomainError) as err:
            raise ManifestError(f"{where}: {err}") from err
        except UnboundVariableError as err:
            raise ManifestError(f"{where} must be constant: {err}") from err
    raise ManifestError(f"{where} must be a number or constant expression")


def _ident(name, where):
    if not isinstance(name, str) or not name or name[0].isdigit() \
            or not set(name) <= _IDENT_OK:
        raise ManifestError(f"{where}: invalid identifier {name!r}")
    return name


def _build_chart(doc):
    _require_keys(doc, ("params", "domain", "metric"), ("periodic",), "chart")
    params = doc["params"]
    if not isinstance(params, list) or not 1 <= len(params) <= 4:
        raise ManifestError("chart.params must list 1 to 4 parameter names")
    params = [_ident(p, "chart.params") for p in params]
    m = len(params)

    domain = doc["domain"]
    if not isinstance(domain, list) or len(domain) != m:
        raise ManifestError("chart.domain must have one interval per parameter")
    intervals = []
    for k, iv in enumerate(domain):
        if not isinstance(iv, list) or len(iv) != 2:
            raise ManifestError(f"chart.domain[{k}] must be a [lo, hi] pair")
        lo = _bound(iv[0], f"chart.domain[{k}][0]")
        hi = _bound(iv[1], f"chart.domain[{k}][1]")
        if not lo < hi:
            raise ManifestError(f"chart.domain[{k}]: need lo < hi, got [{lo}, {hi}]")
        intervals.append((lo, hi))

    periodic = doc.get("periodic", [False] * m)
    if not isinstance(periodic, list) or len(periodic) != m \
            or not all(isinstance(p, bool) for p in periodic):
        raise ManifestError("chart.periodic must be a list of booleans, one per parameter")

    metric = doc["metric"]
    if not isinstance(metric, Mapping) or "mode" not in metric:
        raise ManifestError("chart.metric must be an object with a 'mode' key")
    mode = metric["mode"]
    if mode == "explicit":
        _require_keys(metric, ("mode", "g"), (), "chart.metric")
        g = metric["g"]
        if not isinstance(g, list) or len(g) != m:
            raise ManifestError("chart.metric.g must have one row per parameter")
        triangle = []
        for i, row in enumerate(g):
            if not isinstance(row, list) or len(row) != m - i:
                raise ManifestError(
                    f"chart.metric.g[{i}] must list the upper triangle "
                    f"({m - i} entries expected)")
            triangle.append([_expr(e, f"chart.metric.g[{i}][{k}]")
                             for k, e in enumerate(row)])
        try:
            return Chart.explicit(params, intervals, triangle, periodic)
        except ValueError as err:
            raise ManifestError(str(err)) from err
    if mode == "induced":
        _require_keys(metric, ("mode", "immersion"), (), "chart.metric")
        imm = metric["immersion"]
        if not isinstance(imm, list) or len(imm) < m:
            raise ManifestError(
                "chart.metric.immersion needs at least as many components as parameters")
        comps = [_expr(e, f"chart.metric.immersion[{k}]") for k, e in enumerate(imm)]
        try:
            return Chart.induced(params, intervals, comps, periodic)
        except ValueError as err:
            raise ManifestError(str(err)) from err
    raise ManifestError(f"chart.metric.mode must be 'explicit' or 'induced', got {mode!r}")


def _build_map(doc, chart):
    _require_keys(doc, ("target", "components"), ("radius",), "map")
    target = doc["target"]
    if target not in ("sphere", "euclidean"):
        raise ManifestError(f"map.target must be 'sphere' or 'euclidean', got {target!r}")
    radius = 1.0
    if "radius" in doc:
        if target != "sphere":
            raise ManifestError("map.radius is only valid for sphere targets")
        radius = _bound(doc["radius"], "map.radius")
        if not radius > 0:
            raise ManifestError("map.radius must be positive")
    comps = doc["components"]
    if not isinstance(comps, list) or not comps:
        raise ManifestError("map.components must be a non-empty list of expressions")
    exprs = [_expr(e, f"map.components[{k}]") for k, e in enumerate(comps)]
    try:
        return SphereMap.build(chart, exprs, target, radius)
    except ValueError as err:
        raise ManifestError(str(err)) from err


def build_map(doc) -> tuple:
    """Validate a manifest document and build (name, SphereMap)."""
    _require_keys(doc, ("name", "chart", "map"), (), "manifest")
    name = doc["name"]
    if not isinstance(name, str) or not name:
        raise ManifestError("manifest.name must be a non-empty string")
    chart = _build_chart(doc["chart"])
    smap = _build_map(doc["map"], chart)
    return name, smap


def load_manifest(path) -> dict:
    """Read and validate a manifest JSON file; returns the raw document."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as err:
        raise ManifestError(f"cannot read manifest {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise ManifestError(f"manifest {path} is not valid JSON: {err}") from err
    build_map(doc)
    return doc
