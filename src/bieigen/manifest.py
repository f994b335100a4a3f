"""Manifest documents: the JSON surface describing a chart plus a map.

Schema (all expressions are strings in the map-definition language; domain
bounds may be numbers or constant expressions such as "2*pi/sqrt(2)"):

    {
      "name": str,
      "chart": {
        "params":   [str, ...],            # 1 to 4 variable names, not pi
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

Unknown keys are rejected so that typos fail loudly. This module checks the
JSON shape (keys, the type of each value, the [lo, hi] pairs), evaluates the
constant bounds and the radius, and parses the expressions, each error
naming its key. Every rule on the values (1 to 4 distinct parameter names,
finite intervals with lo < hi, one periodic flag and one triangle row per
parameter, enough immersion and map components, the target, the radius) is
checked by `Chart` and `SphereMap` alone, in the manifest's words, so a
library caller reads the message a manifest prints.
"""

import json
from typing import Mapping

from .analysis import SphereMap
from .charts import Chart, _shown
from .exprs import ParseError, UnboundVariableError, eval_value, parse
from .jets import JetDomainError

# (document, its canonical text, (name, map)) that `load_manifest` built, for
# the next `build_map` call
_handoff = None


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


def _list(value, message):
    if not isinstance(value, list):
        raise ManifestError(message)
    return value


def _expr(text, where):
    if not isinstance(text, str):
        raise ManifestError(f"{where} must be an expression string, got {_shown(text)}")
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


def _build_chart(doc):
    """The chart of a manifest's `chart` section. This checks the JSON
    shapes and evaluates the bounds; `Chart` checks every rule on the
    values, in the same words."""
    _require_keys(doc, ("params", "domain", "metric"), ("periodic",), "chart")
    params = _list(doc["params"], "chart.params must list 1 to 4 parameter names")
    intervals = []
    for k, iv in enumerate(_list(doc["domain"],
                                 "chart.domain must have one interval per parameter")):
        if not isinstance(iv, list) or len(iv) != 2:
            raise ManifestError(f"chart.domain[{k}] must be a [lo, hi] pair")
        intervals.append([_bound(value, f"chart.domain[{k}][{i}]")
                          for i, value in enumerate(iv)])
    periodic = doc.get("periodic", [False] * len(params))
    if not isinstance(periodic, list) or not all(isinstance(p, bool) for p in periodic):
        raise ManifestError("chart.periodic must be a list of booleans, one per parameter")

    metric = doc["metric"]
    if not isinstance(metric, Mapping) or "mode" not in metric:
        raise ManifestError("chart.metric must be an object with a 'mode' key")
    mode = metric["mode"]
    if mode == "explicit":
        _require_keys(metric, ("mode", "g"), (), "chart.metric")
        triangle = []
        for i, row in enumerate(_list(metric["g"],
                                      "chart.metric.g must have one row per parameter")):
            row = _list(row, f"chart.metric.g[{i}] must list the upper triangle "
                             f"({len(params) - i} entries expected)")
            triangle.append([_expr(e, f"chart.metric.g[{i}][{k}]") for k, e in enumerate(row)])
        return Chart.explicit(params, intervals, triangle, periodic)
    if mode == "induced":
        _require_keys(metric, ("mode", "immersion"), (), "chart.metric")
        imm = _list(metric["immersion"],
                    "chart.metric.immersion needs at least as many components as parameters")
        return Chart.induced(params, intervals,
                             [_expr(e, f"chart.metric.immersion[{k}]") for k, e in enumerate(imm)],
                             periodic)
    raise ManifestError(f"chart.metric.mode must be 'explicit' or 'induced', got {_shown(mode)}")


def _build_map(doc, chart):
    """The map of a manifest's `map` section on `chart`; `SphereMap` checks
    the target, the radius and the component count."""
    _require_keys(doc, ("target", "components"), ("radius",), "map")
    radius = 1.0
    if "radius" in doc:
        if doc["target"] == "euclidean":
            raise ManifestError("map.radius is only valid for sphere targets")
        radius = _bound(doc["radius"], "map.radius")
    comps = _list(doc["components"], "map.components must be a non-empty list of expressions")
    return SphereMap.build(chart, [_expr(e, f"map.components[{k}]") for k, e in enumerate(comps)],
                           doc["target"], radius)


def _text(doc):
    """The canonical JSON text of `doc`, or None when it has none."""
    try:
        return json.dumps(doc, sort_keys=True)
    except (TypeError, ValueError, RecursionError):
        return None


def build_map(doc) -> tuple:
    """Validate a manifest document and build (name, SphereMap).

    The first call after `load_manifest` returns the pair that it built
    when `doc` is the document it returned, unchanged in its canonical JSON
    text; every call drops that hand-off first, so it serves one call."""
    global _handoff
    handoff, _handoff = _handoff, None
    if handoff is not None and handoff[0] is doc and handoff[1] == _text(doc):
        return handoff[2]
    _require_keys(doc, ("name", "chart", "map"), (), "manifest")
    name = doc["name"]
    if not isinstance(name, str) or not name:
        raise ManifestError("manifest.name must be a non-empty string")
    try:
        return name, _build_map(doc["map"], _build_chart(doc["chart"]))
    except ManifestError:
        raise
    except ValueError as err:  # a rule of `Chart` or `SphereMap`, in the manifest's words
        raise ManifestError(str(err)) from err


def read_manifest(path) -> dict:
    """Read a manifest JSON file without validating it (see `build_map`);
    a file that cannot be read or decoded raises ManifestError naming it."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as err:
        raise ManifestError(f"cannot read manifest {path}: {err}") from err
    except UnicodeDecodeError as err:
        raise ManifestError(f"manifest {path} is not UTF-8 text: {err}") from err
    except json.JSONDecodeError as err:
        raise ManifestError(f"manifest {path} is not valid JSON: {err}") from err
    except RecursionError:
        raise ManifestError(f"manifest {path} nests too deeply to decode") from None


def load_manifest(path) -> dict:
    """Read and validate a manifest JSON file; returns the raw document.

    Validation builds the map, and the pair is handed to the next
    `build_map` call: `build_map(load_manifest(path))` builds once. The
    hand-off lasts one call and only for this document, unchanged; a
    refused manifest leaves none."""
    global _handoff
    _handoff = None
    doc = read_manifest(path)
    built = build_map(doc)
    _handoff = (doc, _text(doc), built)
    return doc
