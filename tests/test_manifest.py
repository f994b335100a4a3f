import copy
import json
import math

import pytest

from bieigen import catalog_list
from bieigen.manifest import ManifestError, build_map, load_manifest
from bieigen.report import to_json

GOOD = {
    "name": "demo",
    "chart": {
        "params": ["t"],
        "domain": [[0, "2*pi"]],
        "periodic": [True],
        "metric": {"mode": "explicit", "g": [["1"]]},
    },
    "map": {"target": "sphere", "radius": 1.0,
            "components": ["cos(t)", "sin(t)", "0"]},
}


def _variant(**edits):
    doc = copy.deepcopy(GOOD)
    for path, value in edits.items():
        node = doc
        keys = path.split(".")
        for key in keys[:-1]:
            node = node[key]
        if value is ...:
            del node[keys[-1]]
        else:
            node[keys[-1]] = value
    return doc


def test_valid_manifest_builds():
    name, smap = build_map(GOOD)
    assert name == "demo"
    assert smap.dim == 1 and smap.ambient_dim == 3
    assert smap.chart.domain[0][1] == pytest.approx(2.0 * math.pi)


def test_catalog_manifests_are_schema_valid():
    for entry in catalog_list():
        name, smap = build_map(entry.manifest)
        assert name == entry.name


def test_unknown_keys_rejected():
    with pytest.raises(ManifestError, match="unknown keys"):
        build_map(_variant(extra=1))
    with pytest.raises(ManifestError, match="unknown keys"):
        build_map({**GOOD, "chart": {**GOOD["chart"], "color": "red"}})
    with pytest.raises(ManifestError, match="unknown keys"):
        build_map(_variant(**{"map.flavor": "plain"}))


def test_missing_keys_rejected():
    with pytest.raises(ManifestError, match="missing"):
        build_map(_variant(name=...))
    with pytest.raises(ManifestError, match="missing"):
        build_map(_variant(**{"chart.metric": {"mode": "explicit"}}))


def test_dimension_consistency():
    with pytest.raises(ManifestError):
        build_map(_variant(**{"chart.domain": [[0, 1], [0, 1]]}))
    with pytest.raises(ManifestError):
        build_map(_variant(**{"chart.periodic": [True, False]}))
    with pytest.raises(ManifestError):
        build_map(_variant(**{"chart.metric.g": [["1", "0"], ["1"]]}))


def test_expression_errors_carry_position():
    bad = _variant(**{"map.components": ["cos(", "sin(t)", "0"]})
    with pytest.raises(ManifestError, match=r"components\[0\].*byte"):
        build_map(bad)
    bad = _variant(**{"chart.metric.g": [["1 +"]]})
    with pytest.raises(ManifestError, match="byte"):
        build_map(bad)


def test_undeclared_variable_in_component():
    with pytest.raises(ManifestError, match="undeclared"):
        build_map(_variant(**{"map.components": ["cos(s)", "sin(t)", "0"]}))


def test_domain_bounds_accept_constant_expressions():
    doc = _variant(**{"chart.domain": [["-pi/2", "pi/2"]],
                      "chart.periodic": [False]})
    _, smap = build_map(doc)
    assert smap.chart.domain[0] == (pytest.approx(-math.pi / 2),
                                    pytest.approx(math.pi / 2))
    with pytest.raises(ManifestError, match="constant"):
        build_map(_variant(**{"chart.domain": [[0, "2*t"]]}))
    with pytest.raises(ManifestError, match="lo < hi"):
        build_map(_variant(**{"chart.domain": [[1.0, 0.0]]}))
    # constant bounds out of float range are manifest errors naming the key
    with pytest.raises(ManifestError, match=r"^chart\.domain\[0\]\[1\]: "
                                            r"exp\(1000\.0\) is out of float range$"):
        build_map(_variant(**{"chart.domain": [[0, "exp(1000)"]]}))
    with pytest.raises(ManifestError,
                       match=r"^chart\.domain\[0\]\[0\]: division by zero$"):
        build_map(_variant(**{"chart.domain": [["1/0", 1]]}))


def test_periodic_defaults_to_false():
    doc = _variant(**{"chart.periodic": ..., "chart.domain": [[0.0, 6.0]]})
    _, smap = build_map(doc)
    assert smap.chart.periodic == (False,)


def test_radius_rules():
    doc = _variant(**{"map.radius": ...})
    _, smap = build_map(doc)
    assert smap.radius == 1.0
    with pytest.raises(ManifestError, match="positive"):
        build_map(_variant(**{"map.radius": -2.0}))
    with pytest.raises(ManifestError, match=r"^map.radius: cosh\(1000.0\) is out"):
        build_map(_variant(**{"map.radius": "cosh(1000)"}))
    with pytest.raises(ManifestError, match="radius"):
        build_map(_variant(**{"map.target": "euclidean"}))  # radius forbidden
    ok = _variant(**{"map.target": "euclidean", "map.radius": ...})
    _, smap = build_map(ok)
    assert smap.target == "euclidean"


def test_bad_metric_mode():
    with pytest.raises(ManifestError, match="mode"):
        build_map(_variant(**{"chart.metric": {"mode": "curvy", "g": [["1"]]}}))


def test_load_manifest_round_trip(tmp_path):
    path = tmp_path / "demo.json"
    path.write_text(to_json(GOOD))
    doc = load_manifest(path)
    assert doc["name"] == "demo"
    assert json.loads(to_json(doc)) == json.loads(to_json(GOOD))


def test_load_manifest_errors(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(ManifestError, match="cannot read"):
        load_manifest(missing)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ManifestError, match="valid JSON"):
        load_manifest(bad)
