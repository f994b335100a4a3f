import copy
import json
import math
import sys

import pytest

from bieigen import analyze_point, catalog_get, catalog_list, classify, manifest
from bieigen.analysis import SphereMap
from bieigen.charts import Chart
from bieigen.manifest import ManifestError, build_map, load_manifest
from bieigen.report import classification_dict, to_json

from test_curved import sphere_manifest

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
    # a JSON number out of float range reads as inf, a product can overflow
    huge = json.loads('{"radius": 1e400}')["radius"]
    for radius, shown in ((huge, "inf"), ("1e300*1e300", "inf"), (math.nan, "nan")):
        with pytest.raises(ManifestError, match=rf"^map.radius must be finite and "
                                                rf"positive, got {shown}$"):
            build_map(_variant(**{"map.radius": radius}))
    chart = build_map(GOOD)[1].chart
    for radius, shown in ((math.inf, "inf"), (math.nan, "nan"), (0.0, "0.0")):
        with pytest.raises(ValueError) as err:
            SphereMap.build(chart, ["cos(t)", "sin(t)", "0"], radius=radius)
        assert str(err.value) == f"map.radius must be finite and positive, got {shown}"
    # r^2 overflows to inf, underflows to 0.0, or is subnormal: refused in
    # map.radius words, before the sphere check, the tension or Takahashi's
    # constant read it
    for radius, shown in ((1e200, "1e+200"), ("1e100*1e100", "1e+200"),
                          (1e-200, "1e-200"), (1e-155, "1e-155")):
        with pytest.raises(ManifestError) as err:
            build_map(_variant(**{"map.radius": radius}))
        assert str(err.value) == f"map.radius must have a square in the normal float range, " \
                                 f"got {shown}"
    for radius in (1e150, 1e-150, math.sqrt(sys.float_info.min)):
        assert build_map(_variant(**{"map.radius": radius}))[1].radius == radius
    with pytest.raises(ManifestError, match="radius"):
        build_map(_variant(**{"map.target": "euclidean"}))  # radius forbidden
    ok = _variant(**{"map.target": "euclidean", "map.radius": ...})
    _, smap = build_map(ok)
    assert smap.target == "euclidean"


_CIRCLE = {"params": ["t"], "domain": [(0.0, 2.0 * math.pi)], "periodic": [True]}
_TWICE = {"chart.params": ["t", "t"], "chart.domain": [[0, 1], [0, 1]],
          "chart.periodic": [False, False]}


def _explicit(**args):
    return lambda: Chart.explicit(**{**_CIRCLE, "upper_triangle": [["1"]], **args})


def _induced(**args):
    return lambda: Chart.induced(**{**_CIRCLE, **args})


def _sphere_map(*args, **kwargs):
    return lambda: SphereMap.build(_explicit()(), *args, **kwargs)


@pytest.mark.parametrize("edits, library, message", [
    ({"chart.params": list("abcde")}, _explicit(params=list("abcde")),
     "chart.params must list 1 to 4 parameter names"),
    ({"chart.params": []}, _explicit(params=[]),
     "chart.params must list 1 to 4 parameter names"),
    ({"chart.params": ["pi"]}, _explicit(params=["pi"]), "chart.params: invalid identifier 'pi'"),
    ({"chart.domain": [[0, 1], [0, 1]]}, _explicit(domain=[(0, 1), (0, 1)]),
     "chart.domain must have one interval per parameter"),
    ({"chart.domain": [["1e300*1e300", 1]]}, _explicit(domain=[(math.inf, 1)]),
     "chart.domain[0][0] must be finite, got inf"),
    ({"chart.domain": [[0, math.nan]]}, _explicit(domain=[(0, math.nan)]),
     "chart.domain[0][1] must be finite, got nan"),
    ({"chart.domain": [[1, 0]]}, _explicit(domain=[(1, 0)]),
     "chart.domain[0]: need lo < hi, got [1.0, 0.0]"),
    ({"chart.periodic": [True, False]}, _explicit(periodic=[True, False]),
     "chart.periodic must be a list of booleans, one per parameter"),
    ({"chart.metric.g": [["1"], ["1"]]}, _explicit(upper_triangle=[["1"], ["1"]]),
     "chart.metric.g must have one row per parameter"),
    ({"chart.metric.g": [["1", "0"]]}, _explicit(upper_triangle=[["1", "0"]]),
     "chart.metric.g[0] must list the upper triangle (1 entries expected)"),
    ({**_TWICE, "chart.metric.g": [["1", "0"], ["1"]]},
     _explicit(params=["t", "t"], domain=[(0, 1), (0, 1)], periodic=[False, False],
               upper_triangle=[["1", "0"], ["1"]]),
     "chart parameter names must be distinct"),
    ({"chart.metric.g": [["1 + x"]]}, _explicit(upper_triangle=[["1 + x"]]),
     "metric expression uses undeclared variables: ['x']"),
    ({"chart.metric": {"mode": "induced", "immersion": []}}, _induced(immersion=[]),
     "chart.metric.immersion needs at least as many components as parameters"),
    ({"map.target": "torus"}, _sphere_map(["cos(t)", "sin(t)", "0"], "torus"),
     "map.target must be 'sphere' or 'euclidean', got 'torus'"),
    ({"map.radius": -2.0}, _sphere_map(["cos(t)", "sin(t)", "0"], radius=-2.0),
     "map.radius must be finite and positive, got -2.0"),
    ({"map.radius": 1e200}, _sphere_map(["cos(t)", "sin(t)", "0"], radius=1e200),
     "map.radius must have a square in the normal float range, got 1e+200"),
    ({"map.components": []}, _sphere_map([]),
     "map.components must be a non-empty list of expressions"),
], ids=["five_params", "no_params", "param_pi", "domain_length", "lo_not_finite",
        "hi_not_finite", "lo_not_below_hi", "periodic_length", "triangle_rows",
        "triangle_row_length", "duplicate_params", "undeclared_metric_variable",
        "short_immersion", "target", "radius", "radius_square", "no_components"])
def test_a_rule_reads_the_same_from_the_library_and_a_manifest(edits, library, message):
    with pytest.raises(ValueError) as from_library:
        library()
    with pytest.raises(ManifestError) as from_manifest:
        build_map(_variant(**edits))
    assert str(from_library.value) == str(from_manifest.value) == message


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


@pytest.fixture
def builds(monkeypatch):
    """The number of charts built so far, one per map build."""
    count = [0]

    def counted(*args):
        count[0] += 1
        return build_chart(*args)
    build_chart = manifest._build_chart
    monkeypatch.setattr(manifest, "_build_chart", counted)
    return lambda: count[0]


def _write(tmp_path, doc, stem="m"):
    path = tmp_path / f"{stem}.json"
    path.write_text(to_json(doc) if isinstance(doc, dict) else doc)
    return path


def test_load_then_build_builds_once_and_reports_the_same_bytes(tmp_path, builds):
    doc = catalog_get("clifford_torus_S3").manifest
    name, smap = build_map(load_manifest(_write(tmp_path, doc)))
    assert builds() == 1
    fresh_name, fresh = build_map(copy.deepcopy(doc))
    assert builds() == 2 and fresh is not smap
    assert name == fresh_name == "clifford_torus_S3"
    assert to_json(classification_dict(name, classify(smap))) \
        == to_json(classification_dict(name, classify(fresh)))


def test_a_document_edited_after_loading_is_rebuilt(tmp_path, builds):
    doc = load_manifest(_write(tmp_path, GOOD))
    doc["map"]["components"] = ["cos(t)", "0", "sin(t)"]
    _, smap = build_map(doc)
    assert builds() == 2
    assert analyze_point(smap, (0.7,)).phi.tolist() \
        == pytest.approx([math.cos(0.7), 0.0, math.sin(0.7)], rel=1e-15)


def _nested(depth):
    value = []
    for _ in range(depth):
        value = [value]
    return value


@pytest.mark.parametrize("key, value, message", [
    ("components", lambda doc: {"cos(t)"}, "non-empty list"),
    ("components", lambda doc: doc, "non-empty list"),
    ("deep", lambda doc: _nested(100000), "unknown keys"),
], ids=["set", "cycle", "deep"])
def test_a_document_edited_to_hold_no_json_text_is_rebuilt_and_refused(
        tmp_path, builds, key, value, message):
    doc = load_manifest(_write(tmp_path, GOOD))
    doc["map"][key] = value(doc)
    with pytest.raises(ManifestError, match=message):
        build_map(doc)
    assert builds() == 2


def test_the_hand_off_serves_one_build_map_call(tmp_path, builds):
    doc = load_manifest(_write(tmp_path, GOOD))
    first, second = build_map(doc), build_map(doc)
    assert builds() == 2
    assert first[1] is not second[1]


def test_an_equal_copy_is_built_afresh_and_drops_the_hand_off(tmp_path, builds):
    doc = load_manifest(_write(tmp_path, GOOD))
    build_map(copy.deepcopy(doc))
    assert builds() == 2
    build_map(doc)
    assert builds() == 3


def test_loading_another_document_drops_the_hand_off(tmp_path, builds):
    d1 = load_manifest(_write(tmp_path, GOOD, "d1"))
    load_manifest(_write(tmp_path, _variant(name="other"), "d2"))
    assert builds() == 2
    name, _ = build_map(d1)
    assert builds() == 3 and name == "demo"


def _s4_half_in_s5():
    """S^4(1/sqrt 2) in S^5 with literal polar bounds, as a benchmark writes
    it: 18 texts, 9 of them distinct. The 5 immersion texts are map
    components too, next to 1/sqrt(2), and the 3 polar intervals repeat
    their 2 bounds beside the azimuth's 2*pi."""
    doc = sphere_manifest(4, lifted=True)
    doc["chart"]["domain"][:3] = [[repr(0.3), repr(math.pi - 0.3)]] * 3
    return doc


@pytest.fixture
def parses(monkeypatch):
    """The texts parsed so far, in order."""
    texts = []

    def counted(text):
        texts.append(text)
        return parse(text)
    parse = manifest.parse
    monkeypatch.setattr(manifest, "parse", counted)
    return texts


def test_each_distinct_text_is_parsed_once_per_build(parses):
    doc = _s4_half_in_s5()
    _, smap = build_map(doc)
    assert len(parses) == len(set(parses)) == 9
    # the memo lives for one build: a second build parses every text again
    _, again = build_map(doc)
    assert len(parses) == 18 and parses[9:] == parses[:9]
    assert again is not smap and again.chart.metric == smap.chart.metric
    assert again.components == smap.components


def test_a_bad_text_shared_by_chart_and_map_is_named_under_the_chart():
    doc = _s4_half_in_s5()
    doc["chart"]["metric"]["immersion"][1] = doc["map"]["components"][1] = "sin(a)*("
    with pytest.raises(ManifestError, match=r"^chart\.metric\.immersion\[1\]: parse error "):
        build_map(doc)


@pytest.mark.parametrize("content, message", [
    (None, "cannot read"),
    ("{not json", "valid JSON"),
    (_variant(**{"map.components": ["cos(", "sin(t)", "0"]}), "byte"),
    (_variant(**{"map.radius": -2.0}), "positive"),
], ids=["missing", "not_json", "bad_expression", "bad_radius"])
def test_a_refused_manifest_leaves_no_hand_off(tmp_path, builds, content, message):
    d1 = load_manifest(_write(tmp_path, GOOD, "d1"))
    bad = tmp_path / "bad.json" if content is None else _write(tmp_path, content, "bad")
    with pytest.raises(ManifestError, match=message):
        load_manifest(bad)
    assert manifest._handoff is None
    before = builds()
    build_map(d1)
    assert builds() == before + 1




def _echo_cases(short):
    """A short value echoed whole, values whose repr is 60 and 61 characters
    long, and one of 1800 characters."""
    return [(short, repr(short)), ("1" + "x" * 57, "'1" + "x" * 57 + "'"),
            ("1" + "x" * 58, "'1" + "x" * 58 + "..."), ("1" * 1800, "'" + "1" * 59 + "...")]


@pytest.mark.parametrize("path, wrap, message, cases", [
    ("map.components", lambda v: [v, "sin(t)", "0"],
     "map.components[0] must be an expression string, got ",
     [(5, "5"), ([[[[[]]]]], "[[[[[]]]]]"), ([0] * 20, "[" + "0, " * 19 + "0]"),
      ([0] * 21, "[" + "0, " * 19 + "0,..."),
      (json.loads("[" * 900 + "]" * 900), "[" * 60 + "...")]),
    ("chart.params", lambda v: [v], "chart.params: invalid identifier ", _echo_cases("1t")),
    ("map.target", lambda v: v, "map.target must be 'sphere' or 'euclidean', got ",
     _echo_cases("torus")),
    ("chart.metric", lambda v: {"mode": v},
     "chart.metric.mode must be 'explicit' or 'induced', got ", _echo_cases("conformal")),
])
def test_echoed_values_are_cut_to_60_characters(path, wrap, message, cases):
    for value, shown in cases:
        with pytest.raises(ManifestError) as err:
            build_map(_variant(**{path: wrap(value)}))
        assert str(err.value) == message + shown
