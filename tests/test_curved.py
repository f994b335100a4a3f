"""Curved closed-form fixtures in dimensions 3 and 4: hyperspherical charts
with the induced metric, whose frames go through the 3x3 and 4x4 cofactor
determinants and adjugates with 35- and 70-coefficient jets on a metric that
varies from point to point. They live here rather than in the catalog, whose
entries the benchmark iterates. The Laplacian on such charts, on a random
non-diagonal induced 3-D metric, on random non-diagonal explicit 3-D and
4-D metrics and on the two 2-D metrics of acceptance criterion 7, is also
checked against the 30-digit divergence form of
`_oracles.mp_laplace_beltrami`."""

import dataclasses
import math
import re

import numpy as np
import pytest

from bieigen import build_map
from bieigen.analysis import SphereMap, analyze_point, analyze_samples, bienergy_quadrature
from bieigen.charts import Chart, bilaplacian, gradient_pushforward, laplace_beltrami
from bieigen.classify import NOT_APPLICABLE, PASS, classify, verify
from bieigen.exprs import parse

from _oracles import mp_laplace_beltrami, random_point, random_smooth_source

ANGLES = ("a", "b", "c", "d")
INSET = 0.3  # polar angles stay this far from the poles, where the chart degenerates
POLAR = [INSET, math.pi - INSET]
AZIMUTH = [0, "2*pi"]
HALF = "/sqrt(2)"


def _hyperspherical(m):
    """Unit S^m in R^(m+1): x_k = sin(a_1)...sin(a_k) cos(a_(k+1)), and the
    last component is the product of the sines; a_m is the azimuth."""
    names = ANGLES[:m]
    comps = ["*".join([f"sin({n})" for n in names[:k]] + [f"cos({names[k]})"])
             for k in range(m)]
    comps.append("*".join(f"sin({n})" for n in names))
    return list(names), comps


def _manifest(name, params, domain, immersion, extra=()):
    """A unit-sphere map whose components are the immersion (plus constant
    components), on the chart with the metric the immersion induces."""
    periodic = [bound is AZIMUTH for bound in domain]
    return {
        "name": name,
        "chart": {"params": params, "domain": domain, "periodic": periodic,
                  "metric": {"mode": "induced", "immersion": immersion}},
        "map": {"target": "sphere", "components": immersion + list(extra)},
    }


def sphere_manifest(m, lifted):
    """The manifest of S^m(1/sqrt 2) at height 1/sqrt 2 in S^(m+1) when
    `lifted`, else of the identity of S^m."""
    params, x = _hyperspherical(m)
    if lifted:
        return _manifest(f"S{m}_half_in_S{m + 1}", params, [POLAR] * (m - 1) + [AZIMUTH],
                         [e + HALF for e in x], ["1" + HALF])
    return _manifest(f"identity_S{m}", params, [POLAR] * (m - 1) + [AZIMUTH], x)


def _sphere_map(m, lifted):
    return build_map(sphere_manifest(m, lifted))[1]


SAMPLES = {3: 125, 4: 81}


@pytest.mark.parametrize("m", [3, 4])
def test_half_sphere_is_proper_biharmonic_buckling_with_rho_2m(m):
    report = classify(_sphere_map(m, lifted=True), SAMPLES[m])
    c = report.constants
    assert c.rho_hat == pytest.approx(2 * m, abs=1e-8)
    assert c.lambda_hat == pytest.approx(m, abs=1e-8)
    assert c.mu_hat == pytest.approx(2 * m * m, abs=1e-8)
    assert c.c_hat == pytest.approx(m, abs=1e-8)
    assert report.is_isometric and report.is_biharmonic and report.is_buckling
    assert not report.is_harmonic
    assert report.eta_deviation_from_unit < 1e-8
    assert verify(report, "t2").status == PASS
    assert verify(report, "t4").status == PASS


def test_round_s3_identity_is_takahashi_with_lambda_3():
    report = classify(_sphere_map(3, lifted=False), SAMPLES[3])
    assert report.constants.lambda_hat == pytest.approx(3.0, abs=1e-8)
    assert report.is_isometric and report.is_harmonic and report.is_eigenmap
    verdict = verify(report, "takahashi")
    assert verdict.status == PASS
    assert verdict.details["expected_lambda"] == 3.0


def test_s1_times_s2_is_proper_biharmonic_but_not_buckling():
    # generalized Clifford torus S^1(1/sqrt 2) x S^2(1/sqrt 2) in S^4:
    # proper biharmonic because the factor dimensions differ; the factors
    # have eigenvalues 2 and 4, so no single buckling constant fits
    _, s2 = _hyperspherical(2)
    immersion = ["cos(t)" + HALF, "sin(t)" + HALF] + [e + HALF for e in s2]
    smap = build_map(_manifest("S1_S2_in_S4", ["t", "a", "b"], [AZIMUTH, POLAR, AZIMUTH],
                               immersion))[1]
    report = classify(smap, SAMPLES[3])
    assert report.is_isometric and report.is_biharmonic
    assert not report.is_harmonic and report.is_buckling is False
    assert report.constants.c_hat == pytest.approx(3.0, abs=1e-8)
    # constant mean curvature |H| = |p - q| / (p + q) = 1/3
    assert report.eta_max_norm == pytest.approx(1.0 / 3.0, abs=1e-8)
    verdict = verify(report, "t2")
    assert verdict.status == NOT_APPLICABLE
    assert verdict.reason == "map is not a buckling eigenmap"


def _explicit_s3():
    """The identity of S^3 on the hyperspherical chart, with the round metric
    given explicitly as diag(1, sin^2 a, sin^2 a sin^2 b)."""
    params, x = _hyperspherical(3)
    chart = Chart.explicit(params, [POLAR, POLAR, (0.0, 2.0 * math.pi)],
                           [["1", "0", "0"], ["sin(a)^2", "0"], ["sin(a)^2*sin(b)^2"]],
                           periodic=[False, False, True])
    return SphereMap.build(chart, x)


@pytest.mark.parametrize("smap", [_sphere_map(3, lifted=False), _sphere_map(4, lifted=False),
                                  _explicit_s3()], ids=["induced_S3", "induced_S4", "explicit_S3"])
def test_one_point_operators_on_the_round_sphere(smap):
    # the coordinate functions x_A of S^m are eigenfunctions: lap x_A = -m x_A,
    # lap^2 x_A = m^2 x_A, and grad x_A pushes forward to e_A - x_A x
    chart, m = smap.chart, smap.dim
    rng = np.random.default_rng(11)
    for _ in range(3):
        point = tuple(float(rng.uniform(INSET + 0.1, math.pi - INSET - 0.1))
                      for _ in range(m))
        analysis = analyze_point(smap, point)
        x = analysis.phi
        for a, component in enumerate(smap.components):
            lap = laplace_beltrami(chart, component, point)
            bilap = bilaplacian(chart, component, point)
            assert lap.value == pytest.approx(-m * x[a], abs=1e-10)
            assert bilap == pytest.approx(m * m * x[a], abs=1e-9)
            assert lap.value == analysis.lap_phi[a]
            assert bilap == analysis.bilap_phi[a]
            np.testing.assert_allclose(
                gradient_pushforward(chart, component, smap.components, point),
                np.eye(len(x))[a] - x[a] * x, atol=1e-12)


def _euclidean_manifest(name, params, metric, components):
    """A Euclidean map on the chart (params, metric) over the box [0.2, 1]^m."""
    return {"name": name,
            "chart": {"params": list(params), "domain": [[0.2, 1.0]] * len(params),
                      "metric": metric},
            "map": {"target": "euclidean", "components": components}}


def random_induced_3d():
    """A 3-D graph chart (u, v, w) -> (u, v, w, h1, h2) with random smooth
    heights, so g = I + dh^T dh varies and has off-diagonal entries, and a
    Euclidean map of random smooth components: the manifest, its components
    and three points."""
    rng = np.random.default_rng(5)
    params = ("u", "v", "w")
    immersion = list(params) + [random_smooth_source(rng, params) for _ in range(2)]
    components = [random_smooth_source(rng, params) for _ in range(3)]
    doc = _euclidean_manifest("random_induced_3d", params,
                              {"mode": "induced", "immersion": immersion}, components)
    return doc, components, [random_point(rng, 3) for _ in range(3)]


def random_explicit(m):
    """An m-D chart with an explicit metric whose entries vary and are all
    nonzero: 2 + sin(h)^2 on the diagonal and 0.2 sin(h) off it, for random
    smooth h, so g is diagonally dominant, hence positive definite; g^ij is
    a cofactor over det g of jets that vary from point to point. A Euclidean
    map of random smooth components: the manifest, its components and three
    points."""
    rng = np.random.default_rng(20 + m)
    params = ("u", "v", "w", "x")[:m]
    triangle = [[(f"2 + sin({random_smooth_source(rng, params)})^2" if k == 0 else
                  f"0.2*sin({random_smooth_source(rng, params)})") for k in range(m - i)]
                for i in range(m)]
    components = [random_smooth_source(rng, params) for _ in range(2)]
    doc = _euclidean_manifest(f"random_explicit_{m}d", params,
                              {"mode": "explicit", "g": triangle}, components)
    return doc, components, [random_point(rng, m) for _ in range(3)]


# acceptance criterion 7's Laplacian charts: a varying non-diagonal explicit
# metric and the graph of 0.4 sin(u) cos(v)
PLANE = ("u", "v")
METRICS_2D = {
    "explicit_2d": {"mode": "explicit",
                    "g": [["2 + 0.3*sin(u + v)", "0.2*cos(u - v)"], ["2 + 0.25*cos(0.7*u)"]]},
    "induced_2d": {"mode": "induced", "immersion": ["u", "v", "0.4*sin(u)*cos(v)"]},
}


def chart_2d(name):
    """The chart of METRICS_2D[name] on the box [0.2, 1]^2."""
    return build_map(_euclidean_manifest(name, PLANE, METRICS_2D[name], list(PLANE)))[1].chart


def random_2d(name):
    """A Euclidean map of four random smooth components on the chart of
    METRICS_2D[name]: the manifest, its components and three points."""
    rng = np.random.default_rng(29)
    components = [random_smooth_source(rng, PLANE) for _ in range(4)]
    doc = _euclidean_manifest(name, PLANE, METRICS_2D[name], components)
    return doc, components, [random_point(rng, 2) for _ in range(3)]


def _half_s4_in_s5():
    doc = sphere_manifest(4, lifted=True)
    rng = np.random.default_rng(7)
    points = [tuple(rng.uniform(INSET + 0.1, math.pi - INSET - 0.1, 4).tolist())
              for _ in range(3)]
    components = doc["map"]["components"]
    # a component of one variable, one of two and the product of all four sines
    return doc, [components[k] for k in (0, 1, 4)], points


@pytest.mark.parametrize("case", [random_induced_3d, _half_s4_in_s5,
                                  lambda: random_explicit(3), lambda: random_explicit(4),
                                  lambda: random_2d("explicit_2d"),
                                  lambda: random_2d("induced_2d")],
                         ids=["random_induced_3d", "S4_half_in_S5", "random_explicit_3d",
                              "random_explicit_4d", "explicit_2d", "induced_2d"])
def test_laplacian_meets_the_high_precision_divergence_form(case):
    # an oracle free of jets and of the metric frame: nested mpmath
    # derivatives of the metric and the field at 30 digits
    doc, components, points = case()
    params, metric = doc["chart"]["params"], doc["chart"]["metric"]
    smap = build_map(doc)[1]
    batch = analyze_samples(smap, points)
    index = [smap.components.index(parse(c)) for c in components]
    for p, point in enumerate(points):
        for a, component in zip(index, components):
            want = mp_laplace_beltrami(metric, params, component, point)
            assert batch.lap_phi[p, a] == pytest.approx(want, rel=1e-9, abs=1e-12), \
                (point, component)


def _halved(doc):
    """The manifest on the chart whose coordinates are twice the original's:
    every chart parameter x becomes 0.5*x in every expression, and each
    domain bound is doubled."""
    params = doc["chart"]["params"]
    word = re.compile(rf"\b({'|'.join(params)})\b")

    def rewrite(value):
        if isinstance(value, str):
            return word.sub(r"(0.5*\1)", value)
        return [rewrite(v) for v in value] if isinstance(value, list) else value

    chart = doc["chart"]
    halved = {**chart, "domain": [[f"2*({lo})", f"2*({hi})"] for lo, hi in chart["domain"]],
              "metric": {key: rewrite(v) for key, v in chart["metric"].items()}}
    return {**doc, "chart": halved,
            "map": {**doc["map"], "components": rewrite(doc["map"]["components"])}}


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


@pytest.mark.parametrize("case, samples, grid", [
    (lambda: random_induced_3d()[0], 64, 6),
    (lambda: sphere_manifest(4, lifted=True), 81, 5),
], ids=["random_induced_3d", "S4_half_in_S5"])
def test_a_dyadic_reparametrization_keeps_every_invariant_bit(case, samples, grid):
    # u -> 0.5 u scales every derivative by a power of two, so no bit of a
    # quantity that is invariant under the change of chart may move
    doc = case()
    smap, halved = build_map(doc)[1], build_map(_halved(doc))[1]
    points = smap.chart.sample_points(samples)
    before, after = analyze_samples(smap, points), analyze_samples(halved, 2.0 * points)
    scaled = {"points": 2.0, "dphi": 0.5, "gram_defect": 0.25}
    for field in dataclasses.fields(before):
        want, got = getattr(before, field.name), getattr(after, field.name)
        if want is None:
            assert got is None, field.name
            continue
        if field.name in scaled:
            want = want * scaled[field.name]
        np.testing.assert_array_equal(_bits(got), _bits(want), err_msg=field.name)
    # on S^4 every row is isometric, so the submanifold residual was compared
    assert after.isometric.all() == smap.unit_sphere
    # the cells are 2^m times larger and sqrt|g| 2^m times smaller
    assert _bits(bienergy_quadrature(halved, grid)) == _bits(bienergy_quadrature(smap, grid))
