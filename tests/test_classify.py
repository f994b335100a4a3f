import dataclasses
import math

import numpy as np
import pytest

from bieigen import build_map, catalog_get
from bieigen.analysis import (SphereMap, analyze_samples, constant_density_residual, dots,
                              inf_norms, residual_terms, sum_terms)
from bieigen.catalog import catalog_names
from bieigen.charts import Chart
from bieigen.classify import (FAIL, NOT_APPLICABLE, PASS, classify,
                              fit_constants, verdicts, verify)

import _oracles
from test_curved import random_explicit, random_induced_3d, sphere_manifest


def _report(name, samples=64, tol=1e-8):
    _, smap = build_map(catalog_get(name).manifest)
    return smap, classify(smap, samples, tol)


def test_fit_constants_unit_circle():
    smap, report = _report("great_circle_S2")
    c = report.constants
    assert c.lambda_hat == pytest.approx(1.0, abs=1e-12)
    assert c.mu_hat == pytest.approx(1.0, abs=1e-12)
    assert c.rho_hat == pytest.approx(1.0, abs=1e-12)
    assert c.c_hat == pytest.approx(1.0, abs=1e-12)


def test_fit_constants_small_circle():
    smap, report = _report("small_circle_S2")
    assert report.constants.rho_hat == pytest.approx(2.0, abs=1e-12)
    # the eigen residual is large, so the eigen verdict is false
    assert report.residuals["eigen"].max > 0.5
    assert not report.is_eigenmap
    assert report.is_buckling


def test_fit_constants_minimal_factor():
    smap, report = _report("circle_S1_sqrt_half")
    assert report.constants.lambda_hat == pytest.approx(2.0, abs=1e-12)
    assert report.is_eigenmap and report.is_isometric


def test_fit_requires_at_least_two_samples():
    _, smap = build_map(catalog_get("great_circle_S2").manifest)
    samples = analyze_samples(smap, [(0.5,)])
    with pytest.raises(ValueError):
        fit_constants(samples)


def test_verdicts_great_circle():
    smap, report = _report("great_circle_S2")
    assert report.is_isometric and report.is_harmonic and report.is_biharmonic
    assert report.is_eigenmap and report.is_bieigenmap and report.is_buckling
    assert not report.is_proper_bieigenmap


def test_verdicts_threefold_cover():
    smap, report = _report("kfold_equator_S2")
    assert report.is_eigenmap
    assert report.constants.lambda_hat == pytest.approx(9.0, abs=1e-10)
    assert report.is_constant_density
    assert report.constants.c_hat == pytest.approx(9.0, abs=1e-10)
    assert not report.is_isometric


@pytest.mark.parametrize("components, period, target, radius", [
    (["2*cos(t/2)", "2*sin(t/2)", "0"], 4.0 * math.pi, "sphere", 2.0),
    (["cos(t)", "sin(t)"], 2.0 * math.pi, "euclidean", 1.0),
], ids=["great_circle_radius_2", "euclidean_unit_circle"])
def test_isometric_mask_is_set_off_the_unit_sphere(components, period, target, radius):
    # the per-point mask and the verdict are one rule, for every target
    chart = Chart.explicit(["t"], [(0.0, period)], [["1"]], periodic=[True])
    report = classify(SphereMap.build(chart, components, target, radius))
    assert report.samples.isometric.all()
    assert report.is_isometric == report.samples.isometric.all()


def test_eigen_implies_bieigen_and_buckling_consistency():
    for name in ("great_circle_S2", "clifford_torus_S3", "kfold_equator_S2",
                 "round_sphere_chart_S2_in_R3"):
        _, report = _report(name)
        assert report.is_eigenmap
        lam = report.constants.lambda_hat
        assert report.is_bieigenmap
        assert report.constants.mu_hat == pytest.approx(lam * lam, abs=1e-8)
        assert report.is_buckling
        assert report.constants.rho_hat == pytest.approx(lam, abs=1e-8)


def test_harmonic_implies_biharmonic():
    for name in ("great_circle_S2", "clifford_torus_S3", "kfold_equator_S2",
                 "round_sphere_chart_S2_in_R3", "constant_map"):
        _, report = _report(name)
        assert report.is_harmonic
        assert report.is_biharmonic


def test_constant_map_rho_not_applicable():
    smap, report = _report("constant_map")
    assert report.constants.rho_hat is None
    assert report.is_buckling is None
    assert report.is_harmonic and report.is_biharmonic


def test_fitted_constants_stable_under_resampling():
    for name in ("great_circle_S2", "small_circle_S2", "clifford_comp_S4",
                 "nonisometric_buckling_S2", "round_sphere_chart_S2_in_R3"):
        _, r64 = _report(name, samples=64)
        _, r256 = _report(name, samples=256)
        a, b = r64.constants, r256.constants
        assert abs(a.lambda_hat - b.lambda_hat) < 1e-10
        assert abs(a.mu_hat - b.mu_hat) < 1e-10
        assert abs(a.c_hat - b.c_hat) < 1e-10
        if a.rho_hat is not None:
            assert abs(a.rho_hat - b.rho_hat) < 1e-10


def test_pointwise_ratio_spreads_are_reported():
    _, report = _report("great_circle_S2")
    assert report.spreads["lambda_pointwise"]["abs"] < 1e-12
    assert report.spreads["density"]["rel"] < 1e-12
    _, varying = _report_varying()
    assert varying.spreads["density"]["abs"] > 0.1


def _report_varying():
    chart = Chart.explicit(["t"], [(0.0, 2.0 * math.pi)], [["1"]], periodic=[True])
    smap = SphereMap.build(chart, ["cos(t + 0.3*sin(t))",
                                   "sin(t + 0.3*sin(t))", "0"])
    return smap, classify(smap, 64)


def test_varying_density_blocks_constant_density_verdict():
    _, report = _report_varying()
    assert not report.is_constant_density
    assert report.is_biharmonic_constant_density is None


# --------------------------------------------------------------------------
# theorem verifiers
# --------------------------------------------------------------------------

def test_takahashi_pass_cases():
    for name, lam in (("great_circle_S2", 1.0), ("clifford_torus_S3", 2.0),
                      ("circle_S1_sqrt_half", 2.0),
                      ("round_sphere_chart_S2_in_R3", 2.0)):
        _, report = _report(name)
        verdict = verify(report, "takahashi")
        assert verdict.status == PASS
        assert verdict.details["lambda_hat"] == pytest.approx(lam, abs=1e-8)


def test_takahashi_not_applicable_cases():
    _, small = _report("small_circle_S2")
    v = verify(small, "takahashi")
    assert v.status == NOT_APPLICABLE and "eigenmap" in v.reason
    _, const = _report("constant_map")
    assert verify(const, "takahashi").status == NOT_APPLICABLE


def test_t1_pass_and_na():
    for name in ("great_circle_S2", "clifford_torus_S3",
                 "round_sphere_chart_S2_in_R3"):
        _, report = _report(name)
        verdict = verify(report, "t1")
        assert verdict.status == PASS
        m = report.dim
        assert verdict.details["mu_hat"] == pytest.approx(m * m, abs=1e-8)
        assert verdict.details["lambda_hat"] == pytest.approx(m, abs=1e-8)
    _, small = _report("small_circle_S2")
    v = verify(small, "t1")
    assert v.status == NOT_APPLICABLE and "bi-eigenmap" in v.reason


def test_t2_pass_and_na():
    for name, rho in (("small_circle_S2", 2.0), ("clifford_comp_S4", 4.0)):
        _, report = _report(name)
        verdict = verify(report, "t2")
        assert verdict.status == PASS
        assert verdict.details["rho_hat"] == pytest.approx(rho, abs=1e-10)
        assert verdict.details["eta_unit_deviation"] < 1e-10
    _, great = _report("great_circle_S2")
    v = verify(great, "t2")
    assert v.status == NOT_APPLICABLE and "harmonic" in v.reason


def test_t3_pass_and_na():
    for name in ("kfold_equator_S2", "constant_map", "great_circle_S2"):
        _, report = _report(name)
        assert verify(report, "t3").status == PASS
    _, noniso = _report("nonisometric_buckling_S2")
    v = verify(noniso, "t3")
    assert v.status == NOT_APPLICABLE and "bi-eigenmap" in v.reason


def test_t4_pass_and_na():
    _, noniso = _report("nonisometric_buckling_S2")
    verdict = verify(noniso, "t4")
    assert verdict.status == PASS
    assert verdict.details["branch"] == "buckling"
    assert verdict.details["rho_hat"] == pytest.approx(9.0, abs=1e-10)
    _, kfold = _report("kfold_equator_S2")
    assert verify(kfold, "t4").details.get("branch") == "harmonic"
    _, const = _report("constant_map")
    v = verify(const, "t4")
    assert v.status == NOT_APPLICABLE and "buckling" in v.reason


def test_unknown_theorem_name():
    _, report = _report("great_circle_S2")
    with pytest.raises(ValueError):
        verify(report, "t9")


def test_margin_is_keyword_only():
    _, smap = build_map(catalog_get("great_circle_S2").manifest)
    with pytest.raises(TypeError):
        classify(smap, 64, 1e-8, 1e-8)


def test_nearly_isometric_fixture_fails_takahashi_at_tight_tolerance():
    # metric inflated by 5e-10: inside the fixed isometry gate (1e-9) but the
    # eigenvalue relation is visibly off once the tolerance drops below it
    chart = Chart.explicit(["t"], [(0.0, 2.0 * math.pi)],
                           [["1.0000000005"]], periodic=[True])
    smap = SphereMap.build(chart, ["cos(t)", "sin(t)", "0"])
    loose = classify(smap, 64)
    assert verify(loose, "takahashi").status == PASS
    tight = classify(smap, 64, tol=1e-12)
    assert tight.is_isometric and tight.is_eigenmap
    verdict = verify(tight, "takahashi")
    assert verdict.status == FAIL
    assert abs(verdict.details["lambda_hat"] - 1.0) > 1e-12


def test_verify_t2_pass_implies_small_submanifold_residual():
    _, report = _report("small_circle_S2")
    assert verify(report, "t2").status == PASS
    assert report.residuals["biharmonic_submanifold"].max < 1e-8


def test_three_dimensional_product_torus():
    # product of three unit-speed circles filling a flat 3-torus in the
    # 5-sphere: minimal, eigenvalue 3 = m, bi-eigenvalue 9 = m^2
    period = 2.0 * math.pi / math.sqrt(3.0)
    chart = Chart.explicit(
        ["u", "v", "w"],
        [(0.0, period)] * 3,
        [["1", "0", "0"], ["1", "0"], ["1"]],
        periodic=[True, True, True])
    comps = ["cos(sqrt(3)*u)/sqrt(3)", "sin(sqrt(3)*u)/sqrt(3)",
             "cos(sqrt(3)*v)/sqrt(3)", "sin(sqrt(3)*v)/sqrt(3)",
             "cos(sqrt(3)*w)/sqrt(3)", "sin(sqrt(3)*w)/sqrt(3)"]
    smap = SphereMap.build(chart, comps)
    report = classify(smap, 64)
    assert report.sample_count == 64
    assert report.is_isometric and report.is_harmonic and report.is_biharmonic
    assert report.constants.lambda_hat == pytest.approx(3.0, abs=1e-10)
    assert report.constants.mu_hat == pytest.approx(9.0, abs=1e-10)
    assert report.constants.c_hat == pytest.approx(3.0, abs=1e-10)
    assert verify(report, "takahashi").status == PASS
    assert verify(report, "t1").status == PASS
    assert report.eta_max_norm < 1e-10


# the induced-metric hyperspheres of the golden pins: (m, lifted, samples)
CURVED = {"identity_S3": (3, False, 125), "S3_half_in_S4": (3, True, 125),
          "S4_half_in_S5": (4, True, 81)}


def _assert_bits(got, want):
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("name", [*catalog_names(), *CURVED])
def test_residuals_are_the_written_out_formulas_bit_for_bit(name):
    if name in CURVED:
        m, lifted, samples = CURVED[name]
        _, smap = build_map(sphere_manifest(m, lifted))
    else:
        _, smap = build_map(catalog_get(name).manifest)
        samples = 64
    report = classify(smap, samples)
    s, c = report.samples, report.constants
    want = {"harmonic": _oracles.tension(s, smap.target, smap.radius),
            "eigen": s.lap_phi + c.lambda_hat * s.phi,
            "bieigen": s.bilap_phi - c.mu_hat * s.phi}
    if c.rho_hat is not None:
        want["buckling"] = s.bilap_phi + c.rho_hat * s.lap_phi
    _assert_bits(s.tension, want["harmonic"])
    if smap.unit_sphere:
        batch = {"residual_submanifold": _oracles.submanifold_residual(s, smap.dim),
                 "residual_full": _oracles.full_residual(s),
                 "residual_constant_density":
                     _oracles.constant_density_residual(s, s.energy_density)}
        for field, vectors in batch.items():
            _assert_bits(getattr(s, field), vectors)
        want["biharmonic_full"] = batch["residual_full"]
        want["biharmonic_constant_density"] = _oracles.constant_density_residual(s, c.c_hat)
        _assert_bits(constant_density_residual(s, c.c_hat),
                     want["biharmonic_constant_density"])
        if s.isometric.any():
            want["biharmonic_submanifold"] = batch["residual_submanifold"]
    else:
        assert s.residual_submanifold is s.residual_full is s.residual_constant_density is None
    assert sorted(report.residuals) == sorted(want)
    for key, vectors in want.items():
        _assert_bits(report.residuals[key].per_point, np.max(np.abs(vectors), axis=-1))


# random non-diagonal metrics of test_curved.py: (manifest, samples)
RANDOM = {"random_induced_3d": (lambda: random_induced_3d()[0], 125),
          "random_explicit_4d": (lambda: random_explicit(4)[0], 81)}


def _hex(value):
    """A value with every float as its hex text, so == compares bits."""
    if isinstance(value, dict):
        return {key: _hex(v) for key, v in value.items()}
    if isinstance(value, tuple):
        return tuple(map(_hex, value))
    return None if value is None else float(value).hex()


@pytest.mark.parametrize("name", [*catalog_names(), *CURVED, *RANDOM])
def test_fit_and_spreads_are_the_inner_products_of_the_vectors_bit_for_bit(name):
    # the analysis forms each inner product once, as a column; each column
    # must be <x, y> of its vectors, and the fit and the pointwise spreads
    # that read them what forming them from the vectors gives
    if name in CURVED:
        m, lifted, samples = CURVED[name]
        manifest = sphere_manifest(m, lifted)
    elif name in RANDOM:
        make, samples = RANDOM[name]
        manifest = make()
    else:
        manifest, samples = catalog_get(name).manifest, 64
    _, smap = build_map(manifest)
    report = classify(smap, samples)
    s, c = report.samples, report.constants
    for column, (x, y) in _oracles.INNER_PRODUCTS.items():
        _assert_bits(getattr(s, column), dots(getattr(s, x), getattr(s, y)))
    assert _hex((c.lambda_hat, c.mu_hat, c.rho_hat, c.c_hat)) == \
        _hex(_oracles.fitted_constants(s))
    want = _oracles.spreads(s, c)
    assert report.spreads.keys() == want.keys()
    for key, spread in want.items():
        assert _hex(report.spreads[key]) == _hex(spread), key


# maps off the unit sphere: into R^5 on a curved 3-D chart, and onto the
# sphere of radius 2 with a varying density
OFF_UNIT = {
    "random_induced_3d": lambda: random_induced_3d()[0],
    "circle_radius_2": lambda: {
        "name": "circle_radius_2",
        "chart": {"params": ["t"], "domain": [[0, "2*pi"]], "periodic": [True],
                  "metric": {"mode": "explicit", "g": [["1"]]}},
        "map": {"target": "sphere", "radius": 2.0,
                "components": ["2*cos(t + 0.3*sin(t))", "2*sin(t + 0.3*sin(t))", "0"]}},
}
READ_FROM_THE_ANALYSIS = ("harmonic", "biharmonic_submanifold", "biharmonic_full")


@pytest.mark.parametrize("name", [*catalog_names(), *OFF_UNIT])
def test_verdicts_read_the_residual_vectors_of_the_analysis(name):
    # verdicts takes the harmonic, submanifold and full residuals from the
    # SampleBatch; they must be the ones its own terms sum to, bit for bit
    doc = OFF_UNIT[name]() if name in OFF_UNIT else catalog_get(name).manifest
    _, smap = build_map(doc)
    report = classify(smap, 27)
    forms = dict(residual_terms(report.samples, report.constants.c_hat, smap.target,
                                smap.radius))
    read = [key for key in READ_FROM_THE_ANALYSIS if key in report.residuals]
    assert read[:1] == ["harmonic"] and ("biharmonic_full" in read) == smap.unit_sphere
    for key in read:
        _assert_bits(report.residuals[key].per_point, inf_norms(sum_terms(forms[key])))


def _assert_rows_are_the_row_by_row_reduction(smap, report):
    want = _oracles.residual_rows(smap, report.samples, report.constants, report.tol)
    assert list(report.residuals) == list(want)
    for key, (per_point, top, rms, scale, threshold) in want.items():
        got = report.residuals[key]
        _assert_bits(got.per_point, per_point)
        _assert_bits(np.array([got.max, got.rms, got.scale, got.threshold]),
                     np.array([top, rms, scale, threshold]))


@pytest.mark.parametrize("name", [*catalog_names(), *OFF_UNIT])
def test_stacked_verdict_rows_are_the_row_by_row_reduction(name):
    # one stacked pass forms every row's per-point norms, max, rms, scale
    # and threshold; each must be what reducing its row alone gives
    doc = OFF_UNIT[name]() if name in OFF_UNIT else catalog_get(name).manifest
    _, smap = build_map(doc)
    _assert_rows_are_the_row_by_row_reduction(smap, classify(smap, 27))


@pytest.mark.parametrize("isometric", ["alternate", "first", "none"])
def test_stacked_verdict_rows_on_a_map_isometric_at_some_rows(isometric):
    # the submanifold row is defined on the isometric rows alone: its max,
    # rms and scale are taken there, and it is absent where there are none
    smap, report = _report("clifford_torus_S3", 27)
    rows = np.arange(len(report.samples))
    mask = {"alternate": rows % 2 == 1, "first": rows == 0, "none": rows < 0}[isometric]
    # a bi-Laplacian moved off the isometric rows makes their residuals and
    # terms dominate, so a row taken where it is not defined shows
    samples = dataclasses.replace(report.samples, isometric=mask,
                                  bilap_phi=report.samples.bilap_phi + 5.0 * ~mask[:, None])
    samples.bilap_dot_phi, samples.bilap_dot_lap = (
        dots(samples.bilap_phi, samples.phi), dots(samples.bilap_phi, samples.lap_phi))
    forms = dict(residual_terms(samples, samples.energy_density, smap.target, smap.radius))
    samples.tension, samples.residual_submanifold, samples.residual_full = (
        sum_terms(forms[key]) for key in ("harmonic", "biharmonic_submanifold",
                                          "biharmonic_full"))
    stacked = verdicts(smap, samples, report.constants, report.tol)
    assert ("biharmonic_submanifold" in stacked.residuals) == mask.any()
    _assert_rows_are_the_row_by_row_reduction(smap, stacked)
