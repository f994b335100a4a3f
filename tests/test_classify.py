import math

import pytest

from bieigen import build_map, catalog_get
from bieigen.analysis import SphereMap, analyze_samples
from bieigen.charts import Chart
from bieigen.classify import (FAIL, NOT_APPLICABLE, PASS, classify,
                              fit_constants, verdicts, verify)


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
