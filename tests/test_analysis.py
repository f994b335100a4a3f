import math

import numpy as np
import pytest

from bieigen import build_map, catalog_get
from bieigen.analysis import (SphereConstraintError, SphereMap, analyze_point,
                              analyze_samples, bienergy_quadrature,
                              constant_density_residual)
from bieigen.charts import MAX_POINTS, Chart, SizeError

CIRCLE = Chart.explicit(["t"], [(0.0, 2.0 * math.pi)], [["1"]], periodic=[True])


def _entry_map(name):
    return build_map(catalog_get(name).manifest)[1]


def test_unit_circle_inclusion():
    smap = _entry_map("great_circle_S2")
    pa = analyze_point(smap, (0.83,))
    np.testing.assert_allclose(pa.lap_phi, -pa.phi, atol=1e-13)
    np.testing.assert_allclose(pa.bilap_phi, pa.phi, atol=1e-12)
    assert pa.energy_density == pytest.approx(1.0, abs=1e-14)
    np.testing.assert_allclose(pa.tension, 0.0, atol=1e-13)
    np.testing.assert_allclose(pa.mean_curvature, 0.0, atol=1e-13)


def test_constant_map_everything_vanishes():
    smap = _entry_map("constant_map")
    pa = analyze_point(smap, (1.0,))
    np.testing.assert_allclose(pa.lap_phi, 0.0, atol=1e-15)
    assert pa.energy_density == 0.0
    np.testing.assert_allclose(pa.tension, 0.0, atol=1e-15)
    np.testing.assert_allclose(pa.residual_full, 0.0, atol=1e-15)


def test_small_circle_composition_values():
    smap = _entry_map("small_circle_S2")
    pa = analyze_point(smap, (0.91,))
    expected_lap = np.array([-2.0 * pa.phi[0], -2.0 * pa.phi[1], 0.0])
    np.testing.assert_allclose(pa.lap_phi, expected_lap, atol=1e-12)
    np.testing.assert_allclose(pa.bilap_phi, -2.0 * pa.lap_phi, atol=1e-11)
    # tension has unit length but does not vanish
    assert np.linalg.norm(pa.tension) == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(pa.mean_curvature) == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(pa.tension, pa.mean_curvature, atol=1e-12)
    # all three biharmonicity residuals vanish
    np.testing.assert_allclose(pa.residual_submanifold, 0.0, atol=1e-11)
    np.testing.assert_allclose(pa.residual_full, 0.0, atol=1e-11)
    np.testing.assert_allclose(pa.residual_constant_density, 0.0, atol=1e-11)
    assert pa.div_theta == pytest.approx(0.0, abs=1e-11)


def test_energy_density_fixtures():
    assert analyze_point(_entry_map("clifford_torus_S3"), (0.4, 1.9)).energy_density \
        == pytest.approx(2.0, abs=1e-12)
    assert analyze_point(_entry_map("kfold_equator_S2"), (0.77,)).energy_density \
        == pytest.approx(9.0, abs=1e-12)
    assert analyze_point(_entry_map("constant_map"), (2.2,)).energy_density == 0.0


def test_tension_routes_agree_on_isometric_immersions():
    # tau = m * eta whenever the mean curvature is defined
    for name in ("great_circle_S2", "small_circle_S2", "clifford_torus_S3",
                 "clifford_comp_S4"):
        smap = _entry_map(name)
        pts = smap.chart.sample_points(16)
        for p in pts[:6]:
            pa = analyze_point(smap, p)
            np.testing.assert_allclose(pa.tension, smap.dim * pa.mean_curvature,
                                       atol=1e-8)


def test_clifford_torus_minimal():
    smap = _entry_map("clifford_torus_S3")
    eta = analyze_point(smap, (1.3, 0.2)).mean_curvature
    np.testing.assert_allclose(eta, 0.0, atol=1e-10)


def test_mean_curvature_not_applicable_when_not_isometric():
    assert analyze_point(_entry_map("kfold_equator_S2"), (0.5,)).mean_curvature is None


def test_sphere_constraint_violation():
    smap = SphereMap.build(CIRCLE, ["cos(t)", "sin(t)", "0.5"])
    with pytest.raises(SphereConstraintError) as err:
        analyze_point(smap, (1.0,))
    assert err.value.point == (1.0,)


def test_residual_operation_preconditions():
    # the submanifold residual needs an isometric map, all three need a
    # unit-sphere target
    noniso = analyze_point(_entry_map("nonisometric_buckling_S2"), (0.3,))
    assert noniso.residual_submanifold is None
    assert noniso.residual_full is not None
    small_r = analyze_point(_entry_map("circle_S1_sqrt_half"), (0.3,))
    assert small_r.residual_submanifold is None
    assert small_r.residual_full is None
    assert small_r.residual_constant_density is None


def test_constant_density_residual_is_linear_algebra_on_samples():
    smap = _entry_map("nonisometric_buckling_S2")
    pa = analyze_point(smap, (0.45,))
    vec = constant_density_residual(pa, 4.5)
    np.testing.assert_allclose(vec, 0.0, atol=1e-9)
    # wrong constant leaves a visible residual
    assert np.max(np.abs(constant_density_residual(pa, 1.0))) > 1.0


def test_harmonic_maps_have_zero_full_residual():
    for name in ("great_circle_S2", "kfold_equator_S2", "clifford_torus_S3",
                 "round_sphere_chart_S2_in_R3"):
        smap = _entry_map(name)
        for p in smap.chart.sample_points(9)[:5]:
            vec = analyze_point(smap, p).residual_full
            assert np.max(np.abs(vec)) < 1e-8


def test_identity_constraint_defect_small_everywhere():
    for name in ("small_circle_S2", "clifford_comp_S4",
                 "round_sphere_chart_S2_in_R3"):
        smap = _entry_map(name)
        for pa in analyze_samples(smap, smap.chart.sample_points(16)):
            assert pa.constraint_defect < 1e-9


def test_gradient_pushforward_vanishes_on_constant_density():
    smap = _entry_map("clifford_comp_S4")
    pa = analyze_point(smap, (0.81, 2.02))
    np.testing.assert_allclose(pa.grad_energy_pushforward, 0.0, atol=1e-10)
    assert pa.lap_energy_density == pytest.approx(0.0, abs=1e-9)


def test_non_constant_density_map_is_well_formed():
    # reparametrized equator: |phi| = 1 but the density varies with t
    smap = SphereMap.build(CIRCLE, ["cos(t + 0.3*sin(t))",
                                    "sin(t + 0.3*sin(t))", "0"])
    densities = [analyze_point(smap, (t,)).energy_density
                 for t in (0.5, 1.5, 2.5)]
    assert max(densities) - min(densities) > 0.1
    pa = analyze_point(smap, (1.0,))
    f = 1.0 + 0.3 * math.cos(1.0)
    assert pa.energy_density == pytest.approx(f * f, abs=1e-12)


def test_bienergy_harmonic_entries_are_zero():
    for name in ("great_circle_S2", "kfold_equator_S2", "circle_S1_sqrt_half"):
        smap = _entry_map(name)
        assert abs(bienergy_quadrature(smap, 64)) < 1e-12


def test_bienergy_small_circle_closed_form():
    smap = _entry_map("small_circle_S2")
    expected = 0.5 * math.pi * math.sqrt(2.0)  # half of |tau|^2 = 1 times the period
    v256 = bienergy_quadrature(smap, 256)
    v512 = bienergy_quadrature(smap, 512)
    assert v256 == pytest.approx(expected, abs=1e-9)
    assert abs(v512 - v256) < 1e-9


def test_bienergy_nonisometric_closed_form():
    smap = _entry_map("nonisometric_buckling_S2")
    # |tau|^2 = (9/2)^2 everywhere over a period of 2 pi / 3
    expected = 0.5 * 20.25 * (2.0 * math.pi / 3.0)
    assert bienergy_quadrature(smap, 128) == pytest.approx(expected, abs=1e-9)


def test_sample_and_quadrature_grids_are_capped():
    with pytest.raises(ValueError, match="cap of 1048576"):
        CIRCLE.sample_points(MAX_POINTS + 1)
    torus = _entry_map("clifford_torus_S3")
    assert len(torus.chart.sample_points(MAX_POINTS)) == MAX_POINTS
    with pytest.raises(SizeError):
        torus.chart.sample_points(10 ** 400)  # beyond float range
    with pytest.raises(SizeError):
        bienergy_quadrature(torus, 1025)  # 1025^2 cells


def test_euclidean_target_uses_component_laplacian_as_tension():
    smap = SphereMap.build(CIRCLE, ["cos(t)", "sin(t)", "0"], target="euclidean")
    pa = analyze_point(smap, (0.7,))
    np.testing.assert_allclose(pa.tension, pa.lap_phi, atol=0)
    assert pa.residual_full is None
    assert pa.mean_curvature is None


def _div_theta_one_form_route(smap, point):
    """Divergence of the 1-form theta_j = <d_j phi, tau> computed by
    differentiating the form itself; independent of the scalar identity the
    analysis uses for div theta."""
    from bieigen.charts import laplacian_jet, metric_frame
    from bieigen.exprs import eval_jet

    chart = smap.chart
    m = chart.dim
    frame = metric_frame(chart, point, 3)
    env = chart.param_jets(point, 4)
    phi_jets = [eval_jet(c, env) for c in smap.components]
    lap_jets = [laplacian_jet(frame, pj) for pj in phi_jets]
    dphi_jets = [[pj.extract_derivative(i) for pj in phi_jets] for i in range(m)]

    energy = None
    for i in range(m):
        for j in range(m):
            dot = None
            for a in range(len(phi_jets)):
                term = dphi_jets[i][a] * dphi_jets[j][a]
                dot = term if dot is None else dot + term
            term = frame.g_inv[i][j] * dot
            energy = term if energy is None else energy + term

    r2 = smap.radius ** 2
    tau = [lap_jets[a] + (energy.truncated(2) * phi_jets[a].truncated(2)) / r2
           for a in range(len(phi_jets))]
    theta = []
    for j in range(m):
        acc = None
        for a in range(len(phi_jets)):
            term = dphi_jets[j][a].truncated(2) * tau[a]
            acc = term if acc is None else acc + term
        theta.append(acc)

    div = None
    for i in range(m):
        flux = None
        for j in range(m):
            term = frame.flux[i][j].truncated(2) * theta[j]
            flux = term if flux is None else flux + term
        d = flux.extract_derivative(i)
        div = d if div is None else div + d
    return (div / frame.sqrt_det.truncated(1)).value


def test_div_theta_identity_agrees_with_one_form_divergence():
    # the analysis computes div theta through the scalar identity
    # |lap phi|^2 + <grad lap phi, grad phi>; differentiating the 1-form
    # directly must give the same number on any sphere map
    fixtures = [
        _entry_map("small_circle_S2"),
        _entry_map("nonisometric_buckling_S2"),
        _entry_map("clifford_comp_S4"),
        SphereMap.build(CIRCLE, ["cos(t + 0.3*sin(t))",
                                 "sin(t + 0.3*sin(t))", "0"]),
    ]
    for smap in fixtures:
        for p in smap.chart.sample_points(9)[:5]:
            pa = analyze_point(smap, p)
            direct = _div_theta_one_form_route(smap, tuple(p))
            assert pa.div_theta == pytest.approx(direct, abs=1e-9)


def test_div_theta_closed_form_on_varying_density_curve():
    # phi = (cos f, sin f, 0) with f = t + 0.3 sin t on the flat circle:
    # theta_t = f' f'', so div theta = f''^2 + f' f'''
    smap = SphereMap.build(CIRCLE, ["cos(t + 0.3*sin(t))",
                                    "sin(t + 0.3*sin(t))", "0"])
    for t in (0.4, 1.3, 2.8, 5.1):
        pa = analyze_point(smap, (t,))
        fp = 1.0 + 0.3 * math.cos(t)
        fpp = -0.3 * math.sin(t)
        fppp = -0.3 * math.cos(t)
        assert pa.div_theta == pytest.approx(fpp * fpp + fp * fppp, abs=1e-10)
