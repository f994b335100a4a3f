"""Acceptance suite: one test per criterion, each printing a PASS line.

Run `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Every tolerance is fixed here, not calibrated at runtime.
"""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from bieigen import build_map, catalog_list
from bieigen.analysis import (analyze_samples, bienergy_quadrature,
                              constant_density_residual)
from bieigen.charts import laplace_beltrami
from bieigen.classify import PASS, classify, verify
from bieigen.cli import main
from bieigen.exprs import eval_jet, parse
from bieigen import jets

from _oracles import mp_laplace_beltrami, mp_partial, random_point, random_smooth_source

from test_curved import METRICS_2D, PLANE, chart_2d


def _ok(criterion, summary):
    print(f"CRITERION {criterion}: PASS  ({summary})")


@pytest.fixture(scope="module")
def reports():
    out = {}
    for entry in catalog_list():
        _, smap = build_map(entry.manifest)
        points = smap.chart.sample_points(64)
        samples = analyze_samples(smap, points)
        out[entry.name] = (entry, smap, samples, classify(smap, 64))
    return out


def test_criterion_1_small_circle_reproduction(reports):
    entry, smap, samples, report = reports["small_circle_S2"]
    for pa in samples:
        assert np.max(np.abs(pa.bilap_phi + 2.0 * pa.lap_phi)) < 1e-8
        assert np.max(np.abs(pa.residual_submanifold)) < 1e-8
        assert abs(np.linalg.norm(pa.mean_curvature) - 1.0) < 1e-8
    assert report.constants.rho_hat == pytest.approx(2.0, abs=1e-8)
    assert report.is_eigenmap is False
    verdict = verify(report, "t2")
    assert verdict.status == PASS
    _ok(1, "small_circle_S2: lap2 = -2 lap, rho_hat = 2, not an eigenmap, "
           "submanifold residual < 1e-8, |eta| = 1, t2 PASS")


def test_criterion_2_surface_composition(reports):
    entry, smap, samples, report = reports["clifford_comp_S4"]
    assert report.constants.rho_hat == pytest.approx(4.0, abs=1e-8)
    assert report.eta_deviation_from_unit < 1e-8
    assert verify(report, "t2").status == PASS
    _ok(2, "clifford_comp_S4: rho_hat = 4 = 2m, |eta| = 1, t2 PASS")


def test_criterion_3_minimal_sphere_eigenvalues(reports):
    cases = (("great_circle_S2", 1.0), ("clifford_torus_S3", 2.0),
             ("circle_S1_sqrt_half", 2.0))
    for name, lam in cases:
        entry, smap, samples, report = reports[name]
        assert report.constants.lambda_hat == pytest.approx(lam, abs=1e-8), name
        expected = report.dim / report.radius ** 2
        assert lam == pytest.approx(expected, abs=1e-12)
        assert verify(report, "takahashi").status == PASS, name
    _ok(3, "lambda_hat = m / r^2 on great_circle_S2 (1), clifford_torus_S3 (2), "
           "circle_S1_sqrt_half (2)")


def test_criterion_4_bieigen_branch(reports):
    hit = []
    for name, (entry, smap, samples, report) in reports.items():
        if not (report.unit_sphere and report.is_isometric
                and report.is_biharmonic and report.is_bieigenmap):
            continue
        m = report.dim
        assert report.constants.mu_hat == pytest.approx(m * m, abs=1e-8), name
        assert report.eta_max_norm < 1e-8, name
        assert report.is_eigenmap, name
        assert report.constants.lambda_hat == pytest.approx(m, abs=1e-8), name
        hit.append(name)
    assert set(hit) >= {"great_circle_S2", "clifford_torus_S3",
                        "round_sphere_chart_S2_in_R3"}
    _ok(4, f"mu_hat = m^2, max |eta| < 1e-8, lambda_hat = m on {sorted(hit)}")


def test_criterion_5_constant_density_branches(reports):
    _, _, _, kfold = reports["kfold_equator_S2"]
    assert verify(kfold, "t3").status == PASS
    assert kfold.residuals["harmonic"].max < 1e-9
    _, _, _, noniso = reports["nonisometric_buckling_S2"]
    verdict = verify(noniso, "t4")
    assert verdict.status == PASS
    assert noniso.constants.rho_hat == pytest.approx(
        2.0 * noniso.constants.c_hat, abs=1e-8)
    _ok(5, "kfold_equator_S2 t3 PASS (tension < 1e-9); "
           "nonisometric_buckling_S2 t4 PASS (rho_hat = 2 c_hat)")


def test_criterion_6_identity_suite(reports):
    checked = 0
    for name, (entry, smap, samples, report) in reports.items():
        if not report.unit_sphere:
            continue
        m = report.dim
        for pa in samples:
            assert pa.constraint_defect < 1e-9, name
            if pa.mean_curvature is not None:
                eta = pa.mean_curvature
                assert abs(float(eta @ pa.phi)) < 1e-9, name
                lap_sq = float(pa.lap_phi @ pa.lap_phi)
                eta_sq = float(eta @ eta)
                assert abs(lap_sq - m * m * eta_sq - m * m) < 1e-8, name
            if pa.residual_submanifold is not None:
                gap = np.max(np.abs(pa.residual_submanifold - pa.residual_full))
                assert gap < 1e-7, name
            if report.is_constant_density:
                me1 = constant_density_residual(pa, report.constants.c_hat)
                assert np.max(np.abs(me1 - pa.residual_full)) < 1e-7, name
            checked += 1
    assert checked >= 8 * 64 - 64  # every unit-sphere entry, every point
    _ok(6, f"constraint, tangency, norm and residual-agreement identities at "
           f"{checked} sampled points")


def test_criterion_7_derivative_engine_validation():
    rng = np.random.default_rng(2026)
    checked = 0
    for k in range(20):
        variables = ("u",) if k % 2 == 0 else ("u", "v")
        source = random_smooth_source(rng, variables)
        ast = parse(source)
        point = random_point(rng, len(variables))
        env = {name: jets.variable(i, point[i], 4, len(variables))
               for i, name in enumerate(variables)}
        jet = eval_jet(ast, env)
        space_indices = [alpha for alpha in _all_alphas(len(variables))
                         if 0 < sum(alpha) <= 4]
        for alpha in space_indices:
            want = mp_partial(ast, variables, point, alpha)
            assert jet.derivative(alpha) == pytest.approx(want, rel=1e-9, abs=1e-12), \
                (source, alpha)
            checked += 1

    lap_checked = 0
    for name, metric in METRICS_2D.items():
        chart = chart_2d(name)
        for _ in range(10):
            source = random_smooth_source(rng, PLANE)
            point = random_point(rng, 2)
            want = mp_laplace_beltrami(metric, PLANE, source, point)
            assert laplace_beltrami(chart, source, point).value == pytest.approx(
                want, rel=1e-9, abs=1e-12), source
            lap_checked += 1
    _ok(7, f"{checked} jet coefficients and {lap_checked} Laplacian values "
           f"against 30-digit mpmath, relative 1e-9")


def _all_alphas(nvars):
    if nvars == 1:
        return [(k,) for k in range(5)]
    return [(i, j) for i in range(5) for j in range(5) if i + j <= 4]


def test_criterion_8_bienergy(reports):
    for name in ("great_circle_S2", "clifford_torus_S3", "kfold_equator_S2",
                 "round_sphere_chart_S2_in_R3", "constant_map",
                 "circle_S1_sqrt_half"):
        _, smap, _, _ = reports[name]
        grid = 64 if smap.dim == 1 else 16
        assert abs(bienergy_quadrature(smap, grid)) < 1e-10, name
    _, small, _, _ = reports["small_circle_S2"]
    closed_form = 0.5 * math.pi * math.sqrt(2.0)
    v256 = bienergy_quadrature(small, 256)
    v512 = bienergy_quadrature(small, 512)
    assert v256 == pytest.approx(closed_form, abs=1e-9)
    assert abs(v512 - v256) < 1e-9
    for name in ("clifford_comp_S4", "nonisometric_buckling_S2"):
        _, smap, _, _ = reports[name]
        grid = 12 if smap.dim == 2 else 64
        a = bienergy_quadrature(smap, grid)
        b = bienergy_quadrature(smap, 2 * grid)
        assert abs(b - a) < 1e-9, name
    _ok(8, "harmonic entries integrate to < 1e-10; small_circle_S2 matches "
           "pi/sqrt(2) at grid 256; grid doubling stable to 1e-9")


def test_criterion_9_deterministic_reports(capsys):
    for name in ("small_circle_S2", "round_sphere_chart_S2_in_R3"):
        assert main(["classify", name, "--format", "json"]) == 0
        first = capsys.readouterr().out
        assert main(["classify", name, "--format", "json"]) == 0
        second = capsys.readouterr().out
        assert first.encode("utf-8") == second.encode("utf-8")
    cmd = [sys.executable, "-m", "bieigen", "classify", "great_circle_S2",
           "--format", "json"]
    r1 = subprocess.run(cmd, capture_output=True)
    r2 = subprocess.run(cmd, capture_output=True)
    assert r1.returncode == 0 and r1.stdout == r2.stdout
    json.loads(r1.stdout)
    with capsys.disabled():
        _ok(9, "byte-identical classification JSON in-process and across "
               "processes")
