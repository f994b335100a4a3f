import gc
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bieigen import build_map, jets
from bieigen.charts import (Chart, GeometryError, _cofactors, bilaplacian,
                            gradient_pushforward, laplace_beltrami,
                            laplacian_jet, laplacian_values, metric_frame)
from bieigen.exprs import eval_value, parse
from bieigen.jets import Jet, JetDomainError

from _oracles import _adjugate, _det, random_smooth_source
from test_curved import random_explicit, random_induced_3d, sphere_manifest

CIRCLE = Chart.explicit(["t"], [(0.0, 2.0 * math.pi)], [["1"]], periodic=[True])
FLAT2 = Chart.explicit(["u", "v"], [(0.0, 2.0), (0.0, 2.0)],
                       [["1", "0"], ["1"]], periodic=[False, False])
SPHERE_IMM = ["sin(theta)*cos(phi)", "sin(theta)*sin(phi)", "cos(theta)"]
SPHERE = Chart.induced(["theta", "phi"], [(0.0, math.pi), (0.0, 2.0 * math.pi)],
                       SPHERE_IMM, periodic=[False, True])
TORUS4 = Chart.induced(
    ["u", "v"], [(0.0, 2.0 * math.pi), (0.0, 2.0 * math.pi)],
    ["cos(u)/sqrt(2)", "sin(u)/sqrt(2)", "cos(v)/sqrt(2)", "sin(v)/sqrt(2)"],
    periodic=[True, True])


def test_identity_metric_frame():
    frame = metric_frame(CIRCLE, (1.0,), 3)
    assert frame.g_inv_values[0, 0] == pytest.approx(1.0, abs=1e-15)
    assert frame.sqrt_det.value == pytest.approx(1.0, abs=1e-15)


def test_induced_torus_metric_is_half_identity():
    frame = metric_frame(TORUS4, (0.7, 2.1), 3)
    np.testing.assert_allclose(frame.g_values, 0.5 * np.eye(2), atol=1e-14)
    assert frame.sqrt_det.value == pytest.approx(0.5, abs=1e-14)


def test_induced_sphere_metric_matches_classical_formula():
    rng = np.random.default_rng(3)
    for _ in range(20):
        theta = float(rng.uniform(0.2, math.pi - 0.2))
        phi = float(rng.uniform(0.0, 2.0 * math.pi))
        frame = metric_frame(SPHERE, (theta, phi), 3)
        expected = np.diag([1.0, math.sin(theta) ** 2])
        np.testing.assert_allclose(frame.g_values, expected, atol=1e-12)


def test_metric_inverse_identity_residual():
    frame = metric_frame(SPHERE, (0.9, 1.3), 3)
    product = frame.g_values @ frame.g_inv_values
    np.testing.assert_allclose(product, np.eye(2), atol=1e-10)


def test_flat_laplacian_of_square_norm():
    lap = laplace_beltrami(FLAT2, "u^2 + v^2", (0.7, 1.1))
    assert lap.value == pytest.approx(4.0, abs=1e-12)


def test_circle_eigenfunction():
    for t in (0.3, 1.7, 4.4):
        lap = laplace_beltrami(CIRCLE, "cos(t)", (t,))
        assert lap.value == pytest.approx(-math.cos(t), abs=1e-13)


def test_sphere_first_harmonic():
    rng = np.random.default_rng(5)
    for _ in range(20):
        theta = float(rng.uniform(0.3, math.pi - 0.3))
        phi = float(rng.uniform(0.0, 2.0 * math.pi))
        lap = laplace_beltrami(SPHERE, "cos(theta)", (theta, phi))
        assert lap.value == pytest.approx(-2.0 * math.cos(theta), abs=1e-10)


def test_bilaplacian_circle_consistency():
    t = 1.234
    assert bilaplacian(CIRCLE, "cos(t)", (t,)) == pytest.approx(math.cos(t), abs=1e-12)


def test_bilaplacian_flat_quartic():
    assert bilaplacian(FLAT2, "u^4", (0.5, 0.5)) == pytest.approx(24.0, abs=1e-10)


def test_bilaplacian_sphere_harmonic():
    theta, phi = 1.1, 0.7
    value = bilaplacian(SPHERE, "cos(theta)", (theta, phi))
    assert value == pytest.approx(4.0 * math.cos(theta), abs=1e-8)


def test_sign_convention_eigenvalues_nonnegative():
    # lap f = -lambda f with lambda >= 0 on every eigen-pair we know closed form
    cases = [
        (CIRCLE, "sin(t)", (2.2,), 1.0),
        (CIRCLE, "cos(3*t)", (0.4,), 9.0),
        (SPHERE, "cos(theta)", (0.9, 2.0), 2.0),
    ]
    for chart, field, point, lam in cases:
        lap = laplace_beltrami(chart, field, point).value
        f = eval_value(parse(field), dict(zip(chart.params, point)))
        assert lap == pytest.approx(-lam * f, abs=1e-9)
        assert lam >= 0.0


def test_coordinate_invariance_of_circle_laplacian():
    # same circle, chart parameter halved, explicit metric 4 dt'^2
    half = Chart.explicit(["s"], [(0.0, math.pi)], [["4"]], periodic=[True])
    for t in (0.2, 1.0, 2.9):
        a = laplace_beltrami(CIRCLE, "cos(t)", (t,)).value
        b = laplace_beltrami(half, "cos(2*s)", (t / 2.0,)).value
        assert a == pytest.approx(b, abs=1e-10)


def test_linearity():
    rng = np.random.default_rng(17)
    for _ in range(5):
        a, b = float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2))
        pt = (float(rng.uniform(0.4, 1.2)), float(rng.uniform(0.4, 1.2)))
        f = "sin(u)*cos(v)"
        g = "exp(0.3*u) + v^2"
        lf = laplace_beltrami(FLAT2, f, pt).value
        lg = laplace_beltrami(FLAT2, g, pt).value
        combo = f"{a!r}*({f}) + {b!r}*({g})"
        lc = laplace_beltrami(FLAT2, combo, pt).value
        assert lc == pytest.approx(a * lf + b * lg, abs=1e-12 * max(1, abs(lc)))


def test_gradient_pushforward_constant_scalar():
    out = gradient_pushforward(FLAT2, "3", ["u", "v"], (0.5, 0.5))
    np.testing.assert_allclose(out, [0.0, 0.0], atol=1e-15)


def test_gradient_pushforward_flat_identity():
    out = gradient_pushforward(FLAT2, "u", ["u", "v"], (0.5, 0.5))
    np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-15)


def test_gradient_pushforward_torus_matches_oracle():
    # unit-speed scaling: metric is half-identity, inverse doubles the gradient
    rng = np.random.default_rng(31)
    comps = ["cos(u)/sqrt(2)", "sin(u)/sqrt(2)", "cos(v)/sqrt(2)", "sin(v)/sqrt(2)"]
    for _ in range(10):
        pt = (float(rng.uniform(0.2, 6.0)), float(rng.uniform(0.2, 6.0)))
        out = gradient_pushforward(TORUS4, "sin(u)", comps, pt)
        expected = np.array([
            2.0 * math.cos(pt[0]) * -math.sin(pt[0]) / math.sqrt(2),
            2.0 * math.cos(pt[0]) * math.cos(pt[0]) / math.sqrt(2),
            0.0, 0.0])
        np.testing.assert_allclose(out, expected, atol=1e-8)


def _raises_at(chart, block, index, match):
    """The GeometryError of metric_frame on `block`, which names the point at
    `index` as data and in its message, as the one-point form does."""
    with pytest.raises(GeometryError, match=match) as err:
        metric_frame(chart, block, 1)
    assert err.value.point == tuple(block[index]) and err.value.index == index
    assert str(err.value.point) in str(err.value)
    with pytest.raises(GeometryError, match=match) as one:
        metric_frame(chart, block[index], 1)
    assert one.value.point == err.value.point and one.value.index == 0


def test_metric_not_positive_definite():
    bad = Chart.explicit(["t"], [(-1.0, 1.0)], [["t"]])
    _raises_at(bad, [(0.5,), (-0.5,)], 1, "not positive definite")
    # zero eigenvalue is rejected too
    _raises_at(bad, [(0.5,), (0.25,), (0.0,), (-0.5,)], 2, "not positive definite")


def test_rank_deficient_immersion():
    degenerate = Chart.induced(["u", "v"], [(0.0, 1.0), (0.0, 1.0)],
                               ["u + v", "u + v"])
    with pytest.raises(GeometryError, match="rank"):
        metric_frame(degenerate, (0.3, 0.4), 1)
    # det g = u^2, so the immersion is rank-deficient on u = 0 only
    pinched = Chart.induced(["u", "v"], [(-1.0, 1.0), (-1.0, 1.0)], ["u", "u*v"])
    _raises_at(pinched, [(0.5, 0.3), (0.0, 0.4), (0.0, 0.5)], 1, "rank-deficient")


def test_point_outside_domain():
    _raises_at(FLAT2, [(0.5, 0.5), (5.0, 0.5)], 1, "not strictly inside")
    # boundary is excluded
    _raises_at(FLAT2, [(0.5, 0.5), (1.0, 1.5), (0.0, 0.5)], 2, "not strictly inside")


def test_sample_points_interior_and_count():
    pts = FLAT2.sample_points(64)
    assert pts.shape == (64, 2)
    assert np.all(pts > 0.0) and np.all(pts < 2.0)
    pts1 = CIRCLE.sample_points(64)
    assert pts1.shape == (64, 1)
    pts3 = Chart.explicit(["a", "b", "c"],
                          [(0, 1), (0, 1), (0, 1)],
                          [["1", "0", "0"], ["1", "0"], ["1"]]).sample_points(64)
    assert pts3.shape == (64, 3)


def test_chart_validation():
    with pytest.raises(ValueError):
        Chart.explicit(["t", "t"], [(0, 1), (0, 1)], [["1", "0"], ["1"]])
    with pytest.raises(ValueError):
        Chart.explicit(["t"], [(1.0, 0.0)], [["1"]])
    with pytest.raises(ValueError):
        Chart.explicit(["t"], [(0.0, 1.0)], [["1 + x"]])  # undeclared variable
    with pytest.raises(ValueError):
        Chart.induced(["u", "v"], [(0, 1), (0, 1)], ["u"])  # too few components


@pytest.mark.parametrize("name", ["pi", "1t", " t", "t t", "", "sin(t)"])
def test_a_chart_parameter_is_a_name_the_parser_reads_as_that_variable(name):
    # `pi` parses as the constant, so a parameter named pi would be ignored
    with pytest.raises(ValueError) as err:
        Chart.explicit((name,), [(0.1, 1.0)], [["1"]])
    assert str(err.value) == f"chart.params: invalid identifier {name!r}"


def test_laplacian_output_orders_agree():
    # requesting a lower-order result changes the budget, not the value
    for order in (0, 1, 2):
        jet = laplace_beltrami(SPHERE, "cos(theta)", (0.8, 1.1), order=order)
        assert jet.order == order
        assert jet.value == pytest.approx(-2.0 * math.cos(0.8), abs=1e-10)
    with pytest.raises(ValueError):
        laplace_beltrami(SPHERE, "cos(theta)", (0.8, 1.1), order=3)


# signed zeros and subnormals, whose products underflow to a signed zero
_SPECIAL = np.array([0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -2.5e-310])


def _symmetric_jet_matrix(m, order, points, seed):
    """A symmetric m x m matrix of order-`order` jets at a block of `points`
    points, the mirrored entries one object as in a metric frame. Each entry
    has a random degree (slots above it +0.0 or -0.0); live slots are floats
    in [-4, 4] or, one in three, a signed zero or a subnormal."""
    rng = np.random.default_rng(seed)
    space = jets._space(order, m)
    slot_degree = np.array([sum(alpha) for alpha in space.multi_indices])[:, None]
    shape = (space.size, points)
    mat = [[None] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            degree = int(rng.integers(0, order + 1))
            live = np.where(rng.random(shape) < 1 / 3,
                            rng.choice(_SPECIAL, shape), rng.uniform(-4.0, 4.0, shape))
            zeros = rng.choice(_SPECIAL[:2], shape)
            mat[i][j] = mat[j][i] = Jet(order, m, np.where(slot_degree > degree, zeros, live),
                                        degree)
    return mat


def _same_bits(a, b):
    assert a.degree == b.degree
    np.testing.assert_array_equal(a.coeffs.view(np.int64), b.coeffs.view(np.int64))


# explicit charts whose metric entries all vary, diagonally dominant on the box
_PARAMS = ("u", "v", "w", "x")
_VARYING = {m: Chart.explicit(_PARAMS[:m], [(0.2, 1.0)] * m,
                              [[(f"2 + {_PARAMS[i]}^2" if k == 0 else
                                 f"0.1*{_PARAMS[i]}*{_PARAMS[i + k]}") for k in range(m - i)]
                               for i in range(m)])
            for m in range(1, 5)}


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4), st.integers(0, 3), st.sampled_from([1, 3]),
       st.integers(0, 2 ** 32 - 1))
def test_cofactor_pass_equals_each_minor_expanded_on_its_own(m, order, points, seed):
    # each formed cofactor C(i, j), j >= i, is adj[j][i]; adj[i][j] is its mirror
    mat = _symmetric_jet_matrix(m, order, points, seed)
    det, adj = _cofactors(mat)
    _same_bits(det, _det(mat))
    ref = _adjugate(mat, jets.constant_like(1.0, det))
    for i in range(m):
        for j in range(i, m):
            _same_bits(adj[j][i], ref[j][i])
            assert adj[i][j] is adj[j][i]
    # and g^ij and sqrt|g| g^ij of a metric frame, at a block and at one point
    block = np.random.default_rng(seed).uniform(0.3, 0.9, (points, m))
    for where in (block, block[0]):
        frame = metric_frame(_VARYING[m], where, order)
        for i in range(m):
            for j in range(i, m):
                assert frame.g_inv[i][j] is frame.g_inv[j][i]
                assert frame.flux[i][j] is frame.flux[j][i]


@pytest.mark.parametrize("m, products", [(2, 2), (3, 15), (4, 62)])
def test_cofactor_pass_expands_each_minor_once(monkeypatch, m, products):
    # expanding every minor on its own takes 2, 27 and 184 products, and all
    # m^2 cofactors of one pass 2, 21 and 88
    mat = _symmetric_jet_matrix(m, 1, 1, m)
    calls = []
    multiply = jets._JetSpace.multiply

    def counted(self, a, b, direction=None):
        calls.append(b)
        return multiply(self, a, b, direction)
    monkeypatch.setattr(jets._JetSpace, "multiply", counted)
    _cofactors(mat)
    assert len(calls) == products


def test_a_metric_frame_leaves_no_reference_cycle():
    # the cofactor memo is the call's own: reference counting frees the
    # minors and the metric's jets, so the collector finds nothing
    chart = build_map(sphere_manifest(4, lifted=True))[1].chart
    gc.collect()
    gc.disable()
    try:
        metric_frame(chart, (0.7, 1.1, 1.3, 2.0))
        assert gc.collect() == 0
    finally:
        gc.enable()


# the varying non-diagonal charts of test_curved, and constant metrics,
# whose frames are a block of one that broadcasts against the fields
_VALUE_CHARTS = {
    **{f"explicit_{m}d": build_map(random_explicit(m)[0])[1].chart for m in (2, 3, 4)},
    "induced_3d": build_map(random_induced_3d()[0])[1].chart,
    "constant_1d": Chart.explicit(("u",), [(0.2, 1.0)], [["2.5"]]),
    "constant_3d": Chart.explicit(("u", "v", "w"), [(0.2, 1.0)] * 3,
                                  [["2", "0.3", "-0.1"], ["1.5", "0.2"], ["1"]]),
}


def _frame_jets(frame):
    """Every jet of a frame: g, g^ij, sqrt|g|, the flux and the fields."""
    return [*(jet for matrix in (frame.g, frame.g_inv, frame.flux) for row in matrix
              for jet in row), frame.sqrt_det, *frame.fields]


@pytest.mark.parametrize("chart", [
    Chart.explicit(("u", "v"), [(0.2, 1.0)] * 2, [["2", "0.5"], ["3"]]),
    _VALUE_CHARTS["constant_3d"]], ids=["constant_2d", "constant_3d"])
def test_a_block_frame_at_an_index_is_the_frame_of_that_point(chart):
    # a constant metric's jets are a block of one that broadcasts against
    # the block's fields; at(k) gives the one-point frame of point k
    points = np.random.default_rng(13).uniform(0.3, 0.9, (3, chart.dim))
    fields = [chart.params[0], "sin(" + "*".join(chart.params) + ")"]
    frame = metric_frame(chart, points, 2, fields)
    for k, point in enumerate(points):
        got, want = frame.at(k), metric_frame(chart, point, 2, fields)
        for a, b in zip(_frame_jets(got), _frame_jets(want), strict=True):
            _same_bits(a, b)
            assert a.support == b.support
        for a, b in ((got.g_values, want.g_values), (got.g_inv_values, want.g_inv_values)):
            assert a.shape == b.shape
            np.testing.assert_array_equal(a.view(np.int64), b.view(np.int64))


def _value_fields(chart, rng):
    """A constant, a linear field, one with a -0.0 in every slot (so a term
    that is -0.0 must still be added to +0.0), one in one variable, one in
    a random subset of the variables and one in all of them."""
    params = chart.params
    subset = [p for p in params if rng.random() < 0.5] or [params[-1]]
    signed_zero = "-(0.0*(" + " + ".join(f"{p}^2" for p in params) + "))"
    return ["0.7", f"0.5*{params[0]}", signed_zero] + [
        random_smooth_source(rng, variables) for variables in ([params[0]], subset, params)]


def _poisoned(frame, fields, poison):
    """The fields with `poison` in every slot whose term the value of their
    Laplacian skips: c[e_i + e_j] where slot e_i of d_j f is not live, and
    c[e_j] where slot e_i of F^ij is not live for any i."""
    m = frame.chart.dim
    position = jets._space(fields[0].order, m).position
    unit = [tuple(int(k == i) for k in range(m)) for i in range(m)]
    out = []
    for f in fields:
        coeffs = f.coeffs.copy()
        for j in range(m):
            d = f.extract_derivative(j)
            for i in range(m):
                if not (d.degree and d.support >> i & 1):
                    coeffs[position[tuple(a + b for a, b in zip(unit[i], unit[j]))]] = poison
            if not any(frame.flux[i][j].support >> i & 1 for i in range(m)):
                coeffs[position[unit[j]]] = poison
        out.append(Jet(f.order, f.nvars, coeffs, f.degree, f.support))
    return out


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(_VALUE_CHARTS)), st.sampled_from(["order 2", "order 4", "lap"]),
       st.integers(0, 2), st.booleans(), st.sampled_from([None, math.inf, -math.inf, math.nan]),
       st.integers(0, 2 ** 32 - 1))
def test_laplacian_values_have_the_bits_of_the_laplacian_jets(name, kind, extra, one_point,
                                                             poison, seed):
    chart = _VALUE_CHARTS[name]
    rng = np.random.default_rng(seed)
    order = 2 if kind == "order 2" else 4
    frame_order = 3 if kind == "lap" else min(order - 1 + extra, 3)
    points = rng.uniform(0.3, 0.9, (3, chart.dim))
    frame = metric_frame(chart, points, frame_order, _value_fields(chart, rng))
    fields = [f.truncated(order) for f in frame.fields]
    if kind == "lap":  # the order-2 Laplacians the bi-Laplacian reads
        fields = [laplacian_jet(frame, f) for f in fields]
    if one_point:
        frame, fields = frame.at(0), [f.at(0) for f in fields]
    if poison is not None:
        fields = _poisoned(frame, fields, poison)
    want = np.stack([laplacian_jet(frame, f).value for f in fields], axis=-1)
    got = laplacian_values(frame, fields)
    assert got.shape == want.shape and got.flags.c_contiguous
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
    if poison is not None:
        assert np.isfinite(got).all()


@pytest.mark.parametrize("name, index", [("explicit_3d", 2), ("induced_3d", 1),
                                         ("constant_3d", 0)])
def test_laplacian_values_refuse_a_zero_sqrt_det_as_the_jet_quotient_does(name, index):
    chart = _VALUE_CHARTS[name]
    frame = metric_frame(chart, np.full((4, chart.dim), 0.5) + 0.1 * np.arange(4)[:, None], 1,
                         ["u*v + w^2", "sin(u)"])
    coeffs = frame.sqrt_det.coeffs.copy()
    coeffs[0, index] = 0.0
    frame.sqrt_det = Jet(frame.order, chart.dim, coeffs, frame.sqrt_det.degree,
                         frame.sqrt_det.support)
    with pytest.raises(JetDomainError) as want:
        laplacian_jet(frame, frame.fields[0])
    with pytest.raises(JetDomainError) as got:
        laplacian_values(frame, frame.fields)
    assert str(got.value) == str(want.value) == "division by a jet with zero value"
    assert got.value.index == want.value.index == index
