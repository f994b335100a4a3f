"""Block evaluation: a block of P points gives each point the bits a block of
one gives it, derivatives and Laplacians agree with the 30-digit mpmath
oracles, and an error names the point a point-by-point loop would fail at
first."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bieigen import analysis, build_map, catalog_get, jets
from bieigen.analysis import (ANALYSIS_ORDER, BIENERGY_ORDER, AnalysisError, SphereMap,
                              analyze_point, analyze_samples, block_points)
from bieigen.charts import Chart, GeometryError, laplacian_jet, metric_frame
from bieigen.exprs import (BinOp, Call, Const, Neg, Pow, Var, eval_jet, eval_value,
                           parse)

from _oracles import (INNER_PRODUCTS, mp_laplace_beltrami, mp_partial, random_point,
                      random_smooth_source)
from test_curved import sphere_manifest

VARIABLES = ("u", "v")


def _bounded(arg):
    """sin(arg): keeps the arguments of exp, log, sqrt and powers in a range
    where the expression is smooth and its derivatives stay moderate."""
    return Call("sin", arg)


def _extend(children):
    return st.one_of(
        children.map(Neg),
        st.tuples(st.sampled_from("+-*"), children, children).map(
            lambda t: BinOp(t[0], t[1], t[2])),
        st.tuples(children, children).map(
            lambda t: BinOp("/", t[0], BinOp("+", Const(2.0), _bounded(t[1])))),
        st.tuples(st.sampled_from(("sin", "cos", "exp", "sinh", "cosh")), children).map(
            lambda t: Call(t[0], t[1] if t[0] in ("sin", "cos") else _bounded(t[1]))),
        children.map(lambda c: Call("tan", BinOp("*", Const(0.5), _bounded(c)))),
        children.map(lambda c: Call("log", BinOp("+", Const(2.0), _bounded(c)))),
        children.map(lambda c: Call("sqrt", BinOp("+", Const(2.0), _bounded(c)))),
        st.tuples(children, st.sampled_from((2.0, 3.0, -1.0, 1.5, -0.5))).map(
            lambda t: Pow(BinOp("+", Const(2.0), _bounded(t[0])), t[1])),
    )


EXPRESSIONS = st.recursive(
    st.one_of(st.sampled_from([Var(name) for name in VARIABLES]),
              st.floats(0.25, 2.0).map(lambda c: Const(round(c, 3)))),
    _extend, max_leaves=5)


def _block_env(coords, order):
    return {name: jets.variable(i, coords[:, i], order, len(VARIABLES))
            for i, name in enumerate(VARIABLES)}


def _alphas(order):
    return [(i, j) for i in range(order + 1) for j in range(order + 1 - i)]


@settings(max_examples=60, deadline=None)
@given(EXPRESSIONS, st.integers(0, 2 ** 32 - 1))
# a fourth derivative whose Richardson finite difference is off by 4e-6
@example(Call("sqrt", BinOp("+", Const(2.0), _bounded(BinOp(
    "*", Call("cosh", _bounded(Var("u"))), Call("cosh", _bounded(Var("u"))))))), 4096)
def test_block_eval_jet_matches_blocks_of_one_and_oracle(ast, seed):
    # a block, a block of one and the one-point form (a scalar variable)
    # fold their products round by round alike
    coords = np.random.default_rng(seed).uniform(0.3, 0.9, size=(40, 2))
    block = eval_jet(ast, _block_env(coords, 4))
    assert block.coeffs.shape == (15, 40)
    for p in range(len(coords)):
        one = eval_jet(ast, _block_env(coords[p:p + 1], 4))
        np.testing.assert_array_equal(block.coeffs[:, p:p + 1], one.coeffs)
    point = tuple(coords[0])
    scalar_env = {name: jets.variable(i, point[i], 4, len(VARIABLES))
                  for i, name in enumerate(VARIABLES)}
    np.testing.assert_array_equal(block.at(0).coeffs, eval_jet(ast, scalar_env).coeffs)
    assert block.value[0] == eval_value(ast, dict(zip(VARIABLES, point)))
    for alpha in _alphas(4)[1:]:
        exact = mp_partial(ast, VARIABLES, point, alpha)
        assert block.at(0).derivative(alpha) == pytest.approx(
            exact, rel=1e-9, abs=1e-9), alpha


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_block_laplacian_matches_blocks_of_one_and_oracle(seed):
    rng = np.random.default_rng(seed)
    upper = [[f"2 + 0.3*sin({random_smooth_source(rng, VARIABLES)})",
              f"0.2*cos({random_smooth_source(rng, VARIABLES)})"],
             [f"2 + 0.25*cos({random_smooth_source(rng, VARIABLES)})"]]
    chart = Chart.explicit(VARIABLES, [(0.0, 1.2), (0.0, 1.2)], upper)
    field = random_smooth_source(rng, VARIABLES)
    points = [random_point(rng, 2) for _ in range(40)]

    field_ast = parse(field)

    def laplacians(block):
        frame = metric_frame(chart, block, 3)
        return laplacian_jet(frame, eval_jet(field_ast, chart.param_jets(block, 4)))

    block = laplacians(points)
    for p, point in enumerate(points):
        np.testing.assert_array_equal(block.coeffs[:, p:p + 1],
                                      laplacians([point]).coeffs)
    metric = {"mode": "explicit", "g": upper}
    for p, point in enumerate(points[:5]):
        want = mp_laplace_beltrami(metric, VARIABLES, field, point)
        assert block.value[p] == pytest.approx(want, rel=1e-9, abs=1e-12)


def _zero_outside_bounds(jet):
    """Every coefficient slot of a total degree above jet.degree, or whose
    monomial involves a variable outside jet.support, is +-0.0."""
    space = jets._space(jet.order, jet.nvars)
    outside = np.array([sum(alpha) > jet.degree
                        or any(power and not jet.support >> v & 1 for v, power in enumerate(alpha))
                        for alpha in space.multi_indices])
    assert np.all(jet.coeffs[outside] == 0.0), (jet.degree, jet.support, jet.coeffs[outside])


@settings(max_examples=60, deadline=None)
@given(EXPRESSIONS, st.integers(0, 4))
def test_eval_jet_coefficients_above_the_degree_are_zero(ast, order):
    coords = np.random.default_rng(order).uniform(0.3, 0.9, size=(5, 2))
    _zero_outside_bounds(eval_jet(ast, _block_env(coords, order)))


FRAME_CHARTS = {
    "constant_explicit": Chart.explicit(VARIABLES, [(0.0, 1.2)] * 2, [["2", "0.5"], ["3"]]),
    "varying_explicit": Chart.explicit(VARIABLES, [(0.0, 1.2)] * 2,
                                       [["2 + 0.3*sin(u*v)", "0.2*cos(u)"], ["2 + v^2"]]),
    "induced": Chart.induced(VARIABLES, [(0.3, 1.2)] * 2,
                             ["sin(u)*cos(v)", "sin(u)*sin(v)", "cos(u)", "0.5"]),
}


@pytest.mark.parametrize("name", sorted(FRAME_CHARTS))
def test_frame_and_laplacian_coefficients_above_the_degree_are_zero(name):
    chart = FRAME_CHARTS[name]
    points = np.random.default_rng(3).uniform(0.4, 1.1, size=(7, 2))
    frame = metric_frame(chart, points, 3)
    for jet in [*sum(frame.g, []), *sum(frame.g_inv, []), frame.sqrt_det]:
        _zero_outside_bounds(jet)
    if name == "constant_explicit":  # a constant metric's products cost one term
        assert {j.degree for j in [*sum(frame.g_inv, []), frame.sqrt_det]} == {0}
    for field in ("u", "u*v - 2*v", "sin(u)*exp(v)"):
        lap = laplacian_jet(frame, eval_jet(parse(field), chart.param_jets(points, 4)))
        _zero_outside_bounds(lap)
        _zero_outside_bounds(laplacian_jet(frame, lap))


def _block_edges(step, count):
    """The rows on both sides of every boundary between blocks of `step`."""
    return [i for edge in range(step, count, step) for i in (edge - 1, edge)]


@pytest.mark.parametrize("name", ["clifford_comp_S4", "round_sphere_chart_S2_in_R3",
                                  "S4_half_in_S5"])
def test_sample_batch_rows_equal_one_point_analyses(name):
    # S4_half_in_S5, of test_curved.py, shares its immersion's jets in a memo
    manifest = (sphere_manifest(4, lifted=True) if name == "S4_half_in_S5"
                else catalog_get(name).manifest)
    _, smap = build_map(manifest)
    step = block_points(ANALYSIS_ORDER, smap.dim)
    points = smap.chart.sample_points(2 * step + 1)  # three blocks or more
    batch = analyze_samples(smap, points)
    assert len(batch) == len(points) > 2 * step
    for i in (0, 1, *_block_edges(step, len(points)), len(points) - 1):
        row, one = batch.row(i), analyze_point(smap, points[i])
        assert row.point == one.point
        for key, value in vars(one).items():
            got = getattr(row, key)
            if value is None:
                assert got is None, key
            else:
                np.testing.assert_array_equal(got, value, err_msg=key)


def test_inner_product_columns_are_dots_of_the_vectors_across_blocks_and_in_rows():
    # 4000 samples of a 1-D entry are two blocks; a point's <x, y> is one
    # stacked product of its own vectors, so neither its block nor the
    # concatenation of the blocks changes it, and a one-point analysis
    # holds the same value
    _, smap = build_map(catalog_get("kfold_equator_S2").manifest)
    step = block_points(ANALYSIS_ORDER, smap.dim)
    points = smap.chart.sample_points(4000)
    batch = analyze_samples(smap, points)
    assert step < len(batch) < 2 * step
    for column, (x, y) in INNER_PRODUCTS.items():
        want = analysis.dots(getattr(batch, x), getattr(batch, y))
        np.testing.assert_array_equal(getattr(batch, column).view(np.int64),
                                      want.view(np.int64), err_msg=column)
    for i in (0, *_block_edges(step, len(points)), len(points) - 1):
        for row in (batch.row(i), analyze_point(smap, points[i])):
            for column, (x, y) in INNER_PRODUCTS.items():
                want = float(analysis.dots(getattr(row, x), getattr(row, y)))
                assert getattr(row, column).hex() == want.hex() == \
                    float(getattr(batch, column)[i]).hex(), (column, i)


# a bump that is -1 at one point and 1 to double precision a tenth away
def _dip(center):
    return f"1 - 2*exp(-10000*(t - {center})^2)"


POINTS = [(0.1 * k + 0.05,) for k in range(10)]


def _dip_map(metric_center, log_center):
    chart = Chart.explicit(["t"], [(0.0, 1.0)], [[_dip(metric_center)]])
    return SphereMap.build(chart, [f"log({_dip(log_center)})"], target="euclidean")


def _first_error(smap, points):
    for point in points:
        try:
            analyze_point(smap, point)
        except (AnalysisError, GeometryError) as err:
            return type(err), str(err)
    return None


def test_error_names_the_point_a_point_by_point_loop_fails_first():
    # point 7 fails the metric check, point 3 fails later, in a component
    smap = _dip_map(POINTS[7][0], POINTS[3][0])
    with pytest.raises(AnalysisError) as err:
        analyze_samples(smap, POINTS)
    assert str(err.value) == "log of non-positive value -1.0 at point (0.35000000000000003,)"
    assert err.value.point == POINTS[3]
    assert (type(err.value), str(err.value)) == _first_error(smap, POINTS)
    # the other way round, the metric error at point 3 comes first
    smap = _dip_map(POINTS[3][0], POINTS[7][0])
    with pytest.raises(GeometryError, match=r"positive definite at \(0.35000000000000003,\)"):
        analyze_samples(smap, POINTS)
    with pytest.raises(GeometryError) as err:
        analyze_samples(smap, POINTS)
    assert (type(err.value), str(err.value)) == _first_error(smap, POINTS)


def test_error_in_a_later_block_is_indexed_in_the_whole_sample():
    chart = Chart.explicit(["t"], [(0.0, 1.0)], [["1"]])
    smap = SphereMap.build(chart, ["log(0.9 - t)"], target="euclidean")
    step = block_points(ANALYSIS_ORDER, 1)
    points = chart.sample_points(3 * step)
    with pytest.raises(AnalysisError) as err:
        analyze_samples(smap, points)
    first = next(i for i, p in enumerate(points) if 0.9 - p[0] <= 0.0)
    assert first >= 2 * step  # in the third block
    assert err.value.point == tuple(points[first])
    assert err.value.index == first


def test_bienergy_over_several_blocks_gives_each_cell_its_own_bits(monkeypatch):
    _, smap = build_map(catalog_get("clifford_torus_S3").manifest)
    step = block_points(BIENERGY_ORDER, smap.dim)
    grid = math.isqrt(2 * step) + 1  # three blocks or more
    blocks, density = [], analysis._bienergy_block

    def recorded(smap, points):
        blocks.append((np.array(points), density(smap, points)))
        return blocks[-1][1]
    monkeypatch.setattr(analysis, "_bienergy_block", recorded)
    value = analysis.bienergy_quadrature(smap, grid)
    assert [len(points) for points, _ in blocks[:-1]] == [step] * (len(blocks) - 1)
    assert len(blocks) >= 3
    points = np.concatenate([points for points, _ in blocks])
    cells = np.concatenate([cells for _, cells in blocks])
    assert len(points) == grid ** 2
    np.testing.assert_array_equal(cells.view(np.int64),
                                  density(smap, points).view(np.int64))  # one block
    for i in (0, *_block_edges(step, len(points)), len(points) - 1):
        assert density(smap, points[i:i + 1])[0] == cells[i]
    total = 0.0
    for cell in cells.tolist():
        total += cell
    (lo0, hi0), (lo1, hi1) = smap.chart.domain
    assert value == 0.5 * total * ((hi0 - lo0) / grid * ((hi1 - lo1) / grid))


def test_nan_fails_the_analysis_guards():
    # |dphi|^2 overflows to inf, so lap phi and the sphere identity are NaN
    chart = Chart.explicit(["t"], [(0.0, 1.0)], [["1"]])
    smap = SphereMap.build(chart, ["cos(1e200*t)", "sin(1e200*t)", "0"])
    with pytest.raises(AnalysisError, match=r"sphere identity .* violated by nan at \(0.3,\)"):
        analyze_point(smap, (0.3,))


def test_nan_metric_fails_the_metric_guard():
    # 0 * inf: the metric entry, or an immersion component, is NaN
    nan_metric = Chart.explicit(["t"], [(0.0, 1.0)], [["1 + 0*exp(1e3*sin(t))^2"]])
    nan_immersion = Chart.induced(["t"], [(0.0, 1.0)], ["t", "0*exp(1e3*sin(t))^2"])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(GeometryError, match=r"metric is not finite at \(0.5,\) "
                                                r"\(chart.metric.g\[0\]\[0\] is nan\)"):
            metric_frame(nan_metric, [(0.5,)], 1)
        with pytest.raises(GeometryError, match=r"rank-deficient at \(0.5,\) \(det nan\)"):
            metric_frame(nan_immersion, [(0.5,)], 1)


def test_infinite_metric_fails_the_finite_metric_guard_at_its_first_point():
    # eigvalsh may not converge on an inf entry; the guard names the entry:
    # an explicit metric's manifest key, an induced metric's g_ij
    explicit = Chart.explicit(["u", "v", "w"], [(-1.0, 1.0)] * 3,
                              [["1", "0", "1e300*u*1e300"], ["2", "0"], ["1"]])
    induced = Chart.induced(["t"], [(-1.0, 1.0)], ["t", "1e200*t^2*1e200"])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(GeometryError, match=r"not finite at \(0.5, 0.0, 0.0\) "
                                                r"\(chart.metric.g\[0\]\[2\] is inf\)") as e:
            metric_frame(explicit, [(0.0, 0.0, 0.0), (0.5, 0.0, 0.0), (0.7, 0.0, 0.0)], 1)
        assert e.value.index == 1 and e.value.point == (0.5, 0.0, 0.0)
        with pytest.raises(GeometryError,
                           match=r"not finite at \(-0.5,\) \(g_00 is inf\)") as e:
            metric_frame(induced, [(0.0,), (-0.5,)], 1)
        assert e.value.index == 1 and e.value.point == (-0.5,)


def test_sqrt_tower_bits_match_math():
    # towers run through the math kernels, so order-0 jets equal eval_value
    values = np.array([0.3, 1.7, 2.25, 1e-3])
    got = jets.sqrt(jets.variable(0, values, 0, 1)).coeffs[0]
    assert got.tolist() == [math.sqrt(v) for v in values]
