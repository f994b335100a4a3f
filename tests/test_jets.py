import math
import operator
import warnings
from functools import partial, reduce
from operator import add

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bieigen import jets
from bieigen.exprs import eval_jet, parse
from bieigen.jets import Jet, JetDomainError

import _oracles
from _oracles import mp_partial


def test_variable_jet_definition():
    j = jets.variable(0, 2.5, 2, 1)
    assert list(j.coeffs) == [2.5, 1.0, 0.0]
    j2 = jets.variable(1, 0.0, 1, 2)
    assert list(j2.coeffs) == [0.0, 0.0, 1.0]
    with pytest.raises(ValueError):
        jets.variable(2, 0.0, 1, 2)


def test_square_of_variable():
    t = jets.variable(0, 3.0, 2, 1)
    sq = t * t
    assert list(sq.coeffs) == [9.0, 6.0, 1.0]
    assert sq.derivative((2,)) == 2.0


def test_polynomial_identity():
    t = jets.variable(0, 0.0, 2, 1)
    prod = (1 + t) * (1 - t)
    assert list(prod.coeffs) == [1.0, 0.0, -1.0]


def test_sqrt_inverse_identity():
    t = jets.variable(0, 0.0, 2, 1)
    back = jets.sqrt((1 + t) * (1 + t))
    np.testing.assert_allclose(back.coeffs, [1.0, 1.0, 0.0], atol=1e-15)


def test_pythagorean_identity_order4():
    t = jets.variable(0, 0.6189, 4, 1)
    one = jets.sin(t) * jets.sin(t) + jets.cos(t) * jets.cos(t)
    np.testing.assert_allclose(one.coeffs, [1, 0, 0, 0, 0], atol=1e-14)


def test_sin_maclaurin_tower():
    s = jets.sin(jets.variable(0, 0.0, 4, 1))
    derivs = [s.derivative((k,)) for k in range(5)]
    assert derivs == [0.0, 1.0, 0.0, -1.0, 0.0]


def test_reciprocal_roundtrip():
    a = jets.exp(jets.variable(0, 0.37, 4, 1)) + 0.5
    one = a * (1.0 / a)
    assert one.value == 1.0
    assert np.max(np.abs(one.coeffs[1:])) < 1e-12


def test_division_value_slot_is_exact():
    a = jets.variable(0, 0.7234, 3, 1)
    b = jets.cos(a)
    q = a / b
    assert q.value == 0.7234 / math.cos(0.7234)


def _bits(jet):
    return jet.coeffs.view(np.int64)


def _block_denominator(size):
    """An order-3 jet in 2 variables at `size` points, of full degree."""
    rng = np.random.default_rng(size)
    u, v = (jets.variable(i, rng.uniform(0.2, 0.9, size), 3, 2) for i in range(2))
    return 2.0 + jets.sin(u) * v


def _block_of_one(jet, index):
    return Jet(jet.order, jet.nvars, jet.coeffs[:, index:index + 1], jet.degree)


@pytest.mark.parametrize("numerator", [
    jets.constant([2.0], 3, 2),
    jets.sin(jets.variable(0, [0.4], 3, 2) * jets.variable(1, [-0.3], 3, 2))],
    ids=["constant", "varying"])
def test_block_of_one_numerator_over_a_block_is_each_points_quotient(numerator):
    # the numerator's rows are broadcast over the block before the recurrence
    b = _block_denominator(7)
    q = numerator / b
    assert q.coeffs.shape == b.coeffs.shape
    for i in range(7):
        np.testing.assert_array_equal(_bits(q.at(i)), _bits(numerator.at(0) / b.at(i)))


@pytest.mark.parametrize("op", ["+", "-", "*", "/"])
def test_one_point_and_a_block_do_not_combine(op):
    # a block of one, (size, 1), broadcasts over a block; the one-point
    # form, (size,), is refused naming both forms, in either order
    point, block = jets.constant(2.0, 3, 2), _block_denominator(3)
    combine = {"+": operator.add, "-": operator.sub, "*": operator.mul,
               "/": operator.truediv}[op]
    for x, y in ((point, block), (block, point)):
        with pytest.raises(ValueError) as info:
            combine(x, y)
        forms = [f"{'one point' if j is point else 'a block'} {j.coeffs.shape}" for j in (x, y)]
        assert str(info.value) == f"jet form mismatch: {forms[0]} vs {forms[1]}"
    one = jets.constant([2.0], 3, 2)
    assert combine(one, block).coeffs.shape == block.coeffs.shape


def test_subtraction_and_reflected_division_keep_their_bits_and_degree():
    b = _block_denominator(5)
    a = jets.variable(1, [0.0, -0.0, 0.5, -1.5, 0.0], 3, 2)  # signed zeros in slot 0
    for x, y in ((a, b), (b, a), (a, -a), (a, _block_of_one(a, 1)), (_block_of_one(b, 2), a)):
        d = x - y
        np.testing.assert_array_equal(_bits(d), (x.coeffs - y.coeffs).view(np.int64))
        assert d.degree == max(x.degree, y.degree)
    for number in (1.5, -0.0, np.array([0.0, -0.0, 1.0, 2.0, -3.0])):
        want = a.coeffs.copy()
        want[0] -= number
        np.testing.assert_array_equal(_bits(a - number), want.view(np.int64))
    for den in (b, jets.constant_like(-0.5, b)):
        q = 2 / den
        assert q.degree == (0 if den.degree == 0 else den.order)
        for i in range(5):
            np.testing.assert_array_equal(_bits(q.at(i)),
                                          _bits(jets.constant(2.0, 3, 2) / den.at(i)))


def test_extract_derivative_basic():
    t = jets.variable(0, 3.0, 2, 1)
    d = (t * t).extract_derivative(0)
    assert d.order == 1
    assert list(d.coeffs) == [6.0, 2.0]


def test_extract_derivative_product_at_origin():
    u = jets.variable(0, 0.0, 3, 2)
    v = jets.variable(1, 0.0, 3, 2)
    f = jets.sin(u) * jets.cos(v)
    assert f.extract_derivative(0).value == pytest.approx(1.0, abs=1e-15)


def test_double_extraction_matches_oracle():
    # extracting d/dt k times leaves the k-th derivative as the value
    ast = parse("exp(2*t)")
    f = jets.exp(2.0 * jets.variable(0, 0.4, 4, 1))
    extracted = f
    for k in range(5):
        want = mp_partial(ast, ("t",), (0.4,), (k,))
        assert extracted.value == pytest.approx(want, rel=1e-9, abs=1e-12)
        assert f.derivative((k,)) == pytest.approx(want, rel=1e-9, abs=1e-12)
        if k < 4:
            extracted = extracted.extract_derivative(0)
    assert f.extract_derivative(0).extract_derivative(0).value == pytest.approx(
        4.0 * math.exp(0.8), abs=1e-12)


def test_leibniz_rule():
    t = jets.variable(0, 0.83, 4, 1)
    a = jets.sin(t) + 0.2 * t
    b = jets.exp(0.5 * t)
    lhs = (a * b).extract_derivative(0)
    rhs = a.extract_derivative(0) * b.truncated(3) \
        + a.truncated(3) * b.extract_derivative(0)
    np.testing.assert_allclose(lhs.coeffs, rhs.coeffs, atol=1e-12)


def test_chain_rule_against_oracle():
    rng = np.random.default_rng(7)
    ast = parse("sin(exp(0.4*t) + t*t)")
    for _ in range(10):
        x0 = float(rng.uniform(0.2, 1.0))
        t = jets.variable(0, x0, 4, 1)
        f = jets.sin(jets.exp(0.4 * t) + t * t)
        for k in range(5):
            assert f.derivative((k,)) == pytest.approx(
                mp_partial(ast, ("t",), (x0,), (k,)), rel=1e-9, abs=1e-12), (x0, k)


def test_shape_mismatch_is_contract_failure():
    a = jets.variable(0, 1.0, 2, 1)
    b = jets.variable(0, 1.0, 3, 1)
    c = jets.variable(0, 1.0, 2, 2)
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        a * c


def test_coefficient_count():
    for order in range(5):
        for nvars in range(1, 5):
            j = jets.constant(1.0, order, nvars)
            assert len(j.coeffs) == math.comb(nvars + order, order)


def test_truncation_is_prefix():
    t = jets.variable(0, 0.3, 4, 2)
    u = jets.variable(1, 0.8, 4, 2)
    f = jets.exp(t * u)
    g = f.truncated(2)
    size = math.comb(2 + 2, 2)
    np.testing.assert_array_equal(g.coeffs, f.coeffs[:size])
    with pytest.raises(ValueError):
        f.truncated(5)


def test_domain_errors():
    t = jets.variable(0, -1.0, 2, 1)
    with pytest.raises(JetDomainError):
        jets.log(t)
    with pytest.raises(JetDomainError):
        jets.sqrt(t)
    with pytest.raises(JetDomainError):
        jets.power(t, 0.5)
    zero = jets.constant(0.0, 2, 1)
    with pytest.raises(JetDomainError):
        t / zero
    with pytest.raises(JetDomainError):
        jets.power(zero, -1)


@pytest.mark.parametrize("divisor, index", [(0.0, 0), (np.array([1.0, -2.0, 0.0]), 2)])
def test_division_by_a_zero_number_names_its_point(divisor, index):
    with pytest.raises(JetDomainError) as info:
        jets.variable(0, [0.5, 1.0, 2.0], 2, 1) / divisor
    assert str(info.value) == "division by zero"
    assert info.value.index == index


@pytest.mark.parametrize("func, value, message", [
    (jets.exp, 1000.0, "exp(1000.0) is"), (jets.sinh, 1000.0, "sinh(1000.0) is"),
    (jets.cosh, -1000.0, "cosh(-1000.0) is"), (jets.sin, math.inf, "sin(inf) is"),
    (jets.cos, math.inf, "cos(inf) is"), (jets.tan, math.inf, "tan(inf) is"),
    (lambda t: jets.power(t, 1.5), 1e300, "pow(1e+300, 1.5) is"),
    (lambda t: jets.power(t, -2.5), 1e-300, "pow(1e-300, -2.5) is"),
    # the fourth derivative under- or overflows: refused at order 4 only
    (jets.log, 1e-100, "derivatives of log at 1e-100 are"),
    (jets.log, 1e100, "derivatives of log at 1e+100 are"),
    (jets.sqrt, 1e-100, "derivatives of sqrt at 1e-100 are"),
], ids=["exp", "sinh", "cosh", "sin", "cos", "tan", "power_large",
        "power_negative_exponent", "log_tiny", "log_huge", "sqrt_tiny"])
def test_out_of_float_range_is_a_domain_error(func, value, message):
    block = jets.variable(0, [1.0, value], 4, 1)
    with pytest.raises(JetDomainError) as info:
        func(block)
    assert str(info.value) == f"{message} out of float range"
    assert info.value.index == 1  # the point that failed


@pytest.mark.parametrize("source", ["log(1e-100*t)", "log(1e100*t)", "sqrt(1e-100*t)"])
def test_a_derivative_out_of_float_range_refuses_only_the_jets_that_form_it(source):
    # the fourth derivative of log or sqrt under- or overflows at 1.5e-100
    # (1.5e100); a jet of a lower order is evaluated
    ast = parse(source)
    for order in range(4):
        jet = eval_jet(ast, {"t": jets.variable(0, [1.5], order, 1)})
        for k in range(order + 1):
            assert jet.derivative((k,))[0] == pytest.approx(
                mp_partial(ast, ("t",), (1.5,), (k,)), rel=1e-13, abs=0.0)
    with pytest.raises(JetDomainError, match=r"^derivatives of .* are out of float range$"):
        eval_jet(ast, {"t": jets.variable(0, [1.5], 4, 1)})


def test_integer_power_matches_repeated_multiplication():
    t = jets.variable(0, 1.37, 4, 1)
    np.testing.assert_array_equal((t ** 5).coeffs, (t * t * t * t * t).coeffs)
    np.testing.assert_array_equal((t ** 0).coeffs, jets.constant_like(1.0, t).coeffs)
    inv = t ** -2
    direct = 1.0 / (t * t)
    np.testing.assert_allclose(inv.coeffs, direct.coeffs, rtol=1e-15)


def test_fractional_power_against_oracle():
    x0 = 0.61
    t = jets.variable(0, x0, 4, 1)
    f = (t * t + 1.0) ** 1.5
    ast = parse("(t*t + 1)^1.5")
    for k in range(5):
        assert f.derivative((k,)) == pytest.approx(
            mp_partial(ast, ("t",), (x0,), (k,)), rel=1e-9, abs=1e-12), k


_finite = st.floats(min_value=-2.0, max_value=2.0,
                    allow_nan=False, allow_infinity=False)


def _jet_strategy(order=3, nvars=2):
    size = math.comb(nvars + order, order)
    return st.lists(_finite, min_size=size, max_size=size).map(
        lambda cs: Jet(order, nvars, cs))


@settings(max_examples=60, deadline=None)
@given(_jet_strategy(), _jet_strategy(), _jet_strategy())
def test_ring_axioms(a, b, c):
    np.testing.assert_allclose((a + b).coeffs, (b + a).coeffs, atol=1e-12)
    np.testing.assert_allclose((a * b).coeffs, (b * a).coeffs, atol=1e-12)
    left = ((a + b) + c).coeffs
    right = (a + (b + c)).coeffs
    np.testing.assert_allclose(left, right, atol=1e-12)
    lm = ((a * b) * c).coeffs
    rm = (a * (b * c)).coeffs
    scale = max(1.0, np.max(np.abs(lm)))
    np.testing.assert_allclose(lm, rm, atol=1e-12 * scale)
    dist_l = (a * (b + c)).coeffs
    dist_r = (a * b + a * c).coeffs
    np.testing.assert_allclose(dist_l, dist_r, atol=1e-12 * scale)


@settings(max_examples=40, deadline=None)
@given(_jet_strategy(order=4, nvars=1), _jet_strategy(order=4, nvars=1))
def test_leibniz_property(a, b):
    lhs = (a * b).extract_derivative(0)
    rhs = a.extract_derivative(0) * b.truncated(3) \
        + a.truncated(3) * b.extract_derivative(0)
    scale = max(1.0, np.max(np.abs(lhs.coeffs)))
    np.testing.assert_allclose(lhs.coeffs, rhs.coeffs, atol=1e-12 * scale)


# values a live coefficient takes: signed zeros, subnormals, the float range's
# ends and plain numbers
_LIVE = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -2.5e-310,
                                   1e308, -1e308]),
                  st.floats(-4.0, 4.0))


def _dead_slots(space, degree, support):
    """Where a jet of this degree and support holds +0.0 or -0.0: the slots
    above the degree, and those involving a variable outside the support."""
    return np.array([sum(alpha) > degree or any(power and not support >> v & 1
                                                for v, power in enumerate(alpha))
                     for alpha in space.multi_indices])


@st.composite
def _filtered_factors(draw, count, min_order=0, constant=False):
    """`count` jets of one (order, nvars) signature, at one point or at
    blocks of three points or of one, each with a degree and a support:
    slots above the degree or involving a variable outside the support hold
    +0.0 or -0.0. With `constant`, at least one of them has degree 0."""
    order, nvars = draw(st.integers(min_order, 4)), draw(st.integers(1, 4))
    space = jets._space(order, nvars)
    block = draw(st.booleans())
    forced = draw(st.sets(st.integers(0, count - 1), min_size=1)) if constant else set()
    out = []
    for index in range(count):
        shape = (space.size, draw(st.sampled_from([3, 1]))) if block else (space.size,)
        size = int(np.prod(shape))
        degree = 0 if index in forced else draw(st.integers(0, order))
        support = draw(st.integers(0, 2 ** nvars - 1))
        live = np.array(draw(st.lists(_LIVE, min_size=size, max_size=size)))
        zeros = np.array(draw(st.lists(st.sampled_from([0.0, -0.0]),
                                       min_size=size, max_size=size)))
        dead = _dead_slots(space, degree, support).reshape((-1,) + (1,) * (len(shape) - 1))
        out.append(Jet(order, nvars, np.where(dead, zeros.reshape(shape), live.reshape(shape)),
                       degree, support))
    return order, nvars, out


def _convolution(a, b):
    """The truncated product of two jets' coefficients, each output slot
    summing its terms a[i] * b[j] in ascending (i, j) from +0.0, but the
    value slot, which is its one term a[0] * b[0]."""
    space = jets._space(a.order, a.nvars)
    out = np.zeros(np.broadcast_shapes(a.coeffs.shape, b.coeffs.shape))
    for i, alpha in enumerate(space.multi_indices):
        for j, beta in enumerate(space.multi_indices):
            k = space.position.get(tuple(x + y for x, y in zip(alpha, beta)))
            if k is not None:
                out[k] += a.coeffs[i] * b.coeffs[j]
    out[0] = a.coeffs[0] * b.coeffs[0]
    return out


def _assert_product_is_the_convolution(a, b):
    with np.errstate(over="ignore", invalid="ignore"):
        filtered = a * b
        full = _convolution(a, b)
    assert filtered.degree == min(a.order, a.degree + b.degree)
    assert filtered.support == a.support | b.support
    np.testing.assert_array_equal(filtered.coeffs.view(np.int64), full.view(np.int64))


@settings(max_examples=150, deadline=None)
@given(_filtered_factors(2))
def test_degree_filtered_product_equals_the_full_convolution_bit_for_bit(case):
    # one point and a block fold their rounds alike; the terms skipped for
    # degree or support are +-0.0, and so is a value slot
    _assert_product_is_the_convolution(*case[2])


@settings(max_examples=150, deadline=None)
@given(_filtered_factors(2, constant=True))
def test_a_product_with_a_constant_equals_the_full_convolution_bit_for_bit(case):
    # one elementwise product: each slot's one term, added to +0.0
    _assert_product_is_the_convolution(*case[2])


def test_a_product_with_an_infinite_constant_forms_only_the_live_slots():
    # inf * 0.0 in a slot above the degree would be NaN, and warn
    t = jets.variable(0, [0.5, -2.0], 2, 1)
    for got in (jets.constant_like(math.inf, t) * t, t * jets.constant_like(math.inf, t)):
        want = np.array([[math.inf, -math.inf], [math.inf, math.inf], [0.0, 0.0]])
        np.testing.assert_array_equal(got.coeffs.view(np.int64), want.view(np.int64))


def _recurrence(a, b, bounded=True):
    """q[k] = (a[k] - the terms q[i] * b[j] with j != 0, in ascending (i, j)) / b[0].
    `bounded` skips the terms whose slot j lies outside b's degree or support,
    or whose output slot k outside the quotient's support, a.support | b.support,
    and leaves +0.0 in each slot outside the quotient's bounds: its degree is
    a's where b's is 0, else the order."""
    space = jets._space(a.order, a.nvars)
    dead_in_b = _dead_slots(space, b.degree, b.support)
    dead_in_q = _dead_slots(space, a.order, a.support | b.support)
    terms = [[] for _ in range(space.size)]
    for i, alpha in enumerate(space.multi_indices):
        for j, beta in enumerate(space.multi_indices):
            k = space.position.get(tuple(x + y for x, y in zip(alpha, beta)))
            if j and k is not None and not (bounded and (dead_in_b[j] or dead_in_q[k])):
                terms[k].append((i, j))
    want = np.zeros(np.broadcast_shapes(a.coeffs.shape, b.coeffs.shape))
    with np.errstate(all="ignore"):
        for k in range(space.size):
            acc = a.coeffs[k]
            for i, j in terms[k]:
                acc = acc - want[i] * b.coeffs[j]
            want[k] = acc / b.coeffs[0]
    if bounded:
        want[_dead_slots(space, a.degree if b.degree == 0 else a.order,
                         a.support | b.support)] = 0.0
    return want


def _nonzero_value(b):
    """b with 1.5 in place of a zero value, which division refuses."""
    value = b.coeffs[:1]
    return Jet(b.order, b.nvars, np.concatenate([np.where(value == 0.0, 1.5, value),
                                                 b.coeffs[1:]]), b.degree, b.support)


def _assert_quotient_is_the_recurrence(a, b):
    b = _nonzero_value(b)
    with np.errstate(all="ignore"):
        got = a / b
    np.testing.assert_array_equal(got.coeffs.view(np.int64), _recurrence(a, b).view(np.int64))


@settings(max_examples=100, deadline=None)
@given(_filtered_factors(2))
def test_quotient_equals_the_recurrence_bit_for_bit(case):
    _assert_quotient_is_the_recurrence(*case[2])


@settings(max_examples=150, deadline=None)
@given(_filtered_factors(2, constant=True))
def test_a_quotient_with_a_constant_equals_the_recurrence_bit_for_bit(case):
    # a constant divisor has no terms: one elementwise division
    _assert_quotient_is_the_recurrence(*case[2])


@settings(max_examples=150, deadline=None)
@given(st.one_of(_filtered_factors(2), _filtered_factors(2, constant=True)))
def test_a_quotient_is_the_full_recurrence_wherever_that_holds_a_number(case):
    # a skipped term is a zero unless the full recurrence forms inf * 0.0 =
    # NaN, so only NaN slots and the sign of a zero may differ
    a, b = case[2][0], _nonzero_value(case[2][1])
    with np.errstate(all="ignore"):
        got = (a / b).coeffs
    full = _recurrence(a, b, bounded=False)
    number = ~np.isnan(full)
    np.testing.assert_array_equal(got[number], full[number])  # -0.0 == 0.0
    nonzero = number & (full != 0.0)
    np.testing.assert_array_equal(got[nonzero].view(np.int64), full[nonzero].view(np.int64))


@pytest.mark.parametrize("numerator, divisor, want", [
    ([1.0, 0.5, 3.0], [2.0, -0.0, 0.0], [0.5, 0.25, 1.5]),
    ([1.0, -0.0, 3.0], [2.0, -0.0, 0.0], [0.5, -0.0, 1.5]),  # the full recurrence: +0.0
    ([1e308, 1e308, 1.0], [1e-10, 0.0, 0.0], [math.inf, math.inf, 1.0 / 1e-10]),  # and NaN
    ([math.inf, 0.0, 0.0], [2.0, 0.0, 0.0], [math.inf, 0.0, 0.0]),  # and NaN
    ([1.0, 0.5, 3.0], [math.inf, 0.0, 0.0], [0.0, 0.0, 0.0]),
], ids=["elementwise", "negative-zero", "overflow", "infinite-constant", "infinite-divisor"])
def test_a_constant_divisor_divides_every_slot_elementwise(numerator, divisor, want):
    a = Jet(2, 1, numerator, 0 if numerator[1:] == [0.0, 0.0] else 2)
    b = Jet(2, 1, divisor, 0)
    assert not jets._space(2, 1)._div_table(0, 0, a.support)  # no recurrence term
    with np.errstate(all="ignore"):
        got = a / b
    np.testing.assert_array_equal(got.coeffs.view(np.int64), np.array(want).view(np.int64))
    assert (got.degree, got.support) == (a.degree, a.support)


def _assert_within_bounds(jet):
    dead = _dead_slots(jets._space(jet.order, jet.nvars), jet.degree, jet.support)
    np.testing.assert_array_equal(jet.coeffs[dead], 0.0)  # +0.0 or -0.0, not NaN


def _with_value(jet, value):
    """`jet` with `value` in its value slot at every point."""
    coeffs = jet.coeffs.copy()
    coeffs[0] = value
    return Jet(jet.order, jet.nvars, coeffs, jet.degree, jet.support)


@settings(max_examples=200, deadline=None)
@given(st.one_of(_filtered_factors(2), _filtered_factors(2, constant=True)),
       st.sampled_from([None, math.nan, math.inf, -math.inf]), st.integers(0, 3))
def test_every_operation_keeps_its_degree_and_support_bounds(case, divisor_value, direction):
    # later products skip the slots the bounds show to be zero, and a
    # derivative outside the support is a constant, so the bounds must hold
    # whatever the divisor's value
    a, b = case[2]
    b = _nonzero_value(b) if divisor_value is None else _with_value(b, divisor_value)
    with np.errstate(all="ignore"):
        results = [a * b, a / b, a + b, a - b, -a]
        if a.order:
            direction %= a.nvars
            results += [a.extract_derivative(direction),
                        jets.dot([a], [b], direction)]
        for result in results:
            _assert_within_bounds(result)


def test_a_quotient_forms_no_nan_where_its_bounds_show_a_zero():
    # the full recurrence forms inf * 0.0 = NaN in the slots above the value
    # (degree 0) and in slot (1, 1), which involves u_0 outside the support,
    # and a NaN divisor NaN in slot 2, above the numerator's degree 1
    for a, b, want in (
            (jets.constant(math.inf, 2, 1), jets.constant(2.0, 2, 1), [math.inf, 0.0, 0.0]),
            (jets.variable(0, 0.5, 2, 1), jets.constant(math.nan, 2, 1),
             [math.nan, math.nan, 0.0]),
            (Jet(2, 2, [1.0, 0.0, 1.0, 0.0, 0.0, 0.0], 1, 0b10),
             Jet(2, 2, [1.0, 0.0, math.inf, 0.0, 0.0, 0.0], 2, 0b10),
             [1.0, 0.0, -math.inf, 0.0, 0.0, math.inf])):
        with np.errstate(all="ignore"):
            got = a / b
        np.testing.assert_array_equal(got.coeffs.view(np.int64), np.array(want).view(np.int64))
        _assert_within_bounds(got)


@settings(max_examples=200, deadline=None)
@given(_filtered_factors(2, min_order=1), st.integers(0, 3))
def test_a_derivative_outside_the_support_is_a_zero_constant(case, direction):
    # d/du_i of a jet that does not involve u_i: degree 0, support 0 and
    # only +-0.0 slots, so a product with it is the elementwise one, and has
    # the bits of the table product at the bounds d/du_i would otherwise take
    order, nvars, (a, b) = case
    direction %= nvars
    outside = _dead_slots(jets._space(order, nvars), order, ~(1 << direction))
    a = Jet(order, nvars, np.where(outside.reshape((-1,) + (1,) * (a.coeffs.ndim - 1)),
                                   np.copysign(0.0, a.coeffs), a.coeffs),
            a.degree, a.support & ~(1 << direction))
    got = a.extract_derivative(direction)
    assert (got.order, got.degree, got.support) == (order - 1, 0, 0)
    assert not got.coeffs.any()
    table = Jet(order - 1, nvars, got.coeffs, max(a.degree - 1, 0), a.support)
    b = b.truncated(order - 1)
    for product, want in ((got * b, table * b), (b * got, b * table)):
        np.testing.assert_array_equal(product.coeffs.view(np.int64), want.coeffs.view(np.int64))
    # and so is d/du_i of a product that does not involve u_i
    dot = jets.dot([a], [a], direction)
    assert (dot.degree, dot.support) == (0, 0) and not dot.coeffs.any()


def _assert_directional_products_are_the_derivative_of_their_sum(case, count, direction):
    order, nvars, factors = case
    xs, ys, direction = factors[:count], factors[3:3 + count], direction % nvars
    with np.errstate(over="ignore", invalid="ignore"):
        got = jets.dot(xs, ys, direction)
        want = reduce(add, (x * y for x, y in zip(xs, ys))).extract_derivative(direction)
    assert (got.order, got.degree, got.support) == (want.order, want.degree, want.support)
    np.testing.assert_array_equal(got.coeffs.view(np.int64), want.coeffs.view(np.int64))


@settings(max_examples=150, deadline=None)
@given(_filtered_factors(6, min_order=1), st.integers(1, 3), st.integers(0, 3))
def test_directional_products_are_the_derivative_of_their_sum_bit_for_bit(case, count, direction):
    _assert_directional_products_are_the_derivative_of_their_sum(case, count, direction)


@settings(max_examples=100, deadline=None)
@given(_filtered_factors(6, min_order=1, constant=True), st.integers(1, 3), st.integers(0, 3))
def test_directional_products_with_constants_are_the_derivative_of_their_sum(
        case, count, direction):
    _assert_directional_products_are_the_derivative_of_their_sum(case, count, direction)


def _expanded(xs, ys, alternate):
    """The jet sum of the jet products x * y, the odd ones negated with
    `alternate`, as a cofactor expansion writes it."""
    total = None
    for k, (x, y) in enumerate(zip(xs, ys)):
        term = x * y
        total = term if k == 0 else total + (-term if alternate and k % 2 else term)
    return total


def _same_jet_but_nan_signs(got, want):
    assert (got.order, got.nvars, got.degree, got.support) \
        == (want.order, want.nvars, want.degree, want.support)
    assert got.coeffs.shape == want.coeffs.shape
    nan = np.isnan(want.coeffs)
    np.testing.assert_array_equal(np.isnan(got.coeffs), nan)
    np.testing.assert_array_equal(got.coeffs.view(np.int64)[~nan],
                                  want.coeffs.view(np.int64)[~nan])


@settings(max_examples=150, deadline=None)
@given(st.one_of(_filtered_factors(6), _filtered_factors(6, constant=True)),
       st.integers(1, 3), st.booleans(), st.integers(0, 3))
def test_a_sum_of_products_is_the_jet_expression_it_replaces_bit_for_bit(
        case, count, alternate, direction):
    # orders 0 to 4 in 1 to 4 variables, narrow degrees and supports,
    # degree-0 factors, one point, blocks and blocks of one that broadcast;
    # a subtracted term is a - b, which is a + (-b) but for the sign of a NaN
    order, nvars, factors = case
    xs, ys = factors[:count], factors[3:3 + count]
    with np.errstate(over="ignore", invalid="ignore"):
        want = _expanded(xs, ys, alternate)
        _same_jet_but_nan_signs(jets.dot(xs, iter(ys), alternate=alternate), want)
        if order:
            direction %= nvars
            _same_jet_but_nan_signs(jets.dot(iter(xs), ys, direction, alternate),
                                    want.extract_derivative(direction))


def test_a_sum_of_products_refuses_what_its_jet_expression_refuses():
    u, v = jets.variable(0, 0.5, 2, 2), jets.variable(1, [0.5], 2, 2)
    for xs, ys, message in (([], [], "at least one term"), ([u], [u, u], "zip"),
                            ([u], [v], "form mismatch"),
                            ([u], [jets.variable(0, 0.5, 3, 2)], "shape mismatch")):
        with pytest.raises(ValueError, match=message):
            jets.dot(xs, ys)
    with pytest.raises(ValueError, match="order-0"):
        jets.dot([u.truncated(0)], [u.truncated(0)], 0)
    with pytest.raises(ValueError, match="out of range"):
        jets.dot([u], [u], 2)


@pytest.mark.parametrize("order, nvars, shape", [(2, 2, (5,)), (3, 3, ()), (4, 4, (5,))])
def test_directional_products_add_in_the_order_of_the_sum(order, nvars, shape):
    # full jets of random values, whose sums round differently in another order
    rng = np.random.default_rng(order)
    size = jets._space(order, nvars).size
    xs, ys = ([Jet(order, nvars, rng.uniform(-4.0, 4.0, (size,) + shape)) for _ in range(3)]
              for _ in range(2))
    for direction in range(nvars):
        got = jets.dot(xs, ys, direction)
        want = reduce(add, (x * y for x, y in zip(xs, ys))).extract_derivative(direction)
        np.testing.assert_array_equal(got.coeffs.view(np.int64), want.coeffs.view(np.int64))


@pytest.mark.parametrize("points", [None, 1, 4])
def test_a_directional_product_with_no_terms_is_zero(points):
    # a constant flux times the derivative of a linear field reads no term
    value = 0.5 if points is None else np.linspace(0.1, 0.9, points)
    df = (2.0 * jets.variable(0, value, 3, 2) - 1.0).extract_derivative(0)
    flux = jets.constant_like(-3.0, df)
    assert jets._space(2, 2)._mul_table(0, 0, 0, 0, 0)[0].size == 0
    got = jets.dot([flux], [df], 0)
    want = (flux * df).extract_derivative(0)
    assert got.coeffs.shape == want.coeffs.shape and got.degree == got.support == 0
    np.testing.assert_array_equal(got.coeffs.view(np.int64), want.coeffs.view(np.int64))
    assert not got.coeffs.any()


def test_support_is_the_union_of_the_operands():
    u, v, w = (jets.variable(i, 0.4 + 0.1 * i, 3, 3) for i in range(3))
    c = jets.constant(2.0, 3, 3)
    assert (u.support, v.support, w.support, c.support) == (0b001, 0b010, 0b100, 0)
    assert (u + w).support == (u - w).support == (u * w).support == (u / w).support == 0b101
    assert (c + v).support == (c * v).support == (c / v).support == (2.0 / v).support == 0b010
    assert (u * 2.0).support == (u + 1.0).support == (-u).support == 0b001
    assert jets.sin(u * v).support == (jets.sqrt(v + 1.0) * u ** 3).support == 0b011
    assert jets.exp(c).support == (c * c).support == (v ** 0).support == 0
    assert (u * v).extract_derivative(1).support == (u * v).truncated(2).support == 0b011
    block = [jets.variable(i, [0.2, 0.7], 3, 3) for i in range(3)]
    assert (block[0] * block[2]).at(1).support == 0b101
    # a jet of degree 0 is constant, whatever it was derived from
    assert u.extract_derivative(0).support == u.truncated(0).support == 0
    assert jets.variable(1, 0.5, 0, 3).support == 0
    assert Jet(3, 3, (u * w).coeffs).support == 0b111


@pytest.mark.parametrize("order, nvars, shape", [(1, 1, (3,)), (2, 3, (4,)), (4, 4, (1,)),
                                                 (3, 2, ())])
def test_first_partials_are_the_stacked_extracted_derivatives(order, nvars, shape):
    rng = np.random.default_rng(order * 10 + nvars)
    size = jets._space(order, nvars).size
    values = [rng.uniform(-4.0, 4.0, (size,) + shape) for _ in range(3)]
    special = np.array([-0.0, 5e-324, -np.inf, np.nan])[:nvars]
    values[1][1:nvars + 1] = special.reshape((nvars,) + (1,) * len(shape))
    jet_list = [Jet(order, nvars, v) for v in values]
    got = jets.first_partials(jet_list)
    want = np.stack([np.stack([j.extract_derivative(i).value for j in jet_list], axis=-1)
                     for i in range(nvars)], axis=-2 if shape else 0)
    assert got.flags.c_contiguous and got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


# Each elementary function forms its derivative tower for a whole block
# (`jets._derivatives`); every point must get the rows, or the refusal, that
# the per-point reference in `_oracles` gives it. cos and cosh are refused
# naming their own kernel, where the reference names sin and sinh first.

FUNCTIONS = ("sin", "cos", "tan", "exp", "log", "sqrt", "sinh", "cosh")
TOWERS = {name: (getattr(jets, name), getattr(jets, f"_{name}_rows"),
                 getattr(_oracles, f"{name}_tower"), ())
          for name in FUNCTIONS}
TOWERS.update({f"power({shown})": (partial(jets.power, exponent=exponent), jets._power_rows,
                                   _oracles.power_tower, (exponent,))
               for shown, exponent in (("0.5", 0.5), ("1.5", 1.5), ("2.5", 2.5), ("-2.5", -2.5),
                                       ("1/3", 1 / 3))})
_OWN_KERNEL = {"cos": ("sin(", "cos("), "cosh": ("sinh(", "cosh(")}
_TOWER_SPECIALS = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
                   1e-100, 1.0, 1e200, 1e300, -1e300, math.inf, -math.inf, math.nan]


def _block_outcome(name, a):
    """(rows, None) from the block tower of `name` at the values of `a`, or
    (None, (message, index)) for its refusal."""
    _, tower, _, args = TOWERS[name]
    try:
        return np.array(jets._derivatives(tower, a, *args)), None
    except JetDomainError as err:
        return None, (str(err), err.index)


def _reference_outcome(name, a):
    """The same from the per-point reference tower."""
    _, _, tower, args = TOWERS[name]
    rows, error = _oracles.per_point_rows(tower, a.coeffs[0], a.order, *args)
    if error is not None and name in _OWN_KERNEL:
        error = (error[0].replace(*_OWN_KERNEL[name]), error[1])
    return rows, error


def _assert_same_outcome(got, want):
    assert got[1] == want[1]
    if want[1] is None:
        assert got[0].shape == want[0].shape
        np.testing.assert_array_equal(got[0].view(np.int64), want[0].view(np.int64))


def _assert_meets_the_reference(name, a):
    want = _reference_outcome(name, a)
    _assert_same_outcome(_block_outcome(name, a), want)
    if want[1] is None:  # the function composes the rows
        with np.errstate(all="ignore"):  # a row may be inf
            np.testing.assert_array_equal(TOWERS[name][0](a).coeffs.view(np.int64),
                                          jets._compose(a, want[0]).coeffs.view(np.int64))


@st.composite
def _tower_values(draw):
    """Values of mixed scale, from subnormals to 300 or to 1e300, with some
    specials: one point's scalar (None) or a block of 1, 7 or 256."""
    count = draw(st.sampled_from([None, 1, 7, 256]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    size = count or 1
    values = 10.0 ** rng.uniform(draw(st.sampled_from([-323.0, -150.0, -3.0])),
                                 draw(st.sampled_from([2.5, 300.0])), size)
    if draw(st.booleans()):
        values *= rng.choice([-1.0, 1.0], size)
    special = rng.random(size) < draw(st.sampled_from([0.0, 0.05, 1.0]))
    values = np.where(special, rng.choice(_TOWER_SPECIALS, size), values)
    return values[0] if count is None else values


@settings(max_examples=600, deadline=None)
@given(st.sampled_from(sorted(TOWERS)), st.integers(0, 4), _tower_values())
def test_block_towers_give_the_bits_of_the_per_point_towers(name, order, values):
    _assert_meets_the_reference(name, jets.variable(0, values, order, 1))


# A function of one coordinate, a0 + lambda u_i, composes on the slots k e_i
# alone (`jets._compose_along`); it must give Horner's jet products' bits
# (`_oracles.horner_compose`), a NaN's sign and payload aside: numpy's loops
# do not fix which of two NaN operands a result takes. Its towers are taken
# as they are, inf and NaN rows included, which the refusals of
# `_derivatives` would keep from a composition; a value out of the
# function's domain is replaced by 0.5.

_ARGUMENTS = st.one_of(st.sampled_from(_TOWER_SPECIALS + [-1.0, -2.5, 700.0, 710.0]),
                       st.floats())
_SLOPES = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, 1.0, -0.5, 1e10,
                                     -1e200, 1e300, math.inf, -math.inf, math.nan]),
                    st.floats())


def _nan_as_one(x):
    """The bits of x with every NaN made the same NaN."""
    return np.where(np.isnan(x), math.nan, x).view(np.int64)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(sorted(TOWERS)), st.integers(1, 4), st.integers(1, 4), st.data())
@example("exp", 2, 1, None).via("an infinite slot e_i times 0.0 is a NaN in slot e_i")
def test_a_function_of_one_coordinate_composes_as_horner_does(name, order, nvars, data):
    if data is None:
        direction, count, values, slopes, zeros = 0, 1, [700.0], [1e10], [0.0]
    else:
        direction = data.draw(st.integers(0, nvars - 1))
        count = data.draw(st.sampled_from([None, 1, 5, 33]))
        size = count or 1
        values = data.draw(st.lists(_ARGUMENTS, min_size=size, max_size=size))
        slopes = data.draw(st.lists(_SLOPES, min_size=size, max_size=size))
        zeros = data.draw(st.lists(st.sampled_from([0.0, -0.0]), min_size=size, max_size=size))
    _, tower, _, args = TOWERS[name]

    def in_domain(v):
        try:
            tower(np.array([v]), order, *args)
        except ArithmeticError:
            return False
        return True

    space = jets._space(order, nvars)
    coeffs = np.empty((space.size, len(values)))
    coeffs[:] = zeros  # the slots off the argument's bounds hold zeros of either sign
    with np.errstate(all="ignore"):
        coeffs[0] = [v if in_domain(v) else 0.5 for v in values]
        coeffs[space.axis_slots(direction)[1]] = slopes
        a = Jet(order, nvars, coeffs if count else coeffs[:, 0], 1, 1 << direction)
        derivs = tower(a.coeffs[0], order, *args)
        got, want = jets._compose(a, derivs), _oracles.horner_compose(a, derivs)
    assert (got.degree, got.support) == (want.degree, want.support) == (order, 1 << direction)
    assert got.coeffs.shape == want.coeffs.shape == a.coeffs.shape
    np.testing.assert_array_equal(_nan_as_one(got.coeffs), _nan_as_one(want.coeffs))


@pytest.mark.parametrize("name", [*FUNCTIONS, "power(1.5)"])
@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, -1.0, -0.0, 5e-324, 1e-100,
                                 1e300])
@pytest.mark.parametrize("size, where", [(1, 0), (7, 0), (7, 4), (256, 255)])
@pytest.mark.parametrize("order", [0, 2, 4])
def test_invalid_value_in_a_block_meets_the_per_point_outcome(name, bad, size, where, order):
    values = np.linspace(0.5, 2.0, size)
    values[where] = bad
    _assert_meets_the_reference(name, jets.variable(0, values, order, 1))


def test_a_middle_derivative_out_of_float_range_is_refused():
    # t^143.5 near t = 140.6: the third derivative overflows, the fourth is
    # smaller and finite; a check of the highest row alone would accept it,
    # and the composition would turn the inf into a NaN value
    v, exponent = 140.60315, 143.5
    rows = _oracles.power_tower(v, exponent, 4)
    assert math.isfinite(rows[0]) and math.isinf(rows[3]) and math.isfinite(rows[4])
    a = jets.variable(0, [2.0, v], 4, 1)
    for order in (3, 4):
        with pytest.raises(JetDomainError) as info:
            jets.power(a.truncated(order), exponent)
        assert (str(info.value), info.value.index) == (
            f"derivatives of power at {v!r} are out of float range", 1)
    assert jets.power(a.truncated(2), exponent).coeffs[2, 1] == rows[2] / 2.0


@pytest.mark.parametrize("name", sorted(TOWERS))
@pytest.mark.parametrize("value", [2.0, 1e-100, 1e100, 1e300, 0.0, -0.0])
def test_a_constant_reads_only_the_value_of_its_tower(name, value):
    # a constant's derivatives are never read: it composes to the order-0
    # value, signed zeros included, wherever that value is defined
    function = TOWERS[name][0]
    with np.errstate(all="ignore"):
        try:
            want = function(jets.constant([value], 0, 2)).coeffs[0]
        except JetDomainError as err:
            with pytest.raises(JetDomainError) as info:
                function(jets.constant([value], 4, 2))
            assert str(info.value) == str(err)
            return
        got = function(jets.constant([value], 4, 2))
    assert got.degree == 0
    np.testing.assert_array_equal(_bits(got), _bits(jets.constant(want, 4, 2)))


def test_sqrt_of_a_tiny_block_is_out_of_float_range():
    t = jets.variable(0, np.linspace(1.0, 2.0, 7), 4, 1)
    with pytest.raises(JetDomainError) as info:
        jets.sqrt(1e-100 * t)
    assert str(info.value).endswith("out of float range") and info.value.index == 0


def test_numpy_sin_and_cos_are_the_math_kernels_bit_for_bit():
    # every numpy kernel the towers use must give the bits of its `math`
    # kernel, and fail (NaN from a number) where `math` raises; a platform
    # whose numpy rounds differently fails here, not in a golden pin
    rng = np.random.default_rng(0)
    values = np.concatenate([sign * 10.0 ** rng.uniform(-3.0, 8.0, 25000)
                             for sign in (1.0, -1.0)])
    values[::1000] = [0.0, -0.0, math.inf, -math.inf, math.nan] * 10
    for kernel, block in jets._NUMPY_KERNELS.items():
        want = []
        for v in values.tolist():
            try:
                want.append(kernel(v))
            except (OverflowError, ValueError):
                want.append(math.nan)  # numpy's result must be NaN here
        want = np.array(want)
        with np.errstate(invalid="ignore"):
            for count in (1, 7, 256, len(values)):
                got = block(values[:count])
                np.testing.assert_array_equal(got, want[:count])  # NaN where `math` raises
                finite = ~np.isnan(want[:count])
                np.testing.assert_array_equal(got[finite].view(np.int64),
                                              want[:count][finite].view(np.int64))
            assert block(values[1]).view(np.int64) == want[1:2].view(np.int64)[0]


def test_log_tower_powers_are_pythons():
    # numpy's power rounds some squares, cubes and fourth powers apart from
    # Python's `v ** k`, which the log tower's rows divide by
    values = 10.0 ** np.random.default_rng(1).uniform(-70.0, 70.0, 40000)
    rows = jets._derivatives(jets._log_rows, jets.variable(0, values, 4, 1))
    for k, c in ((2, -1.0), (3, 2.0), (4, -6.0)):
        want = np.array([c / v ** k for v in values.tolist()])
        np.testing.assert_array_equal(rows[k].view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("name, values", [
    ("sqrt", [1e200, 3e250, 1e300]),  # s*v*v overflows to inf
    ("sqrt", [1e-80, 1e-90]),  # 0.9375 / (s*v*v*v) overflows to inf
    ("sin", [5e-324, 1e-310]), ("cos", [5e-324, 1e-310]),  # sin underflows
    ("sin", [math.inf]), ("cos", [math.nan]), ("tan", [1.5707963267948966, 1e300]),
    ("exp", [1000.0]), ("exp", [-1000.0, 700.0]), ("log", [1e100]), ("log", [5e-324, 1e308]),
    ("sqrt", [-1.0]), ("sinh", [1000.0]), ("cosh", [-710.0, 5e-324]),
    ("power(1.5)", [1e300]), ("power(-2.5)", [1e-300]), ("power(1/3)", [5e-324, 1e308]),
    ("power(0.5)", [1e300]),  # the second derivative underflows to zero
    ("power(2.5)", [1e-250]),  # the first underflows, then pow overflows
])
def test_block_towers_raise_no_numpy_warning(name, values):
    a = jets.variable(0, values, 4, 1)
    with np.errstate(all="warn"), warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _block_outcome(name, a)
    _assert_same_outcome(got, _reference_outcome(name, a))
