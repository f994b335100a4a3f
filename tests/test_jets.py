import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bieigen import jets
from bieigen.jets import Jet, JetDomainError

from _oracles import fd_partial


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
    t = jets.variable(0, 0.4, 4, 1)
    f = jets.exp(2.0 * t)
    d2 = f.extract_derivative(0).extract_derivative(0)
    expected = fd_partial(lambda p: math.exp(2.0 * p[0]), (0.4,), (2,))
    assert d2.value == pytest.approx(expected, abs=1e-8)
    assert d2.value == pytest.approx(4.0 * math.exp(0.8), abs=1e-12)


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
    for _ in range(10):
        x0 = float(rng.uniform(0.2, 1.0))
        t = jets.variable(0, x0, 4, 1)
        f = jets.sin(jets.exp(0.4 * t) + t * t)

        def plain(p):
            return math.sin(math.exp(0.4 * p[0]) + p[0] * p[0])

        for k in range(5):
            fd = fd_partial(plain, (x0,), (k,))
            jet_val = f.derivative((k,))
            assert jet_val == pytest.approx(fd, rel=1e-6, abs=1e-6)


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


@pytest.mark.parametrize("func, value", [
    (jets.exp, 1000.0), (jets.sinh, 1000.0), (jets.cosh, -1000.0),
    (jets.sin, math.inf), (jets.cos, math.inf), (jets.tan, math.inf),
    (lambda t: jets.power(t, 1.5), 1e300), (lambda t: jets.power(t, -2.5), 1e-300),
], ids=["exp", "sinh", "cosh", "sin", "cos", "tan", "power_large", "power_negative_exponent"])
def test_out_of_float_range_is_a_domain_error(func, value):
    with pytest.raises(JetDomainError, match="out of float range"):
        func(jets.variable(0, value, 2, 1))


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

    def plain(p):
        return (p[0] * p[0] + 1.0) ** 1.5

    for k in range(5):
        assert f.derivative((k,)) == pytest.approx(
            fd_partial(plain, (x0,), (k,)), rel=1e-6, abs=1e-6)


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
