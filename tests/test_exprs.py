import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bieigen import jets
from bieigen.exprs import (BinOp, Call, Const, Neg, ParseError, Pow,
                           UnboundVariableError, Var, eval_jet, eval_value,
                           parse, to_source, variables_of)

from _oracles import fd_partial, random_point, random_smooth_source


# --------------------------------------------------------------------------
# parsing structure
# --------------------------------------------------------------------------

def test_parse_zero_literal():
    assert parse("0") == Const(0.0)


def test_parse_nested_call_structure():
    expected = BinOp(
        "/",
        Call("cos", BinOp("*", Call("sqrt", Const(2.0)), Var("t"))),
        Call("sqrt", Const(2.0)))
    assert parse("cos(sqrt(2)*t)/sqrt(2)") == expected


def test_precedence_and_associativity():
    assert parse("1 - 2 - 3") == BinOp("-", BinOp("-", Const(1.0), Const(2.0)),
                                       Const(3.0))
    assert parse("1 + 2*3") == BinOp("+", Const(1.0),
                                     BinOp("*", Const(2.0), Const(3.0)))
    assert parse("2*t^2") == BinOp("*", Const(2.0), Pow(Var("t"), 2.0))
    # caret binds tighter than unary minus
    assert parse("-t^2") == Neg(Pow(Var("t"), 2.0))
    # caret is right-associative; constant exponents fold
    assert parse("t^2^3") == Pow(Var("t"), 8.0)
    assert parse("t^-2") == Pow(Var("t"), -2.0)
    assert parse("t^(3/2)") == Pow(Var("t"), 1.5)
    assert parse("(-t)^2") == Pow(Neg(Var("t")), 2.0)


def test_pi_is_a_named_constant():
    ast = parse("pi")
    assert ast == Const(math.pi, "pi")
    assert eval_value(ast, {}) == math.pi
    assert to_source(ast) == "pi"


def test_parse_error_position_and_hint():
    with pytest.raises(ParseError) as err:
        parse("1 + ")
    assert err.value.position == 4
    assert err.value.expected == "operand"


@pytest.mark.parametrize("source", [
    "(1 + 2", "1)", "foo(1)", "sin 1)", "1 2", "t ^ u", "*3", "1..2",
    "cos(", "", "2 +* 3",
])
def test_malformed_inputs_raise(source):
    with pytest.raises(ParseError) as err:
        parse(source)
    assert 0 <= err.value.position <= len(source.encode("utf-8"))


def test_unknown_function_is_reported():
    with pytest.raises(ParseError) as err:
        parse("arctan(t)")
    assert "arctan" in str(err.value)
    assert err.value.position == 0


def test_variable_exponent_rejected():
    with pytest.raises(ParseError):
        parse("2^t")


# --------------------------------------------------------------------------
# printing round trip
# --------------------------------------------------------------------------

@pytest.mark.parametrize("source", [
    "0", "cos(sqrt(2)*t)/sqrt(2)", "1 + 2*3", "-t^2", "a - b - c",
    "a/(b*c)", "(a + b)*c", "sin(t)^2 + cos(t)^2", "-(u + v)",
    "2.5e-3*t", "u^-1", "(x^2)^3", "pi*t/2",
])
def test_round_trip_examples(source):
    first = parse(source)
    assert parse(to_source(first)) == first


_names = st.sampled_from(["t", "u", "v", "w"])
_numbers = st.floats(min_value=0.0, max_value=100.0,
                     allow_nan=False, allow_infinity=False)


def _ast_strategy():
    base = st.one_of(
        _numbers.map(Const),
        _names.map(Var),
        st.just(Const(math.pi, "pi")))

    def extend(children):
        return st.one_of(
            children.map(Neg),
            st.tuples(st.sampled_from("+-*/"), children, children).map(
                lambda t: BinOp(*t)),
            st.tuples(children, st.sampled_from([2.0, 3.0, -1.0, 0.5])).map(
                lambda t: Pow(*t)),
            st.tuples(st.sampled_from(["sin", "cos", "exp", "sqrt"]), children).map(
                lambda t: Call(*t)))

    return st.recursive(base, extend, max_leaves=12)


@settings(max_examples=150, deadline=None)
@given(_ast_strategy())
def test_print_parse_round_trip_property(ast):
    printed = to_source(ast)
    reparsed = parse(printed)
    assert reparsed == ast
    # stability: one more print/parse cycle is a fixed point
    assert parse(to_source(reparsed)) == reparsed


# --------------------------------------------------------------------------
# evaluation
# --------------------------------------------------------------------------

def test_eval_jet_polynomial():
    env = {"t": jets.variable(0, 3.0, 2, 1)}
    j = eval_jet(parse("t^2"), env)
    assert list(j.coeffs) == [9.0, 6.0, 1.0]
    assert j.derivative((1,)) == 6.0
    assert j.derivative((2,)) == 2.0


def test_eval_jet_sin_tower():
    env = {"t": jets.variable(0, 0.0, 4, 1)}
    j = eval_jet(parse("sin(t)"), env)
    assert [j.derivative((k,)) for k in range(5)] == [0.0, 1.0, 0.0, -1.0, 0.0]


def test_eval_jet_exp_uv_frozen_oracle_values():
    # frozen output of the Richardson central-difference oracle at (0.3, 0.7)
    expected = {
        (0, 0): 1.2336780599567432,
        (1, 0): 0.8635746419697702,
        (0, 1): 0.37010341798719243,
        (2, 0): 0.6045022503305594,
        (1, 1): 1.492750452599297,
        (0, 2): 0.11103102615095395,
    }
    env = {"u": jets.variable(0, 0.3, 2, 2), "v": jets.variable(1, 0.7, 2, 2)}
    j = eval_jet(parse("exp(u*v)"), env)
    for alpha, value in expected.items():
        assert j.derivative(alpha) == pytest.approx(value, abs=1e-7)


def test_unbound_variable():
    with pytest.raises(UnboundVariableError):
        eval_jet(parse("t + s"), {"t": jets.variable(0, 1.0, 2, 1)})
    with pytest.raises(UnboundVariableError):
        eval_value(parse("q"), {})


def test_eval_domain_errors():
    from bieigen.jets import JetDomainError
    env = {"t": jets.variable(0, -2.0, 2, 1)}
    with pytest.raises(JetDomainError):
        eval_jet(parse("log(t)"), env)
    with pytest.raises(JetDomainError):
        eval_jet(parse("1/(t + 2)"), env)
    with pytest.raises(JetDomainError):
        eval_value(parse("sqrt(t)"), {"t": -1.0})
    with pytest.raises(JetDomainError, match=r"exp\(1000.0\) is out of float range"):
        eval_value(parse("exp(1000)"), {})
    with pytest.raises(JetDomainError, match="out of float range"):
        eval_value(parse("sin(t)"), {"t": math.inf})


def test_order0_evaluation_is_bit_identical():
    rng = np.random.default_rng(11)
    for _ in range(30):
        source = random_smooth_source(rng, ("u", "v"))
        ast = parse(source)
        point = random_point(rng, 2)
        env = {"u": jets.variable(0, point[0], 0, 2),
               "v": jets.variable(1, point[1], 0, 2)}
        assert eval_jet(ast, env).value == eval_value(ast, dict(zip(("u", "v"), point)))


def test_jet_coefficients_match_finite_differences():
    rng = np.random.default_rng(23)
    for _ in range(8):
        source = random_smooth_source(rng, ("u", "v"))
        ast = parse(source)
        point = random_point(rng, 2)
        env = {"u": jets.variable(0, point[0], 4, 2),
               "v": jets.variable(1, point[1], 4, 2)}
        j = eval_jet(ast, env)

        def plain(p, ast=ast):
            return eval_value(ast, {"u": p[0], "v": p[1]})

        for alpha in [(1, 0), (0, 2), (2, 1), (1, 3), (4, 0), (2, 2)]:
            fd = fd_partial(plain, point, alpha)
            assert j.derivative(alpha) == pytest.approx(
                fd, abs=1e-6 * max(1.0, abs(fd)))


def test_variables_of():
    assert variables_of(parse("sin(u)*v + pi")) == frozenset({"u", "v"})
    assert variables_of(parse("2 + 2")) == frozenset()


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="0123456789.+-*/^()abcpqist_ e", max_size=40))
def test_parser_is_total_on_arbitrary_text(source):
    # arbitrary input either parses (and then round-trips) or raises
    # ParseError with an in-range position; nothing else may escape
    try:
        ast = parse(source)
    except ParseError as err:
        assert 0 <= err.position <= len(source.encode("utf-8"))
        return
    assert parse(to_source(ast)) == ast
