import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bieigen import build_map, jets
from bieigen.analysis import SphereMap, analyze_samples
from bieigen.charts import Chart
from bieigen.exprs import (BinOp, Call, Const, Expr, Neg, ParseError, Pow,
                           UnboundVariableError, Var, eval_jet, eval_value, intern,
                           is_variable, parse, to_source, variables_of)

from _oracles import mp_partial, random_point, random_smooth_source
from test_curved import sphere_manifest


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


@pytest.mark.parametrize("source, position", [
    ("1e309", 0), ("2*1e400", 2), ("t^(1e200*1e200)", 1),
    ("t^(1e200*1e200 - 1e200*1e200)", 1),
])
def test_non_finite_numbers_are_rejected(source, position):
    # an overflowing literal would print as 'inf' and reparse as a variable
    with pytest.raises(ParseError) as err:
        parse(source)
    assert err.value.position == position


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
    with pytest.raises(JetDomainError, match=r"^sqrt of non-positive value -1.0$"):
        eval_value(parse("sqrt(t)"), {"t": -1.0})
    with pytest.raises(JetDomainError, match=r"exp\(1000.0\) is out of float range"):
        eval_value(parse("exp(1000)"), {})
    with pytest.raises(JetDomainError, match="out of float range"):
        eval_value(parse("sin(t)"), {"t": math.inf})


_ONE_VARIABLE_SOURCES = ["sin(t)", "cos(t)", "tan(t)", "exp(t)", "log(t)", "sqrt(t)", "sinh(t)",
                         "cosh(t)", "t^1.5", "t^3", "t^-1", "t^-2",
                         "log(1e100*t)", "log(1e-100*t)", "sqrt(1e-100*t)"]
_EVERY_VALUE = [1.5, 1000.0, -1000.0, 1e-310, 0.0, -0.0, -1.0, math.inf, -math.inf, math.nan]


def _outcome(evaluate):
    """(the bits of the value, None), or (None, the message of the refusal)."""
    from bieigen.jets import JetDomainError
    try:
        return struct.pack("d", evaluate()), None
    except JetDomainError as err:
        return None, str(err)


@pytest.mark.parametrize("source", _ONE_VARIABLE_SOURCES)
def test_order0_jets_meet_eval_value_at_every_value(source):
    # the value, or the error, of eval_value is the order-0 jet's
    ast = parse(source)
    for t in _EVERY_VALUE:
        jet = jets.variable(0, t, 0, 1)
        with np.errstate(over="ignore"):  # as the CLI and the analysis run: 1/1e-310 is inf
            got = _outcome(lambda: eval_jet(ast, {"t": jet}).value)
        assert got == _outcome(lambda: eval_value(ast, {"t": t})), t
    assert eval_value(parse("log(1e100*t)"), {"t": 1.5}) == math.log(1.5e100)


@pytest.mark.parametrize("source", _ONE_VARIABLE_SOURCES)
def test_jets_of_every_order_keep_the_value_of_eval_value(source):
    # a jet that is formed has eval_value's value, the sign of a zero and an
    # inf included; above order 0 a jet may also be refused for a derivative
    # that is undefined or out of float range where the value is not
    ast = parse(source)
    for t in _EVERY_VALUE:
        want = _outcome(lambda: eval_value(ast, {"t": t}))
        for order in range(5):
            jet = jets.variable(0, t, order, 1)
            with np.errstate(over="ignore", invalid="ignore"):  # as the CLI runs
                got = _outcome(lambda: eval_jet(ast, {"t": jet}).value)
            if order == 0 or got[1] is None or want[1] is not None:
                assert got == want, (t, order)


def test_order0_evaluation_is_bit_identical():
    rng = np.random.default_rng(11)
    for _ in range(30):
        source = random_smooth_source(rng, ("u", "v"))
        ast = parse(source)
        point = random_point(rng, 2)
        env = {"u": jets.variable(0, point[0], 0, 2),
               "v": jets.variable(1, point[1], 0, 2)}
        assert eval_jet(ast, env).value == eval_value(ast, dict(zip(("u", "v"), point)))


def test_jet_coefficients_match_the_high_precision_oracle():
    rng = np.random.default_rng(23)
    for _ in range(8):
        source = random_smooth_source(rng, ("u", "v"))
        ast = parse(source)
        point = random_point(rng, 2)
        env = {"u": jets.variable(0, point[0], 4, 2),
               "v": jets.variable(1, point[1], 4, 2)}
        j = eval_jet(ast, env)
        for alpha in [(1, 0), (0, 2), (2, 1), (1, 3), (4, 0), (2, 2)]:
            assert j.derivative(alpha) == pytest.approx(
                mp_partial(ast, ("u", "v"), point, alpha), rel=1e-9, abs=1e-12), alpha


def test_variables_of():
    assert variables_of(parse("sin(u)*v + pi")) == frozenset({"u", "v"})
    assert variables_of(parse("2 + 2")) == frozenset()


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="0123456789.+-*/^()abcpqist_ e", max_size=40))
@example("1e309")
@example("t^(1e200*1e200)")
def test_parser_is_total_on_arbitrary_text(source):
    # arbitrary input either parses (and then round-trips) or raises
    # ParseError with an in-range position; nothing else may escape
    try:
        ast = parse(source)
    except ParseError as err:
        assert 0 <= err.position <= len(source.encode("utf-8"))
        return
    assert parse(to_source(ast)) == ast


def _parses_as_itself(name):
    try:
        return parse(name) == Var(name)
    except ParseError:
        return False


_NAME_PIECES = st.sampled_from(["pi", "sin", "cos", "sqrt", "x", "u1", "_", "_t", "0",
                                "1e5", "2", ".", "(", ")", "+", "^", " ", "\t", "\n",
                                "\u00e9", "\u03c0", "\u0663", "\uff58", ""])
_NAMES = st.one_of(
    st.text(alphabet=st.characters(max_codepoint=0x7f), max_size=8),
    st.text(max_size=4),
    st.lists(_NAME_PIECES, max_size=4).map("".join),
    st.from_regex(r"[A-Za-z_][A-Za-z_0-9]*", fullmatch=True))


@settings(max_examples=500, deadline=None)
@given(_NAMES)
@example("pi")
@example("")
@example(" x")
@example("x\n")
def test_is_variable_is_whether_the_parser_reads_the_name_as_itself(name):
    assert is_variable(name) == _parses_as_itself(name)


def test_is_variable_refuses_what_is_not_text():
    assert not is_variable(None) and not is_variable(3) and not is_variable(b"x")


# --------------------------------------------------------------------------
# shared subtrees
# --------------------------------------------------------------------------

def test_one_memo_gives_the_bits_of_each_root_alone():
    # S^4(1/sqrt 2) in S^5: the components are the immersion's roots and share
    # the prefixes sin(a)*sin(b)*...
    _, smap = build_map(sphere_manifest(4, lifted=True))
    immersion = smap.chart.metric.immersion
    assert all(c is x for c, x in zip(smap.components, immersion))
    roots = [*immersion, *smap.components]
    points = np.random.default_rng(5).uniform(0.4, 1.2, size=(6, 4))
    env, memo = smap.chart.param_jets(points, 4), {}
    shared = [eval_jet(e, env, memo) for e in roots]
    nodes = set()

    def walk(e):
        nodes.add(id(e))
        for child in vars(e).values():
            if isinstance(child, Expr.__args__):
                walk(child)
    for e in roots:
        walk(e)
    assert len(memo) == len(nodes)  # each distinct node evaluated once
    for e, jet in zip(roots, shared):
        alone = eval_jet(e, smap.chart.param_jets(points, 4))
        np.testing.assert_array_equal(jet.coeffs.view(np.int64), alone.coeffs.view(np.int64))


def test_interning_keeps_signed_zeros_apart():
    t = Var("t")
    plus, minus = BinOp("-", Const(0.0), Const(0.0)), BinOp("-", Const(-0.0), Const(0.0))
    assert plus == minus  # dataclass equality merges them
    shared = intern([plus, minus, BinOp("-", Const(0.0), Const(0.0))])
    assert shared[0] is not shared[1] and shared[2] is shared[0]
    chart = Chart.explicit(["t"], [(0.0, 1.0)], [["1"]])
    smap = SphereMap.build(chart, [plus, minus, Const(-0.0), t], target="euclidean")
    assert smap.components[0] is not smap.components[1]
    phi = analyze_samples(smap, [(0.25,), (0.5,)]).phi
    assert np.signbit(phi).tolist() == [[False, True, True, False]] * 2
