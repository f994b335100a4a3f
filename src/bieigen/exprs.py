"""Parser and evaluators for the map-definition expression language.

The grammar covers decimal literals, the named constant pi, variables, the
binary operators + - * / ^ (caret exponents must be constant), unary minus,
and the smooth elementary functions sin, cos, tan, exp, log, sqrt, sinh and
cosh. Precedence is ^ above unary minus above * / above + -, with + - * /
left-associative and ^ right-associative.

ASTs are immutable and hashable. `eval_jet` evaluates over jet-valued
environments, `eval_value` over plain floats; at order 0 the two agree
bit for bit because both sides call the same scalar kernels.
"""

import math
import re
from dataclasses import dataclass
from functools import partial
from typing import Mapping, Optional, Union

from . import jets
from .jets import Jet, JetDomainError, scalar_pow

__all__ = [
    "Expr", "Const", "Var", "Neg", "BinOp", "Pow", "Call",
    "ParseError", "UnboundVariableError",
    "parse", "to_source", "eval_jet", "eval_value", "variables_of", "FUNCTIONS",
]

FUNCTIONS = ("sin", "cos", "tan", "exp", "log", "sqrt", "sinh", "cosh")


class ParseError(ValueError):
    """Syntax error with a byte offset into the source text."""

    def __init__(self, message, position, expected=None):
        self.message = message
        self.position = position
        self.expected = expected
        hint = f" (expected {expected})" if expected else ""
        super().__init__(f"parse error at byte {position}: {message}{hint}")


class UnboundVariableError(KeyError):
    def __init__(self, name):
        self.name = name
        super().__init__(f"unbound variable '{name}'")


@dataclass(frozen=True)
class Const:
    value: float
    name: Optional[str] = None


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * /
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Pow:
    base: "Expr"
    exponent: float  # constant by grammar; folded at parse time


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Expr"


Expr = Union[Const, Var, Neg, BinOp, Pow, Call]


# --------------------------------------------------------------------------
# tokenizer / parser
# --------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))")


def _byte_offset(source, char_pos):
    return len(source[:char_pos].encode("utf-8"))


def _tokenize(source):
    tokens = []
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            stripped = source[pos:].lstrip()
            if not stripped:
                break
            bad = len(source) - len(stripped)
            raise ParseError(f"unexpected character {source[bad]!r}",
                             _byte_offset(source, bad))
        if m.lastgroup == "num":
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.lastgroup == "ident":
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append((m.group("op"), m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(source)))
    return tokens


class _Parser:
    def __init__(self, source):
        self.source = source
        self.tokens = _tokenize(source)
        self.k = 0

    def peek(self):
        return self.tokens[self.k]

    def advance(self):
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def fail(self, message, pos, expected=None):
        raise ParseError(message, _byte_offset(self.source, pos), expected)

    def parse(self):
        expr = self.expression()
        kind, text, pos = self.peek()
        if kind != "end":
            self.fail(f"trailing input {text!r}", pos, expected="end of input")
        return expr

    def expression(self):
        node = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            node = BinOp(op, node, self.term())
        return node

    def term(self):
        node = self.unary()
        while self.peek()[0] in ("*", "/"):
            op = self.advance()[0]
            node = BinOp(op, node, self.unary())
        return node

    def unary(self):
        if self.peek()[0] == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek()[0] != "^":
            return base
        _, _, caret_pos = self.advance()
        exponent_ast = self.unary()
        try:
            exponent = eval_value(exponent_ast, {})
        except UnboundVariableError:
            self.fail("exponent must be a constant", caret_pos,
                      expected="constant exponent")
        except JetDomainError as err:
            self.fail(f"invalid constant exponent ({err})", caret_pos)
        return Pow(base, exponent)

    def atom(self):
        kind, text, pos = self.peek()
        if kind == "num":
            self.advance()
            return Const(float(text))
        if kind == "ident":
            self.advance()
            if self.peek()[0] == "(":
                if text not in FUNCTIONS:
                    self.fail(f"unknown function '{text}'", pos,
                              expected="one of " + ", ".join(FUNCTIONS))
                self.advance()
                arg = self.expression()
                k2, t2, p2 = self.peek()
                if k2 != ")":
                    self.fail("unbalanced parentheses", p2, expected="')'")
                self.advance()
                return Call(text, arg)
            if text == "pi":
                return Const(math.pi, "pi")
            return Var(text)
        if kind == "(":
            self.advance()
            expr = self.expression()
            k2, t2, p2 = self.peek()
            if k2 != ")":
                self.fail("unbalanced parentheses", p2, expected="')'")
            self.advance()
            return expr
        self.fail(f"unexpected token {text!r}" if kind != "end" else "unexpected end of input",
                  pos, expected="operand")


def parse(source: str) -> Expr:
    """Parse source text into an AST. Raises ParseError on malformed input."""
    return _Parser(source).parse()


# --------------------------------------------------------------------------
# printing
# --------------------------------------------------------------------------

_LEVEL_ADD, _LEVEL_MUL, _LEVEL_NEG, _LEVEL_POW, _LEVEL_ATOM = 1, 2, 3, 4, 5


def _level(e):
    if isinstance(e, BinOp):
        return _LEVEL_ADD if e.op in "+-" else _LEVEL_MUL
    if isinstance(e, Neg):
        return _LEVEL_NEG
    if isinstance(e, Pow):
        return _LEVEL_POW
    return _LEVEL_ATOM


def _wrap(e, minimum):
    text = to_source(e)
    return f"({text})" if _level(e) < minimum else text


def _number(value):
    if value == int(value) and abs(value) < 1e16:
        return str(int(value))
    return repr(value)


def to_source(e: Expr) -> str:
    """Serialize an AST; reparsing yields a structurally identical tree."""
    if isinstance(e, Const):
        return e.name if e.name else repr(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Neg):
        return "-" + _wrap(e.operand, _LEVEL_NEG)
    if isinstance(e, BinOp):
        if e.op in "+-":
            return f"{_wrap(e.left, _LEVEL_ADD)} {e.op} {_wrap(e.right, _LEVEL_ADD + 1)}"
        return f"{_wrap(e.left, _LEVEL_MUL)}{e.op}{_wrap(e.right, _LEVEL_MUL + 1)}"
    if isinstance(e, Pow):
        return f"{_wrap(e.base, _LEVEL_ATOM)}^{_number(e.exponent)}"
    if isinstance(e, Call):
        return f"{e.func}({to_source(e.arg)})"
    raise TypeError(f"not an expression node: {e!r}")


def variables_of(e: Expr) -> frozenset:
    """Set of variable names appearing in the AST."""
    if isinstance(e, Var):
        return frozenset((e.name,))
    if isinstance(e, Neg):
        return variables_of(e.operand)
    if isinstance(e, BinOp):
        return variables_of(e.left) | variables_of(e.right)
    if isinstance(e, Pow):
        return variables_of(e.base)
    if isinstance(e, Call):
        return variables_of(e.arg)
    return frozenset()


# --------------------------------------------------------------------------
# evaluation
# --------------------------------------------------------------------------

_JET_FUNCS = {
    "sin": jets.sin, "cos": jets.cos, "tan": jets.tan, "exp": jets.exp,
    "log": jets.log, "sqrt": jets.sqrt, "sinh": jets.sinh, "cosh": jets.cosh,
}


def eval_jet(e: Expr, env: Mapping[str, Jet]) -> Jet:
    """Evaluate over jet-valued variables; all env jets must share (order, nvars)."""
    if not env:
        raise ValueError("jet environment must bind at least one variable")
    probe = next(iter(env.values()))
    return _eval_jet(e, env, probe)


def _eval_jet(e, env, probe):
    if isinstance(e, Const):
        return jets.constant_like(e.value, probe)
    if isinstance(e, Var):
        jet = env.get(e.name)
        if jet is None:
            raise UnboundVariableError(e.name)
        return jet
    if isinstance(e, Neg):
        return -_eval_jet(e.operand, env, probe)
    if isinstance(e, BinOp):
        left = _eval_jet(e.left, env, probe)
        right = _eval_jet(e.right, env, probe)
        if e.op == "+":
            return left + right
        if e.op == "-":
            return left - right
        if e.op == "*":
            return left * right
        return left / right
    if isinstance(e, Pow):
        return jets.power(_eval_jet(e.base, env, probe), e.exponent)
    if isinstance(e, Call):
        return _JET_FUNCS[e.func](_eval_jet(e.arg, env, probe))
    raise TypeError(f"not an expression node: {e!r}")


def _scalar_log(x):
    if x <= 0.0:
        raise JetDomainError(f"log of non-positive value {x}")
    return math.log(x)


def _scalar_sqrt(x):
    if x < 0.0:
        raise JetDomainError(f"sqrt of negative value {x}")
    return math.sqrt(x)


# guarded like the jet functions: overflow or a non-finite argument raises
# JetDomainError
_VALUE_FUNCS = {
    **{name: partial(jets._kernel, getattr(math, name))
       for name in ("sin", "cos", "tan", "exp", "sinh", "cosh")},
    "log": _scalar_log, "sqrt": _scalar_sqrt,
}


def eval_value(e: Expr, env: Mapping[str, float]) -> float:
    """Plain floating-point evaluation (shares scalar kernels with eval_jet)."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        if e.name not in env:
            raise UnboundVariableError(e.name)
        return float(env[e.name])
    if isinstance(e, Neg):
        return -eval_value(e.operand, env)
    if isinstance(e, BinOp):
        left = eval_value(e.left, env)
        right = eval_value(e.right, env)
        if e.op == "+":
            return left + right
        if e.op == "-":
            return left - right
        if e.op == "*":
            return left * right
        if right == 0.0:
            raise JetDomainError("division by zero")
        return left / right
    if isinstance(e, Pow):
        return scalar_pow(eval_value(e.base, env), e.exponent)
    if isinstance(e, Call):
        return _VALUE_FUNCS[e.func](eval_value(e.arg, env))
    raise TypeError(f"not an expression node: {e!r}")
