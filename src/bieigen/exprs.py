"""Parser and evaluators for the map-definition expression language.

The grammar covers decimal literals, the named constant pi, variables, the
binary operators + - * / ^ (caret exponents must be constant), unary minus,
and the smooth elementary functions sin, cos, tan, exp, log, sqrt, sinh and
cosh. Precedence is ^ above unary minus above * / above + -, with + - * /
left-associative and ^ right-associative.

ASTs are immutable and hashable. `eval_jet` evaluates over jet-valued
environments, `eval_value` over plain floats. At order 0 the two agree bit
for bit, because `eval_value` evaluates a function call and a power as an
order-0 jet, and the value slot of a jet product is the product of the two
values, a signed zero included. `intern`
makes equal subtrees of several ASTs one object, and `eval_jet` evaluates
each object once per memo, so a subtree shared by the roots of a map is
evaluated once per block. The parser refuses an expression that nests
deeper than MAX_DEPTH, so every recursive walk of a tree it returns fits
the interpreter's stack.
"""

import math
import operator
import re
import struct
from dataclasses import dataclass, fields
from typing import Mapping, Optional, Union

import numpy as np

from . import jets
from .jets import Jet, JetDomainError

__all__ = [
    "Expr", "Const", "Var", "Neg", "BinOp", "Pow", "Call",
    "ParseError", "UnboundVariableError",
    "parse", "is_variable", "to_source", "intern", "eval_jet", "eval_value",
    "variables_of",
    "FUNCTIONS", "MAX_DEPTH",
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

_IDENT = r"[A-Za-z_][A-Za-z_0-9]*"
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    rf"|(?P<ident>{_IDENT})"
    r"|(?P<op>[-+*/^()]))")
_IDENT_RE = re.compile(_IDENT)


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


MAX_DEPTH = 100
"""How deep an expression may nest: at most this many parentheses, function
calls, unary minuses and exponents open at once, and at most this many
operator or function nodes on any path from the root of its tree to a leaf.
The parser recurses six times per open parenthesis and the tree walkers
(`intern`, `variables_of`, `eval_jet`, `eval_value`, `to_source`) once or
twice per level, so at this bound a manifest expression needs about 620
frames below `cli.main`, inside Python's default limit of 1000."""


class _Parser:
    """Recursive descent; each rule returns (node, tree depth)."""

    def __init__(self, source):
        self.source = source
        self.tokens = _tokenize(source)
        self.k = 0
        self.open = 0  # parentheses, calls, minuses and exponents now open

    def peek(self):
        return self.tokens[self.k]

    def advance(self):
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def fail(self, message, pos, expected=None):
        raise ParseError(message, _byte_offset(self.source, pos), expected)

    def too_deep(self, pos):
        self.fail(f"expression nests more than {MAX_DEPTH} levels deep", pos)

    def enter(self, pos):
        """Open a parenthesis, call, unary minus or exponent at `pos`."""
        self.open += 1
        if self.open > MAX_DEPTH:
            self.too_deep(pos)

    def above(self, depth, pos):
        """The depth of a node made at `pos` over a child `depth` deep."""
        if depth >= MAX_DEPTH:
            self.too_deep(pos)
        return depth + 1

    def parse(self):
        expr, _ = self.expression()
        kind, text, pos = self.peek()
        if kind != "end":
            self.fail(f"trailing input {text!r}", pos, expected="end of input")
        return expr

    def expression(self):
        node, depth = self.term()
        while self.peek()[0] in ("+", "-"):
            op, _, pos = self.advance()
            right, right_depth = self.term()
            node, depth = BinOp(op, node, right), self.above(max(depth, right_depth), pos)
        return node, depth

    def term(self):
        node, depth = self.unary()
        while self.peek()[0] in ("*", "/"):
            op, _, pos = self.advance()
            right, right_depth = self.unary()
            node, depth = BinOp(op, node, right), self.above(max(depth, right_depth), pos)
        return node, depth

    def unary(self):
        kind, _, pos = self.peek()
        if kind != "-":
            return self.power()
        self.advance()
        self.enter(pos)
        operand, depth = self.unary()
        self.open -= 1
        return Neg(operand), self.above(depth, pos)

    def power(self):
        base, depth = self.atom()
        if self.peek()[0] != "^":
            return base, depth
        _, _, caret_pos = self.advance()
        self.enter(caret_pos)
        exponent_ast, _ = self.unary()
        self.open -= 1
        try:
            exponent = eval_value(exponent_ast, {})
        except UnboundVariableError:
            self.fail("exponent must be a constant", caret_pos,
                      expected="constant exponent")
        except JetDomainError as err:
            self.fail(f"invalid constant exponent ({err})", caret_pos)
        if not math.isfinite(exponent):
            self.fail("constant exponent is not finite", caret_pos,
                      expected="finite constant exponent")
        return Pow(base, exponent), self.above(depth, caret_pos)

    def parenthesized(self, pos):
        """The expression after an opening parenthesis at `pos`, and its
        closing parenthesis."""
        self.enter(pos)
        expr = self.expression()
        k2, t2, p2 = self.peek()
        if k2 != ")":
            self.fail("unbalanced parentheses", p2, expected="')'")
        self.advance()
        self.open -= 1
        return expr

    def atom(self):
        kind, text, pos = self.peek()
        if kind == "num":
            value = float(text)
            if not math.isfinite(value):
                self.fail("numeric literal out of range", pos,
                          expected="a finite number")
            self.advance()
            return Const(value), 0
        if kind == "ident":
            self.advance()
            if self.peek()[0] == "(":
                if text not in FUNCTIONS:
                    self.fail(f"unknown function '{text}'", pos,
                              expected="one of " + ", ".join(FUNCTIONS))
                arg, depth = self.parenthesized(self.advance()[2])
                return Call(text, arg), self.above(depth, pos)
            if text == "pi":
                return Const(math.pi, "pi"), 0
            return Var(text), 0
        if kind == "(":
            return self.parenthesized(self.advance()[2])
        self.fail(f"unexpected token {text!r}" if kind != "end" else "unexpected end of input",
                  pos, expected="operand")


def parse(source: str) -> Expr:
    """Parse source text into an AST. Raises ParseError on malformed input."""
    return _Parser(source).parse()


def is_variable(name) -> bool:
    """Whether the parser reads `name` as that variable: an identifier token
    and nothing else, other than `pi`, which is a constant."""
    return isinstance(name, str) and name != "pi" and _IDENT_RE.fullmatch(name) is not None


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


def intern(roots) -> list:
    """The roots with every subtree replaced by the first equal subtree met,
    roots in order and children before parents, so equal subtrees are one
    object. A node whose children are unchanged is kept, so interning
    interned roots returns them, and a node met again is not walked again.
    Numbers are compared by their float bits: Const(0.0) and Const(-0.0)
    stay apart, although == merges them."""
    table, roots = {}, list(roots)  # the list keeps each node alive, so no id is reused
    return [_intern(e, table) for e in roots]


def _intern(e, table):
    done = table.get(id(e))  # a node met before, in this root or an earlier one
    if done is not None:
        return done
    key, values, changed = [type(e)], [], False
    for name in _FIELDS[type(e)]:
        value = getattr(e, name)
        if isinstance(value, _NODES):
            child = _intern(value, table)
            changed = changed or child is not value
            values.append(child)
            key.append(id(child))  # the table keeps the child alive
        else:
            values.append(value)
            key.append(struct.pack("d", value) if isinstance(value, float) else value)
    key = tuple(key)
    found = table.get(key)
    if found is None:
        found = table[key] = type(e)(*values) if changed else e
    table[id(e)] = found
    return found


_NODES = Expr.__args__
_FIELDS = {node: tuple(field.name for field in fields(node)) for node in _NODES}


# --------------------------------------------------------------------------
# evaluation
# --------------------------------------------------------------------------

_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul,
           "/": operator.truediv}

_JET_FUNCS = {name: getattr(jets, name) for name in FUNCTIONS}


def eval_jet(e: Expr, env: Mapping[str, Jet], memo: Optional[dict] = None) -> Jet:
    """Evaluate over jet-valued variables; all env jets must share (order, nvars).

    `memo` keeps the jet of every node evaluated through it, keyed by node
    identity, so a node met again (in this root or a later one) is not
    evaluated again. A memo belongs to one env: create it together with the
    env and pass it with no other. In the library only `charts.metric_frame`
    passes one, for the block it evaluates; without one, a memo lives for
    this call."""
    if not env:
        raise ValueError("jet environment must bind at least one variable")
    probe = next(iter(env.values()))
    return _eval_jet(e, env, probe, {} if memo is None else memo)


def _eval_jet(e, env, probe, memo):
    entry = memo.get(id(e))
    if entry is not None:
        return entry[1]
    if isinstance(e, Const):
        jet = jets.constant_like(e.value, probe)
    elif isinstance(e, Var):
        jet = env.get(e.name)
        if jet is None:
            raise UnboundVariableError(e.name)
    elif isinstance(e, Neg):
        jet = -_eval_jet(e.operand, env, probe, memo)
    elif isinstance(e, BinOp):
        jet = _BINARY[e.op](_eval_jet(e.left, env, probe, memo),
                            _eval_jet(e.right, env, probe, memo))
    elif isinstance(e, Pow):
        jet = jets.power(_eval_jet(e.base, env, probe, memo), e.exponent)
    elif isinstance(e, Call):
        jet = _JET_FUNCS[e.func](_eval_jet(e.arg, env, probe, memo))
    else:
        raise TypeError(f"not an expression node: {e!r}")
    memo[id(e)] = (e, jet)  # the node is kept, so its id is not reused
    return jet


def eval_value(e: Expr, env: Mapping[str, float]) -> float:
    """Plain floating-point evaluation; a function call and a power are
    evaluated as order-0 jets, so their value or error is eval_jet's."""
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
        if e.op == "/" and right == 0.0:
            raise JetDomainError("division by zero")
        return _BINARY[e.op](left, right)
    if isinstance(e, Pow):
        return _order0(jets.power, eval_value(e.base, env), e.exponent)
    if isinstance(e, Call):
        return _order0(_JET_FUNCS[e.func], eval_value(e.arg, env))
    raise TypeError(f"not an expression node: {e!r}")


def _order0(function, value, *args):
    """function(jet, *args) at an order-0 jet of one value, as a float."""
    with np.errstate(over="ignore"):  # a float overflows to inf silently
        return float(function(jets.constant(value, 0, 1), *args).value)
