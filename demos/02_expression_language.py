"""The map-definition expression language.

Charts and maps are described by plain text expressions: decimal numbers,
pi, + - * / ^ (constant exponents), unary minus, and the smooth elementary
functions sin, cos, tan, exp, log, sqrt, sinh, cosh. Expressions evaluate
either to floats or to derivative-carrying jets.
"""

from bieigen import eval_jet, eval_value, parse, to_source
from bieigen import jets
from bieigen.exprs import ParseError

source = "cos(sqrt(2)*t)/sqrt(2)"
ast = parse(source)
print("source:    ", source)
print("ast:       ", ast)
print("printed:   ", to_source(ast))
print("round trip:", parse(to_source(ast)) == ast)

# plain evaluation
print("\nvalue at t = 0.4:", eval_value(ast, {"t": 0.4}))

# jet evaluation carries the derivative tower of the same expression
env = {"t": jets.variable(0, 0.4, order=4, nvars=1)}
jet = eval_jet(ast, env)
print("derivatives at t = 0.4:", [round(float(jet.derivative((k,))), 12) for k in range(5)])

# exponents must be constants; the parser folds them at parse time
print("\nx^(3/2) parses to", parse("x^(3/2)"))
try:
    parse("2^x")
except ParseError as err:
    print("variable exponent rejected:", err)

# errors carry byte positions and an expectation hint
for bad in ("1 + ", "cos(", "arctan(x)"):
    try:
        parse(bad)
    except ParseError as err:
        print(f"parse({bad!r}) -> byte {err.position}: {err.message}")
