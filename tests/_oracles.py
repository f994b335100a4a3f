"""Reference implementations that the tests check the program against.

mpmath is the one derivative reference. `mp_partial` evaluates an expression
tree in 30-digit arithmetic and differentiates it there with `mp.diff`, whose
finite differences carry no float roundoff at that precision, so a partial
is good to ~1e-25 before it is rounded to a float. `mp_laplace_beltrami` builds the
divergence form of the Laplacian the same way, from nested mpmath
derivatives of a field and of an immersion or the entries of an explicit
metric. Both evaluate every node themselves (`_mp_value`): no jet, tower or
metric frame of `bieigen` runs inside them, so they are independent of the
code they check, and strict enough to check it at relative 1e-9, where a
float finite difference, caught between truncation and roundoff, can check
no better than about 1e-6.

The report oracles at the end work on report documents of plain dicts and
lists: a recursive walk for the first non-finite value, a row-by-row CSV
writer, the references for `report.Table`, and a recursive JSON writer that
returns each value's text as one string, the reference for the one-join
`report.to_json`; last, a column-by-column search for the first non-finite
cell, the reference for the one-pass gate of `report.Table`. Before them,
`_det` and `_adjugate` expand every minor of a matrix of jets on its own,
the reference for the one cofactor pass of `charts._cofactors`, and
before those `fitted_constants` and `spreads` form each inner product of the
fit and of the pointwise ratios from the sample vectors, the reference for
the columns of `analysis.SampleBatch` that `classify` reads. Before
those, `residual_rows` reduces the verdict rows of a classification one at
a time, the reference for the stacked pass of `classify.verdicts`, and
before it the tension and the three biharmonicity residuals are each
written out as one expression, the reference for the term table of
`analysis.residual_terms`. Before those, the derivative towers of the
elementary functions, formed one point at a time in Python floats and the
`math` kernels and only up to the jet's order, are the reference for the
block towers of `bieigen.jets`, and Horner's composition in jet products
is the reference for its composition of a function of one coordinate.
"""

import math

import mpmath as mp
import numpy as np

from bieigen.analysis import residual_terms, sum_terms
from bieigen.exprs import BinOp, Call, Const, Neg, Pow, Var, parse
from bieigen.jets import Jet, JetDomainError, constant_like

_MP_FUNCS = {name: getattr(mp, name)
             for name in ("sin", "cos", "tan", "exp", "sinh", "cosh", "log", "sqrt")}


def _mp_value(e, env):
    if isinstance(e, Const):
        return mp.mpf(e.value)
    if isinstance(e, Var):
        return env[e.name]
    if isinstance(e, Neg):
        return -_mp_value(e.operand, env)
    if isinstance(e, BinOp):
        left, right = _mp_value(e.left, env), _mp_value(e.right, env)
        return {"+": mp.fadd, "-": mp.fsub, "*": mp.fmul, "/": mp.fdiv}[e.op](left, right)
    if isinstance(e, Pow):
        return mp.power(_mp_value(e.base, env), mp.mpf(e.exponent))
    if isinstance(e, Call):
        return _MP_FUNCS[e.func](_mp_value(e.arg, env))
    raise TypeError(f"not an expression node: {e!r}")


def mp_partial(ast, params, point, alpha):
    """The partial d^alpha of an expression tree at a float point, computed by
    mpmath in 30 digits and rounded to a float."""
    names = list(params)
    with mp.workdps(30):
        return float(mp.diff(lambda *x: _mp_value(ast, dict(zip(names, x))),
                             tuple(mp.mpf(x) for x in point), tuple(alpha)))


def _mp_partial1(fn, x, i):
    """d/dx_i of fn(*x) by mpmath's finite differences at the working
    precision."""
    return mp.diff(fn, x, tuple(int(k == i) for k in range(len(x))))


def mp_laplace_beltrami(metric, params, f, point):
    """The Laplace-Beltrami operator of the expression f at a float point of
    a chart whose metric is given as a manifest's `chart.metric`: induced,
    {"mode": "induced", "immersion": [...]}, g = J^T J from the immersion's
    Jacobian J, or explicit, {"mode": "explicit", "g": [...]}, the entries of
    its upper triangle. The divergence form (1/sqrt g) d_i (sqrt g g^ij d_j
    f), each derivative a nested `mp.diff` in 30-digit arithmetic, g^ij by
    mpmath's matrix inverse, rounded to a float. Independent of jets and of
    the metric frame."""
    names = list(params)

    def function(e):
        ast = parse(e) if isinstance(e, str) else e
        return lambda *x: _mp_value(ast, dict(zip(names, x)))

    if metric["mode"] == "induced":
        comps = [function(e) for e in metric["immersion"]]

        def metric_at(x):
            jac = mp.matrix([[_mp_partial1(c, x, i) for i in range(len(x))] for c in comps])
            return jac.T * jac
    else:
        entry = {(i, i + k): function(e) for i, row in enumerate(metric["g"])
                 for k, e in enumerate(row)}

        def metric_at(x):
            return mp.matrix([[entry[min(i, j), max(i, j)](*x) for j in range(len(x))]
                              for i in range(len(x))])
    field = function(f)

    def flux(i):
        def at(*x):
            g = metric_at(x)
            inverse = g ** -1
            grad = [_mp_partial1(field, x, j) for j in range(len(x))]
            return mp.sqrt(mp.det(g)) * mp.fsum(inverse[i, j] * d for j, d in enumerate(grad))
        return at

    with mp.workdps(30):
        x = tuple(mp.mpf(c) for c in point)
        div = mp.fsum(_mp_partial1(flux(i), x, i) for i in range(len(x)))
        return float(div / mp.sqrt(mp.det(metric_at(x))))


# --------------------------------------------------------------------------
# randomized smooth expressions with well-behaved derivatives
# --------------------------------------------------------------------------

def _coef(rng, lo=0.2, hi=0.9):
    return f"{round(float(rng.uniform(lo, hi)), 3)}"


def _leaf(rng, variables):
    v = variables[int(rng.integers(len(variables)))]
    r = rng.random()
    if r < 0.4:
        return v
    if r < 0.8:
        return f"{_coef(rng)}*{v}"
    return f"({v} + {_coef(rng)})"


def _wrapped(rng, variables):
    inner = _leaf(rng, variables)
    kind = ["sin", "cos", "exp", "sqrt", "log", "sinh", "cosh", "tan",
            "poly"][int(rng.integers(9))]
    if kind == "exp":
        return f"exp({_coef(rng, 0.2, 0.6)}*{inner})"
    if kind == "sqrt":
        return f"sqrt({inner} + 2.7)"
    if kind == "log":
        return f"log({inner} + 3.1)"
    if kind == "tan":
        return f"tan({_coef(rng, 0.2, 0.3)}*{inner})"
    if kind in ("sinh", "cosh"):
        return f"{kind}({_coef(rng, 0.2, 0.5)}*{inner})"
    if kind == "poly":
        return f"({inner}^2 + {_coef(rng)})"
    return f"{kind}({inner})"


def random_smooth_source(rng, variables):
    """Expression with bounded derivatives near points in [0.3, 0.9]^d."""
    first, second = _wrapped(rng, variables), _wrapped(rng, variables)
    op = [" + ", " - ", "*"][int(rng.integers(3))]
    source = f"{first}{op}{second}"
    if rng.random() < 0.5:
        source = f"{source} + {_wrapped(rng, variables)}"
    return source


def random_point(rng, dim):
    return tuple(float(x) for x in rng.uniform(0.3, 0.9, size=dim))


# --------------------------------------------------------------------------
# derivative towers, one point at a time in Python floats
# --------------------------------------------------------------------------

def _kernel(fn, *args):
    """fn(*args), with an overflow or a non-finite argument raised as
    JetDomainError."""
    try:
        return fn(*args)
    except (OverflowError, ValueError):
        shown = ", ".join(map(repr, args))
        raise JetDomainError(f"{fn.__name__}({shown}) is out of float range") from None


def sin_tower(v, order):
    s, c = _kernel(math.sin, v), _kernel(math.cos, v)
    return (s, c, -s, -c, s)[:order + 1]


def cos_tower(v, order):
    s, c = _kernel(math.sin, v), _kernel(math.cos, v)
    return (c, -s, -c, s, c)[:order + 1]


def tan_tower(v, order):
    t = _kernel(math.tan, v)
    w = 1.0 + t * t
    return (t, w, 2.0 * t * w, 2.0 * w * (1.0 + 3.0 * t * t),
            8.0 * t * w * (2.0 + 3.0 * t * t))[:order + 1]


def exp_tower(v, order):
    return (_kernel(math.exp, v),) * (order + 1)


def log_tower(v, order):
    if v <= 0.0:
        raise JetDomainError(f"log of non-positive value {v}")
    derivs = [math.log(v), 1.0 / v]
    for k, c in zip(range(2, order + 1), (-1.0, 2.0, -6.0)):
        derivs.append(c / v ** k)
    return derivs[:order + 1]


def _nonvanishing(v, derivs):
    """The tower derivs of sqrt or of a fractional power at v, whose
    derivatives never vanish: a zero derivative at a finite value is an
    underflow, raised as ArithmeticError."""
    if math.isfinite(v) and 0.0 in derivs[1:]:
        raise ArithmeticError(f"a derivative underflows at {v!r}")
    return derivs


def sqrt_tower(v, order):
    if v < 0.0 or (v == 0.0 and order >= 1):
        raise JetDomainError(f"sqrt of non-positive value {v}")
    s = math.sqrt(v)
    derivs, denominator = [s], s
    for c in (0.5, -0.25, 0.375, -0.9375)[:order]:
        derivs.append(c / denominator)  # over s, s*v, s*v*v, s*v*v*v
        denominator = denominator * v
    return _nonvanishing(v, derivs)


def sinh_tower(v, order):
    s, c = _kernel(math.sinh, v), _kernel(math.cosh, v)
    return (s, c, s, c, s)[:order + 1]


def cosh_tower(v, order):
    s, c = _kernel(math.sinh, v), _kernel(math.cosh, v)
    return (c, s, c, s, c)[:order + 1]


def power_tower(v, exponent, order):
    if v <= 0.0:
        raise JetDomainError(f"fractional power of non-positive value {v}")
    derivs = [_kernel(pow, v, exponent)]
    coef = 1.0
    for k in range(1, order + 1):
        coef *= exponent - (k - 1)
        derivs.append(coef * _kernel(pow, v, exponent - k))
    return _nonvanishing(v, derivs)


def per_point_rows(tower, values, order, *args):
    """(rows, None): the entries tower(v, *args, order) of each value, stacked
    to shape (order + 1, *values.shape); or (None, (message, index)) for the
    first value at which the tower fails, a derivative that under- or
    overflows a float named as out of float range: an entry that raises, or
    one that is not finite at a finite value."""
    rows = []
    for index, v in enumerate(np.ravel(values).tolist()):
        try:
            entries = tower(v, *args, order)
        except JetDomainError as err:
            return None, (str(err), index)
        except ArithmeticError:
            entries = None
        if entries is None or (math.isfinite(v) and not all(map(math.isfinite, entries))):
            name = tower.__name__.removesuffix("_tower")
            return None, (f"derivatives of {name} at {v!r} are out of float range", index)
        rows.append(entries)
    return np.array(rows).T.reshape((order + 1,) + np.shape(values)), None


def horner_compose(a, derivs):
    """f(a) from the derivative rows derivs[k] = f^(k)(a.value) by Horner's
    rule in jet products, acc * (a - a.value) + taylor[k] from the highest
    k down, the value slot derivs[0] itself: the general composition of
    `jets._compose`, and the reference for its path for a function of one
    coordinate."""
    taylor = [d / math.factorial(k) for k, d in enumerate(derivs)]
    hat = a.coeffs.copy()
    hat[0] = 0.0
    hat = Jet(a.order, a.nvars, hat, a.degree, a.support)
    acc = constant_like(taylor[-1], a)
    for k in range(len(derivs) - 2, -1, -1):
        acc = acc * hat
        acc.coeffs[0] = acc.coeffs[0] + taylor[k] if k else derivs[0]
    return acc


# --------------------------------------------------------------------------
# residual formulas, each written out as one expression
# --------------------------------------------------------------------------

def _dots(x, y):
    """<x, y> over the last axis, per point, as one stacked matrix product."""
    return np.matmul(x[..., None, :], y[..., :, None])[..., 0, 0]


def tension(s, target, radius):
    """tau = lap phi + (|dphi|^2 / r^2) phi into a sphere of radius r, lap phi
    into R^n, at each row of a sample batch."""
    if target != "sphere":
        return s.lap_phi.copy()
    return s.lap_phi + (s.energy_density / radius ** 2)[:, None] * s.phi


def submanifold_residual(s, m):
    """lap2 phi + 2m lap phi + (2 m^2 - |lap phi|^2) phi."""
    lap_sq = _dots(s.lap_phi, s.lap_phi)
    return s.bilap_phi + 2.0 * m * s.lap_phi + (2.0 * m * m - lap_sq)[:, None] * s.phi


def full_residual(s):
    """lap2 phi + 2e lap phi + (lap e + 2 div theta - |lap phi|^2 + 2 e^2) phi
    + 2 dphi(grad e)."""
    e = s.energy_density
    coef = (s.lap_energy_density + 2.0 * s.div_theta - _dots(s.lap_phi, s.lap_phi)
            + 2.0 * e * e)
    return (s.bilap_phi + (2.0 * e)[:, None] * s.lap_phi + coef[:, None] * s.phi
            + 2.0 * s.grad_energy_pushforward)


def constant_density_residual(s, c):
    """lap2 phi + 2c lap phi + (2 c^2 - <lap2 phi, phi>) phi, for a density c
    per row or one for all rows."""
    c = np.asarray(c, dtype=float)[..., None]
    coef = 2.0 * c * c - _dots(s.bilap_phi, s.phi)[:, None]
    return s.bilap_phi + 2.0 * c * s.lap_phi + coef * s.phi


# --------------------------------------------------------------------------
# verdict rows, one at a time
# --------------------------------------------------------------------------

def residual_rows(smap, s, fitted, tol):
    """name -> (per_point, max, rms, scale, threshold) of each residual row
    of a classification, one row at a time: its vector summed from its
    terms, max and rms over the rows where it is defined, and its scale the
    largest positive |coefficient| times max-norm of a term on those rows
    (0.0 when there is none, so a NaN never wins)."""
    every = np.ones(len(s), dtype=bool)
    lam, mu, rho = fitted.lambda_hat, fitted.mu_hat, fitted.rho_hat
    table = [("eigen", ((1.0, s.lap_phi), (lam, s.phi))),
             ("bieigen", ((1.0, s.bilap_phi), (-mu, s.phi)))]
    if rho is not None:
        table.append(("buckling", ((1.0, s.bilap_phi), (rho, s.lap_phi))))
    forms = list(residual_terms(s, fitted.c_hat, smap.target, smap.radius))
    table += forms if smap.unit_sphere else forms[:1]
    out = {}
    for name, terms in table:
        rows = s.isometric if name == "biharmonic_submanifold" else every
        if not rows.any():
            continue
        per_point = np.max(np.abs(sum_terms(terms)), axis=-1)
        defined = per_point[rows]
        values = np.stack([abs(k) * np.max(np.abs(v), axis=-1) for k, v in terms])[:, rows]
        values = values[values > 0.0]
        scale = float(np.max(values)) if values.size else 0.0
        out[name] = (per_point, float(np.max(defined)),
                     float(np.sqrt(np.mean(defined * defined))), scale, tol + tol * abs(scale))
    return out


# --------------------------------------------------------------------------
# fitted constants and pointwise spreads, each inner product formed here
# --------------------------------------------------------------------------

# the per-point inner products of a sample batch, by column: (x, y) of <x, y>
INNER_PRODUCTS = {"phi_sq": ("phi", "phi"), "lap_dot_phi": ("lap_phi", "phi"),
                  "lap_sq": ("lap_phi", "lap_phi"), "bilap_dot_phi": ("bilap_phi", "phi"),
                  "bilap_dot_lap": ("bilap_phi", "lap_phi")}


def _running_sum(values):
    """The sum of a float array left to right from +0.0, one point at a time."""
    total = 0.0
    for value in values.tolist():
        total += value
    return total


def fitted_constants(s):
    """(lambda_hat, mu_hat, rho_hat, c_hat) of a sample batch, each inner
    product formed from the stored vectors and summed point by point."""
    floor = 1e-14  # classify.RHO_DENOMINATOR_FLOOR
    phi2, lap_phi, bilap_phi, bilap_lap, lap2 = (_running_sum(_dots(x, y)) for x, y in (
        (s.phi, s.phi), (s.lap_phi, s.phi), (s.bilap_phi, s.phi),
        (s.bilap_phi, s.lap_phi), (s.lap_phi, s.lap_phi)))
    lam, mu = (-lap_phi / phi2 + 0.0, bilap_phi / phi2 + 0.0) if phi2 > floor else (0.0, 0.0)
    rho = None if lap2 < floor else -bilap_lap / lap2 + 0.0
    return lam, mu, rho, float(np.mean(s.energy_density))


def spreads(s, fitted):
    """The pointwise spreads of a classification: the density around c_hat,
    and the ratios -<lap, phi>/|phi|^2, <lap2, phi>/|phi|^2 and
    -<lap2, lap>/|lap|^2 around their fitted constants (around their mean
    when rho_hat is None), each inner product formed from the vectors."""
    def spread(values, around=None):
        if not len(values):
            return None
        center = float(np.mean(values)) if around is None else around
        absolute = float(np.max(np.abs(values - center)))
        return {"abs": absolute, "rel": absolute / max(1.0, abs(center))}

    floor = 1e-10  # classify.RATIO_FLOOR
    p2, lap_sq = _dots(s.phi, s.phi), _dots(s.lap_phi, s.lap_phi)
    rows, rho_rows = p2 > floor, lap_sq > floor
    return {
        "density": spread(s.energy_density, fitted.c_hat),
        "lambda_pointwise": spread(-_dots(s.lap_phi, s.phi)[rows] / p2[rows],
                                   fitted.lambda_hat),
        "mu_pointwise": spread(_dots(s.bilap_phi, s.phi)[rows] / p2[rows], fitted.mu_hat),
        "rho_pointwise": spread(-_dots(s.bilap_phi, s.lap_phi)[rho_rows] / lap_sq[rho_rows],
                                fitted.rho_hat)}


# --------------------------------------------------------------------------
# jet linear algebra on small matrices, each minor expanded on its own
# --------------------------------------------------------------------------

def _det(mat):
    n = len(mat)
    if n == 1:
        return mat[0][0]
    if n == 2:
        return mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0]
    total = None
    for j in range(n):
        minor = [[mat[r][c] for c in range(n) if c != j] for r in range(1, n)]
        term = mat[0][j] * _det(minor)
        if j % 2 == 1:
            term = -term
        total = term if total is None else total + term
    return total


def _adjugate(mat, one):
    n = len(mat)
    if n == 1:
        return [[one]]
    adj = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [[mat[r][c] for c in range(n) if c != j] for r in range(n) if r != i]
            cof = _det(minor)
            if (i + j) % 2 == 1:
                cof = -cof
            adj[j][i] = cof  # transpose of cofactor matrix
    return adj


# --------------------------------------------------------------------------
# report documents as plain dicts and lists
# --------------------------------------------------------------------------

def require_finite_walk(doc, where="", point=None):
    """Raise ValueError naming the first non-finite float of a report
    document by key path (keys sorted, lists in order), and by sample point
    inside a row that has a `point`."""
    if isinstance(doc, dict):
        point = doc.get("point", point)
        for key in sorted(doc):
            require_finite_walk(doc[key], f"{where}.{key}" if where else key, point)
    elif isinstance(doc, (list, tuple)):
        for k, item in enumerate(doc):
            require_finite_walk(item, f"{where}[{k}]", point)
    elif isinstance(doc, float) and not math.isfinite(doc):
        at = f" at point {tuple(point)}" if point is not None else ""
        raise ValueError(f"non-finite value {doc} for {where}{at}")


def csv_rows(header, rows):
    """A header line, then one line per row of numbers (None: an empty cell)."""
    lines = [",".join(header)]
    lines += [",".join(["" if x is None else format(float(x), ".17g") for x in row])
              for row in rows]
    return "\n".join(lines) + "\n"


def json_text(obj, newline="\n"):
    """obj as the JSON text of `report.to_json`, less its final line break,
    one string per value: keys sorted, two spaces of indent per level,
    floats with 17 significant digits; `newline` is a line break and the
    indent of the line on which obj starts."""
    if isinstance(obj, (float, np.floating)):
        return format(float(obj), ".17g")
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, str):
        return _json_string(obj)
    inner = newline + "  "
    if isinstance(obj, dict):
        items = [f"{_json_string(key)}: {json_text(obj[key], inner)}" for key in sorted(obj)]
        brackets = "{}"
    else:
        items = [json_text(item, inner) for item in obj]
        brackets = "[]"
    if not items:
        return brackets
    return brackets[0] + inner + ("," + inner).join(items) + newline + brackets[1]


_SHORT_ESCAPES = {'"': '\\"', "\\": "\\\\", "\n": "\\n", "\t": "\\t"}


def _json_string(s):
    """`"`, `\\`, newline and tab by their short escapes, any other character
    below U+0020 as `\\u00XX`, the rest as it is."""
    return '"' + "".join(_SHORT_ESCAPES.get(ch, f"\\u{ord(ch):04x}" if ch < " " else ch)
                         for ch in s) + '"'


def table_first_non_finite(columns, defined):
    """The message naming the first non-finite cell of a `report.Table`'s
    columns in the order of its JSON rows, or None: each column searched on
    its own for its first bad row (a cell outside `defined` is never bad),
    the earliest row winning and, within a row, the first key in sorted
    order, then the first bad coordinate of a `point` cell."""
    first = None  # (row, key)
    for key in sorted(columns):
        values = columns[key]
        if values is None:
            continue
        ok = np.isfinite(values)
        if key == "point":
            ok = ok.all(axis=1)
        if key in defined:
            ok |= ~defined[key]
        bad = np.flatnonzero(~ok)
        if bad.size and (first is None or bad[0] < first[0]):
            first = (int(bad[0]), key)
    if first is None:
        return None
    row, key = first
    value, path = columns[key][row], f"points[{row}].{key}"
    if key == "point":
        k = int(np.flatnonzero(~np.isfinite(value))[0])
        value, path = value[k], f"{path}[{k}]"
    point = tuple(columns["point"][row].tolist())
    return f"non-finite value {float(value)} for {path} at point {point}"
