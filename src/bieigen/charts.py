"""Riemannian chart geometry: metric frames and the Laplace-Beltrami operator.

A chart is a coordinate patch with named parameters, a domain box, per-axis
periodicity flags, and a metric that is either induced from an immersion into
Euclidean space or given explicitly as component expressions. All geometric
quantities are produced as jets at a block of points, one numpy column per
point, so the divergence form

    lap f = (1/sqrt|g|) d_i ( sqrt|g| g^ij d_j f )

is evaluated entirely in exact truncated Taylor arithmetic. The order budget
is: field jets at order K (up to 4), metric jets at order K-1, the flux
sqrt|g| g^ij d_j f at order K-1, lap f at order K-2 (`laplacian_jet`). The
flux is read only through d_i, so only its slots with alpha_i >= 1 are
formed (`jets.dot_derivative`). A reader of the value alone, such as the
bi-Laplacian, the Laplacian of an order-4 field's order-2 Laplacian, takes
`laplacian_values`: the value of d_i of the flux reads sqrt|g| g^ij only at
slots 0 and e_i and the field only at slots e_j and e_i + e_j, so the values
of many fields are a few stacked numpy operations, with the bits of the jet
operator's value slot.

`metric_frame` is where the jets of a block of points are made: it binds the
coordinates, checks that the points are inside the chart, and evaluates the
metric and the caller's fields at the orders of that budget; det g and g^ij
come from one cofactor pass over g, which expands each minor once, and the
flux coefficients sqrt|g| g^ij are formed next to them. g, its adjugate,
g^ij and the flux are symmetric: each entry is formed once per unordered
pair (i, j), from the cofactor C(i, j) with j >= i, and its mirror is the
same jet. The one-point functions (`metric_frame` of one point,
`laplace_beltrami`, `bilaplacian`, `gradient_pushforward`) pick their point
from a block of one. Every check of a block of points raises through
`require`, for the first offending point of the block, with the point in
`point` and its position in `index` (a `PointError`).
"""

import math
from dataclasses import dataclass
from functools import cache, reduce
from operator import add
from typing import Union

import numpy as np

from . import jets
from .exprs import eval_jet, intern, is_variable, parse, variables_of
from .jets import Jet

MIN_METRIC_EIGENVALUE = 1e-10
MIN_IMMERSION_DET = 1e-12
DEFAULT_MARGIN = 1e-3
MAX_POINTS = 2 ** 20  # sample points or quadrature cells in one grid
MAX_SHOWN = 60  # characters of a manifest value echoed in an error message


class PointError(RuntimeError):
    """A check that fails at a point of a block: `point` names it in Python
    floats, and `index` is its position in the evaluated block."""

    def __init__(self, message, point=None, index=0):
        super().__init__(message)
        self.point = tuple(point) if point is not None else None
        self.index = index


class GeometryError(PointError):
    """Degenerate geometry at an evaluation point (metric value not finite,
    metric not positive definite, rank-deficient immersion, point outside
    the chart)."""


def require(ok, points, error, message):
    """Raise error(message(i, point), point, i) for the first point i of
    `points` where the mask `ok` is False (a NaN compares False, so it
    fails too). The point is named in Python floats."""
    bad = jets.first_index(~ok)
    if bad is not None:
        point = tuple(np.asarray(points[bad], dtype=float).tolist())
        raise error(message(bad, point), point, bad)


class SizeError(ValueError):
    """A sample or quadrature grid above MAX_POINTS points or cells."""


def _shown(value):
    """repr(value), cut to MAX_SHOWN characters followed by '...'."""
    text = repr(value)
    return text if len(text) <= MAX_SHOWN else text[:MAX_SHOWN] + "..."


@dataclass(frozen=True)
class ExplicitMetric:
    entries: tuple  # upper triangle: entries[i][k] is g_{i,i+k}, the manifest's g[i][k]


@dataclass(frozen=True)
class InducedMetric:
    immersion: tuple  # N >= m component expressions


def _as_expr(e):
    return parse(e) if isinstance(e, str) else e


@dataclass(frozen=True)
class Chart:
    params: tuple
    domain: tuple  # ((lo, hi), ...)
    periodic: tuple
    metric: Union[ExplicitMetric, InducedMetric]

    def __post_init__(self):
        """Check the chart in the order a manifest lists it, each rule
        worded by its manifest key, as `manifest.build_map` reports it."""
        m = len(self.params)
        if not 1 <= m <= 4:
            raise ValueError("chart.params must list 1 to 4 parameter names")
        for name in self.params:
            if not is_variable(name):
                raise ValueError(f"chart.params: invalid identifier {_shown(name)}")
        if len(self.domain) != m:
            raise ValueError("chart.domain must have one interval per parameter")
        for k, (lo, hi) in enumerate(self.domain):
            for i, bound in enumerate((lo, hi)):
                if not math.isfinite(bound):
                    raise ValueError(f"chart.domain[{k}][{i}] must be finite, got {bound}")
            if not lo < hi:
                raise ValueError(f"chart.domain[{k}]: need lo < hi, got [{lo}, {hi}]")
        if len(self.periodic) != m:
            raise ValueError("chart.periodic must be a list of booleans, one per parameter")
        if isinstance(self.metric, ExplicitMetric):
            if len(self.metric.entries) != m:
                raise ValueError("chart.metric.g must have one row per parameter")
            for i, row in enumerate(self.metric.entries):
                if len(row) != m - i:
                    raise ValueError(f"chart.metric.g[{i}] must list the upper triangle "
                                     f"({m - i} entries expected)")
        elif len(self.metric.immersion) < m:
            raise ValueError(
                "chart.metric.immersion needs at least as many components as parameters")
        if len(set(self.params)) != m:
            raise ValueError("chart parameter names must be distinct")
        names = set(self.params)
        for e in self._metric_exprs():
            extra = variables_of(e) - names
            if extra:
                raise ValueError(
                    f"metric expression uses undeclared variables: {sorted(extra)}")
        # equal subtrees become one object, evaluated once per memo
        exprs = iter(intern(self._metric_exprs()))
        if isinstance(self.metric, InducedMetric):
            metric = InducedMetric(tuple(exprs))
        else:
            metric = ExplicitMetric(tuple(tuple(next(exprs) for _ in row)
                                          for row in self.metric.entries))
        object.__setattr__(self, "metric", metric)

    def _metric_exprs(self):
        if isinstance(self.metric, ExplicitMetric):
            return [e for row in self.metric.entries for e in row]
        return list(self.metric.immersion)

    @property
    def dim(self):
        return len(self.params)

    @property
    def metric_is_constant(self):
        """True for explicit metrics with no parameter dependence; their
        frames are identical at every point and may be reused."""
        return (isinstance(self.metric, ExplicitMetric)
                and all(not variables_of(e) for e in self._metric_exprs()))

    @staticmethod
    def explicit(params, domain, upper_triangle, periodic=None):
        """Build a chart from the upper triangle of a symmetric metric.

        upper_triangle[i] lists g_{i,i}, g_{i,i+1}, ..., g_{i,m-1} as
        expression strings or ASTs.
        """
        return Chart(tuple(params), _intervals(domain), _periodic_flags(periodic, params),
                     ExplicitMetric(tuple(tuple(map(_as_expr, row)) for row in upper_triangle)))

    @staticmethod
    def induced(params, domain, immersion, periodic=None):
        return Chart(tuple(params), _intervals(domain), _periodic_flags(periodic, params),
                     InducedMetric(tuple(map(_as_expr, immersion))))

    def param_jets(self, points, order):
        """Environment binding each parameter to its coordinate jet, at one
        point or at a block of points (a sequence of points)."""
        self.require_inside(points)
        return self._coordinate_jets(np.asarray(points, dtype=float), order)

    def _coordinate_jets(self, coords, order):
        return {name: jets.variable(i, coords[..., i], order, self.dim)
                for i, name in enumerate(self.params)}

    def require_inside(self, points):
        """GeometryError for the first of the points (or for the one point)
        that is not strictly inside the domain on a non-periodic axis."""
        coords = np.asarray(points, dtype=float)
        if coords.shape[-1] != self.dim:
            raise ValueError(f"point has {coords.shape[-1]} coordinates, "
                             f"chart has {self.dim}")
        coords = coords.reshape(-1, self.dim)
        lo, hi = np.array(self.domain).T
        inside = (lo < coords) & (coords < hi) | np.array(self.periodic)
        require(inside.all(axis=1), coords, GeometryError,
                lambda i, p: f"point {p} is not strictly inside the chart domain")

    def sample_points(self, count=64, margin=DEFAULT_MARGIN):
        """Quasi-uniform interior tensor grid with at least `count` points.

        Periodic axes are sampled at cell midpoints over a full period;
        non-periodic axes are inset from both ends by `margin` times the
        interval length. Raises SizeError when the grid would have more than
        MAX_POINTS points.
        """
        m = self.dim
        # counts above the cap are clamped to cap + 1 so the float root stays
        # finite; the grid they give is still above the cap
        per_axis = max(2, math.ceil(min(max(1, count), MAX_POINTS + 1) ** (1.0 / m)))
        if per_axis ** m > MAX_POINTS:
            raise SizeError(f"a grid of at least {count} sample points exceeds "
                            f"the cap of {MAX_POINTS}")
        axes = []
        for (lo, hi), per in zip(self.domain, self.periodic):
            if per:
                h = (hi - lo) / per_axis
                axes.append(lo + h * (np.arange(per_axis) + 0.5))
            else:
                inset = margin * (hi - lo)
                axes.append(np.linspace(lo + inset, hi - inset, per_axis))
        grids = np.meshgrid(*axes, indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=-1)


def _intervals(domain):
    return tuple(tuple(map(float, interval)) for interval in domain)


def _periodic_flags(periodic, params):
    return (False,) * len(params) if periodic is None else tuple(map(bool, periodic))


# --------------------------------------------------------------------------
# jet linear algebra on small matrices
# --------------------------------------------------------------------------

def _symmetric(m, entry):
    """The m x m matrix of entry(i, j) for j >= i: each is formed once, and
    its mirror [j][i] is the same object."""
    matrix = [[None] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            matrix[i][j] = matrix[j][i] = entry(i, j)
    return matrix


def _cofactors(mat):
    """det and adjugate of a symmetric matrix of jets from one cofactor
    expansion along the first row: each distinct minor, keyed by its (rows,
    cols), is expanded once, and det, the minor of the whole matrix, reuses
    the row-0 cofactors. A minor keeps the operands and the order of its own
    expansion (IEEE a - b is a + (-b)), so the bits are those of expanding it
    alone. The adjugate of a symmetric matrix is symmetric, so only the
    cofactors C(i, j) with j >= i are expanded, and adj[i][j] is adj[j][i].

    A minor on rows R is read only by the minors on rows (r,) + R, so the
    minors the cofactors of row i read are on the suffixes of the rows
    other than i. The cofactors are formed row by row, and a minor that is
    not on a suffix of the current rows is not read again: it is dropped,
    so a 4 x 4 matrix holds 6 of the 14 distinct 2 x 2 minors it expands at
    a time."""
    minors = {}

    def minor(rows, cols):
        if not rows:  # the cofactor of a 1 x 1 matrix
            return jets.constant_like(1.0, mat[0][0])
        if (rows, cols) not in minors:
            total = mat[rows[0]][cols[0]]  # a 1 x 1 minor
            if len(rows) > 1:
                for k, c in enumerate(cols):
                    term = mat[rows[0]][c] * minor(rows[1:], cols[:k] + cols[k + 1:])
                    total = term if k == 0 else total + (-term if k % 2 else term)
            minors[rows, cols] = total
        return minors[rows, cols]

    full = tuple(range(len(mat)))
    det = minor(full, full)
    adj = [[None] * len(full) for _ in full]  # the transposed cofactors
    for i in full:
        rows = full[:i] + full[i + 1:]
        for key in [key for key in minors if key[0] != rows[-len(key[0]):]]:
            del minors[key]
        for j in full[i:]:
            cofactor = minor(rows, full[:j] + full[j + 1:])
            adj[j][i] = adj[i][j] = -cofactor if (i + j) % 2 else cofactor
    minors.clear()  # `minor` refers to itself, so the memo would wait for the cycle collector
    return det, adj


@dataclass(eq=False)
class MetricFrame:
    """Jets of g_ij, g^ij, sqrt|g| and the flux sqrt|g| g^ij at a block of
    chart points, as `metric_frame` makes them, the values of g_ij and g^ij
    with the points on the first axis, and the jets of the fields the frame
    was asked for, one order above the frame. The matrices of jets are
    symmetric: each mirrored entry is the same object."""

    chart: Chart
    order: int
    g: list
    g_inv: list
    sqrt_det: Jet
    flux: list
    g_values: np.ndarray
    g_inv_values: np.ndarray
    fields: list

    def at(self, index):
        """The frame at position `index` of the block in the one-point form:
        one-point jets and (m, m) values. The metric jets of a constant
        metric, a block of one that broadcasts, give their one column."""
        def column(jet):
            return jet.at(index if jet.coeffs.shape[1] > 1 else 0)

        def pick(matrix):
            return _symmetric(len(matrix), lambda i, j: column(matrix[i][j]))
        return MetricFrame(self.chart, self.order, pick(self.g), pick(self.g_inv),
                           column(self.sqrt_det), pick(self.flux), self.g_values[index],
                           self.g_inv_values[index], [jet.at(index) for jet in self.fields])


def _values(matrix, count):
    """Values of a matrix of jets at a block of `count` points, shape
    (count, m, m), C-ordered; a block of one (a constant metric) repeats."""
    values = np.array([[jet.value for jet in row] for row in matrix])  # (m, m, P)
    return np.broadcast_to(values.transpose(2, 0, 1), (count,) + values.shape[:2]).copy()


def _metric_jets(chart, coords, order, env, memo):
    """g_ij as order-`order` jets at a block of coordinates; symmetric
    entries are one object. An induced metric evaluates its immersion in
    `env` and `memo` (see `metric_frame`)."""
    m = chart.dim
    if isinstance(chart.metric, InducedMetric):
        x_jets = [eval_jet(e, env, memo) for e in chart.metric.immersion]
        dx = [[xj.extract_derivative(i) for xj in x_jets] for i in range(m)]
        return _symmetric(m, lambda i, j: reduce(add, (x * y for x, y in zip(dx[i], dx[j]))))
    env, memo = chart._coordinate_jets(coords, order), {}
    return _symmetric(m, lambda i, j: eval_jet(chart.metric.entries[i][j - i], env, memo))


def _metric_entry(chart, finite):
    """The first entry (i, j), j >= i, of a point's metric that is not finite
    (`finite` its (m, m) mask), and its name: the manifest key
    chart.metric.g[i][k] of an explicit metric, g_ij (0-based) of an
    induced one."""
    m = chart.dim
    i, j = next((i, j) for i in range(m) for j in range(i, m) if not finite[i, j])
    return (i, j), (f"g_{i}{j}" if isinstance(chart.metric, InducedMetric)
                    else f"chart.metric.g[{i}][{j - i}]")


def metric_frame(chart, points, order=3, fields=()):
    """Metric data as order-`order` jets (induced mode consumes one extra
    derivative order from the immersion), at one point or at a block of
    points (a sequence of points), and `fields` (expressions or source
    strings) as order-(`order` + 1) jets in `frame.fields`, the order
    `laplacian_jet` needs. A one-point frame is a block of one. A constant
    metric is evaluated at the block's first point only; its jets are a
    block of one that broadcasts against the block.

    The block's coordinate jets are made once, at order `order` + 1, with
    one memo (see `exprs.eval_jet`): an induced metric evaluates its
    immersion in them and the fields follow, so the subtrees the two share
    are evaluated once. The memo is dropped on return. An explicit metric
    evaluates its entries at `order`, in an env of its own. det g and the
    adjugate behind g^ij come from one cofactor pass (`_cofactors`)."""
    if np.ndim(points) == 1:  # one point: a block of one, returned in the one-point form
        return metric_frame(chart, [points], order, fields).at(0)
    env, memo = chart.param_jets(points, order + 1), {}
    coords = np.asarray(points, dtype=float)
    if chart.metric_is_constant:
        coords = coords[:1]
    g = _metric_jets(chart, coords, order, env, memo)
    det, adj = _cofactors(g)
    # written so that a NaN fails the checks too
    if isinstance(chart.metric, InducedMetric):
        require(det.coeffs[0] >= MIN_IMMERSION_DET, coords, GeometryError,
                lambda i, p: f"immersion is rank-deficient at {p} (det {det.coeffs[0][i]:.3e})")
    g_values = _values(g, len(points))
    # eigvalsh may not converge on a value that is not finite
    finite = np.isfinite(g_values[:len(coords)])

    def not_finite(i, p):
        at, entry = _metric_entry(chart, finite[i])
        return f"metric is not finite at {p} ({entry} is {g_values[i][at]})"
    require(finite.all(axis=(1, 2)), coords, GeometryError, not_finite)
    smallest = np.linalg.eigvalsh(g_values[:len(coords)])[:, 0]
    require(smallest > MIN_METRIC_EIGENVALUE, coords, GeometryError,
            lambda i, p: f"metric is not positive definite at {p} "
                         f"(smallest eigenvalue {smallest[i]:.3e})")
    field_jets = [eval_jet(_as_expr(f), env, memo) for f in fields]

    g_inv = _symmetric(len(adj), lambda i, j: adj[i][j] / det)
    sqrt_det = jets.sqrt(det)
    flux = _symmetric(len(adj), lambda i, j: sqrt_det * g_inv[i][j])
    return MetricFrame(chart, order, g, g_inv, sqrt_det, flux, g_values,
                       _values(g_inv, len(points)), field_jets)


def _require_order(frame, K):
    if K < 2:
        raise ValueError("Laplacian needs a field jet of order >= 2")
    if frame.order < K - 1:
        raise ValueError(
            f"metric frame order {frame.order} too low for a field of order {K}")


def laplacian_jet(frame, fjet):
    """Order-(K-2) jet of the Laplace-Beltrami operator applied to an
    order-K field jet (divergence of the metric gradient)."""
    K = fjet.order
    _require_order(frame, K)
    m = frame.chart.dim
    df = [fjet.extract_derivative(j) for j in range(m)]
    # d_i of the flux sqrt|g| g^ij d_j f, which reads only its slots with alpha_i >= 1
    div = reduce(add, (jets.dot_derivative([entry.truncated(K - 1) for entry in frame.flux[i]],
                                           df, i) for i in range(m)))
    return div / frame.sqrt_det.truncated(K - 2)


@cache
def _value_slots(order, m):
    """The slots e_i + e_j (i, j in order) and e_j of an order-`order` jet
    in m variables, and the factors 1 + delta_ij and 1 by which
    `extract_derivative` de-normalizes them into slots e_i and 0 of d_j."""
    position = jets._space(order, m).position
    units = [tuple(int(k == i) for k in range(m)) for i in range(m)]
    pairs = [tuple(a + b for a, b in zip(ei, ej)) for ei in units for ej in units]
    factors = [1.0 + (i == j) for i in range(m) for j in range(m)] + [1.0] * m
    return np.array([position[alpha] for alpha in pairs + units]), np.array(factors)


def laplacian_values(frame, fields):
    """The values of the Laplacians of order-K field jets (K >= 2, one
    signature and one block) as a (P, len(fields)) array, with the bits of
    `[laplacian_jet(frame, f).value for f in fields]`, all fields at once.

    The value of d_i (F^ij d_j f), F^ij = sqrt|g| g^ij, reads F^ij only at
    slots 0 and e_i: it is the product slot e_i, (0.0 + F^ij_0 H_ij) +
    F^ij_{e_i} D_j with H_ij = c[e_i + e_j] (1 + delta_ij) and D_j =
    c[e_j], summed over j and then over i as `jets.dot_derivative` and the
    jet sum do, and divided by the value of sqrt|g|. A term is formed only
    where the product table would form it: F^ij_0 H_ij where slot e_i is
    live in d_j f (`jets._derivative_bounds`), F^ij_{e_i} D_j where it is
    live in F^ij. A skipped term leaves +0.0, and adding +0.0 to a sum that
    started at +0.0 changes no bit, also where the other factor is inf or
    NaN. A zero value of sqrt|g| raises the jet quotient's JetDomainError."""
    K, m = fields[0].order, frame.chart.dim
    _require_order(frame, K)
    if any(f.order != K or f.nvars != m or f.coeffs.shape != fields[0].coeffs.shape
           for f in fields):
        raise ValueError(f"fields must be order-{K} jets in {m} variables at one block")
    slots, factors = _value_slots(K, m)
    rows = np.stack([f.coeffs[slots] for f in fields], axis=1)  # (slot, field, point)
    rows = rows * factors.reshape((-1,) + (1,) * (rows.ndim - 1))
    h, d = rows[:m * m].reshape((m, m) + rows.shape[1:]), rows[m * m:]
    flux, units = frame.flux, slots[m * m:]  # e_i is the same slot in the flux
    f0 = np.array([[entry.coeffs[0] for entry in row] for row in flux])
    fe = np.array([[entry.coeffs[units[i]] for entry in row] for i, row in enumerate(flux)])
    # live[i, j, field]: slot e_i of d_j f; live_fe[i, j]: slot e_i of F^ij
    reach = np.array([[support if degree else 0 for degree, support in (
        jets._derivative_bounds(f.degree, f.support, j) for f in fields)] for j in range(m)])
    live = (reach >> np.arange(m)[:, None, None] & 1).astype(bool)
    live_fe = np.array([[entry.support >> i & 1 for entry in row] for i, row in enumerate(flux)],
                       dtype=bool)
    terms = np.zeros(h.shape)  # [i, j, field, point]
    for factor, values, where in ((f0, h, live), (fe, d, live_fe)):
        if where.any():
            product = np.zeros(h.shape)
            np.multiply(factor[:, :, None], values, out=product,
                        where=where.reshape(where.shape + (1,) * (h.ndim - where.ndim)))
            terms += product
    div = reduce(add, reduce(add, terms.swapaxes(0, 1)))  # over j in each row, then over i
    jets.require_nonzero(frame.sqrt_det.value)
    return np.ascontiguousarray((div / frame.sqrt_det.value).T)


def laplace_beltrami(chart, field, point, order=2) -> Jet:
    """Laplacian of a scalar field (an expression or source string) at a
    point, returned as an order-`order` jet (default order 2, enough to
    apply the operator once more)."""
    if not 0 <= order <= 2:
        raise ValueError("result order must be 0, 1 or 2")
    frame = metric_frame(chart, [point], order + 1, [field])
    return laplacian_jet(frame, frame.fields[0]).at(0)


def bilaplacian(chart, field, point) -> float:
    """Value of the iterated Laplacian at a point (field evaluated at order 4)."""
    frame = metric_frame(chart, [point], 3, [field])
    return laplacian_values(frame, [laplacian_jet(frame, frame.fields[0])])[0, 0]


def pushforward(frame, ds, dphi):
    """dphi(grad s) = g^ij d_i s d_j phi^A for each ambient component A, from
    the partials ds (shape (P, m)) and dphi (shape (P, m, ambient)) at the
    frame's block of points; shape (P, ambient). Each component is its own
    stacked product, as `ds @ g_inv @ dphi[:, a]` is at one point."""
    ds_g = np.matmul(ds[:, None, :], frame.g_inv_values)
    return np.stack([np.matmul(ds_g, dphi[:, :, a, None])[:, 0, 0]
                     for a in range(dphi.shape[-1])], axis=-1)


def gradient_pushforward(chart, scalar, target_components, point):
    """Ambient components of dphi(grad s): g^ij d_i s d_j phi^A at a point."""
    frame = metric_frame(chart, [point], 0, [scalar, *target_components])
    d = jets.first_partials(frame.fields)
    return pushforward(frame, np.ascontiguousarray(d[:, :, 0]),
                       np.ascontiguousarray(d[:, :, 1:]))[0]
