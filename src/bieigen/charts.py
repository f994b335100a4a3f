"""Riemannian chart geometry: metric frames and the Laplace-Beltrami operator.

A chart is a coordinate patch with named parameters, a domain box, per-axis
periodicity flags, and a metric that is either induced from an immersion into
Euclidean space or given explicitly as component expressions. All geometric
quantities are produced as jets at a point, so the divergence form

    lap f = (1/sqrt|g|) d_i ( sqrt|g| g^ij d_j f )

is evaluated entirely in exact truncated Taylor arithmetic. The order budget
is: field jets at order K (up to 4), metric jets at order K-1, lap f at order
K-2. Iterating the operator on an order-4 field yields the bi-Laplacian value.
"""

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from . import jets
from .exprs import Expr, eval_jet, parse, variables_of
from .jets import Jet

MIN_METRIC_EIGENVALUE = 1e-10
MIN_IMMERSION_DET = 1e-12
DEFAULT_MARGIN = 1e-3
MAX_POINTS = 2 ** 20  # sample points or quadrature cells in one grid


class GeometryError(RuntimeError):
    """Degenerate geometry at an evaluation point (metric not positive
    definite, rank-deficient immersion, point outside the chart)."""


class SizeError(ValueError):
    """A sample or quadrature grid above MAX_POINTS points or cells."""


@dataclass(frozen=True)
class ExplicitMetric:
    entries: tuple  # full symmetric m x m tuple-of-tuples of Expr


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
        m = len(self.params)
        if not 1 <= m <= 4:
            raise ValueError(f"chart dimension must be 1..4, got {m}")
        if len(set(self.params)) != m:
            raise ValueError("chart parameter names must be distinct")
        if len(self.domain) != m or len(self.periodic) != m:
            raise ValueError("domain and periodic flags must match the parameter count")
        for lo, hi in self.domain:
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise ValueError(f"invalid domain interval [{lo}, {hi}]")
        names = set(self.params)
        for e in self._metric_exprs():
            extra = variables_of(e) - names
            if extra:
                raise ValueError(
                    f"metric expression uses undeclared variables: {sorted(extra)}")
        if isinstance(self.metric, InducedMetric) and len(self.metric.immersion) < m:
            raise ValueError("immersion needs at least as many components as parameters")

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
        m = len(params)
        rows = [[None] * m for _ in range(m)]
        if len(upper_triangle) != m:
            raise ValueError("upper triangle must have one row per parameter")
        for i, row in enumerate(upper_triangle):
            if len(row) != m - i:
                raise ValueError(f"upper triangle row {i} must have {m - i} entries")
            for k, e in enumerate(row):
                j = i + k
                rows[i][j] = _as_expr(e)
                rows[j][i] = rows[i][j]
        entries = tuple(tuple(row) for row in rows)
        return Chart(tuple(params), tuple(tuple(map(float, iv)) for iv in domain),
                     _periodic_flags(periodic, m), ExplicitMetric(entries))

    @staticmethod
    def induced(params, domain, immersion, periodic=None):
        comps = tuple(_as_expr(e) for e in immersion)
        return Chart(tuple(params), tuple(tuple(map(float, iv)) for iv in domain),
                     _periodic_flags(periodic, len(params)), InducedMetric(comps))

    def param_jets(self, point, order):
        """Environment binding each parameter to its coordinate jet."""
        self.require_inside(point)
        vals = list(point)
        return {name: jets.variable(i, vals[i], order, self.dim)
                for i, name in enumerate(self.params)}

    def require_inside(self, point):
        if len(point) != self.dim:
            raise ValueError(f"point has {len(point)} coordinates, chart has {self.dim}")
        for x, (lo, hi), per in zip(point, self.domain, self.periodic):
            if not per and not lo < x < hi:
                raise GeometryError(
                    f"point {tuple(point)} is not strictly inside the chart domain")

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


def _periodic_flags(periodic, m):
    if periodic is None:
        return (False,) * m
    flags = tuple(bool(p) for p in periodic)
    if len(flags) != m:
        raise ValueError("periodic flags must match the parameter count")
    return flags


# --------------------------------------------------------------------------
# jet linear algebra on small matrices
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


class MetricFrame:
    """Jets of g_ij, g^ij and sqrt|g| at one chart point."""

    def __init__(self, chart, point, order, g, g_inv, sqrt_det):
        self.chart = chart
        self.point = tuple(point)
        self.order = order
        self.g = g
        self.g_inv = g_inv
        self.sqrt_det = sqrt_det
        m = chart.dim
        self.g_values = np.array([[g[i][j].value for j in range(m)] for i in range(m)])
        self.g_inv_values = np.array(
            [[g_inv[i][j].value for j in range(m)] for i in range(m)])
        # flux coefficients sqrt|g| g^ij, shared by every Laplacian evaluation
        self.flux = [[sqrt_det * g_inv[i][j] for j in range(m)] for i in range(m)]


def metric_frame(chart, point, order=3):
    """Metric data as order-`order` jets (induced mode consumes one extra
    derivative order from the immersion)."""
    m = chart.dim
    if isinstance(chart.metric, InducedMetric):
        env = chart.param_jets(point, order + 1)
        x_jets = [eval_jet(e, env) for e in chart.metric.immersion]
        dx = [[xj.extract_derivative(i) for xj in x_jets] for i in range(m)]
        g = [[None] * m for _ in range(m)]
        for i in range(m):
            for j in range(i, m):
                acc = dx[i][0] * dx[j][0]
                for a in range(1, len(x_jets)):
                    acc = acc + dx[i][a] * dx[j][a]
                g[i][j] = acc
                g[j][i] = acc
    else:
        env = chart.param_jets(point, order)
        g = [[eval_jet(chart.metric.entries[i][j], env) for j in range(m)]
             for i in range(m)]

    det = _det(g)
    if isinstance(chart.metric, InducedMetric) and det.value < MIN_IMMERSION_DET:
        raise GeometryError(
            f"immersion is rank-deficient at {tuple(point)} (det {det.value:.3e})")
    g_values = np.array([[g[i][j].value for j in range(m)] for i in range(m)])
    smallest = float(np.linalg.eigvalsh(g_values)[0])
    if smallest <= MIN_METRIC_EIGENVALUE:
        raise GeometryError(
            f"metric is not positive definite at {tuple(point)} "
            f"(smallest eigenvalue {smallest:.3e})")

    one = jets.constant_like(1.0, det)
    adj = _adjugate(g, one)
    g_inv = [[adj[i][j] / det for j in range(m)] for i in range(m)]
    sqrt_det = jets.sqrt(det)
    return MetricFrame(chart, point, order, g, g_inv, sqrt_det)


def laplacian_jet(frame, fjet):
    """Order-(K-2) jet of the Laplace-Beltrami operator applied to an
    order-K field jet (divergence of the metric gradient)."""
    K = fjet.order
    if K < 2:
        raise ValueError("Laplacian needs a field jet of order >= 2")
    if frame.order < K - 1:
        raise ValueError(
            f"metric frame order {frame.order} too low for a field of order {K}")
    m = frame.chart.dim
    df = [fjet.extract_derivative(j) for j in range(m)]
    div = None
    for i in range(m):
        flux = None
        for j in range(m):
            term = frame.flux[i][j].truncated(K - 1) * df[j]
            flux = term if flux is None else flux + term
        d_flux = flux.extract_derivative(i)
        div = d_flux if div is None else div + d_flux
    return div / frame.sqrt_det.truncated(K - 2)


FieldLike = Union[Expr, str]

_EXPR_NODES = Expr.__args__


def _field_jet(chart, field, point, order):
    """Field jets from an expression or source string."""
    env = chart.param_jets(point, order)
    if isinstance(field, str):
        return eval_jet(parse(field), env)
    if isinstance(field, _EXPR_NODES):
        return eval_jet(field, env)
    raise TypeError(f"cannot evaluate field of type {type(field).__name__}")


def laplace_beltrami(chart, field: FieldLike, point, order=2) -> Jet:
    """Laplacian of a scalar field at a point, returned as an order-`order`
    jet (default order 2, enough to apply the operator once more)."""
    if not 0 <= order <= 2:
        raise ValueError("result order must be 0, 1 or 2")
    frame = metric_frame(chart, point, order + 1)
    fjet = _field_jet(chart, field, point, order + 2)
    return laplacian_jet(frame, fjet)


def bilaplacian(chart, field: FieldLike, point) -> float:
    """Value of the iterated Laplacian at a point (field evaluated at order 4)."""
    frame = metric_frame(chart, point, 3)
    fjet = _field_jet(chart, field, point, 4)
    return laplacian_jet(frame, laplacian_jet(frame, fjet)).value


def pushforward(frame, ds, dphi):
    """dphi(grad s) = g^ij d_i s d_j phi^A for each ambient component A, from
    the partials ds (length m) and dphi (shape (m, ambient)) at the frame's
    point."""
    return np.array([float(ds @ frame.g_inv_values @ dphi[:, a])
                     for a in range(dphi.shape[1])])


def gradient_pushforward(chart, scalar: FieldLike, target_components, point):
    """Ambient components of dphi(grad s): g^ij d_i s d_j phi^A at a point."""
    fjets = [_field_jet(chart, f, point, 1) for f in (scalar, *target_components)]
    d = np.array([[fj.extract_derivative(i).value for fj in fjets]
                  for i in range(chart.dim)])
    return pushforward(metric_frame(chart, point, 1), d[:, 0], d[:, 1:])
