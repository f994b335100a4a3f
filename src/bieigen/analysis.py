"""Pointwise analysis of parametric maps into spheres, at a block of points.

Everything here is pointwise, evaluated for a block of points at once: the map
components are evaluated as order-4 jets, the chart supplies order-3 metric
jets, and from those we obtain the component Laplacian (order 2, with one
derivative order to spare), the bi-Laplacian, the energy density (an order-2
jet, read for its value, gradient and Laplacian; the bienergy takes e from the
same formula, `_energy`, on values) with its Laplacian and gradient
pushforward, the tension field, the mean curvature vector and its norm, and
the residual vectors of the three biharmonicity characterizations. The
component Laplacians are jets (`charts.laplacian_jet`), since grad lap phi and
the bi-Laplacian read them; the Laplacians read for their value alone are
values of `charts.laplacian_values`: the bi-Laplacian of every component and
lap e in one call per block, and the bienergy's lap phi in another:

  tension           lap + (e / r^2) phi                  (lap in R^n)
  submanifold       lap2 + 2m lap + (2 m^2 - |lap|^2) phi        (isometric)
  full              lap2 + 2e lap + (lap e + 2 div theta - |lap|^2 + 2 e^2) phi
                         + 2 dphi(grad e)                        (any map)
  constant density  lap2 + 2c lap + (2 c^2 - <lap2, phi>) phi    (|dphi|^2 = c)

with e = |dphi|^2 and div theta = |lap|^2 + <grad lap, grad phi>, each
written once, in `residual_terms`; |lap|^2, <lap2, phi> and the other inner
products of the fit are formed once per block (see SampleBatch). Each
biharmonicity residual is zero exactly when the map is biharmonic under the
stated hypothesis. The per-point constant-density residual takes c = e, the
density at that point; the classification verdict takes c = c_hat, the mean
density over the samples (see `constant_density_residual`). A unit-length
constraint check <lap, phi> + |dphi|^2 = 0 runs on every sphere-target
analysis as an internal consistency guard.

`analyze_samples` walks the points in blocks of `block_points(ANALYSIS_ORDER,
m)` points and returns a SampleBatch, one row per point; `analyze_point` is
the row of a block of one. Each point gets the bits a point-by-point
evaluation gives it, and an error names the first point at which a
point-by-point loop would fail.
"""

import math
from dataclasses import dataclass
from functools import reduce
from operator import add
from types import SimpleNamespace
from typing import Optional

import numpy as np

from .charts import (MAX_POINTS, Chart, PointError, SizeError, _shown, laplacian_jet,
                     laplacian_values, metric_frame, pushforward, require)
from .exprs import intern, parse, variables_of
from .jets import BLOCK_VALUES, JetDomainError, first_index, first_partials

SPHERE_TOL = 1e-10
GRAM_TOL = 1e-9  # Gram defect |dphi dphi^T - g| of an isometric point and report
SELF_CHECK_TOL = 1e-9  # the sphere identity and the tangency of the mean curvature

TARGET_SPHERE = "sphere"
TARGET_EUCLIDEAN = "euclidean"


class AnalysisError(PointError):
    """Raised when a map violates a validated constraint at a point."""


class SphereConstraintError(AnalysisError):
    pass


@dataclass(frozen=True)
class SphereMap:
    """A parametric map into R^{n+1}, optionally constrained to a sphere."""

    chart: Chart
    components: tuple
    target: str = TARGET_SPHERE
    radius: float = 1.0

    def __post_init__(self):
        """Check the map in the order a manifest lists it, each rule worded
        by its manifest key, as `manifest.build_map` reports it."""
        if self.target not in (TARGET_SPHERE, TARGET_EUCLIDEAN):
            raise ValueError(f"map.target must be 'sphere' or 'euclidean', "
                             f"got {_shown(self.target)}")
        if self.target == TARGET_SPHERE and not (math.isfinite(self.radius)
                                                 and self.radius > 0):
            raise ValueError(f"map.radius must be finite and positive, got {self.radius}")
        if not self.components:
            raise ValueError("map.components must be a non-empty list of expressions")
        names = set(self.chart.params)
        for k, comp in enumerate(self.components):
            extra = variables_of(comp) - names
            if extra:
                raise ValueError(
                    f"component {k} uses undeclared variables: {sorted(extra)}")
        # subtrees equal to the chart's are the chart's objects, so an
        # induced metric and the map share their jets in one memo
        metric = self.chart._metric_exprs()
        object.__setattr__(self, "components",
                           tuple(intern(metric + list(self.components))[len(metric):]))

    @staticmethod
    def build(chart, components, target=TARGET_SPHERE, radius=1.0):
        comps = tuple(parse(c) if isinstance(c, str) else c for c in components)
        return SphereMap(chart, comps, target, float(radius))

    @property
    def ambient_dim(self):
        return len(self.components)

    @property
    def dim(self):
        return self.chart.dim

    @property
    def unit_sphere(self):
        return self.target == TARGET_SPHERE and abs(self.radius - 1.0) < 1e-12


@dataclass
class SampleBatch:
    """All pointwise quantities of a map at P points, stacked on a first axis
    of length P. The residual arrays are None unless the target is the unit
    sphere; mean curvature, its norm and the submanifold residual are
    defined on the rows where `isometric` (Gram defect within GRAM_TOL) holds.
    `isometric` is set for every target, and the isometry verdict is that it
    holds at every row.
    `classify.verdicts` reads `tension`, `residual_submanifold` and
    `residual_full` as the harmonic, submanifold and full residual vectors
    instead of summing their terms again. |eta| and the inner products
    `phi_sq` to `bilap_dot_lap` are formed here alone: `residual_terms` reads
    two, the fit sums all five, the pointwise spreads divide them, and the
    report takes `phi_norm` and `lap_phi_norm` as square roots."""

    points: np.ndarray          # (P, m)
    phi: np.ndarray             # (P, ambient)
    dphi: np.ndarray            # (P, m, ambient): d_i phi^A values
    lap_phi: np.ndarray
    bilap_phi: np.ndarray
    phi_sq: np.ndarray          # (P,): <phi, phi>
    lap_dot_phi: np.ndarray     # <lap phi, phi>
    lap_sq: np.ndarray          # <lap phi, lap phi>
    bilap_dot_phi: np.ndarray   # <lap2 phi, phi>
    bilap_dot_lap: np.ndarray   # <lap2 phi, lap phi>
    energy_density: np.ndarray
    lap_energy_density: np.ndarray
    grad_energy_pushforward: np.ndarray
    div_theta: np.ndarray
    tension: np.ndarray
    gram_defect: np.ndarray
    sphere_defect: np.ndarray
    constraint_defect: np.ndarray  # |<lap phi, phi> + |dphi|^2|, zero on a round sphere
    isometric: np.ndarray       # (P,) bool
    mean_curvature: Optional[np.ndarray]
    mean_curvature_norm: Optional[np.ndarray]  # (P,): |eta|
    residual_submanifold: Optional[np.ndarray]
    residual_full: Optional[np.ndarray]
    residual_constant_density: Optional[np.ndarray]

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return (self.row(i) for i in range(len(self)))

    def row(self, i) -> SimpleNamespace:
        """The analysis of point i as a namespace: `point` a tuple, a (P,)
        column a float, and mean curvature, its norm and the submanifold
        residual None off the isometric rows."""
        undefined = () if self.isometric[i] else ("mean_curvature", "mean_curvature_norm",
                                                  "residual_submanifold")
        fields = {}
        for name in self.__dataclass_fields__:
            column = getattr(self, name)
            if name not in ("points", "isometric"):
                fields[name] = (None if column is None or name in undefined else
                                float(column[i]) if column.ndim == 1 else column[i])
        return SimpleNamespace(point=tuple(self.points[i].tolist()), **fields)

    @staticmethod
    def concatenate(batches):
        if len(batches) == 1:
            return batches[0]
        fields = {}
        for name in SampleBatch.__dataclass_fields__:
            parts = [getattr(b, name) for b in batches]
            fields[name] = None if parts[0] is None else np.concatenate(parts)
        return SampleBatch(**fields)


def dots(x, y):
    """<x, y> over the last axis, per point: exactly `x @ y` at each point,
    as one stacked product (a plain sum or einsum rounds differently)."""
    return np.matmul(x[..., None, :], y[..., :, None])[..., 0, 0]


def inf_norms(x):
    """max |x| over the last axis, per point. The last axis is short (an
    ambient dimension, or the m^2 entries of a matrix), and numpy's reduction
    over it costs about 9x a fold of its columns, so the columns are folded.
    Max is exact and np.maximum propagates NaN as np.max does: the bits are
    those of np.max(np.abs(x), axis=-1)."""
    out = np.abs(x[..., 0])
    for k in range(1, x.shape[-1]):
        np.maximum(out, np.abs(x[..., k]), out=out)
    return out


def residual_terms(s, c, target, radius):
    """(name, terms) of the tension field of the analysis `s` (a SampleBatch,
    one of its rows or any object with its arrays and inner products) into
    R^n or a sphere of `radius`, then of its unit-sphere biharmonicity
    residuals, `c` the density of the constant-density form. Terms are
    (coefficient, vector) pairs, the coefficient a number or one per point;
    each pair is formed when asked for."""
    phi, lap, e = s.phi, s.lap_phi, s.energy_density
    if target != TARGET_SPHERE:
        yield "harmonic", ((1.0, lap),)
        return
    yield "harmonic", ((1.0, lap), (e / radius ** 2, phi))
    m, bilap, lap_sq = s.dphi.shape[-2], s.bilap_phi, s.lap_sq  # dphi is (m, ambient)
    yield "biharmonic_submanifold", ((1.0, bilap), (2.0 * m, lap), (2.0 * m * m - lap_sq, phi))
    yield "biharmonic_full", (
        (1.0, bilap), (2.0 * e, lap),
        (s.lap_energy_density + 2.0 * s.div_theta - lap_sq + 2.0 * e * e, phi),
        (2.0, s.grad_energy_pushforward))
    c = np.asarray(c, dtype=float)
    yield "biharmonic_constant_density", (
        (1.0, bilap), (2.0 * c, lap), (2.0 * c * c - s.bilap_dot_phi, phi))


def sum_terms(terms):
    """The residual of (coefficient, vector) terms: each coefficient times its
    vector, summed in order. Its threshold scale is the largest |coefficient|
    times max-norm of a vector (see `classify.verdicts`)."""
    return reduce(add, (np.asarray(coef)[..., None] * vec for coef, vec in terms))


def constant_density_residual(samples, c):
    """Biharmonicity residual under the constant-energy-density hypothesis,
    evaluated with an externally supplied density constant, for one row of
    a SampleBatch or each of its rows (`c` a number, or one
    constant per row). The analysis fills `residual_constant_density` with
    c = e, the pointwise density; the classification verdict and `residual
    --equation me1` use c = c_hat, the fitted mean density."""
    *_, (_, terms) = residual_terms(samples, c, TARGET_SPHERE, 1.0)
    return sum_terms(terms)


ANALYSIS_ORDER = 4  # the order of the analysis's field jets
BIENERGY_ORDER = 2  # the order of the bienergy's field jets


def block_points(order, dim):
    """Points per block of an evaluation whose field jets have `order` in
    `dim` variables: as many as keep one such jet within BLOCK_VALUES
    coefficients (an order-K jet in m variables has C(K + m, m))."""
    return BLOCK_VALUES // math.comb(order + dim, dim)


def _blockwise(evaluate, points, order):
    """[evaluate(block)] over consecutive blocks of `block_points(order, m)`
    points, for field jets of `order` at points of m coordinates.

    Blocks hold a fixed number of jet coefficients, not of points: short
    jets take long blocks, which spread numpy's per-call overhead over many
    points, and every block keeps its temporaries small (cache-resident, and
    reused by the allocator rather than mapped afresh) and bounds the
    working set. A point's bits do not depend on its block. When a block
    raises for its point i, the block's prefix [0, i) is evaluated again,
    and so on until a prefix runs clean: the error left is the one a
    point-by-point loop meets first, and its `index` is set to that point's
    position in `points`. A JetDomainError is raised as an AnalysisError
    naming the point. Overflow and invalid operations are not warned about:
    they leave non-finite values, which the checks and the reports
    refuse."""
    step = block_points(order, len(points[0]))
    results = []
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, len(points), step):
            block = points[start:start + step]
            try:
                results.append(evaluate(block))
            except Exception as err:  # re-raised below, possibly an earlier one
                first = err
                while getattr(first, "index", 0) > 0:
                    try:
                        evaluate(block[:first.index])
                    except Exception as earlier:
                        first = earlier
                    else:
                        break
                first.index = start + getattr(first, "index", 0)
                if isinstance(first, JetDomainError):
                    point = tuple(np.asarray(points[first.index], dtype=float).tolist())
                    raise AnalysisError(f"{first} at point {point}", point,
                                        first.index) from first
                raise first from None
    return results


def analyze_point(smap: SphereMap, point) -> SimpleNamespace:
    """Evaluate every map-level quantity at one interior chart point."""
    return analyze_samples(smap, [point]).row(0)


def analyze_samples(smap: SphereMap, points) -> SampleBatch:
    """Evaluate every map-level quantity at a sequence of chart points.
    Errors name the first point that fails, as a point-by-point loop would."""
    points = np.array(points, dtype=float)
    if not len(points):
        raise ValueError("no sample points")
    return SampleBatch.concatenate(
        _blockwise(lambda block: _analyze_block(smap, block), points, ANALYSIS_ORDER))


def sequential_sums(rows) -> list:
    """The sum of each float array of `rows` left to right from +0.0, in
    order, as the reference values were made: the bits of Python's `sum` up
    to 3.11. Python 3.12's `sum` of floats is compensated, and rounds
    differently. Overflow gives inf silently, as `sum` does."""
    with np.errstate(over="ignore", invalid="ignore"):
        totals = np.add.accumulate(np.array(rows), axis=-1)[:, -1]
    return [total + 0.0 for total in totals.tolist()]


def _stack(values):
    """Per-point values of several quantities as a (P, count) array."""
    return np.stack(values, axis=-1)


def _phi(smap, phi_jets, points):
    """phi (P, ambient) from the component jets, |phi|^2 and ||phi|^2 - r^2|
    per point (zero into R^n); a component that is not finite, or a point
    off the target sphere, raises AnalysisError naming the point."""
    phi = _stack([j.value for j in phi_jets])
    bad = ~np.isfinite(phi)
    require(~bad.any(axis=1), points, AnalysisError,
            lambda i, p: f"map component {first_index(bad[i])} is {phi[i][bad[i]][0]} at {p}")
    phi_sq, sphere_defect = dots(phi, phi), np.zeros(len(points))
    if smap.target == TARGET_SPHERE:
        sphere_defect = np.abs(phi_sq - smap.radius ** 2)
        require(sphere_defect <= SPHERE_TOL, points, SphereConstraintError,
                lambda i, p: f"|phi|^2 deviates from r^2 by {sphere_defect[i]:.3e} at {p}")
    return phi, phi_sq, sphere_defect


def _analyze_block(smap, points):
    chart = smap.chart
    m = chart.dim
    frame = metric_frame(chart, points, ANALYSIS_ORDER - 1, smap.components)
    phi_jets = frame.fields
    phi, phi_sq, sphere_defect = _phi(smap, phi_jets, points)
    lap_jets = [laplacian_jet(frame, pj) for pj in phi_jets]
    # e to order 2, all its readers need: truncated factors give the same bits
    # there, and the derivative jets, a block's largest, die with the call
    energy_jet = _energy([[g.truncated(2) for g in row] for row in frame.g_inv],
                         [[pj.extract_derivative(i).truncated(2) for pj in phi_jets]
                          for i in range(m)])
    # lap2 phi and lap e, the values of the Laplacians of order-2 jets at one
    # block, in one pass; copied out contiguous, as `dots` reads its operands
    values = laplacian_values(frame, lap_jets + [energy_jet])
    bilap_phi, lap_energy = values[:, :-1].copy(), values[:, -1].copy()
    lap_phi, d_lap = _stack([lj.value for lj in lap_jets]), first_partials(lap_jets)
    dphi, energy = first_partials(phi_jets), energy_jet.value
    d_energy = first_partials([energy_jet])[:, :, 0]
    gram = np.matmul(dphi, dphi.transpose(0, 2, 1))
    gram_defect = inf_norms((gram - frame.g_values).reshape(len(points), m * m))
    grad_push = pushforward(frame, d_energy, dphi)
    grad_lap_dot_grad_phi = np.einsum("pij,pia,pja->p", frame.g_inv_values, d_lap, dphi)
    lap_dot_phi, lap_sq = dots(lap_phi, phi), dots(lap_phi, lap_phi)
    div_theta = lap_sq + grad_lap_dot_grad_phi

    constraint_defect = np.abs(lap_dot_phi + energy)
    if smap.target == TARGET_SPHERE:
        require(constraint_defect <= SELF_CHECK_TOL, points, AnalysisError,
                lambda i, p: f"sphere identity <lap phi, phi> = -|dphi|^2 violated "
                             f"by {constraint_defect[i]:.3e} at {p}")
    batch = SampleBatch(
        points=np.asarray(points, dtype=float), phi=phi, dphi=dphi, lap_phi=lap_phi,
        bilap_phi=bilap_phi, phi_sq=phi_sq, lap_dot_phi=lap_dot_phi, lap_sq=lap_sq,
        bilap_dot_phi=dots(bilap_phi, phi), bilap_dot_lap=dots(bilap_phi, lap_phi),
        energy_density=energy, lap_energy_density=lap_energy,
        grad_energy_pushforward=grad_push, div_theta=div_theta, tension=None,
        gram_defect=gram_defect, sphere_defect=sphere_defect,
        constraint_defect=constraint_defect, isometric=gram_defect <= GRAM_TOL,
        mean_curvature=None, mean_curvature_norm=None, residual_submanifold=None,
        residual_full=None, residual_constant_density=None)
    residuals = residual_terms(batch, energy, smap.target, smap.radius)
    batch.tension = sum_terms(next(residuals)[1])
    if not smap.unit_sphere:
        return batch

    batch.mean_curvature = eta = (lap_phi + m * phi) / m
    batch.mean_curvature_norm = np.sqrt(dots(eta, eta))
    tangency = np.abs(dots(eta, phi))
    require(~batch.isometric | (tangency <= SELF_CHECK_TOL), points, AnalysisError,
            lambda i, p: f"mean curvature tangency check failed ({tangency[i]:.3e}) at {p}")
    (batch.residual_submanifold, batch.residual_full,
     batch.residual_constant_density) = (sum_terms(terms) for _, terms in residuals)
    return batch


def _energy(g_inv, dphi):
    """e = |dphi|^2 = g^ij sum_A d_i phi^A d_j phi^A from `g_inv[i][j]` and
    `dphi[i][A]`, jets or (P,) values alike, summed left to right over A, then
    over (i, j) row-major. A jet product's value is the product of the values
    and jets add slot by slot, so values get the bits of the jets' value."""
    def dot(i, j):
        return reduce(add, (x * y for x, y in zip(dphi[i], dphi[j])))
    m = len(g_inv)
    return reduce(add, (g_inv[i][j] * dot(i, j) for i in range(m) for j in range(m)))


def _bienergy_block(smap, points):
    """|tau|^2 sqrt|g| at a block of quadrature points, from order-2 field
    jets and an order-1 frame: cheaper than the order-4 analysis."""
    frame = metric_frame(smap.chart, points, BIENERGY_ORDER - 1, smap.components)
    phi_jets = frame.fields
    phi, _, _ = _phi(smap, phi_jets, points)
    lap = laplacian_values(frame, phi_jets)
    energy = None if smap.target != TARGET_SPHERE else _energy(
        frame.g_inv_values.transpose(1, 2, 0), first_partials(phi_jets).transpose(1, 2, 0))
    fields = SimpleNamespace(phi=phi, lap_phi=lap, energy_density=energy)
    tau = sum_terms(next(residual_terms(fields, None, smap.target, smap.radius))[1])
    density = dots(tau, tau) * frame.sqrt_det.value
    require(np.isfinite(density), points, AnalysisError,
            lambda i, p: f"bienergy density |tau|^2 sqrt|g| is {float(density[i])} at {p}")
    return density


def bienergy_quadrature(smap: SphereMap, grid: int) -> float:
    """Composite midpoint value of (1/2) int |tau|^2 sqrt|g| over the chart
    domain box, using `grid` cells per axis. Labeled chart-domain bienergy:
    on charts that do not cover the manifold up to measure zero it is a
    chart-domain quantity only. Raises SizeError above MAX_POINTS cells."""
    if grid < 1:
        raise ValueError("grid must be at least 1")
    chart = smap.chart
    m = chart.dim
    if grid ** m > MAX_POINTS:
        raise SizeError(f"{grid} cells per axis in {m} dimensions exceed the "
                        f"cap of {MAX_POINTS} cells")
    axes = []
    cell = 1.0
    for lo, hi in chart.domain:
        h = (hi - lo) / grid
        cell *= h
        axes.append(lo + h * (np.arange(grid) + 0.5))
    grids = np.meshgrid(*axes, indexing="ij")
    points = np.stack([g.ravel() for g in grids], axis=-1)
    total = 0.0
    for block in _blockwise(lambda block: _bienergy_block(smap, block), points,
                            BIENERGY_ORDER):
        total, = sequential_sums([np.concatenate(([total], block))])  # cell by cell
    bienergy = 0.5 * total * cell
    if not math.isfinite(bienergy):
        raise AnalysisError(f"chart-domain bienergy is out of float range: the "
                            f"densities of {len(points)} cells of volume {cell} "
                            f"sum to {total}")
    return bienergy
