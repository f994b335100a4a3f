"""Per-point analysis of parametric maps into spheres.

Everything here is pointwise: the map components are evaluated as order-4
jets, the chart supplies order-3 metric jets, and from those we obtain the
component Laplacian (order 2, with one derivative order to spare), the
bi-Laplacian, the energy density and its Laplacian and gradient pushforward,
the tension field, the mean curvature vector, and the residual vectors of the
three biharmonicity characterizations:

  submanifold       lap2 + 2m lap + (2 m^2 - |lap|^2) phi        (isometric)
  full              lap2 + 2e lap + (lap e + 2 div theta - |lap|^2 + 2 e^2) phi
                         + 2 dphi(grad e)                        (any map)
  constant density  lap2 + 2c lap + (2 c^2 - <lap2, phi>) phi    (|dphi|^2 = c)

with e = |dphi|^2 and div theta = |lap|^2 + <grad lap, grad phi>. Each is zero
exactly when the map is biharmonic under the stated hypothesis. The
per-point constant-density residual takes c = e, the density at that point;
the classification verdict takes c = c_hat, the mean density over the
samples (see `constant_density_residual`). A unit-length
constraint check <lap, phi> + |dphi|^2 = 0 runs on every sphere-target
analysis as an internal consistency guard.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .charts import (MAX_POINTS, Chart, SizeError, laplacian_jet, metric_frame,
                     pushforward)
from .exprs import eval_jet, parse, variables_of
from .jets import JetDomainError

SPHERE_TOL = 1e-10
GRAM_TOL = 1e-9
SELF_CHECK_TOL = 1e-9
TANGENCY_TOL = 1e-9

TARGET_SPHERE = "sphere"
TARGET_EUCLIDEAN = "euclidean"


class AnalysisError(RuntimeError):
    """Raised when a map violates a validated constraint at a point."""

    def __init__(self, message, point=None):
        super().__init__(message)
        self.point = tuple(point) if point is not None else None


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
        if self.target not in (TARGET_SPHERE, TARGET_EUCLIDEAN):
            raise ValueError(f"unknown target '{self.target}'")
        if self.target == TARGET_SPHERE and not self.radius > 0:
            raise ValueError("sphere radius must be positive")
        if not self.components:
            raise ValueError("map needs at least one component")
        names = set(self.chart.params)
        for k, comp in enumerate(self.components):
            extra = variables_of(comp) - names
            if extra:
                raise ValueError(
                    f"component {k} uses undeclared variables: {sorted(extra)}")

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
class PointAnalysis:
    """All pointwise quantities of one map at one chart point."""

    point: tuple
    phi: np.ndarray
    dphi: np.ndarray            # shape (m, ambient): d_i phi^A values
    lap_phi: np.ndarray
    bilap_phi: np.ndarray
    energy_density: float
    lap_energy_density: float
    grad_energy_pushforward: np.ndarray
    div_theta: float
    tension: np.ndarray
    mean_curvature: Optional[np.ndarray]
    gram_defect: float
    sphere_defect: float
    residual_submanifold: Optional[np.ndarray]
    residual_full: Optional[np.ndarray]
    residual_constant_density: Optional[np.ndarray]

    @property
    def dim(self):
        return len(self.point)

    @property
    def constraint_defect(self):
        """|<lap phi, phi> + |dphi|^2|, zero on any round-sphere image."""
        return abs(float(self.lap_phi @ self.phi) + self.energy_density)


def constant_density_residual(pa: PointAnalysis, c: float) -> np.ndarray:
    """Biharmonicity residual under the constant-energy-density hypothesis,
    evaluated with an externally supplied density constant. `analyze_point`
    fills `residual_constant_density` with c = e, the pointwise density;
    the classification verdict and `residual --equation me1` use c = c_hat,
    the fitted mean density."""
    coef = 2.0 * c * c - float(pa.bilap_phi @ pa.phi)
    return pa.bilap_phi + 2.0 * c * pa.lap_phi + coef * pa.phi


def analyze_point(smap: SphereMap, point) -> PointAnalysis:
    """Evaluate every map-level quantity at one interior chart point."""
    point = tuple(float(x) for x in point)
    try:
        return _analyze_point(smap, point)
    except JetDomainError as err:
        raise AnalysisError(f"{err} at point {point}", point) from err


def _analyze_point(smap, point):
    chart = smap.chart
    m = chart.dim
    frame = metric_frame(chart, point, 3)
    env = chart.param_jets(point, 4)
    phi_jets = [eval_jet(c, env) for c in smap.components]
    phi = np.array([j.value for j in phi_jets])

    sphere_defect = 0.0
    if smap.target == TARGET_SPHERE:
        sphere_defect = abs(float(phi @ phi) - smap.radius ** 2)
        if sphere_defect > SPHERE_TOL:
            raise SphereConstraintError(
                f"|phi|^2 deviates from r^2 by {sphere_defect:.3e} at {point}",
                point)

    dphi_jets = [[pj.extract_derivative(i) for pj in phi_jets] for i in range(m)]
    dphi = np.array([[dj.value for dj in row] for row in dphi_jets])

    gram = dphi @ dphi.T
    gram_defect = float(np.max(np.abs(gram - frame.g_values)))

    lap_jets = [laplacian_jet(frame, pj) for pj in phi_jets]
    lap_phi = np.array([lj.value for lj in lap_jets])
    bilap_phi = np.array([laplacian_jet(frame, lj).value for lj in lap_jets])

    # |dphi|^2 as an order-3 jet: g^ij sum_A d_i phi^A d_j phi^A
    energy_jet = None
    for i in range(m):
        for j in range(m):
            dot = None
            for a in range(len(phi_jets)):
                term = dphi_jets[i][a] * dphi_jets[j][a]
                dot = term if dot is None else dot + term
            term = frame.g_inv[i][j] * dot
            energy_jet = term if energy_jet is None else energy_jet + term
    energy = energy_jet.value
    lap_energy = laplacian_jet(frame, energy_jet).value
    d_energy = np.array([energy_jet.extract_derivative(i).value for i in range(m)])
    grad_push = pushforward(frame, d_energy, dphi)

    d_lap = np.array([[lj.extract_derivative(i).value for lj in lap_jets]
                      for i in range(m)])
    grad_lap_dot_grad_phi = float(np.einsum("ij,ia,ja->", frame.g_inv_values, d_lap, dphi))
    div_theta = float(lap_phi @ lap_phi) + grad_lap_dot_grad_phi

    pa = PointAnalysis(
        point=point, phi=phi, dphi=dphi, lap_phi=lap_phi, bilap_phi=bilap_phi,
        energy_density=energy, lap_energy_density=lap_energy,
        grad_energy_pushforward=grad_push, div_theta=div_theta,
        tension=_tension(smap, lap_phi, phi, energy), mean_curvature=None,
        gram_defect=gram_defect, sphere_defect=sphere_defect,
        residual_submanifold=None, residual_full=None,
        residual_constant_density=None)
    if smap.target == TARGET_SPHERE and pa.constraint_defect > SELF_CHECK_TOL:
        raise AnalysisError(
            f"sphere identity <lap phi, phi> = -|dphi|^2 violated by "
            f"{pa.constraint_defect:.3e} at {point}", point)
    if not smap.unit_sphere:
        return pa

    lap_sq = float(lap_phi @ lap_phi)
    if gram_defect <= GRAM_TOL:
        pa.mean_curvature = (lap_phi + m * phi) / m
        tangency = abs(float(pa.mean_curvature @ phi))
        if tangency > TANGENCY_TOL:
            raise AnalysisError(
                f"mean curvature tangency check failed ({tangency:.3e}) at {point}",
                point)
        pa.residual_submanifold = (bilap_phi + 2.0 * m * lap_phi
                                   + (2.0 * m * m - lap_sq) * phi)
    coef = lap_energy + 2.0 * div_theta - lap_sq + 2.0 * energy * energy
    pa.residual_full = (bilap_phi + 2.0 * energy * lap_phi + coef * phi
                        + 2.0 * grad_push)
    pa.residual_constant_density = constant_density_residual(pa, energy)
    return pa


def _tension(smap, lap, phi, energy):
    """tau(phi) = lap phi + (|dphi|^2 / r^2) phi for sphere targets, lap phi
    for Euclidean targets; shared by `analyze_point` and the bienergy
    quadrature."""
    if smap.target != TARGET_SPHERE:
        return lap.copy()
    return lap + (energy / smap.radius ** 2) * phi


def analyze_samples(smap: SphereMap, points) -> list:
    return [analyze_point(smap, p) for p in points]


def _tension_from_frame(smap, frame, env):
    """Tension at one point from order-2 field jets and an order-1 frame:
    the cheaper path the bienergy quadrature takes instead of the order-4
    `analyze_point`."""
    phi_jets = [eval_jet(c, env) for c in smap.components]
    phi = np.array([j.value for j in phi_jets])
    lap = np.array([laplacian_jet(frame, pj).value for pj in phi_jets])
    energy = 0.0
    if smap.target == TARGET_SPHERE:
        dphi = np.array([[pj.extract_derivative(i).value for pj in phi_jets]
                         for i in range(smap.dim)])
        energy = float(np.einsum("ij,ia,ja->", frame.g_inv_values, dphi, dphi))
    return _tension(smap, lap, phi, energy)


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
    shared_frame = None
    if chart.metric_is_constant:
        shared_frame = metric_frame(chart, tuple(points[0]), 1)
    total = 0.0
    for p in points:
        frame = shared_frame or metric_frame(chart, tuple(p), 1)
        env = chart.param_jets(tuple(p), 2)
        tau = _tension_from_frame(smap, frame, env)
        total += float(tau @ tau) * frame.sqrt_det.value
    return 0.5 * total * cell
