"""Classification of sampled maps and executable theorem checks.

Constants are least-squares fits over all samples and ambient components:

    lambda_hat = -sum <lap phi, phi>   / sum <phi, phi>
    mu_hat     =  sum <lap2 phi, phi>  / sum <phi, phi>
    rho_hat    = -sum <lap2 phi, lap phi> / sum <lap phi, lap phi>
    c_hat      =  mean |dphi|^2

rho_hat is not applicable when lap phi vanishes identically (constant maps).
Verdicts compare pointwise residual max-norms against one tolerance, applied
absolutely and relatively: tol plus tol times the magnitude of the dominant
term, so they are stable across scales.
The isometry verdict uses a fixed gate on the Gram defect, independent of the
user tolerance.

Each theorem is a row of `THEOREMS`: its hypotheses, shared with the other
theorems, and a conclusion. `verify` never conflates an unmet hypothesis with
a failed conclusion: it returns NOT_APPLICABLE naming the first one unmet.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .analysis import SphereMap, analyze_samples, constant_density_residual
from .charts import DEFAULT_MARGIN

DEFAULT_TOL = 1e-8
ISOMETRY_TOL = 1e-9
RHO_DENOMINATOR_FLOOR = 1e-14
RATIO_FLOOR = 1e-10

PASS = "PASS"
FAIL = "FAIL"
NOT_APPLICABLE = "NOT_APPLICABLE"


@dataclass(frozen=True)
class FittedConstants:
    lambda_hat: float
    mu_hat: float
    rho_hat: Optional[float]
    c_hat: float


def fit_constants(samples) -> FittedConstants:
    """Least-squares eigen-style constants over a sample set."""
    if len(samples) < 2:
        raise ValueError("need at least 2 samples to fit constants")
    phi2 = sum(float(s.phi @ s.phi) for s in samples)
    lap_phi = sum(float(s.lap_phi @ s.phi) for s in samples)
    bilap_phi = sum(float(s.bilap_phi @ s.phi) for s in samples)
    bilap_lap = sum(float(s.bilap_phi @ s.lap_phi) for s in samples)
    lap2 = sum(float(s.lap_phi @ s.lap_phi) for s in samples)
    if phi2 > RHO_DENOMINATOR_FLOOR:
        lambda_hat = -lap_phi / phi2 + 0.0  # +0.0 normalizes -0.0
        mu_hat = bilap_phi / phi2 + 0.0
    else:
        lambda_hat = 0.0
        mu_hat = 0.0
    rho_hat = None if lap2 < RHO_DENOMINATOR_FLOOR else -bilap_lap / lap2 + 0.0
    c_hat = float(np.mean([s.energy_density for s in samples]))
    return FittedConstants(lambda_hat, mu_hat, rho_hat, c_hat)


@dataclass
class ResidualNorm:
    max: float
    rms: float


def _norms(per_point) -> ResidualNorm:
    arr = np.asarray(per_point, dtype=float)
    return ResidualNorm(float(np.max(arr)), float(np.sqrt(np.mean(arr * arr))))


def _inf(vec) -> float:
    return float(np.max(np.abs(vec)))


@dataclass
class ClassificationReport:
    sample_count: int
    dim: int
    ambient_dim: int
    target: str
    radius: float
    unit_sphere: bool
    tol: float
    constants: FittedConstants
    is_isometric: bool
    is_constant_density: bool
    is_harmonic: bool
    is_biharmonic: Optional[bool]
    is_biharmonic_submanifold: Optional[bool]
    is_biharmonic_constant_density: Optional[bool]
    is_eigenmap: bool
    is_bieigenmap: bool
    is_buckling: Optional[bool]
    is_proper_bieigenmap: bool
    residuals: dict = field(default_factory=dict)       # name -> ResidualNorm
    spreads: dict = field(default_factory=dict)         # pointwise-ratio spreads
    eta_max_norm: Optional[float] = None
    eta_deviation_from_unit: Optional[float] = None
    max_gram_defect: float = 0.0
    max_sphere_defect: float = 0.0
    max_constraint_defect: float = 0.0
    samples: list = field(default_factory=list, repr=False)


def _threshold(tol, scale):
    """`tol` applied absolutely and relatively to the dominant term `scale`."""
    return tol + tol * abs(scale)


def _spread(values, around=None):
    """Max deviation of pointwise values, absolute and relative to `around`
    (the fitted constant; the mean when not given)."""
    if not values:
        return None
    arr = np.asarray(values)
    center = float(np.mean(arr)) if around is None else around
    absolute = float(np.max(np.abs(arr - center)))
    return {"abs": absolute, "rel": absolute / max(1.0, abs(center))}


def verdicts(smap: SphereMap, samples, fitted: FittedConstants,
             tol=DEFAULT_TOL) -> ClassificationReport:
    """Assemble the full classification report from per-point analyses.

    The constant-density verdict evaluates its residual with c = c_hat, the
    mean density, not with the pointwise density of the per-point
    `residual_constant_density` column."""
    if not samples:
        raise ValueError("empty sample set")
    m = smap.dim
    lam, mu, rho, c = (fitted.lambda_hat, fitted.mu_hat, fitted.rho_hat,
                       fitted.c_hat)
    per_point, scales = {}, {}
    lambda_ratios, mu_ratios, rho_ratios = [], [], []
    eta_norms = []

    for s in samples:
        phi_inf = _inf(s.phi)
        lap_inf = _inf(s.lap_phi)
        bilap_inf = _inf(s.bilap_phi)
        lap_sq = float(s.lap_phi @ s.lap_phi)
        full_coef = (s.lap_energy_density + 2 * s.div_theta - lap_sq
                     + 2 * s.energy_density ** 2)
        # one row per residual: its name, its vector (None where it does not
        # apply) and the terms whose running max scales its threshold; the
        # terms keep their order, since max() with a NaN term depends on it
        table = (
            ("eigen", s.lap_phi + lam * s.phi, (lap_inf, abs(lam) * phi_inf)),
            ("bieigen", s.bilap_phi - mu * s.phi, (bilap_inf, abs(mu) * phi_inf)),
            ("harmonic", s.tension,
             (lap_inf, s.energy_density * phi_inf / smap.radius ** 2
              if smap.target == "sphere" else lap_inf)),
            ("buckling", None, ()) if rho is None else
            ("buckling", s.bilap_phi + rho * s.lap_phi, (bilap_inf, abs(rho) * lap_inf)),
            ("biharmonic_submanifold", s.residual_submanifold,
             (bilap_inf, 2 * m * lap_inf, abs(2 * m * m - lap_sq) * phi_inf)),
            ("biharmonic_full", s.residual_full,
             (bilap_inf, 2 * s.energy_density * lap_inf, abs(full_coef) * phi_inf,
              2 * _inf(s.grad_energy_pushforward))),
            ("biharmonic_constant_density",
             None if s.residual_constant_density is None
             else constant_density_residual(s, c),
             (bilap_inf, 2 * abs(c) * lap_inf,
              abs(2 * c * c - float(s.bilap_phi @ s.phi)) * phi_inf)),
        )
        for name, vec, terms in table:
            if vec is not None:
                per_point.setdefault(name, []).append(_inf(vec))
                scales[name] = max(scales.get(name, 0.0), *terms)

        p2 = float(s.phi @ s.phi)
        if p2 > RATIO_FLOOR:
            lambda_ratios.append(-float(s.lap_phi @ s.phi) / p2)
            mu_ratios.append(float(s.bilap_phi @ s.phi) / p2)
        if lap_sq > RATIO_FLOOR:
            rho_ratios.append(-float(s.bilap_phi @ s.lap_phi) / lap_sq)
        if s.mean_curvature is not None:
            eta_norms.append(float(np.linalg.norm(s.mean_curvature)))

    residuals = {name: _norms(values) for name, values in per_point.items()}

    def holds(name):
        if name not in residuals:
            return None
        return residuals[name].max < _threshold(tol, scales[name])

    spreads = {
        "density": _spread([s.energy_density for s in samples], c),
        "lambda_pointwise": _spread(lambda_ratios, lam),
        "mu_pointwise": _spread(mu_ratios, mu),
        "rho_pointwise": _spread(rho_ratios, rho) if rho is not None
        else _spread(rho_ratios),
    }

    max_gram_defect = max(s.gram_defect for s in samples)
    is_constant_density = spreads["density"]["abs"] <= _threshold(tol, c)
    is_harmonic = holds("harmonic")
    is_eigenmap = holds("eigen")
    is_bieigenmap = holds("bieigen")
    if "biharmonic_full" in residuals:
        is_biharmonic = holds("biharmonic_full")
    elif smap.target == "euclidean":
        # flat target: biharmonic means the component bi-Laplacian vanishes
        bilap_max = max(_inf(s.bilap_phi) for s in samples)
        is_biharmonic = bilap_max < _threshold(tol, max(1.0, scales["bieigen"]))
    else:
        # sphere of radius != 1: the residual formulas are stated for the
        # unit sphere only, but harmonic maps are biharmonic for any target
        is_biharmonic = True if is_harmonic else None

    return ClassificationReport(
        sample_count=len(samples), dim=smap.dim, ambient_dim=smap.ambient_dim,
        target=smap.target, radius=smap.radius, unit_sphere=smap.unit_sphere,
        tol=tol, constants=fitted,
        is_isometric=max_gram_defect <= ISOMETRY_TOL,
        is_constant_density=is_constant_density,
        is_harmonic=is_harmonic,
        is_biharmonic=is_biharmonic,
        is_biharmonic_submanifold=holds("biharmonic_submanifold"),
        is_biharmonic_constant_density=(holds("biharmonic_constant_density")
                                        if is_constant_density else None),
        is_eigenmap=is_eigenmap,
        is_bieigenmap=is_bieigenmap,
        is_buckling=holds("buckling"),
        is_proper_bieigenmap=is_bieigenmap and not is_eigenmap,
        residuals=residuals, spreads=spreads,
        eta_max_norm=max(eta_norms) if eta_norms else None,
        eta_deviation_from_unit=(max(abs(n - 1.0) for n in eta_norms)
                                 if eta_norms else None),
        max_gram_defect=max_gram_defect,
        max_sphere_defect=max(s.sphere_defect for s in samples),
        max_constraint_defect=max(s.constraint_defect for s in samples),
        samples=list(samples))


def classify(smap: SphereMap, sample_count=64, tol=DEFAULT_TOL, *,
             margin=DEFAULT_MARGIN) -> ClassificationReport:
    """Sample a map on its chart and produce the full report."""
    points = smap.chart.sample_points(sample_count, margin)
    samples = analyze_samples(smap, points)
    return verdicts(smap, samples, fit_constants(samples), tol)


# --------------------------------------------------------------------------
# theorem checks
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class TheoremVerdict:
    theorem: str
    status: str                 # PASS, FAIL or NOT_APPLICABLE
    reason: Optional[str] = None
    details: dict = field(default_factory=dict)

    def __str__(self):
        extra = f" ({self.reason})" if self.reason else ""
        return f"{self.theorem}: {self.status}{extra}"


# Each hypothesis is a (predicate on the report, reason named when it fails)
# row; theorems share rows and list them in the order they are checked.
SPHERE_TARGET = (lambda r: r.target == "sphere", "image does not lie on a sphere")
UNIT_SPHERE = (lambda r: r.unit_sphere, "target is not the unit sphere")
ISOMETRIC = (lambda r: r.is_isometric, "map is not isometric")
CONSTANT_DENSITY = (lambda r: r.is_constant_density, "energy density is not constant")
BIHARMONIC = (lambda r: r.is_biharmonic, "map is not biharmonic")
EIGENMAP = (lambda r: r.is_eigenmap, "map is not an eigenmap")
BIEIGENMAP = (lambda r: r.is_bieigenmap, "map is not a bi-eigenmap")
BUCKLING = (lambda r: r.is_buckling, "map is not a buckling eigenmap")
NOT_HARMONIC = (lambda r: not r.is_harmonic, "map is harmonic")


def _takahashi(report, thr):
    """Minimal isometric immersions into a radius-r sphere have eigenvalue
    m / r^2; checks the fitted eigenvalue and minimality via the tension."""
    lam = report.constants.lambda_hat
    expected = report.dim / report.radius ** 2
    tension_max = report.residuals["harmonic"].max
    ok = abs(lam - expected) < thr(expected) and tension_max < thr(max(1.0, abs(lam)))
    return ok, {"lambda_hat": lam, "expected_lambda": expected,
                "tension_max": tension_max}


def _t1(report, thr):
    """A biharmonic isometric immersion into the unit sphere that is a
    bi-eigenmap must be minimal with bi-eigenvalue m^2 (and eigenvalue m)."""
    m = report.dim
    c = report.constants
    eta_max = report.eta_max_norm if report.eta_max_norm is not None else float("inf")
    ok = (abs(c.mu_hat - m * m) < thr(m * m)
          and eta_max < thr(1.0)
          and report.is_eigenmap
          and abs(c.lambda_hat - m) < thr(m))
    return ok, {"mu_hat": c.mu_hat, "expected_mu": float(m * m),
                "eta_max_norm": report.eta_max_norm,
                "lambda_hat": c.lambda_hat, "expected_lambda": float(m)}


def _t2(report, thr):
    """A proper biharmonic isometric immersion into the unit sphere that is a
    buckling eigenmap has buckling constant 2m and unit mean curvature."""
    m = report.dim
    rho = report.constants.rho_hat
    dev = (report.eta_deviation_from_unit
           if report.eta_deviation_from_unit is not None else float("inf"))
    ok = abs(rho - 2 * m) < thr(2 * m) and dev < thr(1.0)
    return ok, {"rho_hat": rho, "expected_rho": float(2 * m),
                "eta_unit_deviation": report.eta_deviation_from_unit}


def _t3(report, thr):
    """A biharmonic constant-density bi-eigenmap into the unit sphere is
    harmonic (no isometry assumption)."""
    return report.is_harmonic, {"tension_max": report.residuals["harmonic"].max}


def _t4(report, thr):
    """A biharmonic constant-density buckling eigenmap into the unit sphere is
    harmonic or has buckling constant 2c."""
    if report.is_harmonic:
        return True, {"branch": "harmonic"}
    c = report.constants.c_hat
    rho = report.constants.rho_hat
    return abs(rho - 2 * c) < thr(2 * c), {
        "branch": "buckling", "rho_hat": rho, "expected_rho": 2 * c}


# name -> (hypotheses in check order, conclusion)
THEOREMS = {
    "takahashi": ((SPHERE_TARGET, ISOMETRIC, EIGENMAP), _takahashi),
    "t1": ((UNIT_SPHERE, ISOMETRIC, BIHARMONIC, BIEIGENMAP), _t1),
    "t2": ((UNIT_SPHERE, ISOMETRIC, BIHARMONIC, BUCKLING, NOT_HARMONIC), _t2),
    "t3": ((UNIT_SPHERE, CONSTANT_DENSITY, BIHARMONIC, BIEIGENMAP), _t3),
    "t4": ((UNIT_SPHERE, CONSTANT_DENSITY, BIHARMONIC, BUCKLING), _t4),
}


def verify(report: ClassificationReport, theorem: str) -> TheoremVerdict:
    """NOT_APPLICABLE naming the first unmet hypothesis of `theorem`, else
    PASS or FAIL on its conclusion."""
    try:
        hypotheses, conclusion = THEOREMS[theorem]
    except KeyError:
        raise ValueError(f"unknown theorem '{theorem}'") from None
    for holds, reason in hypotheses:
        if not holds(report):
            return TheoremVerdict(theorem, NOT_APPLICABLE, reason)
    ok, details = conclusion(report, lambda scale: _threshold(report.tol, scale))
    return TheoremVerdict(theorem, PASS if ok else FAIL, None, details)
