"""Classification of sampled maps and executable theorem checks.

Constants are least-squares fits over all samples and ambient components:

    lambda_hat = -sum <lap phi, phi>   / sum <phi, phi>
    mu_hat     =  sum <lap2 phi, phi>  / sum <phi, phi>
    rho_hat    = -sum <lap2 phi, lap phi> / sum <lap phi, lap phi>
    c_hat      =  mean |dphi|^2

rho_hat is not applicable when lap phi vanishes identically (constant maps).
Verdicts compare pointwise residual max-norms against tol_abs plus tol_rel
times the magnitude of the dominant term, so they are stable across scales.
The isometry verdict uses a fixed gate on the Gram defect, independent of the
user tolerance.

The five theorem verifiers never conflate an unmet precondition with a failed
conclusion: they return NOT_APPLICABLE naming the missing hypothesis.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .analysis import SphereMap, analyze_samples, constant_density_residual
from .charts import DEFAULT_MARGIN

DEFAULT_TOL_ABS = 1e-8
DEFAULT_TOL_REL = 1e-8
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
    tol_abs: float
    tol_rel: float
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


def _threshold(tol_abs, tol_rel, scale):
    return tol_abs + tol_rel * abs(scale)


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
             tol_abs=DEFAULT_TOL_ABS, tol_rel=DEFAULT_TOL_REL) -> ClassificationReport:
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
        return residuals[name].max < _threshold(tol_abs, tol_rel, scales[name])

    spreads = {
        "density": _spread([s.energy_density for s in samples], c),
        "lambda_pointwise": _spread(lambda_ratios, lam),
        "mu_pointwise": _spread(mu_ratios, mu),
        "rho_pointwise": _spread(rho_ratios, rho) if rho is not None
        else _spread(rho_ratios),
    }

    max_gram_defect = max(s.gram_defect for s in samples)
    is_constant_density = spreads["density"]["abs"] <= _threshold(tol_abs, tol_rel, c)
    is_harmonic = holds("harmonic")
    is_eigenmap = holds("eigen")
    is_bieigenmap = holds("bieigen")
    if "biharmonic_full" in residuals:
        is_biharmonic = holds("biharmonic_full")
    elif smap.target == "euclidean":
        # flat target: biharmonic means the component bi-Laplacian vanishes
        bilap_max = max(_inf(s.bilap_phi) for s in samples)
        is_biharmonic = bilap_max < _threshold(tol_abs, tol_rel,
                                               max(1.0, scales["bieigen"]))
    else:
        # sphere of radius != 1: the residual formulas are stated for the
        # unit sphere only, but harmonic maps are biharmonic for any target
        is_biharmonic = True if is_harmonic else None

    return ClassificationReport(
        sample_count=len(samples), dim=smap.dim, ambient_dim=smap.ambient_dim,
        target=smap.target, radius=smap.radius, unit_sphere=smap.unit_sphere,
        tol_abs=tol_abs, tol_rel=tol_rel, constants=fitted,
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


def classify(smap: SphereMap, sample_count=64, tol_abs=DEFAULT_TOL_ABS,
             tol_rel=DEFAULT_TOL_REL, margin=DEFAULT_MARGIN) -> ClassificationReport:
    """Sample a map on its chart and produce the full report."""
    points = smap.chart.sample_points(sample_count, margin)
    samples = analyze_samples(smap, points)
    return verdicts(smap, samples, fit_constants(samples), tol_abs, tol_rel)


# --------------------------------------------------------------------------
# theorem verifiers
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


def _na(theorem, reason):
    return TheoremVerdict(theorem, NOT_APPLICABLE, reason)


def verify_takahashi(report: ClassificationReport) -> TheoremVerdict:
    """Minimal isometric immersions into a radius-r sphere have eigenvalue
    m / r^2; checks the fitted eigenvalue and minimality via the tension."""
    name = "takahashi"
    if report.target != "sphere":
        return _na(name, "image does not lie on a sphere")
    if not report.is_isometric:
        return _na(name, "map is not isometric")
    if not report.is_eigenmap:
        return _na(name, "map is not an eigenmap")
    expected = report.dim / report.radius ** 2
    thr = _threshold(report.tol_abs, report.tol_rel, expected)
    tension_max = report.residuals["harmonic"].max
    tension_thr = _threshold(report.tol_abs, report.tol_rel,
                             max(1.0, abs(report.constants.lambda_hat)))
    ok = abs(report.constants.lambda_hat - expected) < thr and tension_max < tension_thr
    return TheoremVerdict(name, PASS if ok else FAIL, None, {
        "lambda_hat": report.constants.lambda_hat,
        "expected_lambda": expected,
        "tension_max": tension_max,
    })


def verify_t1(report: ClassificationReport) -> TheoremVerdict:
    """A biharmonic isometric immersion into the unit sphere that is a
    bi-eigenmap must be minimal with bi-eigenvalue m^2 (and eigenvalue m)."""
    name = "t1"
    if not report.unit_sphere:
        return _na(name, "target is not the unit sphere")
    if not report.is_isometric:
        return _na(name, "map is not isometric")
    if not report.is_biharmonic:
        return _na(name, "map is not biharmonic")
    if not report.is_bieigenmap:
        return _na(name, "map is not a bi-eigenmap")
    m = report.dim
    thr_mu = _threshold(report.tol_abs, report.tol_rel, m * m)
    thr_eta = _threshold(report.tol_abs, report.tol_rel, 1.0)
    thr_lam = _threshold(report.tol_abs, report.tol_rel, m)
    eta_max = report.eta_max_norm if report.eta_max_norm is not None else float("inf")
    ok = (abs(report.constants.mu_hat - m * m) < thr_mu
          and eta_max < thr_eta
          and report.is_eigenmap
          and abs(report.constants.lambda_hat - m) < thr_lam)
    return TheoremVerdict(name, PASS if ok else FAIL, None, {
        "mu_hat": report.constants.mu_hat, "expected_mu": float(m * m),
        "eta_max_norm": report.eta_max_norm,
        "lambda_hat": report.constants.lambda_hat, "expected_lambda": float(m),
    })


def verify_t2(report: ClassificationReport) -> TheoremVerdict:
    """A proper biharmonic isometric immersion into the unit sphere that is a
    buckling eigenmap has buckling constant 2m and unit mean curvature."""
    name = "t2"
    if not report.unit_sphere:
        return _na(name, "target is not the unit sphere")
    if not report.is_isometric:
        return _na(name, "map is not isometric")
    if not report.is_biharmonic:
        return _na(name, "map is not biharmonic")
    if not report.is_buckling:
        return _na(name, "map is not a buckling eigenmap")
    if report.is_harmonic:
        return _na(name, "map is harmonic")
    m = report.dim
    thr_rho = _threshold(report.tol_abs, report.tol_rel, 2 * m)
    thr_eta = _threshold(report.tol_abs, report.tol_rel, 1.0)
    dev = (report.eta_deviation_from_unit
           if report.eta_deviation_from_unit is not None else float("inf"))
    ok = abs(report.constants.rho_hat - 2 * m) < thr_rho and dev < thr_eta
    return TheoremVerdict(name, PASS if ok else FAIL, None, {
        "rho_hat": report.constants.rho_hat, "expected_rho": float(2 * m),
        "eta_unit_deviation": report.eta_deviation_from_unit,
    })


def verify_t3(report: ClassificationReport) -> TheoremVerdict:
    """A biharmonic constant-density bi-eigenmap into the unit sphere is
    harmonic (no isometry assumption)."""
    name = "t3"
    if not report.unit_sphere:
        return _na(name, "target is not the unit sphere")
    if not report.is_constant_density:
        return _na(name, "energy density is not constant")
    if not report.is_biharmonic:
        return _na(name, "map is not biharmonic")
    if not report.is_bieigenmap:
        return _na(name, "map is not a bi-eigenmap")
    ok = report.is_harmonic
    return TheoremVerdict(name, PASS if ok else FAIL, None, {
        "tension_max": report.residuals["harmonic"].max,
    })


def verify_t4(report: ClassificationReport) -> TheoremVerdict:
    """A biharmonic constant-density buckling eigenmap into the unit sphere is
    harmonic or has buckling constant 2c."""
    name = "t4"
    if not report.unit_sphere:
        return _na(name, "target is not the unit sphere")
    if not report.is_constant_density:
        return _na(name, "energy density is not constant")
    if not report.is_biharmonic:
        return _na(name, "map is not biharmonic")
    if not report.is_buckling:
        return _na(name, "map is not a buckling eigenmap")
    c = report.constants.c_hat
    if report.is_harmonic:
        return TheoremVerdict(name, PASS, None, {"branch": "harmonic"})
    thr = _threshold(report.tol_abs, report.tol_rel, 2 * c)
    ok = abs(report.constants.rho_hat - 2 * c) < thr
    return TheoremVerdict(name, PASS if ok else FAIL, None, {
        "branch": "buckling", "rho_hat": report.constants.rho_hat,
        "expected_rho": 2 * c,
    })


THEOREMS = {
    "takahashi": verify_takahashi,
    "t1": verify_t1,
    "t2": verify_t2,
    "t3": verify_t3,
    "t4": verify_t4,
}


def verify(report: ClassificationReport, theorem: str) -> TheoremVerdict:
    try:
        checker = THEOREMS[theorem]
    except KeyError:
        raise ValueError(f"unknown theorem '{theorem}'") from None
    return checker(report)
