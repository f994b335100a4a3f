"""Classification of sampled maps and executable theorem checks.

Constants are least-squares fits over all samples and ambient components:

    lambda_hat = -sum <lap phi, phi>   / sum <phi, phi>
    mu_hat     =  sum <lap2 phi, phi>  / sum <phi, phi>
    rho_hat    = -sum <lap2 phi, lap phi> / sum <lap phi, lap phi>
    c_hat      =  mean |dphi|^2

rho_hat is not applicable when lap phi vanishes identically (constant maps).
Verdicts compare pointwise residual max-norms against one tolerance, applied
absolutely and relatively: tol plus tol times the dominant term, the largest
|coefficient| times max-norm of the residual's (coefficient, vector) terms
(`analysis.residual_terms`), so they are stable across scales.
The isometry verdict holds when every sample is isometric by the analysis's
fixed gate on the Gram defect (`SampleBatch.isometric`), independent of the
user tolerance.

Each theorem is a row of `THEOREMS`: its hypotheses, shared with the other
theorems, and a conclusion. `verify` never conflates an unmet hypothesis with
a failed conclusion: it returns NOT_APPLICABLE naming the first one unmet.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .analysis import (SampleBatch, SphereMap, analyze_samples, inf_norms,
                       residual_terms, sequential_sums, sum_terms)
from .charts import DEFAULT_MARGIN

DEFAULT_TOL = 1e-8
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


def fit_constants(samples: SampleBatch) -> FittedConstants:
    """Least-squares eigen-style constants over a sample set."""
    if len(samples) < 2:
        raise ValueError("need at least 2 samples to fit constants")
    s = samples
    phi2, lap_phi, bilap_phi, bilap_lap, lap2 = sequential_sums([
        s.phi_sq, s.lap_dot_phi, s.bilap_dot_phi, s.bilap_dot_lap, s.lap_sq])
    if phi2 > RHO_DENOMINATOR_FLOOR:
        lambda_hat = -lap_phi / phi2 + 0.0  # +0.0 normalizes -0.0
        mu_hat = bilap_phi / phi2 + 0.0
    else:
        lambda_hat = 0.0
        mu_hat = 0.0
    rho_hat = None if lap2 < RHO_DENOMINATOR_FLOOR else -bilap_lap / lap2 + 0.0
    c_hat = float(np.mean(samples.energy_density))
    return FittedConstants(lambda_hat, mu_hat, rho_hat, c_hat)


@dataclass
class ResidualNorm:
    """Max and rms, over the rows where the residual is defined, of its
    per-point max-norms; `per_point` holds those norms at every sample.
    `scale` is its dominant term over those rows, the largest |coefficient|
    times max-norm of one of its (coefficient, vector) terms, and
    `threshold` the tolerance applied absolutely and relatively to it: the
    residual vanishes when `max` is below `threshold`."""

    max: float
    rms: float
    per_point: np.ndarray = field(repr=False, compare=False)
    scale: float = field(default=0.0, repr=False, compare=False)
    threshold: float = field(default=0.0, repr=False, compare=False)


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
    samples: Optional[SampleBatch] = field(default=None, repr=False)
    # the checked (header, per-point Table) that report.require_finite keeps
    document: object = field(default=None, init=False, repr=False, compare=False)


def _threshold(tol, scale):
    """`tol` applied absolutely and relatively to the dominant term `scale`."""
    return tol + tol * abs(scale)


def _spread(values, around=None):
    """Max deviation of pointwise values, absolute and relative to `around`
    (the fitted constant; the mean when not given)."""
    if not len(values):
        return None
    center = float(np.mean(values)) if around is None else around
    absolute = float(np.max(np.abs(values - center)))
    return {"abs": absolute, "rel": absolute / max(1.0, abs(center))}


def verdicts(smap: SphereMap, samples: SampleBatch, fitted: FittedConstants,
             tol=DEFAULT_TOL) -> ClassificationReport:
    """Assemble the full classification report from the per-point analyses.

    Each residual is a row of (coefficient, vector) terms; its threshold
    scale is the largest |coefficient| times max-norm of a vector over the
    rows where it is defined, and both stay on its ResidualNorm. The
    harmonic, submanifold and full residuals are read from the analysis
    (`samples.tension`, `residual_submanifold`, `residual_full`), which
    formed them from the same terms; the eigen, bi-eigen and buckling
    residuals are summed here, and so is the constant-density one, which is
    evaluated with c = c_hat, the mean density, not with the pointwise
    density of the per-point `residual_constant_density` column.

    All rows are reduced in one stacked pass: one (R, P) array of per-point
    max-norms, each row's `per_point` its own row of it, whose max and rms
    (the square root of numpy's mean of the squares) are taken over each
    row's defined points; and one zero-padded (R, T, P) array of
    term magnitudes, zero off a row's defined points, whose positive entries
    give each row's scale (0.0 when there are none: a NaN term, the padding
    and the points where a row is not defined never win)."""
    if not len(samples):
        raise ValueError("empty sample set")
    s = samples
    lam, mu, rho, c = (fitted.lambda_hat, fitted.mu_hat, fitted.rho_hat,
                       fitted.c_hat)
    # the max-norms of each vector a term may hold, by identity, taken once
    norms = {id(v): inf_norms(v)
             for v in (s.phi, s.lap_phi, s.bilap_phi, s.grad_energy_pushforward)}
    forms = residual_terms(s, c, smap.target, smap.radius)
    table = (("eigen", ((1.0, s.lap_phi), (lam, s.phi))),
             ("bieigen", ((1.0, s.bilap_phi), (-mu, s.phi))),
             ("buckling", None if rho is None else ((1.0, s.bilap_phi), (rho, s.lap_phi))),
             next(forms), *(forms if smap.unit_sphere else ()))
    formed = {"harmonic": s.tension, "biharmonic_submanifold": s.residual_submanifold,
              "biharmonic_full": s.residual_full}
    # the rows defined at some points only, by their masks; the others are
    # defined at every point
    partial = {"biharmonic_submanifold": s.isometric}
    rows = [(name, terms) for name, terms in table
            if terms is not None and (name not in partial or partial[name].any())]
    # each row's vector is summed into its place, so no row's temporaries
    # outlive it, and the stack is dropped once its norms are taken
    vectors = np.empty((len(rows),) + s.phi.shape)
    for r, (name, terms) in enumerate(rows):
        vectors[r] = formed[name] if name in formed else sum_terms(terms)
    per_point = inf_norms(vectors)
    del vectors
    tops = per_point.max(axis=1).tolist()
    rms = np.sqrt((per_point * per_point).mean(axis=1)).tolist()
    magnitudes = np.zeros((len(rows), max(len(terms) for _, terms in rows), len(s)))
    for r, (name, terms) in enumerate(rows):
        for t, (k, vector) in enumerate(terms):
            np.multiply(abs(k), norms[id(vector)], out=magnitudes[r, t])
        if name in partial:
            values = per_point[r][partial[name]]
            tops[r], rms[r] = float(values.max()), float(np.sqrt((values * values).mean()))
            magnitudes[r][:, ~partial[name]] = 0.0
    np.copyto(magnitudes, 0.0, where=~(magnitudes > 0.0))  # np.where, in place
    scales = magnitudes.max(axis=(1, 2)).tolist()
    residuals = {name: ResidualNorm(top, mean, point, scale, _threshold(tol, scale))
                 for (name, _), top, mean, point, scale in zip(rows, tops, rms, per_point,
                                                               scales)}

    def holds(name):
        if name not in residuals:
            return None
        return residuals[name].max < residuals[name].threshold

    ratio_rows, rho_rows = s.phi_sq > RATIO_FLOOR, s.lap_sq > RATIO_FLOOR
    rho_ratios = -s.bilap_dot_lap[rho_rows] / s.lap_sq[rho_rows]
    p2 = s.phi_sq[ratio_rows]
    spreads = {
        "density": _spread(s.energy_density, c),
        "lambda_pointwise": _spread(-s.lap_dot_phi[ratio_rows] / p2, lam),
        "mu_pointwise": _spread(s.bilap_dot_phi[ratio_rows] / p2, mu),
        "rho_pointwise": _spread(rho_ratios, rho) if rho is not None
        else _spread(rho_ratios),
    }
    # maxima over the samples skip NaN (np.fmax), so a NaN is refused by the
    # report at its point, not in the maximum
    eta_norms = np.empty(0) if s.mean_curvature_norm is None \
        else s.mean_curvature_norm[s.isometric]

    max_gram_defect = float(np.fmax.reduce(s.gram_defect))
    is_constant_density = spreads["density"]["abs"] <= _threshold(tol, c)
    is_harmonic = holds("harmonic")
    is_eigenmap = holds("eigen")
    is_bieigenmap = holds("bieigen")
    if "biharmonic_full" in residuals:
        is_biharmonic = holds("biharmonic_full")
    elif smap.target == "euclidean":
        # flat target: biharmonic means the component bi-Laplacian vanishes
        bilap_max = float(np.fmax.reduce(norms[id(s.bilap_phi)]))
        is_biharmonic = bilap_max < _threshold(tol, max(1.0, residuals["bieigen"].scale))
    else:
        # sphere of radius != 1: the residual formulas are stated for the
        # unit sphere only, but harmonic maps are biharmonic for any target
        is_biharmonic = True if is_harmonic else None

    return ClassificationReport(
        sample_count=len(s), dim=smap.dim, ambient_dim=smap.ambient_dim,
        target=smap.target, radius=smap.radius, unit_sphere=smap.unit_sphere,
        tol=tol, constants=fitted,
        is_isometric=bool(s.isometric.all()),
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
        eta_max_norm=float(np.fmax.reduce(eta_norms)) if len(eta_norms) else None,
        eta_deviation_from_unit=(float(np.fmax.reduce(np.abs(eta_norms - 1.0)))
                                 if len(eta_norms) else None),
        max_gram_defect=max_gram_defect,
        max_sphere_defect=float(np.fmax.reduce(s.sphere_defect)),
        max_constraint_defect=float(np.fmax.reduce(s.constraint_defect)),
        samples=s)


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
