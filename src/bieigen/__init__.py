"""Numerical Laplace and bi-Laplace analysis of parametric maps into spheres.

The package evaluates Laplacians, bi-Laplacians, energy densities, tension
fields and mean curvature for maps defined by closed-form expressions on a
Riemannian chart, classifies maps as eigenmaps, bi-eigenmaps or buckling
eigenmaps, checks three equivalent pointwise biharmonicity characterizations,
and verifies the classical eigenvalue relations on concrete instances to near
machine precision. Derivatives come from exact truncated Taylor arithmetic,
never from finite differences.
"""

from .analysis import (AnalysisError, PointAnalysis, SphereConstraintError,
                       SphereMap, analyze_point, analyze_samples,
                       bienergy_quadrature, constant_density_residual)
from .catalog import CatalogEntry, catalog_get, catalog_list, catalog_names
from .charts import (Chart, ExplicitMetric, GeometryError, InducedMetric,
                     MetricFrame, bilaplacian, gradient_pushforward,
                     laplace_beltrami, laplacian_jet, metric_frame)
from .classify import (ClassificationReport, FittedConstants, TheoremVerdict,
                       classify, fit_constants, verdicts, verify)
from .exprs import (Expr, ParseError, UnboundVariableError, eval_jet,
                    eval_value, parse, to_source)
from .jets import Jet, JetDomainError
from .manifest import ManifestError, build_map, load_manifest

__version__ = "0.1.0"
