"""Command-line interface.

    bieigen classify MANIFEST [--samples N] [--tol T] [--margin F] [--format F]
    bieigen verify   MANIFEST --theorem {takahashi,t1,t2,t3,t4} [...]
    bieigen residual MANIFEST --equation {eq102,mf,me1} [...]
    bieigen bienergy MANIFEST [--grid N]
    bieigen catalog  list | export NAME [--out PATH]

MANIFEST is a manifest JSON path or the name of a built-in catalog entry.
The default tolerance is 1e-8, overridable per run with --tol or globally
with the BIEIGEN_TOL environment variable.

Exit codes: 0 success or PASS, 1 verdict FAIL, 2 manifest or usage errors
(bad flag values included, and a --samples or --grid whose grid would exceed
charts.MAX_POINTS points or cells), 3 evaluation errors (degenerate metric,
function domain, constraint violation, overflow or a non-finite report value;
the offending point or quantity is reported), 4 NOT_APPLICABLE with the unmet
precondition named, 5 residual equation preconditions not satisfied.
"""

import argparse
import math
import os
import sys

import numpy as np

from . import report as rpt
from .analysis import (AnalysisError, bienergy_quadrature,
                       constant_density_residual)
from .catalog import catalog_get, catalog_list
from .charts import DEFAULT_MARGIN, GeometryError, SizeError
from .classify import (DEFAULT_TOL, NOT_APPLICABLE, PASS, THEOREMS,
                       classify, verify)
from .exprs import ParseError, UnboundVariableError
from .jets import JetDomainError
from .manifest import ManifestError, build_map, load_manifest

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_MANIFEST = 2
EXIT_EVAL = 3
EXIT_NOT_APPLICABLE = 4
EXIT_PRECONDITION = 5

TOL_ENV_VAR = "BIEIGEN_TOL"

EQUATIONS = ("eq102", "mf", "me1")


def _load_map(spec):
    """(name, map) from a manifest file path or a catalog entry name."""
    if os.path.exists(spec):
        return build_map(load_manifest(spec))
    try:
        entry = catalog_get(spec)
    except KeyError:
        raise ManifestError(
            f"'{spec}' is neither a manifest file nor a catalog entry name")
    return build_map(entry.manifest)


def cmd_classify(args):
    name, smap = _load_map(args.manifest)
    report = classify(smap, args.samples, args.tol, margin=args.margin)
    doc = rpt.classification_dict(name, report, {"margin": args.margin})
    rpt.require_finite(doc)
    if args.format == "json":
        sys.stdout.write(rpt.to_json(doc))
    elif args.format == "csv":
        sys.stdout.write(rpt.classification_csv(name, report))
    else:
        sys.stdout.write(rpt.classification_text(name, report))
    return EXIT_OK


def cmd_verify(args):
    name, smap = _load_map(args.manifest)
    report = classify(smap, args.samples, args.tol, margin=args.margin)
    verdict = verify(report, args.theorem)
    lines = [f"{name} {verdict}"]
    for key in sorted(verdict.details):
        value = verdict.details[key]
        shown = "n/a" if value is None else (
            rpt.format_float(value) if isinstance(value, float) else value)
        lines.append(f"  {key}: {shown}")
    print("\n".join(lines))
    if verdict.status == PASS:
        return EXIT_OK
    if verdict.status == NOT_APPLICABLE:
        return EXIT_NOT_APPLICABLE
    return EXIT_FAIL


def cmd_residual(args):
    name, smap = _load_map(args.manifest)
    if not smap.unit_sphere:
        print(f"error: residual equations require a unit-sphere target "
              f"({name} targets {smap.target})", file=sys.stderr)
        return EXIT_PRECONDITION
    report = classify(smap, args.samples, args.tol, margin=args.margin)

    summary = {}
    if args.equation == "eq102":
        if not report.is_isometric:
            print(f"error: eq102 requires an isometric map; max Gram defect "
                  f"{report.max_gram_defect:.3e}", file=sys.stderr)
            return EXIT_PRECONDITION
        vectors = [pa.residual_submanifold for pa in report.samples]
    elif args.equation == "mf":
        vectors = [pa.residual_full for pa in report.samples]
    else:
        if not report.is_constant_density:
            print(f"error: me1 requires constant energy density; spread "
                  f"{report.spreads['density']['abs']:.3e} around mean "
                  f"{report.constants.c_hat:.6g}", file=sys.stderr)
            return EXIT_PRECONDITION
        c = report.constants.c_hat
        vectors = [constant_density_residual(pa, c) for pa in report.samples]
        summary["c"] = c

    rows = [(pa.point, float(np.max(np.abs(vec))))
            for pa, vec in zip(report.samples, vectors)]
    norms = np.array([r[1] for r in rows])
    summary["max"] = float(np.max(norms))
    summary["rms"] = float(np.sqrt(np.mean(norms * norms)))

    doc = rpt.residual_table_json(name, args.equation, rows, summary)
    rpt.require_finite(doc)
    if args.format == "json":
        sys.stdout.write(rpt.to_json(doc))
    elif args.format == "csv":
        sys.stdout.write(rpt.residual_table_csv(rows, smap.dim))
    else:
        sys.stdout.write(rpt.residual_table_text(name, args.equation, rows, summary))
    return EXIT_OK


def cmd_bienergy(args):
    name, smap = _load_map(args.manifest)
    value = bienergy_quadrature(smap, args.grid)
    print(f"chart-domain bienergy of {name} (grid {args.grid}): "
          f"{rpt.format_float(value)}")
    return EXIT_OK


def cmd_catalog(args):
    if args.action == "list":
        for entry in catalog_list():
            print(f"{entry.name}: {entry.note}")
        return EXIT_OK
    try:
        entry = catalog_get(args.name)
    except KeyError as err:
        print(f"error: {err.args[0]}", file=sys.stderr)
        return EXIT_MANIFEST
    path = args.out or f"{entry.name}.json"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(rpt.to_json(entry.manifest))
    print(f"wrote {path}")
    return EXIT_OK


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _tolerance(text):
    """--tol, and $BIEIGEN_TOL through the flag's default."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(
            f"must be a finite number > 0 (from --tol or ${TOL_ENV_VAR}), "
            f"got {text!r}")
    return value


def _margin(text):
    value = float(text)
    if not 0 < value < 0.5:
        raise argparse.ArgumentTypeError(f"must satisfy 0 < margin < 0.5, got {text!r}")
    return value


def _add_sampling_flags(sub):
    sub.add_argument("--samples", type=_positive_int, default=64,
                     help="number of interior sample points (default 64)")
    sub.add_argument("--tol", type=_tolerance,
                     default=os.environ.get(TOL_ENV_VAR, repr(DEFAULT_TOL)),
                     help="absolute and relative verdict tolerance "
                          f"(default 1e-8, or ${TOL_ENV_VAR})")
    sub.add_argument("--margin", type=_margin, default=DEFAULT_MARGIN,
                     help="interior inset as a fraction of each non-periodic "
                          "interval (default 1e-3)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="bieigen",
        description="Classify parametric sphere maps and check their "
                    "Laplace and bi-Laplace structure numerically.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("classify", help="full classification report")
    p.add_argument("manifest", help="manifest JSON path or catalog entry name")
    _add_sampling_flags(p)
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.set_defaults(func=cmd_classify)

    p = subs.add_parser("verify", help="run one theorem check")
    p.add_argument("manifest")
    p.add_argument("--theorem", choices=tuple(THEOREMS), required=True)
    _add_sampling_flags(p)
    p.set_defaults(func=cmd_verify)

    p = subs.add_parser("residual", help="per-point biharmonicity residuals")
    p.add_argument("manifest")
    p.add_argument("--equation", choices=EQUATIONS, required=True,
                   help="eq102: isometric submanifold form; mf: general "
                        "sphere-map form; me1: constant-density form")
    _add_sampling_flags(p)
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.set_defaults(func=cmd_residual)

    p = subs.add_parser("bienergy", help="chart-domain bienergy quadrature")
    p.add_argument("manifest")
    p.add_argument("--grid", type=_positive_int, default=128,
                   help="midpoint cells per axis (default 128)")
    p.set_defaults(func=cmd_bienergy)

    p = subs.add_parser("catalog", help="list or export built-in fixtures")
    catalog_subs = p.add_subparsers(dest="action", required=True)
    pl = catalog_subs.add_parser("list")
    pl.set_defaults(func=cmd_catalog, action="list")
    pe = catalog_subs.add_parser("export")
    pe.add_argument("name")
    pe.add_argument("--out", default=None, help="output path (default NAME.json)")
    pe.set_defaults(func=cmd_catalog, action="export")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # numpy overflow leaves inf/nan values, which the reports refuse with
        # exit 3; its warnings would only add lines ahead of that message
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except (ManifestError, ParseError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_MANIFEST
    except SizeError as err:
        flag = "--grid" if args.command == "bienergy" else "--samples"
        print(f"error: {flag}: {err}", file=sys.stderr)
        return EXIT_MANIFEST
    except (AnalysisError, GeometryError, JetDomainError, UnboundVariableError,
            OverflowError, rpt.NonFiniteError) as err:
        print(f"evaluation error: {err}", file=sys.stderr)
        return EXIT_EVAL


if __name__ == "__main__":
    sys.exit(main())
