"""The benchmark's three workloads: their inputs, operations and output checks.

Every operation drives bieigen from outside, through ``bieigen.cli.main`` or
the public library functions, and is checked against a closed form, the
catalog's ``expected`` data, or a documented property of the reports. Module
attributes are looked up at call time, so the traced run's wrappers apply.

A workload is a fixed list of operations (one pass). Its inputs come from the
seed; its shape (map count, sample counts, grids) does not, so every seed
costs the same and every pass attempts the same operations.
"""

import contextlib
import io
import itertools
import json
import math
import random
import sys
from dataclasses import dataclass
from typing import Callable

THEOREMS = ("takahashi", "t1", "t2", "t3", "t4")
EQUATIONS = ("eq102", "mf", "me1")
EXIT_FOR_STATUS = {"PASS": 0, "FAIL": 1, "NOT_APPLICABLE": 4}
EXIT_PRECONDITION = 5
DEFAULT_MARGIN = 1e-3  # the CLI's --margin default, echoed in JSON settings

# A biharmonic map's residual is rounding noise (about 1e-12 on the catalog);
# a map that is not biharmonic has residuals of order one.
RESIDUAL_NOISE = 1e-6
CONST_TOL = 1e-9        # relative, on fitted constants and densities
BIENERGY_TOL = 1e-9     # relative, with the same absolute floor


class CheckError(AssertionError):
    """An operation's output or exit code disagrees with what it must be."""


@dataclass
class Op:
    """One closed-loop operation. ``run`` is timed; ``check`` is not.

    kind is "classify" (sample-and-classify work), "bienergy", "other", or
    "fault" (a known program fault, kept out of the throughput metrics).
    ``check`` receives the run's result and returns (points, cells): the
    sample points and midpoint cells the operation analysed.
    """
    name: str
    kind: str
    run: Callable
    check: Callable


@dataclass(frozen=True)
class CliResult:
    code: object
    out: str
    err: str


def run_cli(argv):
    """bieigen.cli.main in process, with stdout and stderr captured.

    Exceptions other than SystemExit escape, and fail the operation."""
    cli = sys.modules["bieigen.cli"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return CliResult(code, out.getvalue(), err.getvalue())


def require(condition, message):
    if not condition:
        raise CheckError(message)


def close(got, want, rel, what):
    if want is None or got is None:
        require(got is None and want is None, f"{what}: got {got}, want {want}")
        return
    require(abs(got - want) <= rel * max(1.0, abs(want)),
            f"{what}: got {got!r}, want {want!r}")


def expect_code(result, code):
    require(result.code == code,
            f"exit code {result.code}, want {code}; stderr: {result.err.strip()[-200:]}")


def sample_count(dim, samples):
    """Points in the chart's interior tensor grid for --samples N
    (Chart.sample_points: ceil(N ** (1/m)) per axis, at least 2)."""
    return max(2, math.ceil(max(1, samples) ** (1.0 / dim))) ** dim


def write_manifest(workdir, doc):
    path = workdir / f"{doc['name']}.json"
    path.write_text(json.dumps(doc, indent=1, sort_keys=True), encoding="utf-8")
    return str(path)


def midpoint_axes(domain, grid):
    axes, cell = [], 1.0
    for lo, hi in domain:
        h = (hi - lo) / grid
        cell *= h
        axes.append([lo + h * (k + 0.5) for k in range(grid)])
    return axes, cell


# --------------------------------------------------------------------------
# report parsing and property checks shared by the workloads
# --------------------------------------------------------------------------

TEXT_VERDICTS = {
    "isometric": "is_isometric", "constant density": "is_constant_density",
    "harmonic": "is_harmonic", "biharmonic": "is_biharmonic",
    "eigenmap": "is_eigenmap", "bi-eigenmap": "is_bieigenmap",
    "buckling eigenmap": "is_buckling", "proper bi-eigenmap": "is_proper_bieigenmap",
}


def check_text_report(text, constants, verdicts, eta_max_norm=False):
    """Constants, verdicts and mean curvature (False: not checked) in a text
    classification; eta_max_norm None means the line must be absent."""
    lines = text.splitlines()
    const_line = next((l for l in lines if l.strip().startswith("constants:")), None)
    require(const_line is not None, "text report has no constants line")
    tokens = const_line.split(":", 1)[1].split()
    shown = dict(zip(tokens[::2], tokens[1::2]))
    for key, want in constants.items():
        got = None if shown.get(key) == "n/a" else float(shown[key])
        close(got, want, CONST_TOL, f"text {key}")
    labels = {}
    for line in lines:
        key, _, value = line.strip().rpartition(" ")
        if key.strip() in TEXT_VERDICTS:
            labels[TEXT_VERDICTS[key.strip()]] = value
    for key, want in verdicts.items():
        word = "n/a" if want is None else ("yes" if want else "no")
        require(labels.get(key) == word, f"text {key}: {labels.get(key)}, want {word}")
    if eta_max_norm is False:
        return
    eta_line = next((l for l in lines if "mean curvature: max norm" in l), None)
    require((eta_line is None) == (eta_max_norm is None),
            f"text mean-curvature line present: {eta_line is not None}")
    if eta_line is not None:
        got = float(eta_line.split("max norm", 1)[1].split(",")[0])
        close(got, eta_max_norm, 1e-8, "text eta max norm")


def check_json_report(text, constants, verdicts, points, eta_max_norm=False):
    doc = json.loads(text)
    require(doc["format_version"] == "1", "format_version")
    for key, want in constants.items():
        close(doc["constants"][key], want, CONST_TOL, f"json {key}")
    for key, want in verdicts.items():
        require(doc["verdicts"][key] is want,
                f"json {key}: {doc['verdicts'][key]}, want {want}")
    require(len(doc["points"]) == points == doc["settings"]["samples"],
            f"json has {len(doc['points'])} points, want {points}")
    if eta_max_norm is not False:
        close(doc["mean_curvature"]["max_norm"], eta_max_norm, 1e-8, "json eta max norm")


def check_csv_report(text, dim, points, density):
    """One row per sample; the energy_density column equals the constant
    density when the map has one (density None skips that check)."""
    header, *rows = text.splitlines()
    columns = header.split(",")
    require(columns[:dim] == [f"u{k + 1}" for k in range(dim)]
            and columns[dim] == "energy_density", f"csv header {header[:60]}")
    require(len(rows) == points, f"csv has {len(rows)} rows, want {points}")
    if density is not None:
        for row in rows:
            close(float(row.split(",")[dim]), density, CONST_TOL, "csv energy_density")


def parse_bienergy(result, name, grid):
    prefix = f"chart-domain bienergy of {name} (grid {grid}): "
    require(result.out.startswith(prefix), f"bienergy output {result.out[:80]!r}")
    return float(result.out[len(prefix):])


def check_bienergy(value, want):
    require(abs(value - want) <= BIENERGY_TOL * max(1.0, abs(want)),
            f"bienergy {value!r}, want {want!r}")


# --------------------------------------------------------------------------
# cli_catalog: every subcommand on every catalog entry, in process
# --------------------------------------------------------------------------

FAULT_OVERFLOW = {
    "name": "fault_overflow_exp3",
    "chart": {"params": ["t"], "domain": [[0, 1]], "periodic": [False],
              "metric": {"mode": "explicit", "g": [["1"]]}},
    "map": {"target": "euclidean", "components": ["exp(exp(exp(3*t)))"]},
}
FAULT_HUGE_DOMAIN = {
    "name": "fault_huge_domain",
    "chart": {"params": ["t"], "domain": [[0, 1e300]], "periodic": [False],
              "metric": {"mode": "explicit", "g": [["1"]]}},
    "map": {"target": "euclidean", "components": ["t"]},
}
DOCUMENTED_ERROR_CODES = (2, 3, 5)


class CliCatalog:
    """Each catalog entry through each subcommand at default flags, then the
    three known faults. Quick mode shrinks --samples and --grid; every
    catalog entry has a constant bienergy integrand, so its expected
    bienergy holds at any grid."""

    def __init__(self, seed, workdir, quick):
        import bieigen.catalog as catalog
        self.entries = catalog.catalog_list()
        self.workdir = workdir
        self.quick = quick
        self.outputs = {}
        self.fault_paths = [write_manifest(workdir, FAULT_OVERFLOW),
                            write_manifest(workdir, FAULT_HUGE_DOMAIN)]
        self.setup_paths = [write_manifest(workdir, e.manifest) for e in self.entries]

    def ops(self):
        ops = []
        for entry in self.entries:
            ops.extend(self._entry_ops(entry))
        ops.extend(self._fault_ops())
        return ops

    def _entry_ops(self, entry):
        name, exp = entry.name, entry.expected
        dim = len(entry.manifest["chart"]["params"])
        flags = ["--samples", "8"] if self.quick else []
        grid = 4 if self.quick else exp["bienergy"]["grid"]
        points = sample_count(dim, 8 if self.quick else 64)
        constants, verdicts = exp["constants"], exp["verdicts"]
        density = constants["c_hat"] if verdicts["is_constant_density"] else None
        unit_sphere = entry.manifest["map"].get("radius", 1.0) == 1.0
        ops = []

        def classify(fmt, check):
            argv = ["classify", name, *flags] + (["--format", fmt] if fmt else [])

            def verify_output(result):
                expect_code(result, 0)
                check(result.out)
                self.outputs[(name, fmt)] = result.out
                return points, 0
            ops.append(Op(f"classify.{fmt or 'text'}:{name}", "classify",
                          lambda: run_cli(argv), verify_output))

        classify(None, lambda out: check_text_report(
            out, constants, verdicts, exp["eta_max_norm"]))
        classify("json", lambda out: check_json_report(
            out, constants, verdicts, points, exp["eta_max_norm"]))
        classify("csv", lambda out: check_csv_report(out, dim, points, density))

        for theorem in THEOREMS:
            status = exp["theorems"][theorem]

            def verify_output(result, theorem=theorem, status=status):
                expect_code(result, EXIT_FOR_STATUS[status])
                first = result.out.splitlines()[0] if result.out else ""
                require(first.startswith(f"{name} {theorem}: {status}"),
                        f"verify printed {first!r}")
                return points, 0
            ops.append(Op(f"verify.{theorem}:{name}", "classify",
                          lambda t=theorem: run_cli(["verify", name, "--theorem", t, *flags]),
                          verify_output))

        for equation in EQUATIONS:
            met = unit_sphere and (
                equation == "mf"
                or (equation == "eq102" and verdicts["is_isometric"])
                or (equation == "me1" and verdicts["is_constant_density"]))

            def residual_output(result, equation=equation, met=met):
                if not met:
                    expect_code(result, EXIT_PRECONDITION)
                    require(result.out == "", "unmet residual printed a table")
                    return points, 0
                expect_code(result, 0)
                lines = result.out.splitlines()
                rows = [l for l in lines if l.startswith("    (")]
                require(len(rows) == points, f"residual has {len(rows)} rows")
                biggest = float(lines[-1].split()[1])
                require(verdicts["is_biharmonic"] and biggest <= RESIDUAL_NOISE,
                        f"{equation} residual max {biggest} on a biharmonic map")
                if equation == "me1":
                    c = float(lines[1].rsplit("=", 1)[1])
                    close(c, constants["c_hat"], CONST_TOL, "me1 density")
                return points, 0
            ops.append(Op(f"residual.{equation}:{name}", "classify",
                          lambda e=equation: run_cli(["residual", name, "--equation", e, *flags]),
                          residual_output))

        def bienergy_output(result):
            expect_code(result, 0)
            check_bienergy(parse_bienergy(result, name, grid), exp["bienergy"]["value"])
            return 0, grid ** dim
        ops.append(Op(f"bienergy:{name}", "bienergy",
                      lambda: run_cli(["bienergy", name, "--grid", str(grid)]),
                      bienergy_output))

        exported = str(self.workdir / f"export_{name}.json")

        def export_output(result):
            expect_code(result, 0)
            require(result.out == f"wrote {exported}\n", f"export printed {result.out!r}")
            with open(exported, encoding="utf-8") as handle:
                require(json.load(handle) == entry.manifest, "exported manifest differs")
            return 0, 0
        ops.append(Op(f"export:{name}", "other",
                      lambda: run_cli(["catalog", "export", name, "--out", exported]),
                      export_output))

        def reclassify_output(result):
            expect_code(result, 0)
            require(result.out == self.outputs.get((name, "json")),
                    "exported manifest classifies to other bytes than the entry")
            return points, 0
        ops.append(Op(f"classify.exported:{name}", "classify",
                      lambda: run_cli(["classify", exported, *flags, "--format", "json"]),
                      reclassify_output))
        return ops

    def _fault_ops(self):
        flags = ["--samples", "8"] if self.quick else []

        def documented(codes):
            def check(result):
                require(result.code in codes,
                        f"exit code {result.code}, want one of {codes}")
                return 0, 0
            return check
        overflow, huge = self.fault_paths
        return [
            Op("fault.overflow_exp3", "fault",
               lambda: run_cli(["classify", overflow, *flags]),
               documented(DOCUMENTED_ERROR_CODES)),
            Op("fault.nonfinite_json", "fault",
               lambda: run_cli(["classify", huge, *flags, "--format", "json"]),
               documented(DOCUMENTED_ERROR_CODES)),
            Op("fault.tol_nan", "fault",
               lambda: run_cli(["verify", "great_circle_S2", "--theorem", "takahashi",
                                "--tol", "nan", *flags]),
               documented((2,))),
        ]


# --------------------------------------------------------------------------
# library classify + reports, and CLI bienergy, on generated manifests
# --------------------------------------------------------------------------

def classify_and_report(path, samples, theorems=False):
    """Load and build the manifest, classify, optionally run the theorem
    checks, and build the JSON, CSV and text reports."""
    import bieigen
    report = sys.modules["bieigen.report"]
    name, smap = bieigen.build_map(bieigen.load_manifest(path))
    result = bieigen.classify(smap, samples)
    statuses = ({t: bieigen.verify(result, t).status for t in THEOREMS}
                if theorems else None)
    doc = report.classification_dict(name, result, {"margin": DEFAULT_MARGIN})
    return (report.to_json(doc), report.classification_csv(name, result),
            report.classification_text(name, result), statuses)


@dataclass(frozen=True)
class MapCase:
    """A generated manifest and the closed forms its outputs must meet."""
    doc: dict
    constants: dict
    verdicts: dict
    bienergy: Callable      # grid -> closed-form chart-domain bienergy
    theorems: dict = None
    eta_max_norm: object = False  # False: not checked


def map_ops(case, workdir, samples, grid):
    """A classify-and-report operation and a CLI bienergy operation on one
    generated map; returns them with the manifest path."""
    path = write_manifest(workdir, case.doc)
    name = case.doc["name"]
    dim = len(case.doc["chart"]["params"])
    points = sample_count(dim, samples)
    theorems = case.theorems is not None

    def classify_output(result):
        json_text, csv_text, text, statuses = result
        check_json_report(json_text, case.constants, case.verdicts, points,
                          case.eta_max_norm)
        check_csv_report(csv_text, dim, points, case.constants["c_hat"])
        check_text_report(text, case.constants, case.verdicts, case.eta_max_norm)
        if theorems:
            require(statuses == case.theorems, f"theorems {statuses}")
        return points, 0

    def bienergy_output(result):
        expect_code(result, 0)
        check_bienergy(parse_bienergy(result, name, grid), case.bienergy(grid))
        return 0, grid ** dim

    argv = ["bienergy", path, "--grid", str(grid)]
    return [Op(f"classify:{name}", "classify",
               lambda: classify_and_report(path, samples, theorems), classify_output),
            Op(f"bienergy:{name}", "bienergy", lambda: run_cli(argv), bienergy_output),
            ], path


def _lit(x):
    return repr(float(x))


def circle_case(index, r, s):
    """(r cos st, r sin st, sqrt(1-r^2)) on [0, 2pi/s), g = 1."""
    z = math.sqrt(max(0.0, 1.0 - r * r))
    doc = {
        "name": f"circle_{index}",
        "chart": {"params": ["t"], "domain": [[0, _lit(2 * math.pi / s)]],
                  "periodic": [True], "metric": {"mode": "explicit", "g": [["1"]]}},
        "map": {"target": "sphere", "components": [
            f"{_lit(r)}*cos({_lit(s)}*t)", f"{_lit(r)}*sin({_lit(s)}*t)", _lit(z)]},
    }
    r2 = r * r
    harmonic = r == 1.0
    return MapCase(
        doc, {"rho_hat": s * s, "c_hat": r2 * s * s},
        {"is_constant_density": True, "is_harmonic": harmonic,
         "is_biharmonic": harmonic or abs(r2 - 0.5) < 1e-12},
        lambda grid: math.pi * s ** 3 * r2 * (1.0 - r2))


def torus_case(index, h, split, s):
    """(a cos su, a sin su, b cos sv, b sin sv, h), a^2 + b^2 = 1 - h^2, on
    [0, 2pi/s)^2 with the flat metric."""
    rest = 1.0 - h * h
    a, b = math.sqrt(rest * split), math.sqrt(rest * (1.0 - split))
    period = _lit(2 * math.pi / s)
    doc = {
        "name": f"torus_{index}",
        "chart": {"params": ["u", "v"], "domain": [[0, period], [0, period]],
                  "periodic": [True, True],
                  "metric": {"mode": "explicit", "g": [["1", "0"], ["1"]]}},
        "map": {"target": "sphere", "components": [
            f"{_lit(a)}*cos({_lit(s)}*u)", f"{_lit(a)}*sin({_lit(s)}*u)",
            f"{_lit(b)}*cos({_lit(s)}*v)", f"{_lit(b)}*sin({_lit(s)}*v)", _lit(h)]},
    }
    h2 = h * h
    return MapCase(
        doc, {"rho_hat": s * s, "c_hat": rest * s * s},
        {"is_constant_density": True, "is_harmonic": h == 0.0,
         "is_biharmonic": h == 0.0 or abs(h2 - 0.5) < 1e-12},
        lambda grid: 2 * math.pi ** 2 * s * s * h2 * (1.0 - h2))


def _draw_off_biharmonic(rng, lo, hi):
    """A value in [lo, hi] whose square keeps clear of the biharmonic 1/2,
    so the non-biharmonic verdict is far from its threshold."""
    while True:
        x = rng.uniform(lo, hi)
        if abs(x * x - 0.5) > 0.05:
            return x


class DenseFlat:
    """Circles and flat tori on constant explicit metrics, classified at
    about a thousand samples each, with their reports and a bienergy."""

    SIZES = {False: (1024, 1024, 1024, 24), True: (16, 16, 8, 4)}

    def __init__(self, seed, workdir, quick):
        rng = random.Random(seed)
        root_half = math.sqrt(0.5)
        self.cases = [circle_case(k, r, rng.uniform(0.5, 3.0)) for k, r in
                      enumerate((root_half, 1.0, _draw_off_biharmonic(rng, 0.3, 0.95)))]
        self.cases += [torus_case(k, h, rng.uniform(0.2, 0.8), rng.uniform(0.5, 3.0))
                       for k, h in enumerate(
                           (root_half, 0.0, _draw_off_biharmonic(rng, 0.15, 0.9)))]
        circle_n, torus_n, circle_grid, torus_grid = self.SIZES[quick]
        self._ops, self.setup_paths = [], []
        for case in self.cases:
            flat_1d = len(case.doc["chart"]["params"]) == 1
            ops, path = map_ops(case, workdir, circle_n if flat_1d else torus_n,
                                circle_grid if flat_1d else torus_grid)
            self._ops += ops
            self.setup_paths.append(path)

    def ops(self):
        return list(self._ops)


# --------------------------------------------------------------------------
# curved_highdim: induced metrics in dimensions 2 to 4
# --------------------------------------------------------------------------

ANGLES = ("a", "b", "c", "d")
PASS, NA = "PASS", "NOT_APPLICABLE"
MINIMAL_THEOREMS = {"takahashi": PASS, "t1": PASS, "t2": NA, "t3": PASS, "t4": PASS}
BUCKLING_THEOREMS = {"takahashi": NA, "t1": NA, "t2": PASS, "t3": NA, "t4": PASS}


def hyperspherical(m):
    """Unit S^m in R^(m+1): x_k = sin(a_1)..sin(a_k) cos(a_(k+1)), the last
    component ending in sin of the azimuth a_m."""
    names = ANGLES[:m]
    comps = ["*".join([f"sin({names[i]})" for i in range(k)] + [f"cos({names[k]})"])
             for k in range(m)]
    comps.append("*".join(f"sin({n})" for n in names))
    return list(names), comps


def sphere_density(m, point):
    """sqrt|g| of the unit S^m in hyperspherical coordinates."""
    out = 1.0
    for k, x in enumerate(point[:-1]):
        out *= math.sin(x) ** (m - 1 - k)
    return out


def midpoint_volume(m, domain, grid, radius):
    """Midpoint sum of the radius-`radius` S^m volume density over the box."""
    axes, cell = midpoint_axes(domain, grid)
    total = sum(sphere_density(m, point) for point in itertools.product(*axes))
    return radius ** m * total * cell


def sphere_case(name, m, lifted, inset):
    """The identity of S^m (lifted False), or S^m(1/sqrt 2) in S^(m+1) at
    height 1/sqrt 2 (lifted True), on the chart with induced metric whose
    polar angles stay `inset` away from the poles."""
    params, x = hyperspherical(m)
    if lifted:
        x = [f"{e}/sqrt(2)" for e in x]
    lo, hi = inset, math.pi - inset
    doc = {
        "name": name,
        "chart": {"params": params,
                  "domain": [[_lit(lo), _lit(hi)]] * (m - 1) + [[0, "2*pi"]],
                  "periodic": [False] * (m - 1) + [True],
                  "metric": {"mode": "induced", "immersion": x}},
        "map": {"target": "sphere", "components": x + (["1/sqrt(2)"] if lifted else [])},
    }
    domain = [(lo, hi)] * (m - 1) + [(0.0, 2 * math.pi)]
    if lifted:
        # proper biharmonic and isometric: |tau|^2 = m^2 |eta|^2 = m^2
        return MapCase(
            doc, {"lambda_hat": m, "mu_hat": 2 * m * m, "rho_hat": 2 * m, "c_hat": m},
            {"is_isometric": True, "is_constant_density": True, "is_harmonic": False,
             "is_biharmonic": True, "is_buckling": True, "is_eigenmap": False},
            lambda grid: 0.5 * m * m * midpoint_volume(m, domain, grid, math.sqrt(0.5)),
            BUCKLING_THEOREMS, 1.0)
    return MapCase(
        doc, {"lambda_hat": m, "mu_hat": m * m, "rho_hat": m, "c_hat": m},
        {"is_isometric": True, "is_constant_density": True, "is_harmonic": True,
         "is_biharmonic": True, "is_eigenmap": True, "is_bieigenmap": True},
        lambda grid: 0.0, MINIMAL_THEOREMS, 0.0)


def catalog_sphere_case():
    import bieigen.catalog as catalog
    entry = catalog.catalog_get("round_sphere_chart_S2_in_R3")
    exp = entry.expected
    return MapCase(entry.manifest, exp["constants"], exp["verdicts"],
                   lambda grid: exp["bienergy"]["value"], exp["theorems"],
                   exp["eta_max_norm"])


class CurvedHighdim:
    """Induced-metric charts in dimensions 2 to 4: about a hundred samples,
    all five theorem checks and a small-grid bienergy on each map. The seed
    draws each generated chart's polar inset."""

    # (samples, grid) per dimension
    SIZES = {False: {2: (100, 8), 3: (125, 6), 4: (81, 4)},
             True: {2: (8, 2), 3: (8, 2), 4: (16, 2)}}

    def __init__(self, seed, workdir, quick):
        rng = random.Random(seed)
        cases = [catalog_sphere_case(),
                 sphere_case("identity_S3", 3, False, rng.uniform(0.25, 0.45)),
                 sphere_case("S3_half_in_S4", 3, True, rng.uniform(0.25, 0.45)),
                 sphere_case("S4_half_in_S5", 4, True, rng.uniform(0.25, 0.45))]
        self._ops, self.setup_paths = [], []
        for case in cases:
            samples, grid = self.SIZES[quick][len(case.doc["chart"]["params"])]
            ops, path = map_ops(case, workdir, samples, grid)
            self._ops += ops
            self.setup_paths.append(path)

    def ops(self):
        return list(self._ops)


WORKLOADS = {
    "cli_catalog": CliCatalog,
    "dense_flat": DenseFlat,
    "curved_highdim": CurvedHighdim,
}
