"""Benchmark bieigen end to end (untraced) or layer by layer (traced).

    python3 bench/run.py --workload cli_catalog --seed 1 --seconds 36 --trace 0
    python3 bench/run.py --workload dense_flat --seed 1 --seconds 36 --trace 1
    python3 bench/run.py --workload curved_highdim --quick

One process runs one workload as a closed loop: one caller, each operation
starting when the previous one ends. After a warm-up at quick sizes it
repeats whole passes of the workload while another pass fits in --seconds
(and until at least 40 operations have run), checks every output, and prints
as its last line one JSON object with `correct`, `attempted`, `failed` and
`metrics`. Operation times are scaled by the reference kernel timed around
them (see reference.py), and each operation's median over the passes is
used.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 the run
spends half its time untraced and half with every layer wrapped, prints the
per-layer metrics, and writes the spans to .bench_trace/. --quick runs one
pass at tiny sizes, for correctness only.

The program is imported from src/ next to this directory; the run refuses to
start without it.
"""

import os

# BLAS and OpenMP pools would compete for the machine's two cores.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402
from reference import REFERENCE_S, reference_seconds  # noqa: E402
import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
MODULES = ("jets", "exprs", "charts", "analysis", "classify", "report",
           "catalog", "manifest", "cli")
MIN_OPS_FOR_P90 = 40
SETUP_PROBES = 4  # before the passes; one more follows each pass
# a run stops adding passes for the p90 sample floor after this many budgets
MAX_BUDGETS = 4


def import_program():
    init = SRC / "bieigen" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: bieigen sources not found at {init}")
    sys.path.insert(0, str(SRC))
    import bieigen
    if Path(bieigen.__file__).resolve() != init.resolve():
        raise SystemExit(f"error: imported bieigen from {bieigen.__file__}, not {init}")
    for name in MODULES:
        importlib.import_module(f"bieigen.{name}")
    return bieigen


@dataclass
class Record:
    name: str
    kind: str
    seconds: float
    error: str = None
    points: int = 0
    cells: int = 0
    span: int = -1
    jets: tuple = (0, 0, 0)
    scale: float = 1.0  # REFERENCE_S over the reference kernel's time around it

    @property
    def ok(self):
        return self.error is None


def run_op(op, tracer=None):
    """Time one operation, then check its output outside the timed region."""
    if tracer is not None:
        span = tracer.open(f"op.{op.kind}")
        before = list(tracer.jet_counts)
    error = result = None
    start = time.perf_counter()
    try:
        result = op.run()
    except Exception as exc:  # an exception escaping the program fails the op
        error = f"raised {type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    record = Record(op.name, op.kind, seconds, error)
    if tracer is not None:
        tracer.close(span)
        record.span = span
        record.jets = tuple(a - b for a, b in zip(tracer.jet_counts, before))
    if error is None:
        try:
            record.points, record.cells = op.check(result)
        except (workloads.CheckError, ValueError, KeyError, IndexError) as exc:
            record.error = f"check: {exc}"
    return record


def run_pass(ops, tracer=None):
    """One pass, with the reference kernel timed between operations."""
    records = []
    before = reference_seconds()
    for op in ops:
        record = run_op(op, tracer)
        after = reference_seconds()
        record.scale = 2 * REFERENCE_S / (before + after)
        records.append(record)
        before = after
    return records


def run_passes(ops, budget, min_ops, tracer=None, between=None):
    """Whole passes, calling `between` after each, while another pass still
    fits in `budget` seconds or fewer than `min_ops` operations have run;
    returns one list of records per pass."""
    passes = []
    start = time.perf_counter()
    while True:
        gc.collect()
        passes.append(run_pass(ops, tracer))
        if between is not None:
            between()
        elapsed = time.perf_counter() - start
        fits = elapsed * (len(passes) + 1) / len(passes) <= budget
        enough = sum(len(p) for p in passes) >= min_ops
        if (enough and not fits) or elapsed >= MAX_BUDGETS * budget:
            return passes


def pass_seconds(passes):
    """Program time of each pass: its operations, without the checks."""
    return [sum(r.seconds for r in records) for records in passes]


def typical_seconds(passes):
    """Each operation's median scaled time over the run's passes."""
    return [statistics.median(r.seconds * r.scale for r in repeats)
            for repeats in zip(*passes)]


class SetupProbe:
    """Wall times of fresh processes that import bieigen, build the
    workload's maps and analyse one point per map. The run takes them before
    and between its passes, so their median spans the machine's drift."""

    def __init__(self, paths):
        self.cmd = [sys.executable, str(BENCH / "setup_probe.py"), *paths]
        self.times = []

    def __call__(self):
        before = reference_seconds()
        start = time.perf_counter()
        proc = subprocess.run(self.cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120)
        elapsed = time.perf_counter() - start
        self.times.append(elapsed * 2 * REFERENCE_S / (before + reference_seconds()))
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-400:]}")


def metric(value, unit):
    return {"value": float(value), "unit": unit}


def ratio(num, den):
    return num / den if den else 0.0


def end_to_end(passes, setup_s):
    """Times are each operation's median scaled time (typical_seconds); the
    work counted is one pass's, from operations whose outputs checked out."""
    typical = typical_seconds(passes)
    first = passes[0]

    def throughput(kind, work):
        done = [(getattr(r, work), t) for r, t in zip(first, typical)
                if r.kind == kind and r.ok]
        return ratio(sum(w for w, _ in done), sum(t for _, t in done))

    latencies = [t * 1e3 for t in typical]
    out = {
        "setup_s": metric(setup_s, "s"),
        "wall_s": metric(sum(typical), "s"),
        "classify_points_per_s": metric(throughput("classify", "points"), "points/s"),
        "bienergy_cells_per_s": metric(throughput("bienergy", "cells"), "cells/s"),
        "op_ms_p50": metric(statistics.median(latencies), "ms"),
    }
    if sum(len(p) for p in passes) >= MIN_OPS_FOR_P90:
        out["op_ms_p90"] = metric(statistics.quantiles(latencies, n=10)[8], "ms")
    out["peak_rss_mb"] = metric(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return out


def per_layer(tracer, passes, untraced_wall):
    names, dur, self_time, root = tracer.arrays()
    records = [r for p in passes for r in p]
    # kind of the operation each span belongs to: 0 classify, 1 bienergy,
    # 2 other, 3 fault or failed
    kind_of_op = np.full(len(dur), 3)
    for r in records:
        if r.ok:
            kind_of_op[r.span] = {"classify": 0, "bienergy": 1, "other": 2}.get(r.kind, 3)
    kind = kind_of_op[root]
    ids = {name: i for i, name in enumerate(tracer.names)}
    points = sum(r.points for r in records if r.kind == "classify" and r.ok)
    cells = sum(r.cells for r in records if r.kind == "bienergy" and r.ok)
    jets = np.sum([r.jets for r in records if r.kind == "classify" and r.ok], axis=0)

    def select(name, kinds=(0, 1, 2)):
        return (names == ids.get(name, -1)) & np.isin(kind, kinds)

    def mean(name, scale, kinds=(0, 1, 2), values=dur):
        chosen = values[select(name, kinds)]
        return float(np.mean(chosen)) * scale if chosen.size else 0.0

    def count(name, kinds):
        return int(np.count_nonzero(select(name, kinds)))

    cli_self = self_time[select("cli.main")]
    traced_wall = sum(typical_seconds(passes))
    bienergy_time = float(np.sum(dur[select("analysis.bienergy_quadrature", (1,))]))
    n_passes = len(passes)
    return {
        "cli.self_ms": metric(np.median(cli_self) * 1e3 if cli_self.size else 0.0, "ms"),
        "manifest.build_map_ms": metric(mean("manifest.build_map", 1e3), "ms"),
        "manifest.load_manifest_ms": metric(mean("manifest.load_manifest", 1e3), "ms"),
        "exprs.parse_calls": metric(count("exprs.parse", (0, 1, 2, 3)) / n_passes, "count"),
        "charts.metric_frame_us": metric(mean("charts.metric_frame", 1e6, (0,)), "us"),
        "charts.metric_frame_per_point": metric(
            ratio(count("charts.metric_frame", (0,)), points), "count"),
        "exprs.eval_jet_us": metric(mean("exprs.eval_jet", 1e6, (0,)), "us"),
        "exprs.eval_jet_per_point": metric(
            ratio(count("exprs.eval_jet", (0,)), points), "count"),
        "charts.laplacian_jet_us": metric(mean("charts.laplacian_jet", 1e6, (0,)), "us"),
        "charts.laplacian_jet_per_point": metric(
            ratio(count("charts.laplacian_jet", (0,)), points), "count"),
        "analysis.analyze_point_us": metric(mean("analysis.analyze_point", 1e6, (0,)), "us"),
        "analysis.analyze_point_self_us": metric(
            mean("analysis.analyze_point", 1e6, (0,), self_time), "us"),
        "jets.jets_per_point": metric(ratio(jets[0], points), "count"),
        "jets.mul_per_point": metric(ratio(jets[1], points), "count"),
        "jets.div_per_point": metric(ratio(jets[2], points), "count"),
        "analysis.bienergy_cell_us": metric(ratio(bienergy_time, cells) * 1e6, "us"),
        "charts.metric_frame_per_cell": metric(
            ratio(count("charts.metric_frame", (1,)), cells), "count"),
        "classify.fit_constants_ms": metric(mean("classify.fit_constants", 1e3), "ms"),
        "classify.verdicts_ms": metric(mean("classify.verdicts", 1e3), "ms"),
        "report.classification_dict_ms": metric(
            mean("report.classification_dict", 1e3), "ms"),
        "report.to_json_ms": metric(mean("report.to_json", 1e3), "ms"),
        "report.csv_ms": metric(mean("report.classification_csv", 1e3), "ms"),
        "report.text_ms": metric(mean("report.classification_text", 1e3), "ms"),
        "report.bytes": metric(tracer.report_bytes / n_passes, "bytes"),
        "trace.overhead_ratio": metric(ratio(traced_wall, untraced_wall), "ratio"),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0,
                        help="measured time per run (default 36)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="one pass at tiny sizes, for correctness only")
    return parser.parse_args(argv)


def traced_run(ops, budget, workload):
    """Half the budget untraced, half with every layer wrapped."""
    untraced = run_passes(ops, budget / 2, 0)
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = run_passes(ops, budget / 2, 0, tracer)
    finally:
        tracer.uninstall()
    metrics = per_layer(tracer, traced, sum(typical_seconds(untraced)))
    path = ROOT / ".bench_trace" / f"{workload}.tsv"
    path.parent.mkdir(exist_ok=True)
    tracer.write(path)
    return untraced + traced, metrics, {"trace_file": str(path.relative_to(ROOT))}


def untraced_run(ops, budget, min_ops, setup_paths, quick):
    probe = SetupProbe(setup_paths)
    for _ in range(1 if quick else SETUP_PROBES):
        probe()
    passes = run_passes(ops, budget, min_ops, between=None if quick else probe)
    metrics = end_to_end(passes, statistics.median(probe.times))
    return passes, metrics, {"setup_probes": len(probe.times)}


def main(argv=None):
    args = parse_args(argv)
    bieigen = import_program()

    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        make = workloads.WORKLOADS[args.workload]
        small = make(args.seed, workdir, quick=True)
        if args.quick:
            ops, budget, min_ops = small.ops(), 0.0, 0
        else:
            ops, budget = make(args.seed, workdir, quick=False).ops(), args.seconds
            min_ops = MIN_OPS_FOR_P90
            for op in small.ops():  # warm-up: jet tables, lazy imports, argparse
                run_op(op)
        if args.trace:
            passes, metrics, extra = traced_run(ops, budget, args.workload)
        else:
            passes, metrics, extra = untraced_run(ops, budget, min_ops,
                                                  small.setup_paths, args.quick)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            workdir.parent.rmdir()

    records = [r for p in passes for r in p]
    failed = [r for r in records if not r.ok]
    failures = {}
    for r in failed:
        if r.name not in failures:
            print(f"failed {r.name}: {r.error}", file=sys.stderr)
        failures[r.name] = failures.get(r.name, 0) + 1
    print(json.dumps({"run": {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "quick": args.quick, "ops_per_pass": len(ops),
        "pass_s": [round(t, 4) for t in pass_seconds(passes)],
        "reference_ms": statistics.median(REFERENCE_S / r.scale for r in records) * 1e3,
        "failed_ops": failures, "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "bieigen": bieigen.__version__, **extra,
    }}, sort_keys=True))
    print(json.dumps({"correct": all(r.kind == "fault" for r in failed),
                      "attempted": len(records), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
