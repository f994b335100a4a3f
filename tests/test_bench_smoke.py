"""Smoke tests of the benchmark's drivers: one quick pass of each workload
must check out with no failed operation, so that a change to the public API that
breaks the benchmark shows up in the test suite, and a traced quick pass must
count a call of every layer the per-layer metrics read. Timing is not
checked."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["cli_catalog", "dense_flat", "curved_highdim"])
def test_quick_pass_checks_out(workload):
    # bench/run.py exits 0 with wrong outputs too: `correct` is the check
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--quick"], cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    info, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    assert result["correct"] is True
    assert result["failed"] == 0 and info["run"]["failed_ops"] == {}
    assert result["attempted"] == info["run"]["ops_per_pass"] > 0


def test_traced_quick_run_counts_every_layer():
    # a tracer that loses a layer (a function renamed or no longer called by
    # name) reads 0 for that layer's counts
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", "dense_flat",
         "--quick", "--trace", "1"], cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
    for name in ("charts.metric_frame_per_point", "charts.metric_frame_per_cell",
                 "exprs.eval_jet_per_point", "charts.laplacian_jet_per_point"):
        assert metrics[name]["value"] > 0, name
