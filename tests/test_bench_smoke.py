"""Smoke test of the benchmark's drivers: one quick cli_catalog pass must
check out with no failed operation, so that a change to the public API that
breaks the benchmark shows up in the test suite. Timing is not checked."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_cli_catalog_quick_pass_checks_out():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", "cli_catalog",
         "--quick"], cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    info, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    assert result["correct"] is True
    assert result["failed"] == 0 and info["run"]["failed_ops"] == {}
    assert result["attempted"] == info["run"]["ops_per_pass"] > 0
