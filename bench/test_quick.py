"""Quick mode of the benchmark: each workload runs to its end at tiny sizes,
every output checks out, and cli_catalog fails exactly the known faults.

    python3 -m pytest -q bench/test_quick.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
KNOWN_FAULTS = {"fault.overflow_exp3", "fault.nonfinite_json", "fault.tol_nan"}
EXACT_COUNTS = ("jets.jets_per_point", "jets.mul_per_point", "jets.div_per_point",
                "charts.metric_frame_per_point", "exprs.eval_jet_per_point",
                "charts.laplacian_jet_per_point", "charts.metric_frame_per_cell",
                "exprs.parse_calls", "report.bytes")


def run(*args, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def quick(workload, trace, seed=7):
    proc = run("--workload", workload, "--seed", str(seed), "--quick", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    info, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    return info["run"], result


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_run_checks_out(workload, trace):
    info, result = quick(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    faults = KNOWN_FAULTS if workload == "cli_catalog" else set()
    assert set(info["failed_ops"]) == faults
    passes = len(info["pass_s"])
    assert result["attempted"] == passes * info["ops_per_pass"]
    assert result["failed"] == passes * len(faults)
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    if not trace and result["attempted"] < 40:
        del wanted["op_ms_p90"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted


def test_exact_counts_repeat():
    first = quick("dense_flat", 1)[1]["metrics"]
    second = quick("dense_flat", 1)[1]["metrics"]
    for name in EXACT_COUNTS:
        assert first[name]["value"] == second[name]["value"] > 0, name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
               "--trace", "0", cwd=tmp_path, script=tmp_path / BENCH.name / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_seed_sets_the_inputs(tmp_path):
    sys.path.insert(0, str(BENCH))
    import workloads
    docs = [[c.doc for c in workloads.DenseFlat(seed, tmp_path, True).cases]
            for seed in (1, 1, 2)]
    assert docs[0] == docs[1] != docs[2]
