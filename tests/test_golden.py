"""Byte-stability pins for the CLI.

For every catalog entry, the SHA-256 of stdout and the exit code of
`classify` (text, JSON, CSV), `verify` (each theorem), `residual` (each
equation, in text, JSON and CSV) and `bienergy` (at the entry's expected
grid) are pinned, and so are the exit code, the stdout hash and the stderr
of the fault manifests. Two entries are also pinned at 1024 samples, in JSON
and CSV, so the per-point table is covered at a size past one analysis block;
`kfold_equator_S2` has empty CSV cells and JSON nulls. The induced-metric
hyperspheres of `test_curved.py` in dimensions 3 and 4 are pinned in JSON,
CSV and bienergy, so the 35- and 70-coefficient jets of a varying metric are
covered too, and so are its random induced 3-D and explicit 4-D charts, whose
metrics have off-diagonal entries.
The catalog values were captured when the jet engine still evaluated one
point at a time, the 1024-sample ones while reports were still written row
by row; a change to any of them is a change to the reports and has to be
named as one.

The fitted constants sum the samples' inner products left to right, so the
pins hold under every Python: a compensated builtin `sum`, as Python 3.12
has, bound in `bieigen.classify` leaves the reports it would move as
pinned.

The pins live in `golden_pins.json` next to this file. Rewrite it with
`PYTHONPATH=src python tests/test_golden.py` only when a report change is
intended.
"""

import contextlib
import hashlib
import io
import json
import math
import sys
from pathlib import Path

import pytest

from bieigen.catalog import catalog_get, catalog_list
from bieigen.cli import main

from test_curved import random_explicit, random_induced_3d, sphere_manifest

THEOREMS = ("takahashi", "t1", "t2", "t3", "t4")
EQUATIONS = ("eq102", "mf", "me1")

FAULTS = {
    "overflow": {
        "name": "overflow_exp3",
        "chart": {"params": ["t"], "domain": [[0, 1]], "periodic": [False],
                  "metric": {"mode": "explicit", "g": [["1"]]}},
        "map": {"target": "euclidean", "components": ["exp(exp(exp(3*t)))"]},
    },
    "huge_domain": {
        "name": "huge_domain",
        "chart": {"params": ["t"], "domain": [[0, 1e300]], "periodic": [False],
                  "metric": {"mode": "explicit", "g": [["1"]]}},
        "map": {"target": "euclidean", "components": ["t"]},
    },
    "singular_metric": {
        "name": "singular_metric",
        "chart": {"params": ["t"], "domain": [[-1.0, 1.0]], "periodic": [False],
                  "metric": {"mode": "explicit", "g": [["t"]]}},
        "map": {"target": "euclidean", "components": ["t", "0"]},
    },
    # |dphi|^2 overflows, so the bienergy density is NaN at the first cell
    "nan_density": {
        "name": "fast_circle",
        "chart": {"params": ["t"], "domain": [[0, 1]], "periodic": [False],
                  "metric": {"mode": "explicit", "g": [["1"]]}},
        "map": {"target": "sphere",
                "components": ["cos(1e200*t)", "sin(1e200*t)", "0"]},
    },
    "log_domain": {
        "name": "log_domain",
        "chart": {"params": ["t"], "domain": [[-1.0, 1.0]], "periodic": [False],
                  "metric": {"mode": "explicit", "g": [["1"]]}},
        "map": {"target": "euclidean", "components": ["log(t)"]},
    },
}
FAULT_COMMANDS = {
    "classify": ["classify", "{path}"],
    "classify_json": ["classify", "{path}", "--format", "json"],
    "bienergy": ["bienergy", "{path}", "--grid", "8"],
}


LARGE = ("clifford_torus_S3", "kfold_equator_S2")


def large_commands(name):
    return {f"classify_{fmt}": ["classify", name, "--samples", "1024", "--format", fmt]
            for fmt in ("json", "csv")}


def entry_commands(name):
    grid = catalog_get(name).expected["bienergy"]["grid"]
    commands = {
        "classify": ["classify", name],
        "classify_json": ["classify", name, "--format", "json"],
        "classify_csv": ["classify", name, "--format", "csv"],
        "bienergy": ["bienergy", name, "--grid", str(grid)],
    }
    for theorem in THEOREMS:
        commands[f"verify_{theorem}"] = ["verify", name, "--theorem", theorem]
    for equation in EQUATIONS:
        commands[f"residual_{equation}"] = ["residual", name, "--equation", equation]
        for fmt in ("json", "csv"):
            commands[f"residual_{equation}_{fmt}"] = [
                "residual", name, "--equation", equation, "--format", fmt]
    return commands


# the curved charts of tests/test_curved.py, the induced-metric hyperspheres
# and two random non-diagonal metrics: (manifest, samples, bienergy grid)
CURVED = {"identity_S3": (lambda: sphere_manifest(3, False), 125, 6),
          "S3_half_in_S4": (lambda: sphere_manifest(3, True), 125, 6),
          "S4_half_in_S5": (lambda: sphere_manifest(4, True), 81, 4),
          "random_induced_3d": (lambda: random_induced_3d()[0], 125, 6),
          "random_explicit_4d": (lambda: random_explicit(4)[0], 81, 4)}


def curved_pins(name, directory):
    manifest, samples, grid = CURVED[name]
    path = directory / f"{name}.json"
    path.write_text(json.dumps(manifest()), encoding="utf-8")
    commands = {f"classify_{fmt}": ["classify", str(path), "--samples", str(samples),
                                    "--format", fmt] for fmt in ("json", "csv")}
    commands["bienergy"] = ["bienergy", str(path), "--grid", str(grid)]
    return entry_pins(name, lambda _: commands)


def run(argv):
    """(exit code, stdout, stderr) of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def entry_pins(name, commands=entry_commands):
    pins = {}
    for key, argv in commands(name).items():
        code, out, _ = run(argv)
        pins[key] = [code, hashlib.sha256(out.encode("utf-8")).hexdigest()]
    return pins


def fault_pins(fault, directory):
    path = directory / f"{fault}.json"
    path.write_text(json.dumps(FAULTS[fault]), encoding="utf-8")
    pins = {}
    for key, argv in FAULT_COMMANDS.items():
        code, out, err = run([a.format(path=path) for a in argv])
        pins[key] = [code, hashlib.sha256(out.encode("utf-8")).hexdigest(), err]
    return pins


PINS_FILE = Path(__file__).with_name("golden_pins.json")


@pytest.fixture(scope="module")
def pins():
    return json.loads(PINS_FILE.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", [e.name for e in catalog_list()])
def test_catalog_reports_are_byte_stable(name, pins):
    assert entry_pins(name) == pins["entries"][name]


@pytest.mark.parametrize("name", LARGE)
def test_large_reports_are_byte_stable(name, pins):
    assert entry_pins(name, large_commands) == pins["large"][name]


@pytest.mark.parametrize("name", sorted(CURVED))
def test_curved_reports_are_byte_stable(name, tmp_path, pins):
    assert curved_pins(name, tmp_path) == pins["curved"][name]


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_fault_exit_codes_and_messages_are_stable(fault, tmp_path, pins):
    assert fault_pins(fault, tmp_path) == pins["faults"][fault]


def compensated_sum(values, start=0):
    """The builtin `sum` of floats as Python 3.12 and later compute it, with
    Neumaier's compensation: it rounds differently from a plain left-to-right
    sum."""
    total, compensation = float(start), 0.0
    for x in map(float, values):
        t = total + x
        if abs(total) >= abs(x):
            compensation += (total - t) + x
        else:
            compensation += (x - t) + total
        total = t
    return total + compensation if compensation and math.isfinite(compensation) else total


# reports whose fitted constants a compensated sum of the fit's inner
# products changes
SUM_SENSITIVE = (("small_circle_S2", "classify_json"), ("small_circle_S2", "classify"),
                 ("nonisometric_buckling_S2", "classify_json"),
                 ("circle_S1_sqrt_half", "classify_json"), ("circle_S1_sqrt_half", "classify"))


@pytest.mark.parametrize("name, command", SUM_SENSITIVE)
def test_reports_do_not_depend_on_the_python_sum(name, command, pins, monkeypatch):
    assert compensated_sum([1e16, 1.0, -1e16]) == 1.0  # a plain sum gives 0.0
    monkeypatch.setattr(sys.modules["bieigen.classify"], "sum", compensated_sum,
                        raising=False)
    code, out, _ = run(entry_commands(name)[command])
    assert [code, hashlib.sha256(out.encode("utf-8")).hexdigest()] == \
        pins["entries"][name][command]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        table = {"entries": {e.name: entry_pins(e.name) for e in catalog_list()},
                 "large": {n: entry_pins(n, large_commands) for n in LARGE},
                 "curved": {n: curved_pins(n, Path(tmp)) for n in sorted(CURVED)},
                 "faults": {f: fault_pins(f, Path(tmp)) for f in sorted(FAULTS)}}
    PINS_FILE.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
