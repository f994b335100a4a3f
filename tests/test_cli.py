import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bieigen import manifest
from bieigen import report as rpt
from bieigen.charts import Chart
from bieigen.cli import main
from bieigen.exprs import (MAX_DEPTH, eval_jet, eval_value, intern, parse, to_source,
                           variables_of)
from bieigen.report import to_json

NEARLY_ISOMETRIC = {
    "name": "nearly_isometric_circle",
    "chart": {
        "params": ["t"],
        "domain": [[0, "2*pi"]],
        "periodic": [True],
        "metric": {"mode": "explicit", "g": [["1.0000000005"]]},
    },
    "map": {"target": "sphere", "radius": 1.0,
            "components": ["cos(t)", "sin(t)", "0"]},
}

VARYING_DENSITY = {
    "name": "varying_density_equator",
    "chart": {
        "params": ["t"],
        "domain": [[0, "2*pi"]],
        "periodic": [True],
        "metric": {"mode": "explicit", "g": [["1"]]},
    },
    "map": {"target": "sphere", "radius": 1.0,
            "components": ["cos(t + 0.3*sin(t))", "sin(t + 0.3*sin(t))", "0"]},
}

SINGULAR_METRIC = {
    "name": "singular_metric",
    "chart": {
        "params": ["t"],
        "domain": [[-1.0, 1.0]],
        "periodic": [False],
        "metric": {"mode": "explicit", "g": [["t"]]},
    },
    "map": {"target": "euclidean", "components": ["t", "0"]},
}


OVERFLOW = {
    "name": "overflow_exp3",
    "chart": {"params": ["t"], "domain": [[0, 1]], "periodic": [False],
              "metric": {"mode": "explicit", "g": [["1"]]}},
    "map": {"target": "euclidean", "components": ["exp(exp(exp(3*t)))"]},
}

HUGE_DOMAIN = {
    "name": "huge_domain",
    "chart": {"params": ["t"], "domain": [[0, 1e300]], "periodic": [False],
              "metric": {"mode": "explicit", "g": [["1"]]}},
    "map": {"target": "euclidean", "components": ["t"]},
}


def _write(tmp_path, doc):
    path = tmp_path / f"{doc['name']}.json"
    path.write_text(to_json(doc))
    return str(path)


def test_classify_catalog_entry_json(capsys):
    assert main(["classify", "small_circle_S2", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["format_version"] == "1"
    assert doc["verdicts"]["is_buckling"] is True
    assert doc["constants"]["rho_hat"] == pytest.approx(2.0, abs=1e-8)
    assert doc["verdicts"]["is_eigenmap"] is False
    assert len(doc["points"]) == 64


def test_classify_constant_map_null_rho(capsys):
    assert main(["classify", "constant_map", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["constants"]["rho_hat"] is None
    assert doc["verdicts"]["is_harmonic"] is True
    assert doc["verdicts"]["is_buckling"] is None


def test_classify_zero_map_fits_zero_constants(tmp_path, capsys):
    # sum |phi|^2 is 0: lambda_hat and mu_hat are set to 0.0, not fitted
    doc = {**OVERFLOW, "name": "zero_map",
           "map": {"target": "euclidean", "components": ["0", "0"]}}
    assert main(["classify", _write(tmp_path, doc), "--format", "json"]) == 0
    constants = json.loads(capsys.readouterr().out)["constants"]
    assert (constants["lambda_hat"], constants["mu_hat"]) == (0.0, 0.0)
    assert constants["rho_hat"] is None


def test_classify_csv_and_text(capsys):
    assert main(["classify", "great_circle_S2", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    header, *rows = out.strip().splitlines()
    assert header.startswith("u1,energy_density,")
    assert len(rows) == 64
    assert main(["classify", "great_circle_S2"]) == 0
    text = capsys.readouterr().out
    assert "eigenmap" in text and "lambda_hat 1" in text


def test_classify_json_is_byte_deterministic(capsys):
    assert main(["classify", "clifford_torus_S3", "--format", "json"]) == 0
    first = capsys.readouterr().out
    assert main(["classify", "clifford_torus_S3", "--format", "json"]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_classify_deterministic_across_processes(tmp_path):
    cmd = [sys.executable, "-m", "bieigen", "classify", "small_circle_S2",
           "--format", "json"]
    runs = [subprocess.run(cmd, capture_output=True, text=True) for _ in range(2)]
    assert all(r.returncode == 0 for r in runs)
    assert runs[0].stdout == runs[1].stdout
    assert runs[0].stdout.encode() == runs[1].stdout.encode()


def test_verify_pass_exit_0(capsys):
    assert main(["verify", "small_circle_S2", "--theorem", "t2"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out


def test_verify_not_applicable_exit_4(capsys):
    assert main(["verify", "great_circle_S2", "--theorem", "t2"]) == 4
    out = capsys.readouterr().out
    assert "NOT_APPLICABLE" in out and "harmonic" in out


@pytest.mark.parametrize("theorem, code, shown", [
    ("takahashi", 0, "takahashi: PASS"),
    ("t2", 4, "t2: NOT_APPLICABLE (map is harmonic)")])
def test_python_dash_m_bieigen_runs_the_cli(theorem, code, shown):
    # the package's __main__, run from the source tree alone
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    run = subprocess.run([sys.executable, "-m", "bieigen", "verify", "great_circle_S2",
                          "--theorem", theorem], capture_output=True, text=True,
                         env=env, timeout=120)
    assert run.returncode == code, run.stderr
    assert run.stdout.startswith(f"great_circle_S2 {shown}\n")


def test_verify_fail_exit_1(tmp_path, capsys):
    path = _write(tmp_path, NEARLY_ISOMETRIC)
    assert main(["verify", path, "--theorem", "takahashi",
                 "--tol", "1e-12"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_verify_takahashi_small_sphere(capsys):
    assert main(["verify", "circle_S1_sqrt_half", "--theorem", "takahashi"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "lambda_hat: 2" in out


def test_manifest_parse_error_exit_2(tmp_path, capsys):
    doc = {
        "name": "broken",
        "chart": NEARLY_ISOMETRIC["chart"],
        "map": {"target": "sphere", "components": ["cos(", "sin(t)", "0"]},
    }
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    assert main(["classify", str(path)]) == 2
    err = capsys.readouterr().err
    assert "byte" in err  # parse position is reported


def test_unknown_manifest_exit_2(capsys):
    assert main(["classify", "no_such_entry_or_file"]) == 2


def test_evaluation_error_exit_3(tmp_path, capsys):
    path = _write(tmp_path, SINGULAR_METRIC)
    assert main(["classify", path]) == 3
    err = capsys.readouterr().err
    assert "positive definite" in err and "(" in err  # offending point shown


def test_domain_error_exit_3(tmp_path, capsys):
    doc = {
        "name": "log_domain",
        "chart": {
            "params": ["t"],
            "domain": [[-1.0, 1.0]],
            "periodic": [False],
            "metric": {"mode": "explicit", "g": [["1"]]},
        },
        "map": {"target": "euclidean", "components": ["log(t)"]},
    }
    path = _write(tmp_path, doc)
    assert main(["classify", path]) == 3
    err = capsys.readouterr().err
    assert err.startswith("evaluation error: log of non-positive value")
    assert err.count("\n") == 1 and err.count("at point") == 1, err


def test_residual_commands(capsys):
    assert main(["residual", "small_circle_S2", "--equation", "eq102"]) == 0
    out = capsys.readouterr().out
    assert "max" in out
    assert main(["residual", "kfold_equator_S2", "--equation", "mf",
                 "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["summary"]["max"] < 1e-10
    assert main(["residual", "nonisometric_buckling_S2", "--equation", "me1"]) == 0
    out = capsys.readouterr().out
    assert "c = 4.5" in out


def test_residual_csv_format(capsys):
    assert main(["residual", "small_circle_S2", "--equation", "mf",
                 "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "u1,residual"
    assert len(lines) == 65


def test_residual_me1_requires_constant_density_exit_5(tmp_path, capsys):
    path = _write(tmp_path, VARYING_DENSITY)
    assert main(["residual", path, "--equation", "me1"]) == 5
    err = capsys.readouterr().err
    assert "constant" in err


def test_residual_eq102_requires_isometry_exit_5(capsys):
    assert main(["residual", "kfold_equator_S2", "--equation", "eq102"]) == 5
    assert "isometric" in capsys.readouterr().err


def _residual_refusal(capsys, manifest):
    """The stderr line of `residual --equation mf` refusing a map, which
    exits 5 and writes nothing to stdout."""
    assert main(["residual", manifest, "--equation", "mf"]) == 5
    out, err = capsys.readouterr()
    assert out == ""
    return err


def test_residual_requires_unit_sphere_exit_5(capsys):
    assert _residual_refusal(capsys, "circle_S1_sqrt_half") == (
        "error: residual equations require a unit-sphere target "
        "(circle_S1_sqrt_half targets a sphere of radius 0.707107)\n")


def test_residual_refuses_a_euclidean_target_exit_5(tmp_path, capsys):
    line = {"name": "line",
            "chart": {"params": ["t"], "domain": [[0, 1]], "periodic": [False],
                      "metric": {"mode": "explicit", "g": [["1"]]}},
            "map": {"target": "euclidean", "components": ["t", "0"]}}
    assert _residual_refusal(capsys, _write(tmp_path, line)) == (
        "error: residual equations require a unit-sphere target (line targets euclidean)\n")


def test_residual_checks_unit_sphere_before_any_point(capsys, monkeypatch):
    def analyze_block(smap, points):
        raise AssertionError(f"analyzed {points}")
    monkeypatch.setattr("bieigen.analysis._analyze_block", analyze_block)
    assert main(["residual", "circle_S1_sqrt_half", "--equation", "mf"]) == 5
    assert "unit-sphere target" in capsys.readouterr().err


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
@pytest.mark.parametrize("doc, words", [
    (OVERFLOW, ("exp(", "out of float range", "at point (")),
    (HUGE_DOMAIN, ("non-finite value inf", "points[0].phi_norm", "at point (")),
], ids=["overflow", "huge_domain"])
def test_overflow_and_non_finite_values_exit_3(tmp_path, capsys, doc, words, fmt):
    path = _write(tmp_path, doc)
    assert main(["classify", path, "--samples", "8", "--format", fmt]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert all(word in captured.err for word in words), captured.err
    # one line: no numpy warnings ahead of it, the point named once
    assert captured.err.count("\n") == 1, captured.err
    assert captured.err.count("at point") == 1, captured.err


def test_verify_refuses_a_non_finite_report_like_classify(tmp_path, capsys):
    path = _write(tmp_path, HUGE_DOMAIN)
    assert main(["classify", path, "--samples", "8"]) == 3
    refused = capsys.readouterr().err
    assert "non-finite value inf for points[0].phi_norm" in refused
    assert main(["verify", path, "--theorem", "t3", "--samples", "8"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == refused


def test_nan_from_overflow_fails_the_sphere_identity_exit_3(tmp_path, capsys):
    # |dphi|^2 overflows: lap phi and the identity <lap phi, phi> = -|dphi|^2
    # are NaN at the first sample point
    doc = {**OVERFLOW, "name": "fast_circle",
           "map": {"target": "sphere", "components": ["cos(1e200*t)", "sin(1e200*t)", "0"]}}
    path = _write(tmp_path, doc)
    message = ("evaluation error: sphere identity <lap phi, phi> = -|dphi|^2 "
               "violated by nan at (0.001,)\n")
    for argv in (["classify", path, "--samples", "8"],
                 ["verify", path, "--theorem", "t3", "--samples", "8"]):
        assert main(argv) == 3
        assert capsys.readouterr().err == message


@pytest.mark.parametrize("params, g, entry", [
    # eigvalsh raised LinAlgError on the inf entry, a traceback with exit 1
    (["u", "v", "w"], [["1", "0", "1e300*u*1e300"], ["2", "0"], ["1"]], "chart.metric.g[0][2]"),
    # refused only as a NaN fitted constant or density, naming neither entry nor point
    (["u"], [["1e300*u*1e300"]], "chart.metric.g[0][0]"),
], ids=["3d", "1d"])
def test_a_non_finite_metric_value_exits_3_naming_the_entry_and_point(tmp_path, capsys,
                                                                      params, g, entry):
    chart = {"params": params, "domain": [[0.1, 1]] * len(params),
             "metric": {"mode": "explicit", "g": g}}
    flat = {"name": "r", "chart": chart, "map": {"target": "euclidean", "components": ["u"]}}
    circle = {"name": "r_circle", "chart": chart,
              "map": {"target": "sphere", "components": ["cos(u)", "sin(u)"]}}
    commands = ((["classify", "--samples", "8"], 0.1009),
                (["verify", "--theorem", "t3", "--samples", "8"], 0.1009),
                (["bienergy", "--grid", "8"], 0.15625))
    runs = [(doc, argv, x) for doc in (flat, circle) for argv, x in commands]
    # residual refuses a Euclidean target before any point (exit 5)
    runs.append((circle, ["residual", "--equation", "mf", "--samples", "8"], 0.1009))
    for doc, argv, x in runs:
        assert main([argv[0], _write(tmp_path, doc), *argv[1:]]) == 3, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"evaluation error: metric is not finite at "
                                f"{(x,) * len(params)} ({entry} is inf)\n"), argv


@pytest.mark.parametrize("grid, cell", [(8, 0.0625), (40, 0.0125)])
def test_nan_bienergy_density_names_the_quantity_and_cell(tmp_path, capsys, grid, cell):
    doc = {**OVERFLOW, "name": "fast_circle",
           "map": {"target": "sphere", "components": ["cos(1e200*t)", "sin(1e200*t)", "0"]}}
    assert main(["bienergy", _write(tmp_path, doc), "--grid", str(grid)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("evaluation error: bienergy density |tau|^2 sqrt|g| "
                            f"is nan at ({cell},)\n")


def test_bienergy_refuses_a_map_off_its_sphere_as_classify_does(tmp_path, capsys):
    # a circle of radius 2 declared on the unit sphere
    doc = {**VARYING_DENSITY, "name": "off_sphere",
           "map": {"target": "sphere", "components": ["2*cos(t)", "2*sin(t)"]}}
    path = _write(tmp_path, doc)
    for argv, point in ((["classify", path], 0.04908738521234052),
                        (["bienergy", path, "--grid", "8"], 0.39269908169872414)):
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"evaluation error: |phi|^2 deviates from r^2 by "
                                f"3.000e+00 at ({point},)\n")


@pytest.mark.parametrize("target, components, named", [
    ("euclidean", ["(1e200)^2"], "map component 0 is inf"),
    ("euclidean", ["(1e200)^2*t"], "map component 0 is inf"),
    ("euclidean", ["t", "-(1e200)^2*t"], "map component 1 is -inf"),
    # checked before the sphere constraint, which would only see |phi|^2
    ("sphere", ["cos(t)", "sin(t)", "(1e200)^2"], "map component 2 is inf"),
    # an elementary function's value is its own above order 0 too, not nan
    ("euclidean", ["exp(1e200*t*1e200)"], "map component 0 is inf"),
])
def test_non_finite_map_component_names_the_component_and_point(tmp_path, capsys, target,
                                                                components, named):
    # the error names the component and the point, not a fitted constant; a
    # non-finite phi is not a bienergy of 0
    doc = {**OVERFLOW, "name": "huge_constant",
           "map": {"target": target, "components": components}}
    path = _write(tmp_path, doc)
    for argv, point in ((["classify", path, "--samples", "4"], 0.001),
                        (["bienergy", path, "--grid", "4"], 0.125)):
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"evaluation error: {named} at ({point},)\n"


@pytest.mark.parametrize("grid", [8, 40])
def test_bienergy_sum_out_of_float_range_exit_3(tmp_path, capsys, grid):
    # each cell's density, (6e153)^2 = 3.6e307, is finite; their sum is not
    doc = {**OVERFLOW, "name": "steep_parabola",
           "map": {"target": "euclidean", "components": ["3e153*t^2"]}}
    assert main(["bienergy", _write(tmp_path, doc), "--grid", str(grid)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "evaluation error: chart-domain bienergy is out of float range: the "
        f"densities of {grid} cells of volume {1 / grid} sum to inf\n")


@pytest.mark.parametrize("argv", [
    ["classify", "great_circle_S2"], ["classify", "great_circle_S2", "--format", "csv"],
    ["verify", "great_circle_S2", "--theorem", "t1"],
    ["residual", "great_circle_S2", "--equation", "mf", "--format", "json"]])
def test_only_classify_json_builds_the_classification_document(monkeypatch, argv):
    def refuse(*args, **kwargs):
        raise AssertionError("built the classification document")
    monkeypatch.setattr("bieigen.report.classification_dict", refuse)
    assert main(argv) == 0


def test_bienergy_overflow_exit_3(tmp_path, capsys):
    assert main(["bienergy", _write(tmp_path, OVERFLOW), "--grid", "8"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("evaluation error: exp(") and err.count("\n") == 1, err
    assert "out of float range" in err


def _tower_range(tmp_path, component):
    doc = {**OVERFLOW, "name": "tower_range",
           "chart": {**OVERFLOW["chart"], "domain": [[1, 2]]},
           "map": {"target": "euclidean", "components": [component]}}
    return _write(tmp_path, doc)


@pytest.mark.parametrize("command", [["classify", "--samples", "4"]])
@pytest.mark.parametrize("component", ["log(1e-100*t)", "log(1e100*t)",
                                       "sqrt(1e-100*t)", "sqrt(1e-90*t)", "log(1e-80*t)",
                                       "sqrt(1e300*t)", "(1e300*t)^0.5"])
def test_derivative_tower_out_of_float_range_exit_3(tmp_path, capsys, command,
                                                    component):
    # the analysis forms order-4 jets, whose fourth derivative of log or
    # sqrt under- or overflows at the first sample point; at 1e-90 and
    # 1e-80 its denominator is subnormal, not zero, and the derivative inf;
    # at 1e300 the second derivative of sqrt or of the power underflows to
    # zero, which it never is
    path = _tower_range(tmp_path, component)
    assert main([command[0], path, *command[1:]]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    name, value = {"log(1e-100*t)": ("log", "1.0009999999999999e-100"),
                   "log(1e100*t)": ("log", "1.0009999999999998e+100"),
                   "sqrt(1e-100*t)": ("sqrt", "1.0009999999999999e-100"),
                   "sqrt(1e-90*t)": ("sqrt", "1.001e-90"),
                   "log(1e-80*t)": ("log", "1.001e-80"),
                   "sqrt(1e300*t)": ("sqrt", "1.001e+300"),
                   "(1e300*t)^0.5": ("power", "1.001e+300")}[component]
    assert captured.err == (f"evaluation error: derivatives of {name} at {value} are "
                            f"out of float range at point (1.001,)\n")


@pytest.mark.parametrize("component, name", [("sqrt(1e300*t)", "sqrt"),
                                             ("(1e300*t)^0.5", "power")])
def test_underflowed_derivative_refuses_the_bienergy_exit_3(tmp_path, capsys, component,
                                                            name):
    # the second derivative of sqrt at 1e300 underflows to zero, and the
    # chain rule scales it by 1e600: it used to print a bienergy of 0
    assert main(["bienergy", _tower_range(tmp_path, component), "--grid", "4"]) == 3
    assert capsys.readouterr() == (
        "", f"evaluation error: derivatives of {name} at 1.1250000000000001e+300 are out "
            f"of float range at point (1.125,)\n")


def test_a_constant_reads_only_the_value_of_its_tower(tmp_path, capsys):
    # a constant's derivatives are never read, so they may leave the float
    # range: sqrt(1e300) has the bitension of sqrt(1e300*t), and the
    # order-4 analysis takes log(1e100), sqrt(1e-100) and sqrt(0)
    assert main(["bienergy", _tower_range(tmp_path, "sqrt(1e300)*sqrt(t)"),
                 "--grid", "4"]) == 0
    assert capsys.readouterr() == (
        "chart-domain bienergy of tower_range (grid 4): 1.1498077381280945e+298\n", "")
    for component, c_hat in (("log(1e100)*t", "53018.9811048"),
                             ("sqrt(1e-100)*t", "1e-100"), ("sqrt(0)*t", "0")):
        assert main(["classify", _tower_range(tmp_path, component), "--samples", "4"]) == 0
        captured = capsys.readouterr()
        assert captured.err == "" and f"c_hat {c_hat}\n" in captured.out


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_a_density_past_the_square_root_of_the_float_range_classifies(tmp_path, capsys,
                                                                       fmt):
    # |dphi|^2 = 1e200 has no float square, which no Euclidean verdict reads
    path = _tower_range(tmp_path, "1e100*t")
    assert main(["classify", path, "--samples", "4", "--format", fmt]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    if fmt == "text":
        assert "c_hat 1e+200" in captured.out


@pytest.mark.parametrize("component, unscaled, factor", [
    ("log(1e-100*t)", "log(t)", 1.0), ("log(1e100*t)", "log(t)", 1.0),
    ("sqrt(1e-100*t)", "sqrt(t)", 1e-100)], ids=["log(1e-100*t)", "log(1e100*t)",
                                                  "sqrt(1e-100*t)"])
def test_derivative_out_of_float_range_above_the_jet_order_gives_a_report(
        tmp_path, capsys, component, unscaled, factor):
    # the bienergy forms order-2 jets, and the derivative out of float
    # range is the fourth: log(c*t) has the bitension of log(t), and
    # sqrt(c*t) that of sqrt(t) times sqrt(c)
    energies = []
    for source in (component, unscaled):
        assert main(["bienergy", _tower_range(tmp_path, source), "--grid", "8"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        head, value = captured.out.rsplit(": ", 1)
        assert head == "chart-domain bienergy of tower_range (grid 8)"
        energies.append(float(value))
    assert energies[0] == pytest.approx(factor * energies[1], rel=1e-12)


@pytest.mark.parametrize("component, bienergy", [
    ("sqrt(1e-90*t)", "1.1662067838150157e-92"), ("log(1e-80*t)", "0.14458920719355708")])
def test_subnormal_denominator_above_the_jet_order_gives_a_report(tmp_path, capsys,
                                                                 component, bienergy):
    # classify refuses these maps (above); the order-2 bienergy jets never
    # form the fourth derivative
    assert main(["bienergy", _tower_range(tmp_path, component), "--grid", "8"]) == 0
    assert capsys.readouterr() == (
        f"chart-domain bienergy of tower_range (grid 8): {bienergy}\n", "")


def test_json_string_escapes():
    text = '"\\\n\t\r\b\f\x00\x1f\x7f\u00e9'
    assert to_json(text) == ('"\\"\\\\\\n\\t\\u000d\\u0008\\u000c'
                             '\\u0000\\u001f\x7f\u00e9"\n')
    assert json.loads(to_json(text)) == text


def test_control_character_in_name_is_escaped_in_the_json_report(tmp_path, capsys):
    path = tmp_path / "named.json"
    path.write_text(to_json({**NEARLY_ISOMETRIC, "name": "circle\rone"}))
    assert main(["classify", str(path), "--samples", "4", "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert '  "name": "circle\\u000done",\n' in out
    assert json.loads(out)["name"] == "circle\rone"


@pytest.mark.parametrize("doc, message", [
    ({**HUGE_DOMAIN, "chart": {**HUGE_DOMAIN["chart"], "domain": [[0, "exp(1000)"]]}},
     "chart.domain[0][1]: exp(1000.0) is out of float range"),
    ({**HUGE_DOMAIN, "chart": {**HUGE_DOMAIN["chart"], "domain": [["1/0", 1]]}},
     "chart.domain[0][0]: division by zero"),
    ({**HUGE_DOMAIN, "chart": {**HUGE_DOMAIN["chart"], "domain": [[0, "1 + 0^-1"]]}},
     "chart.domain[0][1]: zero value raised to a negative power"),
    ({**HUGE_DOMAIN, "chart": {**HUGE_DOMAIN["chart"], "domain": [[0, "1e-200^-2"]]}},
     "chart.domain[0][1]: division by a jet with zero value"),
    ({**NEARLY_ISOMETRIC, "map": {**NEARLY_ISOMETRIC["map"], "radius": "exp(1000)"}},
     "map.radius: exp(1000.0) is out of float range"),
], ids=["bound_overflow", "bound_division_by_zero", "bound_zero_to_a_negative_power",
        "bound_power_underflow", "radius_overflow"])
def test_constant_expression_errors_are_manifest_errors_exit_2(tmp_path, capsys,
                                                                doc, message):
    assert main(["classify", _write(tmp_path, doc)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("radius", ["1e400", '"1e300*1e300"'])
def test_radius_out_of_float_range_exit_2(tmp_path, capsys, radius):
    doc = {**NEARLY_ISOMETRIC, "map": {**NEARLY_ISOMETRIC["map"], "radius": "RADIUS"}}
    path = tmp_path / "huge_radius.json"
    path.write_text(json.dumps(doc).replace('"RADIUS"', radius))
    assert main(["classify", str(path)]) == 2
    assert capsys.readouterr().err == "error: map.radius must be finite and positive, got inf\n"


@pytest.mark.parametrize("radius", [1e200, 1e-200])
def test_a_radius_whose_square_leaves_float_range_exits_2(tmp_path, capsys, radius):
    # phi = r (cos t, sin t) is on the sphere of radius r, but r^2 overflows
    # to inf or underflows to 0.0, which the sphere check and the tension read
    doc = {**NEARLY_ISOMETRIC, "name": "scaled_circle",
           "map": {"target": "sphere", "radius": radius,
                   "components": [f"{radius!r}*cos(t)", f"{radius!r}*sin(t)"]}}
    path = _write(tmp_path, doc)
    for argv in (["classify", path], ["verify", path, "--theorem", "takahashi"],
                 ["residual", path, "--equation", "mf"], ["bienergy", path]):
        assert main(argv) == 2
        assert capsys.readouterr().err == (f"error: map.radius must have a square in the "
                                           f"normal float range, got {radius!r}\n")


@pytest.mark.parametrize("bound", ["1e400", '"1e300*1e300"'])
def test_domain_bound_out_of_float_range_exit_2(tmp_path, capsys, bound):
    doc = {**HUGE_DOMAIN, "chart": {**HUGE_DOMAIN["chart"], "domain": [[0, "BOUND"]]}}
    path = tmp_path / "infinite_domain.json"
    path.write_text(json.dumps(doc).replace('"BOUND"', bound))
    assert main(["classify", str(path)]) == 2
    assert capsys.readouterr().err == "error: chart.domain[0][1] must be finite, got inf\n"


# expressions n levels deep, in the three shapes that nest: unary minus,
# parentheses and a left-associated chain
DEEP = {"minus": lambda n: "-" * n + "t", "paren": lambda n: "(" * n + "t" + ")" * n,
        "chain": lambda n: "t" + " + t" * n}


def _deep_manifest(source):
    """A Euclidean map with `source` as its first component and, with t set
    to 1, as the upper domain bound."""
    return {"name": "deep",
            "chart": {"params": ["t"], "domain": [[0, source.replace("t", "1")]],
                      "metric": {"mode": "explicit", "g": [["1"]]}},
            "map": {"target": "euclidean", "components": [source, "t"]}}


@pytest.mark.parametrize("shape", sorted(DEEP))
def test_expression_at_the_depth_bound_classifies(tmp_path, capsys, shape):
    path = _write(tmp_path, _deep_manifest(DEEP[shape](MAX_DEPTH)))
    assert main(["classify", path, "--samples", "4", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["name"] == "deep"


@pytest.mark.parametrize("shape, byte", [("minus", MAX_DEPTH), ("paren", MAX_DEPTH),
                                         ("chain", 4 * MAX_DEPTH + 2)])
def test_expression_past_the_depth_bound_exit_2(tmp_path, capsys, shape, byte):
    path = _write(tmp_path, _deep_manifest(DEEP[shape](MAX_DEPTH + 1)))
    assert main(["classify", path]) == 2
    assert capsys.readouterr().err == (
        f"error: chart.domain[0][1]: parse error at byte {byte}: expression nests "
        f"more than {MAX_DEPTH} levels deep\n")
    doc = _deep_manifest(DEEP[shape](MAX_DEPTH + 1))
    doc["chart"]["domain"] = [[0, 1]]
    assert main(["classify", _write(tmp_path, doc)]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: map.components[0]: parse error at byte {byte}: ")


def test_every_tree_walk_at_the_depth_bound_fits_below_cli_main(monkeypatch):
    env = Chart.explicit(["t"], [(0, 1)], [["1"]]).param_jets([(0.5,)], 4)
    walked = []

    def walk(args):
        for make in DEEP.values():
            tree = parse(make(MAX_DEPTH))
            intern([tree])
            variables_of(tree)
            eval_jet(tree, env)
            eval_value(tree, {"t": 0.5})
            parse(to_source(tree))
            walked.append(tree)
        return 0
    monkeypatch.setattr("bieigen.cli.cmd_bienergy", walk)
    assert main(["bienergy", "great_circle_S2"]) == 0
    assert len(walked) == len(DEEP)


@pytest.mark.parametrize("content, message", [
    (b"\xff\xfe{}", "is not UTF-8 text: 'utf-8' codec can't decode byte 0xff in "
                     "position 0: invalid start byte"),
    (b"[" * 100000, "nests too deeply to decode"),
], ids=["utf16_bom", "deep_nesting"])
def test_undecodable_manifest_exit_2(tmp_path, capsys, content, message):
    path = tmp_path / "undecodable.json"
    path.write_bytes(content)
    assert main(["classify", str(path)]) == 2
    assert capsys.readouterr().err == f"error: manifest {path} {message}\n"
    with pytest.raises(manifest.ManifestError, match="undecodable.json"):
        manifest.load_manifest(path)


def test_a_manifest_file_is_decoded_and_built_once(tmp_path, capsys, monkeypatch):
    calls = {"decode": 0, "build": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper
    monkeypatch.setattr(manifest.json, "load", counted("decode", manifest.json.load))
    monkeypatch.setattr(manifest, "_build_map", counted("build", manifest._build_map))
    assert main(["bienergy", _write(tmp_path, NEARLY_ISOMETRIC), "--grid", "4"]) == 0
    assert calls == {"decode": 1, "build": 1}


@pytest.mark.parametrize("out, reason", [("a_directory", "Is a directory"),
                                         ("missing/out.json", "No such file or directory")])
def test_catalog_export_write_failure_exit_2(tmp_path, capsys, out, reason):
    (tmp_path / "a_directory").mkdir()
    path = tmp_path / out
    assert main(["catalog", "export", "great_circle_S2", "--out", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: cannot write {path}: {reason}\n")


@pytest.mark.parametrize("argv, message", [
    (["classify", "great_circle_S2", "--samples", "1000000000000"],
     "--samples: a grid of at least 1000000000000 sample points exceeds the "
     "cap of 1048576"),
    (["residual", "clifford_torus_S3", "--equation", "mf", "--samples", "10" * 400],
     f"--samples: a grid of at least {'10' * 400} sample points exceeds the cap "
     "of 1048576"),
    (["bienergy", "clifford_torus_S3", "--grid", "10000000"],
     "--grid: 10000000 cells per axis in 2 dimensions exceed the cap of 1048576 cells"),
], ids=["samples", "residual_samples", "grid"])
def test_oversized_samples_and_grid_exit_2(capsys, argv, message):
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("flags, env, named", [
    (["--tol", "nan"], None, "--tol"), (["--tol", "-1"], None, "--tol"),
    (["--tol", "inf"], None, "--tol"), (["--margin", "0.5"], None, "--margin"),
    (["--margin", "0"], None, "--margin"), ([], "-1", "BIEIGEN_TOL"),
    ([], "abc", "BIEIGEN_TOL"),
], ids=["tol_nan", "tol_negative", "tol_inf", "margin_half", "margin_zero",
        "env_negative", "env_not_a_number"])
def test_bad_tolerance_and_margin_exit_2(capsys, monkeypatch, flags, env, named):
    if env is not None:
        monkeypatch.setenv("BIEIGEN_TOL", env)
    with pytest.raises(SystemExit) as exit_info:
        main(["verify", "great_circle_S2", "--theorem", "takahashi", *flags])
    assert exit_info.value.code == 2
    assert named in capsys.readouterr().err


LINE = {"name": "line", "chart": {"params": ["t"], "domain": [[0, 1]],
                                  "metric": {"mode": "explicit", "g": [["1"]]}},
        "map": {"target": "euclidean", "components": ["t", "0"]}}


def _line(chart=None, **changes):
    """LINE with `changes` to its top-level keys and `chart` to its chart's."""
    return {**LINE, "chart": {**LINE["chart"], **(chart or {})}, **changes}


_PLANE = {"params": ["u", "v"], "domain": [[0, 1], [0, 1]]}


@pytest.mark.parametrize("doc, argv, line", [
    ({**LINE, "chart": []}, [], "error: chart must be a JSON object"),
    (_line({"domain": [[0, None]]}), [],
     "error: chart.domain[0][1] must be a number or constant expression"),
    (_line({"params": "t"}), [], "error: chart.params must list 1 to 4 parameter names"),
    (_line({"params": list("abcde")}), [],
     "error: chart.params must list 1 to 4 parameter names"),
    (_line({"params": ["pi"]}), [], "error: chart.params: invalid identifier 'pi'"),
    (_line({"periodic": "yes"}), [],
     "error: chart.periodic must be a list of booleans, one per parameter"),
    (_line({"domain": [[0, 1, 2]]}), [], "error: chart.domain[0] must be a [lo, hi] pair"),
    (_line({"metric": {"g": [["1"]]}}), [],
     "error: chart.metric must be an object with a 'mode' key"),
    (_line({**_PLANE, "metric": {"mode": "explicit", "g": [["1"], ["1"]]}}), [],
     "error: chart.metric.g[0] must list the upper triangle (2 entries expected)"),
    (_line({**_PLANE, "params": ["t", "t"],
            "metric": {"mode": "explicit", "g": [["1", "0"], ["1"]]}}), [],
     "error: chart parameter names must be distinct"),
    (_line({**_PLANE, "params": ["t", "t"],
            "metric": {"mode": "induced", "immersion": ["t", "t"]}}), [],
     "error: chart parameter names must be distinct"),
    (_line({**_PLANE, "metric": {"mode": "induced", "immersion": ["u"]}}), [],
     "error: chart.metric.immersion needs at least as many components as parameters"),
    (_line(map={"target": "euclidean", "components": []}), [],
     "error: map.components must be a non-empty list of expressions"),
    (_line(name=""), [], "error: manifest.name must be a non-empty string"),
    (LINE, ["--samples", "0"],
     "bieigen classify: error: argument --samples: must be a positive integer"),
    (LINE, ["--grid", "0"],
     "bieigen bienergy: error: argument --grid: must be a positive integer"),
], ids=["section_not_an_object", "bound_not_a_number", "params_not_a_list", "five_params",
        "param_pi", "periodic_not_a_list", "interval_not_a_pair", "metric_without_mode",
        "triangle_row_length", "duplicate_params_explicit", "duplicate_params_induced", "short_immersion",
        "no_components", "empty_name", "samples_zero", "grid_zero"])
def test_malformed_manifests_and_flags_exit_2(tmp_path, capsys, doc, argv, line):
    command = "bienergy" if "--grid" in argv else "classify"
    try:
        code = main([command, _write(tmp_path, doc), *argv])
    except SystemExit as exit_info:  # argparse refuses a flag by exiting
        code = exit_info.code
    assert code == 2
    assert capsys.readouterr().err.splitlines()[-1] == line


def test_a_parameter_named_like_a_function_classifies(tmp_path, capsys):
    # |dphi|^2 = cos(s)^2 + 1 of phi = (sin(s), s): the parameter is read as one
    doc = _line({"params": ["sin"]}, map={"target": "euclidean",
                                          "components": ["sin(sin)", "sin"]})
    assert main(["classify", _write(tmp_path, doc), "--samples", "4", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["constants"]["c_hat"] > 1.0


def test_a_valid_margin_reaches_the_report_settings(capsys):
    argv = ["classify", "great_circle_S2", "--samples", "4", "--format", "json"]
    assert main([*argv, "--margin", "0.01"]) == 0
    assert json.loads(capsys.readouterr().out)["settings"]["margin"] == 0.01


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_every_format_assembles_and_checks_the_header_once(capsys, monkeypatch, fmt):
    calls = dict.fromkeys(("_header", "_require_finite"), 0)
    for name in calls:
        def counted(*args, name=name, wrapped=getattr(rpt, name)):
            calls[name] += 1
            return wrapped(*args)
        monkeypatch.setattr(rpt, name, counted)
    assert main(["classify", "clifford_torus_S3", "--format", fmt]) == 0
    capsys.readouterr()
    # one walk of the sections before `points` and one of those after it
    assert calls == {"_header": 1, "_require_finite": 2}


def test_bienergy_command(capsys):
    assert main(["bienergy", "small_circle_S2", "--grid", "256"]) == 0
    out = capsys.readouterr().out
    assert "chart-domain bienergy" in out
    value = float(out.strip().rsplit(" ", 1)[-1])
    assert value == pytest.approx(2.221441469079183, abs=1e-9)


def test_catalog_list_and_export_round_trip(tmp_path, capsys, monkeypatch):
    assert main(["catalog", "list"]) == 0
    listing = capsys.readouterr().out
    assert "small_circle_S2" in listing

    out_path = tmp_path / "exported.json"
    assert main(["catalog", "export", "small_circle_S2",
                 "--out", str(out_path)]) == 0
    capsys.readouterr()

    assert main(["classify", str(out_path), "--format", "json"]) == 0
    from_file = capsys.readouterr().out
    assert main(["classify", "small_circle_S2", "--format", "json"]) == 0
    from_catalog = capsys.readouterr().out
    assert from_file == from_catalog


def test_catalog_export_unknown_exit_2(capsys):
    assert main(["catalog", "export", "wat"]) == 2


def test_tolerance_env_override(tmp_path, capsys, monkeypatch):
    path = _write(tmp_path, NEARLY_ISOMETRIC)
    monkeypatch.setenv("BIEIGEN_TOL", "1e-12")
    assert main(["verify", path, "--theorem", "takahashi"]) == 1
    capsys.readouterr()
    monkeypatch.setenv("BIEIGEN_TOL", "1e-8")
    assert main(["verify", path, "--theorem", "takahashi"]) == 0


def test_cached_parser_reads_the_environment_at_every_call(capsys, monkeypatch):
    # the parser is built once per process; a bad $BIEIGEN_TOL after a good
    # one is refused with the bytes a fresh process prints
    argv = ["verify", "great_circle_S2", "--theorem", "takahashi"]
    monkeypatch.setenv("BIEIGEN_TOL", "1e-8")
    assert main(argv) == 0
    capsys.readouterr()
    monkeypatch.setenv("BIEIGEN_TOL", "abc")
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    fresh = subprocess.run([sys.executable, "-m", "bieigen.cli", *argv],
                           capture_output=True, text=True, timeout=120)
    assert fresh.returncode == 2
    assert capsys.readouterr().err == fresh.stderr
    assert "BIEIGEN_TOL), got 'abc'" in fresh.stderr


def test_every_exit_code_reachable():
    # 0, 1, 2, 3, 4, 5 are each produced by at least one test in this module;
    # spot-check the mapping constants once more here
    from bieigen import cli
    assert (cli.EXIT_OK, cli.EXIT_FAIL, cli.EXIT_MANIFEST, cli.EXIT_EVAL,
            cli.EXIT_NOT_APPLICABLE, cli.EXIT_PRECONDITION) == (0, 1, 2, 3, 4, 5)


def test_classification_json_schema_is_stable(capsys):
    assert main(["classify", "great_circle_S2", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert sorted(doc) == ["constants", "defects", "format_version", "map",
                           "mean_curvature", "name", "points",
                           "residual_norms", "settings", "spreads", "verdicts"]
    assert sorted(doc["constants"]) == ["c_hat", "lambda_hat", "mu_hat", "rho_hat"]
    assert sorted(doc["verdicts"]) == [
        "is_bieigenmap", "is_biharmonic", "is_biharmonic_constant_density",
        "is_biharmonic_submanifold", "is_buckling", "is_constant_density",
        "is_eigenmap", "is_harmonic", "is_isometric", "is_proper_bieigenmap"]
    row = doc["points"][0]
    assert "point" in row and "energy_density" in row and "residual_full" in row
