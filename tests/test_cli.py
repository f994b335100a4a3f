import json
import subprocess
import sys

import pytest

from bieigen.cli import main
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


def test_residual_requires_unit_sphere_exit_5(capsys):
    assert main(["residual", "circle_S1_sqrt_half", "--equation", "mf"]) == 5


def test_residual_checks_unit_sphere_before_any_point(capsys, monkeypatch):
    def analyze_point(smap, point):
        raise AssertionError(f"analyzed {point}")
    monkeypatch.setattr("bieigen.analysis.analyze_point", analyze_point)
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


def test_bienergy_overflow_exit_3(tmp_path, capsys):
    assert main(["bienergy", _write(tmp_path, OVERFLOW), "--grid", "8"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("evaluation error: exp(") and err.count("\n") == 1, err
    assert "out of float range" in err


@pytest.mark.parametrize("doc, message", [
    ({**HUGE_DOMAIN, "chart": {**HUGE_DOMAIN["chart"], "domain": [[0, "exp(1000)"]]}},
     "chart.domain[0][1]: exp(1000.0) is out of float range"),
    ({**HUGE_DOMAIN, "chart": {**HUGE_DOMAIN["chart"], "domain": [["1/0", 1]]}},
     "chart.domain[0][0]: division by zero"),
    ({**NEARLY_ISOMETRIC, "map": {**NEARLY_ISOMETRIC["map"], "radius": "exp(1000)"}},
     "map.radius: exp(1000.0) is out of float range"),
], ids=["bound_overflow", "bound_division_by_zero", "radius_overflow"])
def test_constant_expression_errors_are_manifest_errors_exit_2(tmp_path, capsys,
                                                                doc, message):
    assert main(["classify", _write(tmp_path, doc)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


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
