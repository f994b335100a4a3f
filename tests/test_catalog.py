import pytest

from bieigen import build_map, catalog_get, catalog_list, catalog_names
from bieigen.analysis import bienergy_quadrature
from bieigen.classify import NOT_APPLICABLE, PASS, classify, verify

ALL_THEOREMS = ("takahashi", "t1", "t2", "t3", "t4")


@pytest.fixture(scope="module")
def reports():
    out = {}
    for entry in catalog_list():
        _, smap = build_map(entry.manifest)
        out[entry.name] = (entry, smap, classify(smap, 64))
    return out


def test_catalog_listing_is_deterministic():
    assert catalog_names() == [e.name for e in catalog_list()]
    assert catalog_names() == catalog_names()
    assert "small_circle_S2" in catalog_names()
    with pytest.raises(KeyError):
        catalog_get("not_a_fixture")


def test_every_entry_reproduces_expected_constants(reports):
    for name, (entry, smap, report) in reports.items():
        for key, expected in entry.expected["constants"].items():
            got = getattr(report.constants, key)
            if expected is None:
                assert got is None, (name, key)
            else:
                assert got == pytest.approx(expected, abs=1e-8), (name, key)


def test_every_entry_reproduces_expected_verdicts(reports):
    for name, (entry, smap, report) in reports.items():
        for key, expected in entry.expected["verdicts"].items():
            assert getattr(report, key) == expected, (name, key)


def test_every_entry_reproduces_expected_theorem_statuses(reports):
    for name, (entry, smap, report) in reports.items():
        for theorem, expected in entry.expected["theorems"].items():
            got = verify(report, theorem)
            assert got.status == expected, (name, theorem, got)


def test_expected_mean_curvature_norms(reports):
    for name, (entry, smap, report) in reports.items():
        expected = entry.expected["eta_max_norm"]
        if expected is None:
            assert report.eta_max_norm is None, name
        else:
            assert report.eta_max_norm == pytest.approx(expected, abs=1e-8), name


def test_expected_bienergies(reports):
    for name, (entry, smap, report) in reports.items():
        spec = entry.expected.get("bienergy")
        if spec is None:
            continue
        value = bienergy_quadrature(smap, spec["grid"])
        assert value == pytest.approx(spec["value"], abs=1e-9), name
        refined = bienergy_quadrature(smap, 2 * spec["grid"])
        assert abs(refined - value) < 1e-9, name


NA = "NOT_APPLICABLE"
NOT_ISOMETRIC = (f"takahashi: {NA} (map is not isometric)",
                 f"t1: {NA} (map is not isometric)", f"t2: {NA} (map is not isometric)")
VERDICT_LINES = {
    "great_circle_S2": ("takahashi: PASS", "t1: PASS",
                        f"t2: {NA} (map is harmonic)", "t3: PASS", "t4: PASS"),
    "small_circle_S2": (f"takahashi: {NA} (map is not an eigenmap)",
                        f"t1: {NA} (map is not a bi-eigenmap)", "t2: PASS",
                        f"t3: {NA} (map is not a bi-eigenmap)", "t4: PASS"),
    "clifford_torus_S3": ("takahashi: PASS", "t1: PASS",
                          f"t2: {NA} (map is harmonic)", "t3: PASS", "t4: PASS"),
    "clifford_comp_S4": (f"takahashi: {NA} (map is not an eigenmap)",
                         f"t1: {NA} (map is not a bi-eigenmap)", "t2: PASS",
                         f"t3: {NA} (map is not a bi-eigenmap)", "t4: PASS"),
    "kfold_equator_S2": (*NOT_ISOMETRIC, "t3: PASS", "t4: PASS"),
    "nonisometric_buckling_S2": (*NOT_ISOMETRIC,
                                 f"t3: {NA} (map is not a bi-eigenmap)", "t4: PASS"),
    "round_sphere_chart_S2_in_R3": ("takahashi: PASS", "t1: PASS",
                                    f"t2: {NA} (map is harmonic)", "t3: PASS",
                                    "t4: PASS"),
    "constant_map": (*NOT_ISOMETRIC, "t3: PASS",
                     f"t4: {NA} (map is not a buckling eigenmap)"),
    "circle_S1_sqrt_half": ("takahashi: PASS",
                            *(f"{t}: {NA} (target is not the unit sphere)"
                              for t in ("t1", "t2", "t3", "t4"))),
}


def test_every_verdict_line_and_unmet_hypothesis(reports):
    # the first unmet hypothesis is the one named, so these pin check order
    assert sorted(VERDICT_LINES) == sorted(reports)
    for name, (_, _, report) in reports.items():
        got = tuple(str(verify(report, t)) for t in ALL_THEOREMS)
        assert got == VERDICT_LINES[name], name


def test_every_theorem_has_pass_and_not_applicable_coverage(reports):
    for theorem in ALL_THEOREMS:
        statuses = {verify(report, theorem).status
                    for _, _, report in reports.values()}
        assert PASS in statuses, theorem
        assert NOT_APPLICABLE in statuses, theorem


def test_expectations_survive_quadrupled_sampling():
    for entry in catalog_list():
        _, smap = build_map(entry.manifest)
        report = classify(smap, 256)
        for key, expected in entry.expected["verdicts"].items():
            assert getattr(report, key) == expected, (entry.name, key)
        for theorem, expected in entry.expected["theorems"].items():
            assert verify(report, theorem).status == expected, \
                (entry.name, theorem)


def test_entries_have_notes_and_names_match_manifest():
    for entry in catalog_list():
        assert entry.note
        assert entry.manifest["name"] == entry.name
