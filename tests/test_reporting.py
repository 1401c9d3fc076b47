"""Fidelity report, CSV emitter, the README's resonance cases, and property
suites."""

import json
import re
from pathlib import Path
from types import SimpleNamespace

import pytest

from twophase_torsion.params import ModeIndex, PerturbationSpec, ProblemParams, validate
from twophase_torsion import pde_oracle, reporting, second_variation
from twophase_torsion.reporting import (
    CRITERIA,
    CRITERIA_POINTS,
    GRID_DESCRIPTION,
    GRID_KMAX,
    GRID_POINTS,
    RESONANCE_POINTS,
    SPECTRUM_KMAX,
    SUITE_CRITERIA,
    SUITES,
    build_fidelity_report,
    emit_spectrum_csv,
    resonance_structure,
    run_coefficients_suite,
    run_monotonicity_suite,
    run_pde_suite,
    run_secondvar_suite,
    transmission_residuals,
)
from twophase_torsion.second_variation import (
    SpectrumPath,
    assemble_spectrum,
    closed_form_modes,
    denom_F,
    discriminant,
    printed_spectrum,
    spectrum_grid,
)

PARAMS = ProblemParams(dim=2, core_radius=0.5, sigma=2.0)

EXPECTED_VERDICTS = {
    "B_in": "Mismatch",
    "C_in": "Match",
    "D_in": "Match",
    "B_out": "Match",
    "C_out": "Match",
    "D_out": "Match",
    "E_in": "Mismatch",
    "E_out": "Mismatch",
    "E_res": "Match",
    "E_res_k1_perfect_square": "Match",
}


@pytest.fixture(scope="module")
def report():
    return build_fidelity_report()


def test_default_grid_size():
    assert len(GRID_POINTS) == 45  # 3 dims x 5 sigmas x 3 radii
    # the grid, then the 3 dims x 3 radii at sigma = 1.5 of criterion 8
    assert len(RESONANCE_POINTS) == 27
    assert CRITERIA_POINTS[:45] == GRID_POINTS
    assert set(CRITERIA_POINTS) == set(GRID_POINTS) | set(RESONANCE_POINTS)
    assert len(CRITERIA_POINTS) == 54


@pytest.mark.parametrize(
    "points, kmax",
    [(GRID_POINTS, GRID_KMAX), (GRID_POINTS, SPECTRUM_KMAX), (RESONANCE_POINTS, SPECTRUM_KMAX)],
    ids=["criteria 1-3 and fidelity", "criteria 4-6", "criterion 8"],
)
def test_each_criterion_reads_the_grid_a_fresh_solve_gives(points, kmax):
    view, fresh = reporting._criteria_spectra(points, kmax), spectrum_grid(points, kmax)
    assert view.points == fresh.points
    for name in ("unknowns", "powers", "e_in", "e_out", "e_res"):
        array = getattr(view, name)
        assert array.shape == getattr(fresh, name).shape, name
        assert array.tobytes() == getattr(fresh, name).tobytes(), name
        assert not array.flags.writeable, name


def test_fidelity_report_full_grid_verdicts(report):
    assert [entry["formula"] for entry in report["entries"]] == list(EXPECTED_VERDICTS)
    for entry in report["entries"]:
        assert entry["verdict"] == EXPECTED_VERDICTS[entry["formula"]], entry["formula"]
        if entry["verdict"] == "Mismatch":
            assert "Known formula discrepancies" in entry["note"]
            assert entry["relative_deviation"] > 1e-10
        else:
            assert entry["note"] == ""
            assert entry["relative_deviation"] <= 1e-10
        assert entry["worst_point"]


def test_fidelity_report_document_and_lookup(report):
    assert list(report) == ["grid", "entries"]
    assert report["grid"] == GRID_DESCRIPTION
    keys = [
        "formula",
        "printed_value",
        "assembled_value",
        "relative_deviation",
        "verdict",
        "worst_point",
        "note",
    ]
    for entry in report["entries"]:
        assert list(entry) == keys
        assert all(type(entry[key]) is float for key in keys[1:4])
    entries = {entry["formula"]: entry for entry in report["entries"]}
    assert entries["B_in"]["verdict"] == "Mismatch"
    assert entries["E_res"]["verdict"] == "Match"


def test_spectrum_csv_layout():
    values = assemble_spectrum(PARAMS, 2)
    printed = [float(column[0, 1]) for column in printed_spectrum((PARAMS,), 4)]
    for path, (e_in, e_out, e_res) in (
        (SpectrumPath.ASSEMBLED, (values.e_in, values.e_out, values.e_res)),
        (SpectrumPath.PRINTED, printed),
    ):
        lines = emit_spectrum_csv(PARAMS, 4, path).strip().split("\n")
        assert lines[0] == "k,e_in,e_out,e_res,delta"
        assert len(lines) == 5
        row = lines[2].split(",")
        assert int(row[0]) == 2
        assert float(row[1]) == e_in
        assert float(row[2]) == e_out
        assert float(row[3]) == e_res
        assert float(row[4]) == discriminant(e_in, e_out, e_res)


def test_spectrum_csv_is_deterministic():
    first = emit_spectrum_csv(PARAMS, 20, SpectrumPath.ASSEMBLED)
    second = emit_spectrum_csv(PARAMS, 20, SpectrumPath.ASSEMBLED)
    assert first == second
    printed = emit_spectrum_csv(PARAMS, 20, SpectrumPath.PRINTED)
    assert printed != first


def test_spectrum_csv_rejects_empty_range():
    with pytest.raises(ValueError):
        emit_spectrum_csv(PARAMS, 0, SpectrumPath.ASSEMBLED)


README = Path(__file__).resolve().parents[1] / "README.md"

# the five resonance cases, typed apart from the README records they check
RESONANCE_CASES = {
    "i": PerturbationSpec({ModeIndex(3, 1): (1.0, 0.0), ModeIndex(5, 1): (0.0, 1.0)}),
    "ii": PerturbationSpec({ModeIndex(5, 1): (1.0, 0.0), ModeIndex(5, 2): (0.0, 1.0)}),
    "iii": PerturbationSpec({ModeIndex(5, 1): (1.0, 1.0)}),
    "iv": PerturbationSpec({ModeIndex(5, 1): (1.0, -1.0)}),
    "v": PerturbationSpec({ModeIndex(1, 1): (1.0, 1.0)}),
}


def test_presets_cover_the_five_resonance_cases():
    # each README row's modes list parses to its case's spec, so the
    # documented records cannot drift from the cases
    rows = re.findall(
        r"^\| \((\w+)\) +\|[^|]*\| `(\[.*\])` \|$",
        README.read_text(encoding="utf-8"),
        re.MULTILINE,
    )
    assert [case for case, _ in rows] == list(RESONANCE_CASES)
    for case, modes in rows:
        config = {"radius": 0.5, "sigma": 2.0, "modes": json.loads(modes)}
        assert pde_oracle.family_from_config(config).spec == RESONANCE_CASES[case], case
    # only case (v) breaks a constraint: the barycenter one, by its outer degree-1 mode
    assert [case for case, spec in RESONANCE_CASES.items() if validate(spec)] == ["v"]
    assert [index for index, _ in validate(RESONANCE_CASES["v"])] == [ModeIndex(1, 1)]


def test_coefficients_suite_passes():
    results = run_coefficients_suite()
    assert len(results) == 3
    assert all(check.passed for check in results), [
        check.detail for check in results if not check.passed
    ]


def test_secondvar_suite_passes():
    results = run_secondvar_suite()
    assert len(results) == 4
    assert all(check.passed for check in results), [
        check.detail for check in results if not check.passed
    ]


def test_monotonicity_suite_passes():
    results = run_monotonicity_suite()
    assert len(results) == 1
    assert results[0].passed, results[0].detail
    assert "105" in results[0].name


@pytest.fixture
def mode_solves(monkeypatch):
    """The (points, kmax) of every mode solve from here on, with the caches
    of the analytic and the printed path emptied."""
    solves, eliminate = [], second_variation._eliminate

    def counted(sigma, stiffness, two_minus_n, k, *system):
        solves.append((len(sigma), k.size))
        return eliminate(sigma, stiffness, two_minus_n, k, *system)

    for cached in (spectrum_grid, second_variation._printed):
        cached.cache_clear()
    monkeypatch.setattr(second_variation, "_eliminate", counted)
    return solves


@pytest.fixture
def printed_ladders(monkeypatch):
    """The (points, kmax) of every printed ladder built from here on."""
    ladders, radius_powers = [], second_variation._radius_powers

    def counted(points, kmax, terms):
        if terms is second_variation._PRINTED_POWERS:
            ladders.append((points, kmax))
        return radius_powers(points, kmax, terms)

    monkeypatch.setattr(second_variation, "_radius_powers", counted)
    return ladders


def test_resonance_criterion_makes_one_stacked_solve(mode_solves):
    # the one grid of the criteria, 54 points at SPECTRUM_KMAX
    assert resonance_structure().passed
    assert mode_solves == [(54, SPECTRUM_KMAX)]


def test_criteria_1_to_8_and_the_fidelity_report_make_one_solve(mode_solves, printed_ladders):
    for number in range(1, 9):
        assert CRITERIA[number]().passed, number
    build_fidelity_report()
    assert mode_solves == [(54, SPECTRUM_KMAX)]
    assert printed_ladders == [(GRID_POINTS, GRID_KMAX)]


def test_the_cached_printed_arrays_are_read_only():
    printed = second_variation._printed(GRID_POINTS, GRID_KMAX)
    arrays = (
        *printed,
        denom_F(GRID_POINTS, GRID_KMAX),
        closed_form_modes(GRID_POINTS, GRID_KMAX),
        *printed_spectrum(GRID_POINTS, GRID_KMAX),
    )
    assert not any(array.flags.writeable for array in arrays)
    assert denom_F(GRID_POINTS, GRID_KMAX) is printed[0]
    assert closed_form_modes(GRID_POINTS, GRID_KMAX) is printed[1]
    assert all(a is b for a, b in zip(printed_spectrum(GRID_POINTS, GRID_KMAX), printed[2:]))
    assert second_variation._printed(GRID_POINTS, GRID_KMAX) is printed


def test_a_grid_point_past_the_residual_contract_fails_criterion_1(monkeypatch):
    spectrum_grid.cache_clear()
    monkeypatch.setattr(second_variation, "RESIDUAL_TOL", 0.0)
    result = transmission_residuals()
    spectrum_grid.cache_clear()
    assert not result.passed
    assert result.detail.startswith(f"{GRID_POINTS[0]}: mode system residual ")
    assert len(result.detail.splitlines()) == 1


def test_suites_cover_each_criterion_once():
    assert set(SUITE_CRITERIA) == set(SUITES)
    numbers = [number for suite in SUITE_CRITERIA.values() for number in suite]
    assert sorted(numbers) == list(range(1, 13)) == sorted(CRITERIA)


@pytest.fixture
def oracle_calls(monkeypatch):
    """Counts of the oracle's runs and solves from here on, made by stubs
    that return placeholder results, with the cache of runs emptied before
    and after."""
    calls = {"runs": 0, "solves": 0}

    def run(family, *args, **kwargs):
        calls["runs"] += 1
        return SimpleNamespace(energy=1.0, d1=0.0, d2=1.0)

    def solve(family, *args, **kwargs):
        calls["solves"] += 1
        return 1.0

    monkeypatch.setattr(pde_oracle, "differentiate_energy", run)
    monkeypatch.setattr(pde_oracle, "solve_energy", solve)
    reporting._oracle_run.cache_clear()
    yield calls
    reporting._oracle_run.cache_clear()


def test_each_oracle_criterion_computes_only_what_it_reads(oracle_calls):
    counts = []
    for number in (9, 10, 11, 12):
        CRITERIA[number]()
        counts.append((oracle_calls["runs"], oracle_calls["solves"]))
    # 4 baseline runs; 6 first-variation runs; the coupled run, with the
    # two direct ones shared; the two witnesses; and no finite-t solve
    assert counts == [(4, 0), (10, 0), (11, 0), (13, 0)]
    run_pde_suite()
    # only the baseline runs, which the cache does not hold, are made again
    assert oracle_calls["runs"] == 17
