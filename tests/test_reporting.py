"""Fidelity report, CSV emitter, presets, and property suites."""

import pytest

from twophase_torsion.params import (
    Constraint,
    ModeIndex,
    ProblemParams,
    presets,
    validate,
)
from twophase_torsion.reporting import (
    CRITERIA,
    SUITE_CRITERIA,
    SUITES,
    FidelityVerdict,
    build_fidelity_report,
    emit_spectrum_csv,
    grid_params,
    run_coefficients_suite,
    run_monotonicity_suite,
    run_secondvar_suite,
)
from twophase_torsion.second_variation import SpectrumPath, assemble_spectrum

PARAMS = ProblemParams(dim=2, core_radius=0.5, sigma=2.0)

EXPECTED_VERDICTS = {
    "B_in": FidelityVerdict.MISMATCH,
    "C_in": FidelityVerdict.MATCH,
    "D_in": FidelityVerdict.MATCH,
    "B_out": FidelityVerdict.MATCH,
    "C_out": FidelityVerdict.MATCH,
    "D_out": FidelityVerdict.MATCH,
    "E_in": FidelityVerdict.MISMATCH,
    "E_out": FidelityVerdict.MISMATCH,
    "E_res": FidelityVerdict.MATCH,
    "E_res_k1_perfect_square": FidelityVerdict.MATCH,
}


def test_default_grid_size():
    assert len(grid_params()) == 45  # 3 dims x 5 sigmas x 3 radii


def test_fidelity_report_full_grid_verdicts():
    report = build_fidelity_report()
    assert [entry.formula_id for entry in report.entries] == list(EXPECTED_VERDICTS)
    for entry in report.entries:
        assert entry.verdict is EXPECTED_VERDICTS[entry.formula_id], entry.formula_id
        if entry.verdict is FidelityVerdict.MISMATCH:
            assert "Known formula discrepancies" in entry.note
            assert entry.max_relative_deviation > 1e-10
        else:
            assert entry.note == ""
            assert entry.max_relative_deviation <= 1e-10
        assert entry.worst_point


def test_fidelity_report_document_and_lookup():
    report = build_fidelity_report(
        params_list=[PARAMS], degrees=(1, 2), grid_description="single point"
    )
    document = report.to_document()
    assert document["grid"] == "single point"
    assert len(document["entries"]) == 10
    assert report.entry("B_in").verdict is FidelityVerdict.MISMATCH
    with pytest.raises(KeyError):
        report.entry("Z_in")


def test_spectrum_csv_layout():
    csv_text = emit_spectrum_csv(PARAMS, 4, SpectrumPath.ASSEMBLED)
    lines = csv_text.strip().split("\n")
    assert lines[0] == "k,e_in,e_out,e_res,delta"
    assert len(lines) == 5
    row = lines[2].split(",")
    assert int(row[0]) == 2
    values = assemble_spectrum(PARAMS, 2)
    assert float(row[1]) == values.e_in
    assert float(row[2]) == values.e_out
    assert float(row[3]) == values.e_res
    assert float(row[4]) == values.discriminant


def test_spectrum_csv_is_deterministic():
    first = emit_spectrum_csv(PARAMS, 20, SpectrumPath.ASSEMBLED)
    second = emit_spectrum_csv(PARAMS, 20, SpectrumPath.ASSEMBLED)
    assert first == second
    printed = emit_spectrum_csv(PARAMS, 20, SpectrumPath.PRINTED)
    assert printed != first


def test_spectrum_csv_rejects_empty_range():
    with pytest.raises(ValueError):
        emit_spectrum_csv(PARAMS, 0, SpectrumPath.ASSEMBLED)


def test_presets_cover_the_five_resonance_cases():
    table = presets()
    assert sorted(table) == ["case-i", "case-ii", "case-iii", "case-iv", "case-v"]
    # distinct degrees, no resonance
    case_i = table["case-i"]
    assert case_i.coefficients(ModeIndex(3, 1)) == (1.0, 0.0)
    assert case_i.coefficients(ModeIndex(5, 1)) == (0.0, 1.0)
    # same degree, distinct orders: still no resonance
    case_ii = table["case-ii"]
    assert case_ii.coefficients(ModeIndex(5, 1)) == (1.0, 0.0)
    assert case_ii.coefficients(ModeIndex(5, 2)) == (0.0, 1.0)
    # same mode, aligned and opposed
    assert table["case-iii"].coefficients(ModeIndex(5, 1)) == (1.0, 1.0)
    assert table["case-iv"].coefficients(ModeIndex(5, 1)) == (1.0, -1.0)
    # the neutral coupled translation-like direction
    case_v = table["case-v"]
    assert case_v.coefficients(ModeIndex(1, 1)) == (1.0, 1.0)
    assert not validate(case_v, Constraint.VOLUME_AND_BARYCENTER).ok
    for spec in table.values():
        assert validate(spec, Constraint.VOLUME_ONLY).ok


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


def test_suites_cover_each_criterion_once():
    assert set(SUITE_CRITERIA) == set(SUITES)
    numbers = [number for suite in SUITE_CRITERIA.values() for number in suite]
    assert sorted(numbers) == list(range(1, 13)) == sorted(CRITERIA)
