"""Per-mode transmission solves and closed forms."""

import pytest

from twophase_torsion.exact_state import traces
from twophase_torsion.params import ProblemParams
from twophase_torsion.transmission import (
    ModeKind,
    ModeProfile,
    closed_form_mode,
    denom_F,
    solve_mode_oracle,
)

PARAMS = ProblemParams(dim=2, core_radius=0.5, sigma=2.0)

SAMPLE_PARAMS = [
    ProblemParams(2, 0.5, 2.0),
    ProblemParams(2, 0.8, 0.1),
    ProblemParams(3, 0.2, 10.0),
    ProblemParams(4, 0.5, 0.5),
]


def test_denom_f_reference_values():
    assert denom_F(ProblemParams(2, 0.5, 1.0), 1) == pytest.approx(16.0, rel=1e-15)
    assert denom_F(ProblemParams(3, 0.5, 2.0), 1) == pytest.approx(93.0, rel=1e-15)
    assert denom_F(ProblemParams(2, 0.9, 10.0), 5) > 0.0


def test_denom_f_rejects_degree_zero():
    with pytest.raises(ValueError):
        denom_F(PARAMS, 0)


def test_mode_profile_validation():
    with pytest.raises(ValueError, match="degree"):
        ModeProfile(ModeKind.INNER, 0, 0.0, 0.0, 0.0)


def test_oracle_is_zero_for_single_phase_inner_modes():
    for degree in (1, 2, 7):
        profile = solve_mode_oracle(ProblemParams(2, 0.5, 1.0), degree, ModeKind.INNER)
        assert profile.inner_coeff == 0.0
        assert profile.outer_sing == 0.0
        assert profile.outer_reg == 0.0


def test_oracle_inner_profiles_satisfy_dirichlet_pairing():
    profile = solve_mode_oracle(PARAMS, 3, ModeKind.INNER)
    assert profile.outer_sing == pytest.approx(-profile.outer_reg, rel=1e-13)


def test_oracle_profiles_satisfy_all_three_conditions():
    # residuals judged against the sum of the magnitudes of the terms that
    # enter each condition (backward error), matching the solver's contract
    for params in SAMPLE_PARAMS:
        state = traces(params)
        n, radius, sigma = params.dim, params.core_radius, params.sigma
        for degree in (1, 2, 5, 13):
            for kind in ModeKind:
                profile = solve_mode_oracle(params, degree, kind)
                expected_jump = -state.jump_dn if kind is ModeKind.INNER else 0.0
                expected_boundary = 0.0 if kind is ModeKind.INNER else 1.0 / n

                flux_residual = profile.outer_derivative(
                    params, radius
                ) - sigma * profile.inner_derivative(params, radius)
                flux_terms = (
                    abs(profile.outer_sing * (2 - n - degree))
                    * radius ** (1 - n - degree)
                    + abs(profile.outer_reg * degree) * radius ** (degree - 1)
                    + sigma * abs(profile.inner_derivative(params, radius))
                )
                jump_residual = (
                    profile.outer_value(params, radius)
                    - profile.inner_value(params, radius)
                    - expected_jump
                )
                jump_terms = (
                    abs(profile.outer_sing) * radius ** (2 - n - degree)
                    + abs(profile.outer_reg) * radius**degree
                    + abs(profile.inner_value(params, radius))
                    + abs(expected_jump)
                )
                boundary_residual = profile.outer_value(params, 1.0) - expected_boundary
                boundary_terms = (
                    abs(profile.outer_sing)
                    + abs(profile.outer_reg)
                    + abs(expected_boundary)
                )
                tiny = 1e-300
                assert abs(flux_residual) <= 1e-10 * (flux_terms + tiny)
                assert abs(jump_residual) <= 1e-10 * (jump_terms + tiny)
                assert abs(boundary_residual) <= 1e-10 * (boundary_terms + tiny)


def test_closed_forms_match_oracle_except_inner_b():
    for params in SAMPLE_PARAMS:
        for degree in (1, 2, 5, 13):
            inner_printed = closed_form_mode(params, degree, ModeKind.INNER)
            inner_oracle = solve_mode_oracle(params, degree, ModeKind.INNER)
            outer_printed = closed_form_mode(params, degree, ModeKind.OUTER)
            outer_oracle = solve_mode_oracle(params, degree, ModeKind.OUTER)
            assert inner_printed.outer_sing == pytest.approx(
                inner_oracle.outer_sing, rel=1e-10, abs=1e-14
            )
            assert inner_printed.outer_reg == pytest.approx(
                inner_oracle.outer_reg, rel=1e-10, abs=1e-14
            )
            assert outer_printed.inner_coeff == pytest.approx(
                outer_oracle.inner_coeff, rel=1e-10
            )
            assert outer_printed.outer_sing == pytest.approx(
                outer_oracle.outer_sing, rel=1e-10, abs=1e-14
            )
            assert outer_printed.outer_reg == pytest.approx(
                outer_oracle.outer_reg, rel=1e-10
            )


def test_printed_inner_b_disagrees_with_the_oracle():
    # documented discrepancy: the printed inner-perturbation coefficient of
    # r^k differs from the transmission solve whenever sigma != 1; the
    # printed value is reported as-is, the solve is used downstream
    printed = closed_form_mode(PARAMS, 1, ModeKind.INNER)
    oracle = solve_mode_oracle(PARAMS, 1, ModeKind.INNER)
    deviation = abs(printed.inner_coeff - oracle.inner_coeff) / abs(oracle.inner_coeff)
    assert deviation > 1e-3
