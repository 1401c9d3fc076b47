"""Per-mode transmission solves, closed forms, and pointwise u' evaluation."""

import math

import numpy as np
import pytest

from twophase_torsion.exact_state import traces
from twophase_torsion.params import ModeIndex, PerturbationSpec, ProblemParams
from twophase_torsion.transmission import (
    ModeKind,
    ModeProfile,
    closed_form_mode,
    denom_F,
    harmonic_value,
    solve_mode_oracle,
    u_prime_value,
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
        ModeProfile(ModeKind.INNER, 0, 0.0, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError, match="denom"):
        ModeProfile(ModeKind.INNER, 1, 0.0, 0.0, 0.0, -1.0)


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


def test_closed_form_records_the_common_denominator():
    profile = closed_form_mode(PARAMS, 4, ModeKind.OUTER)
    assert profile.denom == pytest.approx(denom_F(PARAMS, 4), rel=1e-15)


def test_harmonics_are_orthonormal_on_the_circle():
    thetas = 2.0 * math.pi * np.arange(400) / 400
    weight = 2.0 * math.pi / 400
    indices = [ModeIndex(0, 1), ModeIndex(1, 1), ModeIndex(1, 2), ModeIndex(3, 2)]
    values = {
        index: np.array([harmonic_value(2, index, t) for t in thetas])
        for index in indices
    }
    for index in indices:
        norm = weight * float(np.sum(values[index] ** 2))
        assert norm == pytest.approx(1.0, abs=1e-12)
    for a in indices:
        for b in indices:
            if a != b:
                inner = weight * float(np.sum(values[a] * values[b]))
                assert inner == pytest.approx(0.0, abs=1e-12)


def test_harmonic_value_accepts_unit_vectors():
    theta = 0.7
    index = ModeIndex(2, 1)
    scalar = harmonic_value(2, index, theta)
    vector = harmonic_value(2, index, (math.cos(theta), math.sin(theta)))
    assert scalar == pytest.approx(vector, rel=1e-14)


def test_harmonic_value_rejects_bad_input():
    with pytest.raises(ValueError, match="dim 2 only"):
        harmonic_value(3, ModeIndex(1, 1), (0.0, 0.0))
    with pytest.raises(ValueError, match="exceeds multiplicity"):
        harmonic_value(2, ModeIndex(1, 3), 0.0)


def test_u_prime_boundary_values():
    theta = 1.1
    inner_spec = PerturbationSpec({ModeIndex(2, 1): (1.0, 0.0)})
    outer_spec = PerturbationSpec({ModeIndex(2, 1): (0.0, 1.0)})
    assert u_prime_value(inner_spec, PARAMS, 1.0, theta) == pytest.approx(0.0, abs=1e-14)
    expected = (1.0 / PARAMS.dim) * harmonic_value(2, ModeIndex(2, 1), theta)
    assert u_prime_value(outer_spec, PARAMS, 1.0, theta) == pytest.approx(
        expected, rel=1e-12
    )


def test_u_prime_jumps_by_the_normal_derivative_mismatch():
    # inner perturbation: [u'] = -[d_n u] (h_in . n) across the interface
    theta = 0.3
    spec = PerturbationSpec({ModeIndex(3, 1): (2.0, 0.0)})
    radius = PARAMS.core_radius
    below = u_prime_value(spec, PARAMS, radius, theta)
    above = u_prime_value(spec, PARAMS, radius * (1.0 + 1e-12), theta)
    jump = -traces(PARAMS).jump_dn * 2.0 * harmonic_value(2, ModeIndex(3, 1), theta)
    assert above - below == pytest.approx(jump, rel=1e-9)

    # outer perturbation: u' is continuous across the interface
    outer_spec = PerturbationSpec({ModeIndex(3, 1): (0.0, 2.0)})
    below = u_prime_value(outer_spec, PARAMS, radius, theta)
    above = u_prime_value(outer_spec, PARAMS, radius * (1.0 + 1e-12), theta)
    assert above == pytest.approx(below, rel=1e-9)


def test_u_prime_superposes_modes_linearly():
    theta = 2.0
    spec_a = PerturbationSpec({ModeIndex(1, 1): (1.0, 0.0)})
    spec_b = PerturbationSpec({ModeIndex(2, 2): (0.0, 1.5)})
    spec_ab = PerturbationSpec(
        {ModeIndex(1, 1): (1.0, 0.0), ModeIndex(2, 2): (0.0, 1.5)}
    )
    total = u_prime_value(spec_ab, PARAMS, 0.7, theta)
    parts = u_prime_value(spec_a, PARAMS, 0.7, theta) + u_prime_value(
        spec_b, PARAMS, 0.7, theta
    )
    assert total == pytest.approx(parts, rel=1e-13)


def test_u_prime_rejects_unsupported_input():
    spec = PerturbationSpec({ModeIndex(1, 1): (1.0, 0.0)})
    with pytest.raises(ValueError, match="dim 2 only"):
        u_prime_value(spec, ProblemParams(3, 0.5, 2.0), 0.5, 0.0)
    with pytest.raises(ValueError, match=r"\[0,1\]"):
        u_prime_value(spec, PARAMS, 1.5, 0.0)
    mean_spec = PerturbationSpec({ModeIndex(0, 1): (1.0, 0.0)}, allow_mean=True)
    with pytest.raises(ValueError, match="degree-0"):
        u_prime_value(mean_spec, PARAMS, 0.5, 0.0)
