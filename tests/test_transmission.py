"""Per-mode transmission solves and closed forms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twophase_torsion.exact_state import traces
from twophase_torsion.params import ProblemParams
from twophase_torsion.tolerances import RESIDUAL_TOL
from twophase_torsion.transmission import (
    FloatRangeError,
    ModeKind,
    ModeProfile,
    TransmissionSolveError,
    closed_form_mode,
    denom_F,
    solve_modes,
)

PARAMS = ProblemParams(dim=2, core_radius=0.5, sigma=2.0)

SAMPLE_PARAMS = [
    ProblemParams(2, 0.5, 2.0),
    ProblemParams(2, 0.8, 0.1),
    ProblemParams(3, 0.2, 10.0),
    ProblemParams(4, 0.5, 0.5),
]


def backward_errors(params: ProblemParams, profile: ModeProfile) -> list[float]:
    """Relative residuals of the three transmission conditions, each against
    the sum of the magnitudes of its terms, from the unscaled profile."""
    n, radius, sigma = params.dim, params.core_radius, params.sigma
    k = profile.degree
    b, c, d = profile.inner_coeff, profile.outer_sing, profile.outer_reg
    inner = profile.kind is ModeKind.INNER
    jump = -traces(params).jump_dn if inner else 0.0
    boundary = 0.0 if inner else 1.0 / n
    conditions = (
        # w_+'(R) - sigma w_-'(R) = 0
        (
            c * (2 - n - k) * radius ** (1 - n - k),
            d * k * radius ** (k - 1),
            -sigma * b * k * radius ** (k - 1),
        ),
        # w_+(R) - w_-(R) = -[d_n u] or 0
        (c * radius ** (2 - n - k), d * radius**k, -b * radius**k, -jump),
        # w(1) = 0 or 1/N
        (c, d, -boundary),
    )
    return [
        abs(sum(terms)) / max(sum(abs(term) for term in terms), 1e-300)
        for terms in conditions
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
    with pytest.raises(ValueError, match="kmax"):
        solve_modes(PARAMS, 0)
    table = solve_modes(PARAMS, 3)
    for degree in (0, 4):
        with pytest.raises(ValueError, match="degree"):
            table.profile(degree, ModeKind.INNER)


def test_oracle_is_zero_for_single_phase_inner_modes():
    table = solve_modes(ProblemParams(2, 0.5, 1.0), 7)
    for degree in (1, 2, 7):
        profile = table.profile(degree, ModeKind.INNER)
        assert profile.inner_coeff == 0.0
        assert profile.outer_sing == 0.0
        assert profile.outer_reg == 0.0


def test_oracle_inner_profiles_satisfy_dirichlet_pairing():
    profile = solve_modes(PARAMS, 3).profile(3, ModeKind.INNER)
    assert profile.outer_sing == pytest.approx(-profile.outer_reg, rel=1e-13)


def test_oracle_profiles_satisfy_all_three_conditions():
    for params in SAMPLE_PARAMS:
        table = solve_modes(params, 13)
        for degree in (1, 2, 5, 13):
            for kind in ModeKind:
                errors = backward_errors(params, table.profile(degree, kind))
                assert max(errors) <= RESIDUAL_TOL, (params, degree, kind)


@settings(max_examples=200, deadline=None)
@given(
    dim=st.integers(2, 8),
    radius=st.floats(0.05, 0.95),
    log_sigma=st.floats(math.log(1e-3), math.log(1e3)),
    kmax=st.integers(1, 60),
)
def test_every_row_of_the_table_meets_the_residual_contract(
    dim, radius, log_sigma, kmax
):
    params = ProblemParams(dim, radius, math.exp(log_sigma))
    table = solve_modes(params, kmax)
    for degree in range(1, kmax + 1):
        for kind in ModeKind:
            errors = backward_errors(params, table.profile(degree, kind))
            assert max(errors) <= RESIDUAL_TOL, (degree, kind, errors)


def test_residual_contract_names_the_first_failing_row(monkeypatch):
    solve = np.linalg.solve

    def perturbed(matrices, rhs):
        solution = solve(matrices, rhs)
        solution[1, 2:] *= 1.0 + 1e-9  # the outer kind from degree 3 on
        return solution

    monkeypatch.setattr(np.linalg, "solve", perturbed)
    with pytest.raises(TransmissionSolveError, match="at degree 3, kind Outer$"):
        solve_modes(PARAMS, 5)


def test_ladder_past_float_range_names_the_first_degree():
    # B_in k R^{k-1} overflows first: B_in grows like 2^k at R = 1/2
    with pytest.raises(FloatRangeError, match="^degree 1019 leaves float range"):
        solve_modes(PARAMS, 1100)
    assert solve_modes(PARAMS, 1018).kmax == 1018
    # the stiffness -sigma k of degree 2 overflows
    with pytest.raises(FloatRangeError) as excinfo:
        solve_modes(ProblemParams(2, 0.5, 1e308), 3)
    assert excinfo.value.degree == 2


def test_closed_forms_match_oracle_except_inner_b():
    for params in SAMPLE_PARAMS:
        table = solve_modes(params, 13)
        for degree in (1, 2, 5, 13):
            inner_printed = closed_form_mode(params, degree, ModeKind.INNER)
            inner_oracle = table.profile(degree, ModeKind.INNER)
            outer_printed = closed_form_mode(params, degree, ModeKind.OUTER)
            outer_oracle = table.profile(degree, ModeKind.OUTER)
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
    oracle = solve_modes(PARAMS, 1).profile(1, ModeKind.INNER)
    deviation = abs(printed.inner_coeff - oracle.inner_coeff) / abs(oracle.inner_coeff)
    assert deviation > 1e-3
