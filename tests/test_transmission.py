"""Per-mode transmission solves and closed forms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twophase_torsion.exact_state import traces
from twophase_torsion.params import ProblemParams
from twophase_torsion.transmission import (
    KINDS,
    RESIDUAL_TOL,
    FloatRangeError,
    ModeKind,
    TransmissionSolveError,
    closed_form_modes,
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


def backward_errors(
    params: ProblemParams, coefficients: np.ndarray, degree: int, kind: ModeKind
) -> list[float]:
    """Relative residuals of the three transmission conditions, each against
    the sum of the magnitudes of its terms, from the unscaled profile (B, C, D)
    of one degree and kind in a table of coefficients."""
    n, radius, sigma = params.dim, params.core_radius, params.sigma
    k = degree
    b, c, d = coefficients[KINDS.index(kind), degree - 1].tolist()
    inner = kind is ModeKind.INNER
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
    assert denom_F(ProblemParams(2, 0.5, 1.0), 1)[0] == pytest.approx(16.0, rel=1e-15)
    assert denom_F(ProblemParams(3, 0.5, 2.0), 1)[0] == pytest.approx(93.0, rel=1e-15)
    column = denom_F(ProblemParams(2, 0.9, 10.0), 5)
    assert column.shape == (5,) and (column > 0.0).all()
    assert not column.flags.writeable


def test_denom_f_rejects_degree_zero():
    with pytest.raises(ValueError):
        denom_F(PARAMS, 0)


def test_ladders_reject_empty_ranges():
    for ladder in (solve_modes, closed_form_modes):
        with pytest.raises(ValueError, match="^kmax must be >= 1$"):
            ladder(PARAMS, 0)


def test_oracle_is_zero_for_single_phase_inner_modes():
    coefficients = solve_modes(ProblemParams(2, 0.5, 1.0), 7).coefficients
    for degree in (1, 2, 7):
        assert coefficients[0, degree - 1].tolist() == [0.0, 0.0, 0.0]


def test_oracle_inner_profiles_satisfy_dirichlet_pairing():
    _, c_in, d_in = solve_modes(PARAMS, 3).coefficients[0, 2]
    assert c_in == pytest.approx(-d_in, rel=1e-13)


def test_oracle_profiles_satisfy_all_three_conditions():
    for params in SAMPLE_PARAMS:
        coefficients = solve_modes(params, 13).coefficients
        for degree in (1, 2, 5, 13):
            for kind in ModeKind:
                errors = backward_errors(params, coefficients, degree, kind)
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
    coefficients = solve_modes(params, kmax).coefficients
    for degree in range(1, kmax + 1):
        for kind in ModeKind:
            errors = backward_errors(params, coefficients, degree, kind)
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
    assert solve_modes(PARAMS, 1018).coefficients.shape == (2, 1018, 3)
    # the stiffness -sigma k of degree 2 overflows
    with pytest.raises(FloatRangeError) as excinfo:
        solve_modes(ProblemParams(2, 0.5, 1e308), 3)
    assert excinfo.value.degree == 2


def test_closed_forms_match_oracle_except_inner_b():
    for params in SAMPLE_PARAMS:
        printed = closed_form_modes(params, 13)
        solved = solve_modes(params, 13).coefficients
        for degree in (1, 2, 5, 13):
            (_, c_in, d_in), (b_out, c_out, d_out) = printed[:, degree - 1].tolist()
            (_, c_in_ref, d_in_ref), (b_out_ref, c_out_ref, d_out_ref) = (
                solved[:, degree - 1].tolist()
            )
            assert c_in == pytest.approx(c_in_ref, rel=1e-10, abs=1e-14)
            assert d_in == pytest.approx(d_in_ref, rel=1e-10, abs=1e-14)
            assert b_out == pytest.approx(b_out_ref, rel=1e-10)
            assert c_out == pytest.approx(c_out_ref, rel=1e-10, abs=1e-14)
            assert d_out == pytest.approx(d_out_ref, rel=1e-10)


def test_printed_inner_b_disagrees_with_the_oracle():
    # documented discrepancy: the printed inner-perturbation coefficient of
    # r^k differs from the transmission solve whenever sigma != 1; the
    # printed value is reported as-is, the solve is used downstream
    printed = closed_form_modes(PARAMS, 1)[0, 0, 0]
    solved = solve_modes(PARAMS, 1).coefficients[0, 0, 0]
    deviation = abs(printed - solved) / abs(solved)
    assert deviation > 1e-3


# (B, C, D) of the Inner and Outer kinds as the per-degree closed-form
# evaluation gave them, to 17 significant digits
REFERENCE_CLOSED_FORMS = [
    (ProblemParams(2, 0.5, 2.0), 2,
     ((-0.34042553191489361, 0.021276595744680851, -0.021276595744680851),
      (0.34042553191489361, -0.010638297872340425, 0.51063829787234039))),
    (ProblemParams(3, 0.2, 10.0), 50,
     ((-4.9325335104943301e+33, 1.226025306906672e-37, -1.226025306906672e-37),
      (0.061101028433151842, -6.9019088941646272e-72, 0.33333333333333331))),
    (ProblemParams(4, 0.8, 0.1), 13,
     ((3.00887238220959, -0.0050440048682795979, 0.0050440048682795979),
      (0.42885242953953029, 0.00034662137520201082, 0.24965337862479797))),
]


@pytest.mark.parametrize("params, degree, expected", REFERENCE_CLOSED_FORMS)
def test_closed_forms_match_pinned_values(params, degree, expected):
    for kmax in (degree, 60):
        rows = closed_form_modes(params, kmax)[:, degree - 1]
        assert tuple(map(tuple, rows.tolist())) == expected


def test_closed_form_ladder_is_read_only_and_names_the_first_degree_past_float_range():
    coefficients = closed_form_modes(PARAMS, 5)
    assert coefficients.shape == (2, 5, 3)
    assert not coefficients.flags.writeable
    # the numerator of B_in, (1-sigma) R^{1-k} (N-2+k) R^{2-N-2k}, grows like
    # k 2^{3k} at R = 1/2 and leaves float range first
    with pytest.raises(FloatRangeError) as excinfo:
        closed_form_modes(PARAMS, 600)
    assert excinfo.value.degree == 339
    assert np.isfinite(closed_form_modes(PARAMS, 338)).all()
