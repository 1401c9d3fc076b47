"""The mode solve behind spectrum_grid, and the printed closed forms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twophase_torsion.exact_state import traces
from twophase_torsion import second_variation
from twophase_torsion.params import ProblemParams
from twophase_torsion.second_variation import (
    KINDS,
    RESIDUAL_TOL,
    FloatRangeError,
    TransmissionSolveError,
    closed_form_modes,
    denom_F,
    mode_coefficients,
    spectrum_grid,
)

PARAMS = ProblemParams(dim=2, core_radius=0.5, sigma=2.0)

SAMPLE_PARAMS = [
    ProblemParams(2, 0.5, 2.0),
    ProblemParams(2, 0.8, 0.1),
    ProblemParams(3, 0.2, 10.0),
    ProblemParams(4, 0.5, 0.5),
]


def solved_coefficients(points: tuple[ProblemParams, ...], kmax: int) -> np.ndarray:
    """The profile coefficients (B, C, D) of the solved mode systems."""
    return mode_coefficients(spectrum_grid(points, kmax))


def backward_errors(
    params: ProblemParams, coefficients: np.ndarray, degree: int, kind: str
) -> list[float]:
    """Relative residuals of the three transmission conditions, each against
    the sum of the magnitudes of its terms, from the unscaled profile (B, C, D)
    of one degree and kind in a table of coefficients."""
    n, radius, sigma = params.dim, params.core_radius, params.sigma
    k = degree
    b, c, d = coefficients[KINDS.index(kind), degree - 1].tolist()
    inner = kind == "Inner"
    jump = -traces(params) if inner else 0.0
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
    f_denom = denom_F((ProblemParams(2, 0.5, 1.0), ProblemParams(3, 0.5, 2.0)), 1)
    assert f_denom[:, 0].tolist() == pytest.approx([16.0, 93.0], rel=1e-15)
    column = denom_F((ProblemParams(2, 0.9, 10.0),), 5)
    assert column.shape == (1, 5) and (column > 0.0).all()
    assert not column.flags.writeable


def test_denom_f_rejects_degree_zero():
    with pytest.raises(ValueError):
        denom_F((PARAMS,), 0)


def test_ladders_reject_empty_ranges():
    for ladder in (spectrum_grid, closed_form_modes, denom_F):
        with pytest.raises(ValueError, match="^kmax must be >= 1$"):
            ladder((PARAMS,), 0)
        with pytest.raises(ValueError, match="^points must not be empty$"):
            ladder((), 3)


def test_oracle_is_zero_for_single_phase_inner_modes():
    coefficients = solved_coefficients((ProblemParams(2, 0.5, 1.0),), 7)[0]
    for degree in (1, 2, 7):
        assert coefficients[0, degree - 1].tolist() == [0.0, 0.0, 0.0]


def test_oracle_inner_profiles_satisfy_dirichlet_pairing():
    _, c_in, d_in = solved_coefficients((PARAMS,), 3)[0, 0, 2]
    assert c_in == pytest.approx(-d_in, rel=1e-13)


def test_oracle_profiles_satisfy_all_three_conditions():
    table = solved_coefficients(tuple(SAMPLE_PARAMS), 13)
    for params, coefficients in zip(SAMPLE_PARAMS, table):
        for degree in (1, 2, 5, 13):
            for kind in KINDS:
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
    coefficients = solved_coefficients((params,), kmax)[0]
    for degree in range(1, kmax + 1):
        for kind in KINDS:
            errors = backward_errors(params, coefficients, degree, kind)
            assert max(errors) <= RESIDUAL_TOL, (degree, kind, errors)


def test_residual_contract_names_the_first_failing_row(monkeypatch):
    eliminate = second_variation._eliminate

    def perturbed(*system):
        unknowns = eliminate(*system)
        for unknown in unknowns:
            unknown[:, 1, 2:] *= 1.0 + 1e-9  # the outer kind from degree 3 on
        return unknowns

    monkeypatch.setattr(second_variation, "_eliminate", perturbed)
    with pytest.raises(
        TransmissionSolveError, match="^mode system residual .* at degree 3, kind Outer$"
    ):
        spectrum_grid.__wrapped__((PARAMS,), 5)


def test_residual_contract_checks_the_value_jump(monkeypatch):
    eliminate = second_variation._eliminate

    def perturbed(sigma, stiffness, two_minus_n, k, epsilon, complement, r1, r2):
        b, c, d = eliminate(sigma, stiffness, two_minus_n, k, epsilon, complement, r1, r2)
        # a step that keeps conditions (i) and (iii) and breaks only (ii)
        step = 1e-9 * c
        a12 = two_minus_n - k - k * epsilon
        return b + a12 * step / stiffness, c + step, d - epsilon * step

    monkeypatch.setattr(second_variation, "_eliminate", perturbed)
    with pytest.raises(
        TransmissionSolveError, match="^mode system residual .* at degree 1, kind Inner$"
    ):
        spectrum_grid.__wrapped__((PARAMS,), 5)


def test_ladder_past_float_range_names_the_first_degree():
    # the scaled unknowns stay floats at every degree
    grid = spectrum_grid((PARAMS,), 3000)
    assert grid.unknowns.shape == (1, 2, 3000, 3)
    assert np.isfinite(grid.unknowns).all() and np.isfinite(grid.powers).all()
    # the unscaled B_in carries R^{-k}, which leaves float range at 2^1024
    with pytest.raises(FloatRangeError, match="^degree 1024 leaves float range"):
        mode_coefficients(grid)
    assert np.isfinite(solved_coefficients((PARAMS,), 1023)).all()
    # the stiffness -sigma k of degree 2 overflows
    with pytest.raises(FloatRangeError) as excinfo:
        spectrum_grid((ProblemParams(2, 0.5, 1e308),), 3)
    assert excinfo.value.degree == 2


def test_zero_unknowns_give_zero_coefficients_past_float_range():
    # at sigma = 1 every Inner unknown is zero: its coefficient is that zero,
    # not 0 * R^{-k}, which is nan once R^{-k} overflows at degree 1024
    single_phase = (ProblemParams(2, 0.5, 1.0),)
    grid = spectrum_grid(single_phase, 1100)
    assert not grid.unknowns[:, 0].any()
    coefficients = mode_coefficients(grid)
    assert np.isfinite(coefficients).all()
    assert not coefficients[:, 0].any()
    # below the overflow the rows are those of the shorter ladder
    shorter = solved_coefficients(single_phase, 1023)
    assert np.array_equal(coefficients[:, :, :1023], shorter)


def test_each_row_of_a_grid_has_the_coefficients_of_its_own_grid():
    # mode_coefficients reads the points of the grid it is given, so a row of
    # a grid is that point's one-point grid, bit for bit; here with a thin
    # shell and two points that share their R and N
    grid = (*SAMPLE_PARAMS, ProblemParams(3, 1.0 - 2.0**-30, 0.5), ProblemParams(2, 0.8, 3.0))
    coefficients = solved_coefficients(grid, 40)
    for point, params in enumerate(grid):
        assert coefficients[point].tobytes() == solved_coefficients((params,), 40)[0].tobytes()


def test_closed_forms_match_oracle_except_inner_b():
    grid = tuple(SAMPLE_PARAMS)
    for printed, solved in zip(closed_form_modes(grid, 13), solved_coefficients(grid, 13)):
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
    printed = closed_form_modes((PARAMS,), 1)[0, 0, 0, 0]
    solved = solved_coefficients((PARAMS,), 1)[0, 0, 0, 0]
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
        rows = closed_form_modes((params,), kmax)[0, :, degree - 1]
        assert tuple(map(tuple, rows.tolist())) == expected


def test_closed_form_ladder_is_read_only_and_names_the_first_degree_past_float_range():
    coefficients = closed_form_modes((PARAMS,), 5)
    assert coefficients.shape == (1, 2, 5, 3)
    assert not coefficients.flags.writeable
    # the numerator of B_in, (1-sigma) R^{1-k} (N-2+k) R^{2-N-2k}, grows like
    # k 2^{3k} at R = 1/2 and leaves float range first
    with pytest.raises(FloatRangeError) as excinfo:
        closed_form_modes((PARAMS,), 600)
    assert excinfo.value.degree == 339
    assert np.isfinite(closed_form_modes((PARAMS,), 338)).all()


GRID_WITH_ONE_BAD_POINT = (
    ProblemParams(3, 0.2, 10.0),
    ProblemParams(2, 0.5, 1e308),  # the stiffness -sigma k of degree 2 overflows
    # the degree-1 Inner system misses its contract: its unknown B R^k, about
    # R/(N sigma k), is subnormal
    ProblemParams(2, 1e-12, 1e300),
)


def test_a_grid_past_float_range_names_its_first_failing_point():
    # F overflows at degree 1 already, the mode systems at degree 2
    for ladder, degree in ((spectrum_grid, 2), (closed_form_modes, 1), (denom_F, 1)):
        with pytest.raises(FloatRangeError) as excinfo:
            ladder(GRID_WITH_ONE_BAD_POINT, 3)
        assert str(excinfo.value) == (
            f"{GRID_WITH_ONE_BAD_POINT[1]}: degree {degree} leaves float range "
            "for these parameters"
        )
        assert excinfo.value.degree == degree


def test_a_grid_that_misses_the_residual_contract_names_the_failing_point():
    grid = GRID_WITH_ONE_BAD_POINT[::2]
    with pytest.raises(TransmissionSolveError) as excinfo:
        spectrum_grid(grid, 3)
    message = str(excinfo.value)
    assert message.startswith(f"{grid[1]}: mode system residual ")
    assert message.endswith(" at degree 1, kind Inner")
    assert len(message.splitlines()) == 1
    # the one-point message names no point
    with pytest.raises(TransmissionSolveError, match="^mode system residual .* kind Inner$"):
        spectrum_grid(grid[1:], 3)
