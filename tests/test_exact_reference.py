"""The assembled spectrum against an exact reference in rational arithmetic.

`exact_modes` and `exact_spectrum` type the mode systems and the three
boundary-integral sums of `spectrum_grid` anew, in the unscaled unknowns
(B, C, D), and evaluate them in `fractions.Fraction` on the exact binary
values of R and sigma.  They import nothing from the package and use no
float and no closed form, so the float table is measured against its own
definition with no rounding on the reference side.

The small-sigma cases pin e_in where its plain form cancelled: below
sigma = 1/2 the assembled path reads it through the value-jump condition.
"""

import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twophase_torsion.params import ProblemParams
from twophase_torsion.reporting import GRID_POINTS
from twophase_torsion.second_variation import (
    FloatRangeError,
    mode_coefficients,
    spectrum_grid,
)
from twophase_torsion.stability import Classification, classify

REL_TOL = 1e-14
# the criteria grid against the reference: ulps of each row's largest entry
GRID_DEGREES = (1, 2, 3, 20, 50)
GRID_ULPS = 4
# a thin shell against the reference: ulps of the row's largest entry
SHELL_ULPS = 8
# sigma below 1 against the reference: ulps of the row's largest entry, and an
# absolute floor of a few subnormal ulps
SMALL_SIGMA_ULPS = 4
UNDERFLOW_FLOOR = 4 * Fraction(math.ulp(0.0))


def _solve3(matrix, rhs):
    """Gauss-Jordan elimination of a 3x3 system, exact in Fraction."""
    rows = [list(row) + [value] for row, value in zip(matrix, rhs)]
    for col in range(3):
        pivot = next(row for row in range(col, 3) if rows[row][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for row in range(3):
            if row != col and rows[row][col] != 0:
                factor = rows[row][col] / rows[col][col]
                rows[row] = [a - factor * b for a, b in zip(rows[row], rows[col])]
    return tuple(rows[i][3] / rows[i][i] for i in range(3))


def exact_modes(dim, radius, sigma, k):
    """The Inner and Outer profiles of degree k: for each, (B, C, D) and the
    radial derivatives (w'_-(R), w'_+(R), w'_+(1)).

    The profile is w = B r^k in the core and C r^{2-N-k} + D r^k in the
    shell, subject to

        sigma w'_-(R) = w'_+(R),
        w_+(R) - w_-(R) = -[d_n u] (Inner) or 0 (Outer),
        w(1) = 0 (Inner) or 1/N (Outer),

    where [d_n u] = R (1 - sigma) / (N sigma) is the jump of the radial
    state's derivative at the interface, outside minus inside.
    """
    n, r, s = dim, Fraction(radius), Fraction(sigma)
    sing = 2 - n - k
    matrix = [
        [-s * k * r ** (k - 1), sing * r ** (sing - 1), k * r ** (k - 1)],
        [-(r**k), r**sing, r**k],
        [0, 1, 1],
    ]
    jump_dn = r * (1 - s) / (n * s)
    profiles = []
    for rhs in ((0, -jump_dn, 0), (0, 0, Fraction(1, n))):
        b, c, d = _solve3(matrix, rhs)
        slopes = (
            b * k * r ** (k - 1),
            c * sing * r ** (sing - 1) + d * k * r ** (k - 1),
            c * sing + d * k,
        )
        profiles.append(((b, c, d), slopes))
    return profiles


def exact_spectrum(dim, radius, sigma, k):
    """(e_in, e_out, e_res) of degree k from the boundary-integral sums

        e_in  = (2 R^N / N) Dw'_in  + 2 R^N (1-sigma) / (N^2 sigma)
        e_out = -(2/N) w'_out(1) + 2/N^2
        e_res = -(2/N) w'_in(1)  + (2 R^N / N) Dw'_out

    with Dw' := w'_+(R) - w'_-(R)."""
    n, s = dim, Fraction(sigma)
    r_pow = Fraction(radius) ** n
    (_, inner), (_, outer) = exact_modes(dim, radius, sigma, k)
    e_in = 2 * r_pow / n * (inner[1] - inner[0]) + 2 * r_pow * (1 - s) / (n * n * s)
    e_out = -Fraction(2, n) * outer[2] + Fraction(2, n * n)
    e_res = -Fraction(2, n) * inner[2] + 2 * r_pow / n * (outer[1] - outer[0])
    return e_in, e_out, e_res


def degree_one_underflows(dim, radius, sigma):
    """Whether R^N or the exact e_in(1) = e_out(1),
    2(1-sigma)R^N / (N(N-1+sigma) + N(1-sigma)R^N), lies below the normal
    floats: the only points where spectrum_grid may refuse degree 1."""
    r_pow, s = Fraction(radius) ** dim, Fraction(sigma)
    e_1 = 2 * (1 - s) * r_pow / (dim * (dim - 1 + s) + dim * (1 - s) * r_pow)
    return radius**dim < sys.float_info.min or abs(e_1) < sys.float_info.min


def rel_error(value, exact):
    """|value - exact| / |exact|, computed exactly and rounded once."""
    return float(abs(Fraction(float(value)) - exact) / abs(exact))


def test_reference_matches_the_translation_identity():
    # e_in(1) = e_out(1) and e_res(1) = -2 e_in(1) hold exactly
    for point in ((2, 0.5, 2.0), (3, 0.2, 0.1), (4, 0.8, 10.0)):
        e_in, e_out, e_res = exact_spectrum(*point, 1)
        assert e_in == e_out
        assert e_res == -2 * e_in


@pytest.mark.parametrize("degree", [1, 2, 20, 300])
def test_assembled_table_matches_the_exact_reference(degree):
    point = (2, 0.5, 2.0)
    table = spectrum_grid((ProblemParams(*point),), 300)
    index = degree - 1
    spectrum = (table.e_in[0, index], table.e_out[0, index], table.e_res[0, index])
    for value, exact in zip(spectrum, exact_spectrum(*point, degree)):
        assert rel_error(value, exact) <= REL_TOL
    solved = mode_coefficients(table)
    for kind, (coefficients, _) in enumerate(exact_modes(*point, degree)):
        for value, exact in zip(solved[0, kind, index], coefficients):
            assert rel_error(value, exact) <= REL_TOL


def test_criteria_grid_matches_the_exact_reference():
    # every entry to GRID_ULPS ulp of its row's scale, or absolutely on a row
    # that is exactly zero (degree 1 at sigma = 1)
    grid = GRID_POINTS
    spectra = spectrum_grid(grid, max(GRID_DEGREES))
    failures = []
    for point, params in enumerate(grid):
        for degree in GRID_DEGREES:
            exact = exact_spectrum(params.dim, params.core_radius, params.sigma, degree)
            bound = GRID_ULPS * Fraction(math.ulp(float(max(map(abs, exact)))))
            for name, value, entry in zip(
                ("e_in", "e_out", "e_res"),
                (spectra.e_in, spectra.e_out, spectra.e_res),
                exact,
            ):
                error = abs(Fraction(float(value[point, degree - 1])) - entry)
                if error > bound:
                    failures.append(f"{name}({degree}) at {params}: {float(error / bound):.2f}")
    assert not failures, failures


def shell_errors(point, degree):
    """The errors of (e_in, e_out, e_res) of one degree, in ulps of the
    largest exact entry."""
    spectra = spectrum_grid((ProblemParams(*point),), degree)
    exact = exact_spectrum(*point, degree)
    ulp = Fraction(math.ulp(float(max(map(abs, exact)))))
    values = (spectra.e_in, spectra.e_out, spectra.e_res)
    return [
        float(abs(Fraction(float(value[0, -1])) - entry) / ulp)
        for value, entry in zip(values, exact)
    ]


# As R nears 1, eps = R^{N-2+2k} nears 1; formed by subtraction, the shell's
# 1 - eps lost digits like eps/(1 - eps): up to 1.4e4, 1.5e5 and 1.9e7 ulp at
# the first three points.  The last two read within 0.5 ulp with either form.
@pytest.mark.parametrize(
    "point, degree",
    [
        ((2, 1.0 - 1e-12, 1e6), 2),
        ((3, 1.0 - 1e-12, 1e6), 3),
        ((15, 1.0 - 2.0**-31, 1e145), 2),
        ((2, 1.0 - 1e-9, 0.5), 7),
        ((4, 0.999, 3.0), 40),
    ],
)
def test_a_thin_shell_matches_the_exact_reference(point, degree):
    assert max(shell_errors(point, degree)) <= SHELL_ULPS


@settings(max_examples=40, deadline=None)
@given(
    dim=st.integers(2, 8),
    # R = 1 - gap in [0.5, 1 - 1e-12] and sigma in [1e-3, 1e6], log-uniformly
    log_gap=st.floats(math.log(1e-12), math.log(0.5)),
    log_sigma=st.floats(math.log(1e-3), math.log(1e6)),
    degree=st.integers(1, 12),
)
def test_every_thin_shell_matches_the_exact_reference(dim, log_gap, log_sigma, degree):
    point = (dim, 1.0 - math.exp(log_gap), math.exp(log_sigma))
    assert max(shell_errors(point, degree)) <= SHELL_ULPS


@settings(max_examples=100, deadline=None)
@given(
    dim=st.integers(2, 50),
    radius=st.floats(1e-12, 1.0 - 1e-12),
    # sigma log-uniform in [1e-300, 1), or 1 - 10^u just below 1
    sigma=st.floats(-300.0, 0.0, exclude_max=True).map(lambda u: 10.0**u)
    | st.floats(-16.0, -1.0).map(lambda u: 1.0 - 10.0**u),
    degree=st.integers(1, 300),
)
def test_every_small_sigma_matches_the_exact_reference(dim, radius, sigma, degree):
    # SMALL_SIGMA_ULPS of the row scale, and a few subnormal ulps where R^N
    # underflows; where it takes the degree-1 signs with it, degree 1 is refused
    try:
        spectra = spectrum_grid((ProblemParams(dim, radius, sigma),), degree)
    except FloatRangeError as error:
        assert error.degree == 1 and degree_one_underflows(dim, radius, sigma)
        return
    exact = exact_spectrum(dim, radius, sigma, degree)
    scale = float(max(map(abs, exact)))
    bound = SMALL_SIGMA_ULPS * Fraction(math.ulp(scale)) + UNDERFLOW_FLOOR
    for value, entry in zip((spectra.e_in, spectra.e_out, spectra.e_res), exact):
        assert abs(Fraction(float(value[0, -1])) - entry) <= bound, (value[0, -1], float(entry))


@pytest.mark.parametrize(
    "point, column",
    [
        pytest.param((2, 1e-6, 2.0), 1, id="e_out-small-radius"),
        # e_out(1) is O(|1 - sigma|): it must not be formed as 2/N^2 minus O(1)
        pytest.param((2, 0.5, 0.9999999999999999), 1, id="e_out-sigma-one-ulp-below-1"),
        pytest.param((2, 0.5, 1.0 - 1e-15), 1, id="e_out-sigma-1e-15-below-1"),
        pytest.param((2, 0.5, 1.0 + 1e-15), 1, id="e_out-sigma-1e-15-above-1"),
        # and its (1 - sigma) is formed exactly where 1/N is not a float
        pytest.param((3, 0.3, 1.0 + 2.0**-52), 1, id="e_out-dim-3-sigma-one-ulp-above-1"),
        pytest.param((5, 0.7, 1.0 - 1e-13), 1, id="e_out-dim-5-sigma-1e-13-below-1"),
        # e_out(1) = e_in(1) is O(R^N), about -4.8e-126
        pytest.param((400, 0.5, 2.0), 1, id="e_out-high-dimension"),
        # e_in(1) = e_out(1) at small sigma: read as R/(N sigma) - b_in, a
        # difference of two O(1/sigma) terms, it was 0.0 at the first point
        # and 2.6e175 at the last, where it is 1.3e-16
        pytest.param((2, 0.5, 1e-16), 0, id="e_in-small-sigma"),
        pytest.param((4, 0.8, 1e-16), 0, id="e_in-small-sigma-dim-4"),
        pytest.param((6, 0.00354917, 5.39e-208), 0, id="e_in-tiny-sigma"),
    ],
)
def test_degree_one_matches_the_exact_reference(point, column):
    table = spectrum_grid((ProblemParams(*point),), 1)
    value = (table.e_in, table.e_out, table.e_res)[column][0, 0]
    assert rel_error(value, exact_spectrum(*point, 1)[column]) <= REL_TOL


@pytest.mark.parametrize(
    "point, kmax", [((2, 0.5, 2.0), 3000), ((4, 0.05, 2.0), 300), ((2, 0.2, 2.0), 500)]
)
def test_spectrum_table_computes_every_degree(point, kmax):
    assert spectrum_grid((ProblemParams(*point),), kmax).e_in.shape[1] == kmax


@pytest.mark.parametrize("sigma", [1e-16, 1e-300])
def test_classify_answers_saddle_for_a_vanishing_core_conductivity(sigma):
    verdicts = {
        (dim, radius): classify(ProblemParams(dim, radius, sigma), 3).classification
        for dim in (2, 3, 4)
        for radius in (0.2, 0.5, 0.8)
    }
    assert set(verdicts.values()) == {Classification.SADDLE}, verdicts


def test_classify_answers_saddle_at_every_small_sigma():
    # e_in(1) > 0 for every sigma < 1: 2700 points, sigma = 10^-j for j = 1..300
    wrong = [
        (dim, radius, j)
        for dim in (2, 3, 4)
        for radius in (0.2, 0.5, 0.8)
        for j in range(1, 301)
        if classify(ProblemParams(dim, radius, 10.0**-j), 3).classification
        is not Classification.SADDLE
    ]
    assert not wrong, wrong
