"""Spectrum assembly, the printed forms, resonance, and monotonicity."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_exact_reference import degree_one_underflows
from twophase_torsion.params import ModeIndex, PerturbationSpec, ProblemParams
from twophase_torsion.second_variation import (
    _MODE_POWERS,
    _PRINTED_POWERS,
    FloatRangeError,
    TransmissionSolveError,
    _radius_power,
    _radius_powers,
    assemble_spectrum,
    closed_form_modes,
    denom_F,
    discriminant,
    mode_coefficients,
    monotonicity_functions,
    printed_spectrum,
    spectrum_grid,
    total_second_variation,
)

PARAMS = ProblemParams(dim=2, core_radius=0.5, sigma=2.0)

SAMPLE_PARAMS = [
    ProblemParams(2, 0.5, 2.0),
    ProblemParams(2, 0.8, 0.1),
    ProblemParams(3, 0.2, 10.0),
    ProblemParams(4, 0.5, 0.5),
]


def test_assembled_reference_values():
    values = assemble_spectrum(PARAMS, 2)
    assert values.e_in == pytest.approx(-0.1077127659574468, rel=1e-12)
    assert values.e_out == pytest.approx(-0.5425531914893618, rel=1e-12)
    assert values.e_res == pytest.approx(0.17021276595744683, rel=1e-12)


# (e_in, e_out, e_res) of the assembled table, to 17 significant digits; each
# is within 8e-16 relative of the exact reference (test_exact_reference.py).
# Solving the mode systems by eliminating the boundary row moved six entries
# of five rows, five by one ulp and e_res at (4, 0.8, 0.1) by four (from
# 7.7e-16 to 1.6e-17 off the reference); e_out(1) at (2, 0.5, 2) now reads
# the correctly rounded -1/11.  Reading e_in through the value-jump
# condition below sigma = 1/2 moved e_in at (4, 0.8, 0.1), k = 13 from 0.44
# to 0.56 ulp of the row scale off the reference, the next float over, and
# at (2, 0.05, 0.001), k = 30 from 0.80 to 0.20, now correctly rounded.
REFERENCE_SPECTRUM = [
    (ProblemParams(2, 0.5, 2.0), 1,
     (-0.090909090909090912, -0.090909090909090912, 0.18181818181818182)),
    (ProblemParams(2, 0.5, 1.0), 7, (0.0, -3.0, 0.0)),
    (ProblemParams(3, 0.2, 10.0), 50,
     (-0.068242468239564438, -10.888888888888889, 1.6510474133009852e-35)),
    (ProblemParams(4, 0.8, 0.1), 13,
     (-4.5020009624345603, -1.4951473007471718, -0.14123213631182874)),
    (ProblemParams(5, 0.35, 0.5), 50,
     (-0.0067174131410256393, -3.9199999999999999, -1.2661262364522025e-24)),
    (ProblemParams(2, 0.05, 0.001), 30,
     (-36.138899850149855, -14.5, -2.7883853707518413e-39)),
]


@pytest.mark.parametrize("params, degree, expected", REFERENCE_SPECTRUM)
def test_assembled_spectrum_matches_pinned_values(params, degree, expected):
    values = assemble_spectrum(params, degree)
    assert (values.e_in, values.e_out, values.e_res) == expected
    table = spectrum_grid((params,), 50)
    columns = (table.e_in, table.e_out, table.e_res)
    assert tuple(column[0, degree - 1] for column in columns) == expected


@settings(max_examples=200, deadline=None)
@given(
    dim=st.integers(2, 8),
    radius=st.floats(0.05, 0.95),
    log_sigma=st.floats(math.log(1e-3), math.log(1e3)),
    kmax=st.integers(1, 60),
    data=st.data(),
)
def test_table_rows_do_not_depend_on_kmax(dim, radius, log_sigma, kmax, data):
    params = ProblemParams(dim, radius, math.exp(log_sigma))
    degree = data.draw(st.integers(1, kmax), label="degree")
    full, short = spectrum_grid((params,), kmax), spectrum_grid((params,), degree)
    index = degree - 1
    for name in ("e_in", "e_out", "e_res"):
        assert getattr(full, name)[0, index].tobytes() == getattr(short, name)[0, index].tobytes()
    assert full.unknowns[0, :, index].tobytes() == short.unknowns[0, :, index].tobytes()
    assert full.powers[:, 0, index].tobytes() == short.powers[:, 0, index].tobytes()


_POINTS = st.builds(
    ProblemParams, st.integers(2, 8), st.floats(0.05, 0.95), st.floats(1e-3, 1e3)
)


@settings(max_examples=100, deadline=None)
@given(shared=_POINTS, kmax=st.integers(1, 60), data=st.data())
def test_a_point_shared_by_two_grids_has_one_row_in_both(shared, kmax, data):
    # the criteria read every grid they need off one grid of all their
    # points: each row, assembled or printed, depends on its point alone
    def row(label):
        others = data.draw(st.lists(_POINTS, max_size=3), label=f"{label} grid")
        point = data.draw(st.integers(0, len(others)), label=f"{label} position")
        points = (*others[:point], shared, *others[point:])
        spectra = spectrum_grid(points, kmax)
        arrays = (
            spectra.e_in[point],
            spectra.e_out[point],
            spectra.e_res[point],
            spectra.unknowns[point],
            spectra.powers[:, point],
            closed_form_modes(points, kmax)[point],
            denom_F(points, kmax)[point],
            *(column[point] for column in printed_spectrum(points, kmax)),
        )
        return [array.tobytes() for array in arrays]

    assert row("first") == row("second")


def test_spectrum_past_float_range_names_the_first_degree():
    cases = [
        (lambda: printed_spectrum((PARAMS,), 503), 503),
        # the stiffness sigma k of degree 2 overflows
        (lambda: spectrum_grid((ProblemParams(2, 0.5, 1e308),), 5), 2),
        # 1/sigma leaves float range: the interface jump of d_n u is infinite
        (lambda: spectrum_grid((ProblemParams(2, 0.5, 1e-320),), 5), 1),
        (lambda: denom_F((PARAMS,), 600), 507),
        # the unscaled B_in carries R^{-k}, which leaves float range at 2^1024
        (lambda: mode_coefficients(spectrum_grid((PARAMS,), 1100)), 1024),
    ]
    for compute, degree in cases:
        with pytest.raises(FloatRangeError) as excinfo:
            compute()
        assert excinfo.value.degree == degree
    assert all(np.isfinite(column).all() for column in printed_spectrum((PARAMS,), 502))


def test_degree_one_closed_forms():
    # e_in(1) = e_out(1) = 2(1-sigma)/F(1) and e_res(1) = 4(sigma-1)/F(1)
    for params, (f1,) in zip(SAMPLE_PARAMS, denom_F(tuple(SAMPLE_PARAMS), 1)):
        values = assemble_spectrum(params, 1)
        expected = 2.0 * (1.0 - params.sigma) / f1
        assert values.e_in == pytest.approx(expected, rel=1e-12, abs=1e-15)
        assert values.e_out == pytest.approx(expected, rel=1e-12, abs=1e-15)
        assert values.e_res == pytest.approx(-2.0 * expected, rel=1e-12, abs=1e-15)


def test_printed_resonance_matches_assembled():
    _, _, printed_e_res = printed_spectrum(tuple(SAMPLE_PARAMS), 12)
    for params, e_res in zip(SAMPLE_PARAMS, printed_e_res):
        for degree in (1, 2, 5, 12):
            assembled = assemble_spectrum(params, degree)
            assert e_res[degree - 1] == pytest.approx(assembled.e_res, rel=1e-12, abs=1e-15)


def test_printed_diagonal_entries_disagree_with_assembled():
    # documented discrepancy: the printed diagonal entries differ from the
    # boundary-integral assembly; they are reported verbatim, never patched
    (e_in,), (e_out,), _ = printed_spectrum((PARAMS,), 2)
    assembled = assemble_spectrum(PARAMS, 2)
    assert abs(e_in[1] - assembled.e_in) > 1e-3 * abs(assembled.e_in)
    assert abs(e_out[1] - assembled.e_out) > 1e-3 * abs(assembled.e_out)


# (e_in, e_out, e_res) of the per-degree printed-formula evaluation that the
# printed ladder replaced, to 17 significant digits
REFERENCE_PRINTED = [
    (ProblemParams(2, 0.5, 2.0), 2,
     (-0.1702127659574468, -0.042553191489361701, 0.1702127659574468)),
    (ProblemParams(3, 0.2, 10.0), 50,
     (-0.071442468239564461, -10.444444444444441, 1.6510474133009849e-35)),
    (ProblemParams(4, 0.8, 0.1), 13,
     (-3.1196009624345593, -1.1201473007471718, -0.14123213631182874)),
    (ProblemParams(2, 0.5, 2.0), 502, (-10.583333333333334, -250.0, 1.2779817120640014e-149)),
    (ProblemParams(5, 0.35, 0.5), 1,
     (0.0019139944104459591, 0.32023329441044601, -0.00046658882089191888)),
]


@pytest.mark.parametrize("params, degree, expected", REFERENCE_PRINTED)
def test_printed_spectrum_matches_pinned_values(params, degree, expected):
    for kmax in (degree, max(degree, 60)):
        columns = printed_spectrum((params,), kmax)
        assert tuple(float(column[0, degree - 1]) for column in columns) == expected
        assert not any(column.flags.writeable for column in columns)


def scalar_printed_forms(params, k):
    """The printed closed forms of one degree in Python float arithmetic,
    as the per-degree evaluation computed them: (e_in, e_out, e_res), the
    (B, C, D) of the Inner and Outer kinds, and F."""
    n, radius, sigma = params.dim, params.core_radius, params.sigma
    rho = radius ** (2 - n - 2 * k)
    r_lead = radius ** (1 - k)
    f_denom = n * (n - 2 + k + k * sigma) * rho + k * n * (1.0 - sigma)
    e_in = (
        (2.0 * radius**n / n)
        * ((1.0 - sigma) / sigma)
        * (f_denom - k * (k * (1.0 - sigma) + (n - 2 + k) * (1.0 - sigma) * rho))
        / f_denom
    )
    e_out = (
        (2.0 / n)
        * (f_denom - k * ((-n + 2 - k) * (1.0 - sigma) + (n - 2 + k + k * sigma) * rho))
        / f_denom
    )
    e_res = (4.0 * (sigma - 1.0) * r_lead / n) * ((n - 2) * k + 2 * k * k) / f_denom
    c_in = (sigma - 1.0) * k * r_lead / f_denom
    inner = ((1.0 - sigma) * r_lead * ((n - 2 + k) * rho) / f_denom, c_in, -c_in)
    outer = (
        (n - 2 + 2 * k) * rho / f_denom,
        (1.0 - sigma) * k / f_denom,
        (n - 2 + k + k * sigma) * rho / f_denom,
    )
    return (e_in, e_out, e_res), (inner, outer), f_denom


@pytest.mark.parametrize("params", SAMPLE_PARAMS + [ProblemParams(6, 0.95, 0.05)])
def test_printed_ladders_equal_the_scalar_forms(params):
    spectrum = np.stack(printed_spectrum((params,), 60), axis=2)[0].tolist()
    modes = closed_form_modes((params,), 60)[0].tolist()
    f_denom = denom_F((params,), 60)[0]
    for k in range(1, 61):
        values, (inner, outer), scalar_f = scalar_printed_forms(params, k)
        assert tuple(spectrum[k - 1]) == values
        assert (tuple(modes[0][k - 1]), tuple(modes[1][k - 1])) == (inner, outer)
        assert f_denom[k - 1].tobytes() == np.float64(scalar_f).tobytes()


@settings(max_examples=200, deadline=None)
@given(
    dim=st.integers(2, 6),
    radius=st.floats(0.05, 0.95),
    log_sigma=st.floats(math.log(0.05), math.log(20.0)),
    kmax=st.integers(1, 60),
    data=st.data(),
)
def test_every_ladder_row_is_the_same_at_any_kmax(dim, radius, log_sigma, kmax, data):
    # and in any grid: each row of a multi-point call is the row of the
    # one-point call, whatever the other points, some of which share R
    params = ProblemParams(dim, radius, math.exp(log_sigma))
    degree = data.draw(st.integers(1, kmax), label="degree")
    other = data.draw(st.integers(degree, 60), label="other kmax")
    companion = st.builds(
        ProblemParams,
        st.integers(2, 6),
        st.just(radius) | st.floats(0.05, 0.95),
        st.floats(0.05, 20.0),
    )
    companions = data.draw(st.lists(companion, max_size=4), label="companions")
    position = data.draw(st.integers(0, len(companions)), label="position")
    grid = (*companions[:position], params, *companions[position:])
    index = degree - 1

    def row(points, point, kmax):
        spectra = spectrum_grid(points, kmax)
        columns = (
            spectra.e_in,
            spectra.e_out,
            spectra.e_res,
            *printed_spectrum(points, kmax),
            denom_F(points, kmax),
        )
        values = [column[point, index] for column in columns] + [
            spectra.powers[:, point, index],
            *(
                table[point, :, index]
                for table in (
                    spectra.unknowns,
                    mode_coefficients(spectra),
                    closed_form_modes(points, kmax),
                )
            ),
        ]
        return [value.tobytes() for value in values]

    one_point = row((params,), 0, kmax)
    assert row((params,), 0, other) == one_point
    assert row(grid, position, other) == one_point
    # the proof functions, which take no kmax
    xs = np.geomspace(1e-3, 50.0, 9)
    in_grid = monotonicity_functions(grid, xs)
    alone = monotonicity_functions((params,), xs)
    assert [column[position].tobytes() for column in in_grid] == [
        column[0].tobytes() for column in alone
    ]


@pytest.mark.parametrize("terms", [_MODE_POWERS, _PRINTED_POWERS, ((0, 0, -1),)])
def test_every_radius_power_is_the_scalar_pow(terms):
    # one path at any N: N = 2 and N = 10^20 share R, and a point repeats
    points = tuple(
        ProblemParams(dim, radius, 2.0)
        for dim, radius in ((2, 0.5), (10**20, 0.5), (3, 0.3), (2, 0.5), (10**20, 0.3))
    )
    kmax = 40
    powers = _radius_powers(points, kmax, terms)
    assert powers.shape == (len(terms), len(points), kmax)
    for (a, b, c), table in zip(terms, powers):
        for params, row in zip(points, table):
            exponents = [a + b * params.dim + c * k for k in range(1, kmax + 1)]
            expected = [_radius_power(params.core_radius, e) for e in exponents]
            assert row.tobytes() == np.array(expected).tobytes()
    # Python's pow, or its limit past the float range
    assert _radius_power(0.5, 3) == 0.5**3
    assert _radius_power(0.5, 10**20) == 0.0
    assert _radius_power(0.5, -(10**20)) == math.inf
    assert _radius_power(0.5, 10**400) == 0.0


# Drawn sigma keeps the Inner unknown B R^k, about R/(N sigma k), a normal
# float: R >= 1e-12, N <= 50 and k <= 3000 give it at least 1e-268.
@settings(max_examples=400, deadline=None)
@given(
    dim=st.integers(2, 50),
    radius=st.floats(1e-12, 1.0 - 1e-12),
    log_sigma=st.floats(-250.0, 250.0),
    kmax=st.integers(1, 3000),
)
def test_spectrum_grid_computes_every_degree(dim, radius, log_sigma, kmax):
    # the test suite turns warnings into errors; degree 1 is refused only
    # where R^N or its exact value underflows
    sigma = 10.0**log_sigma
    try:
        spectra = spectrum_grid((ProblemParams(dim, radius, sigma),), kmax)
    except FloatRangeError as error:
        assert error.degree == 1 and degree_one_underflows(dim, radius, sigma)
        return
    for column in (spectra.e_in, spectra.e_out, spectra.e_res):
        assert column.shape == (1, kmax)
        assert np.isfinite(column).all()


@pytest.mark.xfail(
    raises=TransmissionSolveError,
    strict=True,
    reason=(
        "past the drawn sigma the Inner unknown B R^k, about R/(N sigma k), is "
        "subnormal and misses the residual contract at degree 1; scaling the "
        "core unknown by g = max(sigma, 1), ROADMAP item 1, keeps it normal"
    ),
)
def test_spectrum_grid_computes_a_subnormal_inner_unknown():
    spectrum_grid((ProblemParams(2, 1e-12, 1e300),), 3)


def test_spectrum_rejects_degree_zero():
    with pytest.raises(ValueError):
        assemble_spectrum(PARAMS, 0)
    with pytest.raises(ValueError):
        printed_spectrum((PARAMS,), 0)


def test_total_second_variation_combines_modes():
    spec = PerturbationSpec(
        {ModeIndex(2, 1): (1.0, -0.5), ModeIndex(3, 2): (0.0, 2.0)}
    )
    total = total_second_variation(spec, spectrum_grid((PARAMS,), 3))
    v2 = assemble_spectrum(PARAMS, 2)
    v3 = assemble_spectrum(PARAMS, 3)
    expected = (
        1.0 * v2.e_in
        + 0.25 * v2.e_out
        + (1.0 * -0.5) * v2.e_res
        + 4.0 * v3.e_out
    )
    assert total == pytest.approx(expected, rel=1e-13)


def test_total_second_variation_rejects_mean_modes_and_bad_orders():
    table = spectrum_grid((PARAMS,), 3)
    mean_spec = PerturbationSpec({ModeIndex(0, 1): (1.0, 0.0)})
    with pytest.raises(ValueError, match="volume"):
        total_second_variation(mean_spec, table)
    bad_order = PerturbationSpec({ModeIndex(1, 3): (1.0, 0.0)})
    with pytest.raises(ValueError, match="multiplicity"):
        total_second_variation(bad_order, table)


def test_total_second_variation_rejects_modes_past_the_table():
    spec = PerturbationSpec({ModeIndex(2, 1): (1.0, 0.0), ModeIndex(4, 1): (0.0, 1.0)})
    with pytest.raises(ValueError, match=r"^degree 4 lies outside the spectrum table 1\.\.3$"):
        total_second_variation(spec, spectrum_grid((PARAMS,), 3))
    total = total_second_variation(spec, spectrum_grid((PARAMS,), 4))
    assert total == assemble_spectrum(PARAMS, 2).e_in + assemble_spectrum(PARAMS, 4).e_out


# E''(Phi) of resonance case (iii), degree 5 aligned, and of a spec mixing degrees 2, 3 and 5,
# summed from the assembled table; each is within 1e-16 relative of the sum
# of the exact reference's entries
PINNED_TOTALS = [
    (PARAMS, -2.116330185607294, -8.885835510428493),
    (ProblemParams(3, 0.3, 0.2), -0.9477831377298745, -3.8418405755832987),
]


CASE_III = PerturbationSpec({ModeIndex(5, 1): (1.0, 1.0)})


@pytest.mark.parametrize("params, case_iii, mixed", PINNED_TOTALS)
def test_total_second_variation_reads_one_point_grids(params, case_iii, mixed):
    spec = PerturbationSpec(
        {
            ModeIndex(2, 1): (1.0, -0.5),
            ModeIndex(3, 2): (0.0, 2.0),
            ModeIndex(5, 1): (0.25, 1.5),
        }
    )
    for kmax in (5, 30):
        table = spectrum_grid((params,), kmax)
        assert total_second_variation(CASE_III, table) == case_iii
        assert total_second_variation(spec, table) == mixed
    with pytest.raises(ValueError, match=r"^the spectrum grid holds 2 points; give the grid of one$"):
        total_second_variation(spec, spectrum_grid((params, PARAMS), 5))


def test_resonance_analysis_consistency():
    for params in SAMPLE_PARAMS:
        table = spectrum_grid((params,), 5)
        columns = (table.e_in, table.e_out, table.e_res)
        delta = discriminant(*columns)
        for degree in (1, 2, 5):
            values = assemble_spectrum(params, degree)
            scalar = discriminant(values.e_in, values.e_out, values.e_res)
            assert scalar == pytest.approx(
                values.e_res**2 - 4.0 * values.e_in * values.e_out, rel=1e-14
            )
            # elementwise over the columns, bitwise the scalar value
            assert delta[0, degree - 1] == scalar


def test_discriminant_overflows_to_inf_without_a_warning():
    # the test suite turns warnings into errors
    assert discriminant(np.array([1.0]), np.array([-1.0]), np.array([1e200]))[0] == math.inf


def test_monotonicity_functions_negative_on_samples():
    xs = np.array([1e-3, 0.5, 1.0, 7.0, 50.0])
    points = tuple(
        ProblemParams(dim, radius, 1.0) for dim in (2, 3, 5) for radius in (0.2, 0.5, 0.9)
    )
    columns = monotonicity_functions(points, xs)
    for column in columns:
        assert column.shape == (len(points),) + xs.shape
        assert (column < 0.0).all()
    # elementwise: each entry is the value at its own point and x, up to the
    # ulp by which a vectorised pow may differ from a scalar one
    for point, params in enumerate(points):
        for i, x in enumerate(xs):
            values = [float(column[0]) for column in monotonicity_functions((params,), x)]
            assert values == pytest.approx(
                [column[point, i] for column in columns], rel=1e-12, abs=1e-15
            )


def test_monotonicity_functions_overflow_to_their_limit_without_a_warning():
    # P = L^{2x+M} leaves float range; the test suite turns warnings into errors
    values = monotonicity_functions((ProblemParams(2, 1e-300, 1.0),), 50.0)
    assert [column.tolist() for column in values] == [[-math.inf]] * 3


def test_monotonicity_functions_planar_reduction():
    # N = 2: the middle terms drop and b collapses to -2x^2 (P + 1/P)
    params = ProblemParams(2, 0.5, 1.0)
    big_l = 1.0 / params.core_radius
    for x in (0.3, 1.0, 4.0):
        p = big_l ** (2.0 * x)
        (a,), (b,), (c,) = monotonicity_functions((params,), x)
        lam = math.log(big_l)
        assert a == pytest.approx(x * x * (1.0 / p - p) - 4.0 * lam * x**3, rel=1e-13)
        assert b == pytest.approx(-2.0 * x * x * (1.0 / p + p), rel=1e-13)
        assert c == pytest.approx(1.0 / p - p + 4.0 * lam * x, rel=1e-13)


def test_monotonicity_functions_reject_nonpositive_x():
    points = (ProblemParams(2, 0.5, 1.0),)
    with pytest.raises(ValueError):
        monotonicity_functions(points, 0.0)
    with pytest.raises(ValueError):
        monotonicity_functions(points, -1.0)
    with pytest.raises(ValueError, match="^x must be positive$"):
        monotonicity_functions(points, np.array([1.0, 0.0]))

