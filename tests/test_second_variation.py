"""Spectrum assembly, the printed forms, resonance, and monotonicity."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twophase_torsion.params import ModeIndex, PerturbationSpec, ProblemParams
from twophase_torsion.second_variation import (
    assemble_spectrum,
    discriminant,
    factored_discriminant,
    first_variation,
    monotonicity_functions,
    printed_spectrum,
    spectrum_table,
    total_second_variation,
)
from twophase_torsion.exact_state import sphere_area, traces
from twophase_torsion.transmission import FloatRangeError, closed_form_modes, denom_F

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


# (e_in, e_out, e_res) of the per-degree solve and assembly that the batched
# table replaced, to 17 significant digits
REFERENCE_SPECTRUM = [
    (ProblemParams(2, 0.5, 2.0), 1,
     (-0.090909090909090912, -0.090909090909090939, 0.18181818181818182)),
    (ProblemParams(2, 0.5, 1.0), 7, (0.0, -3.0, 0.0)),
    (ProblemParams(3, 0.2, 10.0), 50,
     (-0.068242468239564438, -10.888888888888888, 1.6510474133009849e-35)),
    (ProblemParams(4, 0.8, 0.1), 13,
     (-4.5020009624345594, -1.4951473007471721, -0.14123213631182871)),
    (ProblemParams(5, 0.35, 0.5), 50,
     (-0.0067174131410256349, -3.9199999999999999, -1.2661262364522025e-24)),
    (ProblemParams(2, 0.05, 0.001), 30,
     (-36.138899850149855, -14.5, -2.7883853707518419e-39)),
]


@pytest.mark.parametrize("params, degree, expected", REFERENCE_SPECTRUM)
def test_assembled_spectrum_matches_pinned_values(params, degree, expected):
    for values in (assemble_spectrum(params, degree), spectrum_table(params, 50).row(degree)):
        assert (values.e_in, values.e_out, values.e_res) == expected


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
    full, short = spectrum_table(params, kmax), spectrum_table(params, degree)
    index = degree - 1
    for name in ("e_in", "e_out", "e_res"):
        assert getattr(full, name)[index].tobytes() == getattr(short, name)[index].tobytes()
    for name in ("coefficients", "derivatives"):
        assert (
            getattr(full.modes, name)[:, index].tobytes()
            == getattr(short.modes, name)[:, index].tobytes()
        )


def test_spectrum_past_float_range_names_the_first_degree():
    cases = [
        (lambda: spectrum_table(PARAMS, 3000), 1019),
        (lambda: printed_spectrum(PARAMS, 503), 503),
        (lambda: spectrum_table(ProblemParams(4, 0.05, 2.0), 300), 234),
        # 1/sigma leaves float range: the interface jump of d_n u is infinite
        (lambda: spectrum_table(ProblemParams(2, 0.5, 1e-320), 5), 1),
        (lambda: denom_F(PARAMS, 600), 507),
        # F^2 left float range first, so the prefactor is 0; G then overflows: 0 * inf
        (lambda: factored_discriminant(PARAMS, 600), 504),
    ]
    for compute, degree in cases:
        with pytest.raises(FloatRangeError) as excinfo:
            compute()
        assert excinfo.value.degree == degree
    assert all(np.isfinite(column).all() for column in printed_spectrum(PARAMS, 502))


def test_degree_one_closed_forms():
    # e_in(1) = e_out(1) = 2(1-sigma)/F(1) and e_res(1) = 4(sigma-1)/F(1)
    for params in SAMPLE_PARAMS:
        values = assemble_spectrum(params, 1)
        f1 = denom_F(params, 1)[0]
        expected = 2.0 * (1.0 - params.sigma) / f1
        assert values.e_in == pytest.approx(expected, rel=1e-12, abs=1e-15)
        assert values.e_out == pytest.approx(expected, rel=1e-12, abs=1e-15)
        assert values.e_res == pytest.approx(-2.0 * expected, rel=1e-12, abs=1e-15)


def test_printed_resonance_matches_assembled():
    for params in SAMPLE_PARAMS:
        _, _, e_res = printed_spectrum(params, 12)
        for degree in (1, 2, 5, 12):
            assembled = assemble_spectrum(params, degree)
            assert e_res[degree - 1] == pytest.approx(assembled.e_res, rel=1e-12, abs=1e-15)


def test_printed_diagonal_entries_disagree_with_assembled():
    # documented discrepancy: the printed diagonal entries differ from the
    # boundary-integral assembly; they are reported verbatim, never patched
    e_in, e_out, _ = printed_spectrum(PARAMS, 2)
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
        columns = printed_spectrum(params, kmax)
        assert tuple(float(column[degree - 1]) for column in columns) == expected
        assert not any(column.flags.writeable for column in columns)


def scalar_printed_forms(params, k):
    """The printed closed forms of one degree in Python float arithmetic,
    as the per-degree evaluation computed them: (e_in, e_out, e_res), the
    (B, C, D) of the Inner and Outer kinds, and (F, factored Delta)."""
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
    bracket = sigma * k * (rho - 1.0) + (n - 2 + k) * rho + k
    g = (sigma - 1.0) * k * (n - 1 + k) * (rho - 1.0) + (n - 2 + 2 * k) * rho
    delta = (
        -16.0 * (sigma - 1.0) * (k - 1) * radius**n / (sigma * n * n * f_denom * f_denom)
        * bracket
        * g
    )
    return (e_in, e_out, e_res), (inner, outer), (f_denom, delta)


@pytest.mark.parametrize("params", SAMPLE_PARAMS + [ProblemParams(6, 0.95, 0.05)])
def test_printed_ladders_equal_the_scalar_forms(params):
    spectrum = np.stack(printed_spectrum(params, 60), axis=1).tolist()
    modes = closed_form_modes(params, 60).tolist()
    closed_forms = np.stack([denom_F(params, 60), factored_discriminant(params, 60)], axis=1)
    for k in range(1, 61):
        values, (inner, outer), scalars = scalar_printed_forms(params, k)
        assert tuple(spectrum[k - 1]) == values
        assert (tuple(modes[0][k - 1]), tuple(modes[1][k - 1])) == (inner, outer)
        assert closed_forms[k - 1].tobytes() == np.array(scalars).tobytes()


@settings(max_examples=200, deadline=None)
@given(
    dim=st.integers(2, 6),
    radius=st.floats(0.05, 0.95),
    log_sigma=st.floats(math.log(0.05), math.log(20.0)),
    kmax=st.integers(1, 60),
    data=st.data(),
)
def test_every_ladder_row_is_the_same_at_any_kmax(dim, radius, log_sigma, kmax, data):
    params = ProblemParams(dim, radius, math.exp(log_sigma))
    degree = data.draw(st.integers(1, kmax), label="degree")
    other = data.draw(st.integers(degree, 60), label="other kmax")
    index = degree - 1

    def row(kmax):
        table = spectrum_table(params, kmax)
        columns = (
            table.e_in,
            table.e_out,
            table.e_res,
            *printed_spectrum(params, kmax),
            denom_F(params, kmax),
            factored_discriminant(params, kmax),
        )
        values = [column[index] for column in columns]
        return [value.tobytes() for value in values + [closed_form_modes(params, kmax)[:, index]]]

    assert row(kmax) == row(other)


def test_spectrum_rejects_degree_zero():
    with pytest.raises(ValueError):
        assemble_spectrum(PARAMS, 0)
    with pytest.raises(ValueError):
        printed_spectrum(PARAMS, 0)


def test_total_second_variation_combines_modes():
    spec = PerturbationSpec(
        {ModeIndex(2, 1): (1.0, -0.5), ModeIndex(3, 2): (0.0, 2.0)}
    )
    total = total_second_variation(spec, spectrum_table(PARAMS, 3))
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
    table = spectrum_table(PARAMS, 3)
    mean_spec = PerturbationSpec({ModeIndex(0, 1): (1.0, 0.0)}, allow_mean=True)
    with pytest.raises(ValueError, match="volume"):
        total_second_variation(mean_spec, table)
    bad_order = PerturbationSpec({ModeIndex(1, 3): (1.0, 0.0)})
    with pytest.raises(ValueError, match="multiplicity"):
        total_second_variation(bad_order, table)


def test_total_second_variation_rejects_modes_past_the_table():
    spec = PerturbationSpec({ModeIndex(2, 1): (1.0, 0.0), ModeIndex(4, 1): (0.0, 1.0)})
    with pytest.raises(ValueError, match=r"^degree 4 lies outside the spectrum table 1\.\.3$"):
        total_second_variation(spec, spectrum_table(PARAMS, 3))
    total = total_second_variation(spec, spectrum_table(PARAMS, 4))
    assert total == assemble_spectrum(PARAMS, 2).e_in + assemble_spectrum(PARAMS, 4).e_out


def test_resonance_analysis_consistency():
    for params in SAMPLE_PARAMS:
        table = spectrum_table(params, 5)
        columns = (table.e_in, table.e_out, table.e_res)
        delta = discriminant(*columns)
        for degree in (1, 2, 5):
            values = assemble_spectrum(params, degree)
            scalar = discriminant(values.e_in, values.e_out, values.e_res)
            assert scalar == pytest.approx(
                values.e_res**2 - 4.0 * values.e_in * values.e_out, rel=1e-14
            )
            # elementwise over the columns, bitwise the scalar value
            assert delta[degree - 1] == scalar


def test_discriminant_overflows_to_inf_without_a_warning():
    # the test suite turns warnings into errors
    assert discriminant(np.array([1.0]), np.array([-1.0]), np.array([1e200]))[0] == math.inf


def test_factored_discriminant_tracks_the_assembled_discriminant():
    for params in SAMPLE_PARAMS:
        table = spectrum_table(params, 20)
        assembled = discriminant(table.e_in, table.e_out, table.e_res)
        scale = np.maximum(
            np.maximum(table.e_res**2, np.abs(4.0 * table.e_in * table.e_out)), 1e-30
        )
        factored = factored_discriminant(params, 20)
        assert (np.abs(factored - assembled) <= 1e-10 * scale).all()
        assert not factored.flags.writeable


def test_monotonicity_functions_negative_on_samples():
    xs = np.array([1e-3, 0.5, 1.0, 7.0, 50.0])
    for dim in (2, 3, 5):
        for radius in (0.2, 0.5, 0.9):
            params = ProblemParams(dim, radius, 1.0)
            columns = monotonicity_functions(params, xs)
            for column in columns:
                assert column.shape == xs.shape
                assert (column < 0.0).all()
            # elementwise: each entry is the value at its own x, up to the
            # ulp by which a vectorised pow may differ from a scalar one
            for i, x in enumerate(xs):
                assert monotonicity_functions(params, x) == pytest.approx(
                    tuple(column[i] for column in columns), rel=1e-12, abs=1e-15
                )


def test_monotonicity_functions_overflow_to_their_limit_without_a_warning():
    # P = L^{2x+M} leaves float range; the test suite turns warnings into errors
    values = monotonicity_functions(ProblemParams(2, 1e-300, 1.0), 50.0)
    assert values == (-math.inf, -math.inf, -math.inf)


def test_monotonicity_functions_planar_reduction():
    # N = 2: the middle terms drop and b collapses to -2x^2 (P + 1/P)
    params = ProblemParams(2, 0.5, 1.0)
    big_l = 1.0 / params.core_radius
    for x in (0.3, 1.0, 4.0):
        p = big_l ** (2.0 * x)
        a, b, c = monotonicity_functions(params, x)
        lam = math.log(big_l)
        assert a == pytest.approx(x * x * (1.0 / p - p) - 4.0 * lam * x**3, rel=1e-13)
        assert b == pytest.approx(-2.0 * x * x * (1.0 / p + p), rel=1e-13)
        assert c == pytest.approx(1.0 / p - p + 4.0 * lam * x, rel=1e-13)


def test_monotonicity_functions_reject_nonpositive_x():
    params = ProblemParams(2, 0.5, 1.0)
    with pytest.raises(ValueError):
        monotonicity_functions(params, 0.0)
    with pytest.raises(ValueError):
        monotonicity_functions(params, -1.0)
    with pytest.raises(ValueError, match="^x must be positive$"):
        monotonicity_functions(params, np.array([1.0, 0.0]))


def test_first_variation_vanishes_without_mean_modes():
    spec = PerturbationSpec({ModeIndex(1, 1): (1.0, 0.0), ModeIndex(4, 1): (2.0, -1.0)})
    assert first_variation(spec, PARAMS) == 0.0


def test_first_variation_mean_mode_values():
    omega = sphere_area(PARAMS.dim)
    state = traces(PARAMS)
    inner_spec = PerturbationSpec({ModeIndex(0, 1): (1.0, 0.0)}, allow_mean=True)
    outer_spec = PerturbationSpec({ModeIndex(0, 1): (0.0, 1.0)}, allow_mean=True)
    expected_inner = (
        -state.jump_sigma_gradsq * PARAMS.core_radius * math.sqrt(omega)
    )
    expected_outer = math.sqrt(omega) / 4.0
    assert first_variation(inner_spec, PARAMS) == pytest.approx(
        expected_inner, rel=1e-14
    )
    assert first_variation(outer_spec, PARAMS) == pytest.approx(
        expected_outer, rel=1e-14
    )
    both = PerturbationSpec({ModeIndex(0, 1): (1.0, 1.0)}, allow_mean=True)
    assert first_variation(both, PARAMS) == pytest.approx(
        expected_inner + expected_outer, rel=1e-14
    )
