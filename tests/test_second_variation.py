"""Spectrum assembly, the printed forms, resonance, and monotonicity."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twophase_torsion.params import ModeIndex, PerturbationSpec, ProblemParams
from twophase_torsion.second_variation import (
    SpectrumPath,
    assemble_spectrum,
    factored_discriminant,
    first_variation,
    monotonicity_functions,
    printed_spectrum,
    spectrum,
    spectrum_table,
    total_second_variation,
)
from twophase_torsion.exact_state import sphere_area, traces
from twophase_torsion.transmission import FloatRangeError, denom_F

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
    assert values.source is SpectrumPath.ASSEMBLED


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
    ]
    for compute, degree in cases:
        with pytest.raises(FloatRangeError) as excinfo:
            compute()
        assert excinfo.value.degree == degree
    assert math.isfinite(printed_spectrum(PARAMS, 502).e_in)


def test_degree_one_closed_forms():
    # e_in(1) = e_out(1) = 2(1-sigma)/F(1) and e_res(1) = 4(sigma-1)/F(1)
    for params in SAMPLE_PARAMS:
        values = assemble_spectrum(params, 1)
        f1 = denom_F(params, 1)
        expected = 2.0 * (1.0 - params.sigma) / f1
        assert values.e_in == pytest.approx(expected, rel=1e-12, abs=1e-15)
        assert values.e_out == pytest.approx(expected, rel=1e-12, abs=1e-15)
        assert values.e_res == pytest.approx(-2.0 * expected, rel=1e-12, abs=1e-15)


def test_printed_resonance_matches_assembled():
    for params in SAMPLE_PARAMS:
        for degree in (1, 2, 5, 12):
            printed = printed_spectrum(params, degree)
            assembled = assemble_spectrum(params, degree)
            assert printed.e_res == pytest.approx(assembled.e_res, rel=1e-12, abs=1e-15)


def test_printed_diagonal_entries_disagree_with_assembled():
    # documented discrepancy: the printed diagonal entries differ from the
    # boundary-integral assembly; they are reported verbatim, never patched
    printed = printed_spectrum(PARAMS, 2)
    assembled = assemble_spectrum(PARAMS, 2)
    assert abs(printed.e_in - assembled.e_in) > 1e-3 * abs(assembled.e_in)
    assert abs(printed.e_out - assembled.e_out) > 1e-3 * abs(assembled.e_out)
    assert printed.source is SpectrumPath.PRINTED


def test_spectrum_dispatches_on_path():
    assert spectrum(PARAMS, 3, SpectrumPath.ASSEMBLED) == assemble_spectrum(PARAMS, 3)
    assert spectrum(PARAMS, 3, SpectrumPath.PRINTED) == printed_spectrum(PARAMS, 3)


def test_spectrum_rejects_degree_zero():
    with pytest.raises(ValueError):
        assemble_spectrum(PARAMS, 0)
    with pytest.raises(ValueError):
        printed_spectrum(PARAMS, 0)


def test_total_second_variation_combines_modes():
    spec = PerturbationSpec(
        {ModeIndex(2, 1): (1.0, -0.5), ModeIndex(3, 2): (0.0, 2.0)}
    )
    total = total_second_variation(spec, PARAMS, SpectrumPath.ASSEMBLED)
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
    mean_spec = PerturbationSpec({ModeIndex(0, 1): (1.0, 0.0)}, allow_mean=True)
    with pytest.raises(ValueError, match="volume"):
        total_second_variation(mean_spec, PARAMS, SpectrumPath.ASSEMBLED)
    bad_order = PerturbationSpec({ModeIndex(1, 3): (1.0, 0.0)})
    with pytest.raises(ValueError, match="multiplicity"):
        total_second_variation(bad_order, PARAMS, SpectrumPath.ASSEMBLED)


def test_resonance_analysis_consistency():
    for params in SAMPLE_PARAMS:
        for degree in (1, 2, 5):
            values = assemble_spectrum(params, degree)
            assert values.discriminant == pytest.approx(
                values.e_res**2 - 4.0 * values.e_in * values.e_out, rel=1e-14
            )
            q_at_one = values.q_value(1.0)
            assert q_at_one == pytest.approx(
                values.e_in + values.e_out + values.e_res, rel=1e-13, abs=1e-15
            )
            ratios = np.array([-2.0, 0.5, 3.0])
            assert values.q_value(ratios) == pytest.approx(
                [values.q_value(float(t)) for t in ratios], rel=1e-15
            )


def test_factored_discriminant_tracks_the_assembled_discriminant():
    for params in SAMPLE_PARAMS:
        for degree in (1, 2, 3, 7, 20):
            values = assemble_spectrum(params, degree)
            scale = max(
                values.e_res**2, abs(4.0 * values.e_in * values.e_out), 1e-30
            )
            assert factored_discriminant(params, degree) == pytest.approx(
                values.discriminant, abs=1e-10 * scale
            )


def test_monotonicity_functions_negative_on_samples():
    for dim in (2, 3, 5):
        for radius in (0.2, 0.5, 0.9):
            params = ProblemParams(dim, radius, 1.0)
            for x in (1e-3, 0.5, 1.0, 7.0, 50.0):
                a, b, c = monotonicity_functions(params, x)
                assert a < 0.0
                assert b < 0.0
                assert c < 0.0


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
