"""The explicit radial state, its traces, and the baseline energy."""

import math

import pytest

from twophase_torsion.exact_state import baseline_energy, sphere_area, traces
from twophase_torsion.params import ProblemParams

PARAMS = ProblemParams(dim=2, core_radius=0.5, sigma=2.0)
TRACE_PARAMS = [
    PARAMS,
    ProblemParams(2, 0.2, 0.1),
    ProblemParams(3, 0.5, 0.5),
    ProblemParams(4, 0.8, 10.0),
]


def test_sphere_area_low_dimensions():
    # the general formula gives these bits
    assert sphere_area(2) == 2.0 * math.pi
    assert sphere_area(3) == 4.0 * math.pi
    assert sphere_area(4) == pytest.approx(2.0 * math.pi**2, rel=1e-15)
    with pytest.raises(ValueError):
        sphere_area(1)


def u(params, r):
    """The radial state u(r) of the exact_state module docstring."""
    n, radius, sigma = params.dim, params.core_radius, params.sigma
    if r <= radius:
        return (1.0 - radius * radius) / (2.0 * n) + (radius * radius - r * r) / (
            2.0 * n * sigma
        )
    return (1.0 - r * r) / (2.0 * n)


def test_u_is_zero_on_the_boundary_and_positive_inside():
    for sigma in (0.5, 1.0, 2.0):
        params = ProblemParams(2, 0.5, sigma)
        assert u(params, 1.0) == 0.0
        assert u(params, 0.0) > 0.0


def test_u_is_continuous_at_the_interface():
    for params in (PARAMS, ProblemParams(3, 0.2, 0.1), ProblemParams(4, 0.8, 10.0)):
        radius = params.core_radius
        below = u(params, radius)
        above = u(params, radius + 1e-12)
        assert below == pytest.approx(above, abs=1e-11)


def test_u_matches_single_phase_profile_at_sigma_one():
    params = ProblemParams(3, 0.4, 1.0)
    for r in (0.0, 0.2, 0.4, 0.7, 1.0):
        assert u(params, r) == pytest.approx(
            (1.0 - r * r) / (2.0 * params.dim), rel=1e-15, abs=1e-15
        )


def test_u_solves_the_transmission_problem():
    h = 1e-4
    for params in TRACE_PARAMS:
        n, radius, sigma = params.dim, params.core_radius, params.sigma
        # -sigma (u'' + (N-1) u'/r) = 1 in each phase, by central differences
        # (exact on the quadratic u up to rounding)
        for r, conductivity in ((0.5 * radius, sigma), (0.5 * (1.0 + radius), 1.0)):
            second = (u(params, r + h) - 2.0 * u(params, r) + u(params, r - h)) / (h * h)
            first = (u(params, r + h) - u(params, r - h)) / (2.0 * h)
            assert -conductivity * (second + (n - 1) * first / r) == pytest.approx(
                1.0, rel=1e-5
            )
        # flux continuity: sigma d_n u_- = d_n u_+
        inner = (u(params, radius) - u(params, radius - h)) / h
        outer = (u(params, radius + h) - u(params, radius)) / h
        assert sigma * inner == pytest.approx(outer, rel=1e-3)


def test_trace_values_at_reference_point():
    assert traces(PARAMS) == pytest.approx(-0.125, rel=1e-15)


def test_traces_match_finite_differences_of_u():
    # one-sided differences, each taken inside its own phase; the jump
    # convention is outside minus inside
    h = 1e-7
    for params in TRACE_PARAMS:
        radius = params.core_radius
        inner_fd = (u(params, radius) - u(params, radius - h)) / h
        outer_fd = (u(params, radius + h) - u(params, radius)) / h
        assert traces(params) == pytest.approx(outer_fd - inner_fd, abs=1e-6)


def test_baseline_energy_reference_values():
    r_pow = 0.5**4
    expected = (2.0 * math.pi / 16.0) * (1.0 - r_pow + r_pow / 2.0)
    assert baseline_energy(PARAMS) == pytest.approx(expected, rel=1e-15)
    # sigma = 1 collapses to the one-phase ball energy omega / (N^2 (N+2))
    for dim in (2, 3, 4):
        params = ProblemParams(dim, 0.3, 1.0)
        assert baseline_energy(params) == pytest.approx(
            sphere_area(dim) / (dim * dim * (dim + 2)), rel=1e-15
        )


def test_baseline_energy_decreases_in_sigma():
    # a harder core resists torsion: energy strictly decreasing in sigma
    energies = [
        baseline_energy(ProblemParams(3, 0.6, sigma)) for sigma in (0.5, 1.0, 2.0, 4.0)
    ]
    assert all(a > b for a, b in zip(energies, energies[1:]))
