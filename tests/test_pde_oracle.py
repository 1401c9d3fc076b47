"""Finite-difference energy oracle on perturbed domains (fast grids)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twophase_torsion import pde_oracle
from twophase_torsion.exact_state import baseline_energy
from twophase_torsion.params import ModeIndex, PerturbationSpec, ProblemParams
from twophase_torsion.pde_oracle import (
    AngularProfile,
    InterfaceOrderingError,
    PerturbedDomainFamily,
    SolveError,
    differentiate_energy,
    family_from_config,
    run_from_config,
    solve_energy,
    spectral_diff_matrix,
)

PARAMS = ProblemParams(dim=2, core_radius=0.5, sigma=2.0)


def test_spectral_diff_matrix_differentiates_trig_polynomials():
    m = 32
    theta = 2.0 * math.pi * np.arange(m) / m
    diff = spectral_diff_matrix(m)
    for k in (1, 3, 11):
        assert diff @ np.cos(k * theta) == pytest.approx(
            -k * np.sin(k * theta), abs=1e-11
        )
        assert diff @ np.sin(k * theta) == pytest.approx(
            k * np.cos(k * theta), abs=1e-11
        )
    assert diff @ np.ones(m) == pytest.approx(np.zeros(m), abs=1e-12)
    assert diff.T == pytest.approx(-diff)


def test_angular_profile_evaluation():
    profile = AngularProfile(terms=((2, 1, 3.0),))
    theta = np.linspace(0.0, 2.0 * math.pi, 17)
    expected = 3.0 * np.cos(2.0 * theta) / math.sqrt(math.pi)
    assert profile.evaluate(theta) == pytest.approx(expected, abs=1e-14)
    assert profile.derivative(theta) == pytest.approx(
        -6.0 * np.sin(2.0 * theta) / math.sqrt(math.pi), abs=1e-13
    )
    # L^2 mean square of 3 Y_{2,1} over the circle: 9 / (2 pi)
    assert profile.mean_square() == pytest.approx(9.0 / (2.0 * math.pi), rel=1e-14)
    assert profile.max_degree() == 2


def test_harmonics_are_orthonormal_on_the_circle():
    thetas = 2.0 * math.pi * np.arange(400) / 400
    weight = 2.0 * math.pi / 400
    indices = [(0, 1), (1, 1), (1, 2), (3, 2)]
    values = {
        index: AngularProfile(terms=(index + (1.0,),)).evaluate(thetas)
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


def test_family_boundary_radii_at_zero_are_concentric():
    spec = PerturbationSpec({ModeIndex(2, 1): (1.0, 1.0)})
    family = PerturbedDomainFamily.from_spec(PARAMS, spec)
    theta = np.linspace(0.0, 2.0 * math.pi, 9)
    rho_in, drho_in, rho_out, drho_out = family.at(0.0).boundary_radii(theta)
    assert rho_in == pytest.approx(np.full(9, 0.5), abs=1e-15)
    assert rho_out == pytest.approx(np.ones(9), abs=1e-15)
    assert drho_in == pytest.approx(np.zeros(9), abs=1e-15)
    assert drho_out == pytest.approx(np.zeros(9), abs=1e-15)


def enclosed_areas(family, angular_modes=256):
    """Quadrature areas of the core and of the whole perturbed domain."""
    theta = 2.0 * math.pi * np.arange(angular_modes) / angular_modes
    rho_in, _, rho_out, _ = family.boundary_radii(theta)
    dtheta = 2.0 * math.pi / angular_modes
    return 0.5 * dtheta * np.sum(rho_in**2), 0.5 * dtheta * np.sum(rho_out**2)


def test_exact_area_family_preserves_both_areas():
    spec = PerturbationSpec({ModeIndex(2, 1): (1.0, 0.5), ModeIndex(3, 1): (0.0, 1.0)})
    family = PerturbedDomainFamily.from_spec(PARAMS, spec)
    base_in, base_out = enclosed_areas(family.at(0.0))
    assert base_in == pytest.approx(math.pi * 0.25, rel=1e-12)
    assert base_out == pytest.approx(math.pi, rel=1e-12)
    for t in (0.02, -0.05, 0.1):
        area_in, area_out = enclosed_areas(family.at(t))
        assert area_in == pytest.approx(base_in, rel=1e-12)
        assert area_out == pytest.approx(base_out, rel=1e-12)


def test_linear_family_changes_area_at_second_order():
    spec = PerturbationSpec({ModeIndex(2, 1): (1.0, 0.0)})
    family = PerturbedDomainFamily.from_spec(PARAMS, spec, exact_area=False)
    base_in, _ = enclosed_areas(family.at(0.0))
    t = 0.1
    area_in, _ = enclosed_areas(family.at(t))
    # mean-zero linear boundary motion: area drift = (t^2/2) |g|_2^2
    drift = 0.5 * t * t * spec.coefficients(ModeIndex(2, 1))[0] ** 2
    assert area_in - base_in == pytest.approx(drift, rel=1e-10)


def test_interface_crossing_is_detected():
    spec = PerturbationSpec({ModeIndex(2, 1): (5.0, 0.0)})
    family = PerturbedDomainFamily.from_spec(PARAMS, spec)
    theta = np.linspace(0.0, 2.0 * math.pi, 64)
    with pytest.raises(InterfaceOrderingError):
        family.at(0.45).boundary_radii(theta)


def test_solve_energy_matches_the_closed_form_on_coarse_grids():
    for sigma in (1.0, 2.0, 0.5):
        params = ProblemParams(2, 0.5, sigma)
        family = PerturbedDomainFamily.from_spec(params, PerturbationSpec({}))
        energy = solve_energy(family, radial_points=128, angular_modes=16)
        exact = baseline_energy(params)
        assert energy == pytest.approx(exact, rel=5e-5)


def test_solve_energy_validates_the_angular_grid():
    spec = PerturbationSpec({ModeIndex(9, 1): (0.1, 0.0)})
    family = PerturbedDomainFamily.from_spec(PARAMS, spec)
    with pytest.raises(ValueError, match="even"):
        solve_energy(family, radial_points=64, angular_modes=15)
    with pytest.raises(ValueError, match=">= 4"):
        solve_energy(family, radial_points=64, angular_modes=2)
    with pytest.raises(ValueError, match="too small for the perturbation"):
        solve_energy(family, radial_points=64, angular_modes=16)


def test_differentiate_energy_returns_a_complete_run():
    spec = PerturbationSpec({ModeIndex(2, 1): (1.0, 0.0)})
    family = PerturbedDomainFamily.from_spec(PARAMS, spec)
    run = differentiate_energy(
        family, t0=0.02, levels=2, radial_points=96, angular_modes=16
    )
    assert len(run.t_samples) == 7
    assert run.t_samples == tuple(sorted(run.t_samples))
    assert run.energy_at(0.0) == pytest.approx(
        baseline_energy(PARAMS), rel=1e-4
    )
    assert abs(run.d1) < 1e-6
    # coarse-grid d2 still lands within a few percent of the target
    assert run.d2 == pytest.approx(-0.1077127659574468, rel=0.05)
    document = run.to_document()
    assert document["radial_points"] == 96
    assert len(document["energies"]) == 7
    assert document["d2"] == run.d2


def test_differentiate_energy_validates_input():
    family = PerturbedDomainFamily.from_spec(PARAMS, PerturbationSpec({}))
    with pytest.raises(ValueError, match="^t0 must be positive$"):
        differentiate_energy(family, t0=0.0)
    with pytest.raises(ValueError, match="levels"):
        differentiate_energy(family, levels=0)
    for t0 in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="^t0 must be finite$"):
            differentiate_energy(family, t0=t0)
    # (t0/2^levels)^2 must be a normal float: 1e-300 underflows to zero,
    # 1e-154 to a subnormal, and 1e300 overflows
    for t0, levels in ((1e-300, 2), (1e-154, 1), (1e300, 2), (1e-10, 1000)):
        with pytest.raises(ValueError, match=r"^t0 out of range: \(t0/2\^levels\)\^2"):
            differentiate_energy(family, t0=t0, levels=levels)


def test_solve_energy_raises_when_the_energy_is_not_finite():
    spec = PerturbationSpec({ModeIndex(2, 1): (1.0, 0.0)})
    overflowing = PerturbedDomainFamily.from_spec(ProblemParams(2, 0.5, 1e308), spec)
    with pytest.raises(SolveError, match="^energy is not finite$"):
        solve_energy(overflowing, radial_points=16, angular_modes=8)
    singular = PerturbedDomainFamily.from_spec(ProblemParams(2, 0.5, 1e300), spec)
    with pytest.raises(SolveError, match="^block factorization failed$"):
        solve_energy(singular, radial_points=16, angular_modes=8)


def _captured_system(monkeypatch, family, radial_points, angular_modes):
    """solve_energy's result and the dense matrix and load it assembled."""
    captured = []
    forward = pde_oracle._forward_energy

    def capture(center, faces, couplings):
        # the sweep overwrites both stacks, so keep what the assembly wrote
        captured.extend((center, faces.copy(), couplings.copy()))
        return forward(center, faces, couplings)

    monkeypatch.setattr(pde_oracle, "_forward_energy", capture)
    energy = solve_energy(family, radial_points, angular_modes)
    (center, center_upper, center_load), faces, couplings = captured
    loads, diag = faces[:, 0], faces[:, 1:]  # slabs [q; D]
    upper = couplings[:, 1:].transpose(0, 2, 1)  # slabs [.; U^T]
    m = angular_modes
    size = 1 + len(diag) * m
    matrix = np.zeros((size, size))
    matrix[0, 0] = center
    matrix[0, 1 : 1 + m] = matrix[1 : 1 + m, 0] = center_upper
    for i, block in enumerate(diag):
        rows = slice(1 + i * m, 1 + (i + 1) * m)
        matrix[rows, rows] = block
        if i + 1 < len(diag):  # the last upper block couples to the Dirichlet node
            cols = slice(1 + (i + 1) * m, 1 + (i + 2) * m)
            matrix[rows, cols] = upper[i]
            matrix[cols, rows] = upper[i].T
    return energy, matrix, np.concatenate([[center_load], loads.ravel()])


@pytest.mark.parametrize("radial_points", [16, 4])
def test_forward_sweep_equals_a_dense_solve(monkeypatch, radial_points):
    # radial_points = 4 leaves three m x m blocks, so the block after the
    # center is next to the last one
    spec = PerturbationSpec({ModeIndex(2, 1): (1.0, 0.5), ModeIndex(3, 2): (0.0, 1.0)})
    family = PerturbedDomainFamily.from_spec(PARAMS, spec).at(0.03)
    energy, matrix, load = _captured_system(monkeypatch, family, radial_points, 8)
    assert energy == pytest.approx(load @ np.linalg.solve(matrix, load), rel=1e-12)


# each angular grid with the degrees it resolves (2 degree < m)
ANGULAR_GRIDS = st.sampled_from([4, 6, 8, 12]).flatmap(
    lambda m: st.tuples(st.just(m), st.integers(1, min(3, (m - 1) // 2)))
)


@settings(max_examples=200, deadline=None)
@given(
    radius=st.floats(0.2, 0.8),
    log_sigma=st.floats(math.log(0.1), math.log(10.0)),
    grid=ANGULAR_GRIDS,
    order=st.integers(1, 2),
    alphas=st.sampled_from([(1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]),  # inner, outer, coupled
    t=st.floats(-0.03, 0.03),
    radial_points=st.integers(4, 24),
)
def test_forward_sweep_equals_a_dense_solve_everywhere(
    radius, log_sigma, grid, order, alphas, t, radial_points
):
    angular_modes, degree = grid
    params = ProblemParams(2, radius, math.exp(log_sigma))
    spec = PerturbationSpec({ModeIndex(degree, order): alphas})
    family = PerturbedDomainFamily.from_spec(params, spec).at(t)
    with pytest.MonkeyPatch.context() as monkeypatch:
        energy, matrix, load = _captured_system(
            monkeypatch, family, radial_points, angular_modes
        )
    assert energy == pytest.approx(load @ np.linalg.solve(matrix, load), rel=1e-12)


# E(-0.01), E(0.01) at 64x16 computed by an independent implementation of
# the same scheme: a per-cell assembly loop and a block Cholesky-Thomas solve
REFERENCE_ENERGIES = [
    (ProblemParams(2, 0.5, 2.0), ModeIndex(1, 1), (1.0, 0.0),
     (0.38040870620939343, 0.380408706209395)),
    (ProblemParams(2, 0.4, 0.5), ModeIndex(2, 2), (0.0, 1.0),
     (0.4027093702942107, 0.40270937029421044)),
    (ProblemParams(2, 0.6, 3.0), ModeIndex(3, 1), (1.0, 1.0),
     (0.35870868327550304, 0.3587086832754983)),
]


@pytest.mark.parametrize("params, mode, alphas, energies", REFERENCE_ENERGIES)
def test_solve_energy_matches_reference_energies(params, mode, alphas, energies):
    family = PerturbedDomainFamily.from_spec(params, PerturbationSpec({mode: alphas}))
    for t, expected in zip((-0.01, 0.01), energies):
        assert solve_energy(family.at(t), 64, 16) == pytest.approx(expected, rel=1e-12)


def _count_calls(monkeypatch, *names):
    """Call counts of the named pde_oracle module attributes, as the
    benchmark trace counts them."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(pde_oracle, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(pde_oracle, name, counted)
    return calls


def test_sweep_factors_and_solves_each_block_once(monkeypatch):
    calls = _count_calls(monkeypatch, "cho_factor", "cho_solve")
    spec = PerturbationSpec({ModeIndex(2, 1): (1.0, 0.0)})
    family = PerturbedDomainFamily.from_spec(PARAMS, spec).at(0.01)
    radial_points = 32
    solve_energy(family, radial_points, 8)
    # one factorization and one triangular solve per block, nodes 1..n-1
    assert calls == {"cho_factor": radial_points - 1, "cho_solve": radial_points - 1}


@pytest.mark.parametrize("radial_points", [4, 16])
def test_a_reused_workspace_changes_no_energy(monkeypatch, radial_points):
    # the coupled channel: both boundaries move
    spec = PerturbationSpec({ModeIndex(2, 1): (1.0, 1.0)})
    family = PerturbedDomainFamily.from_spec(PARAMS, spec)
    calls = _count_calls(monkeypatch, "solve_energy", "cho_factor", "cho_solve")
    run = differentiate_energy(
        family, t0=0.02, levels=2, radial_points=radial_points, angular_modes=8
    )
    # 7 samples, each one factorization and one solve per block
    blocks = 7 * (radial_points - 1)
    assert calls == {"solve_energy": 7, "cho_factor": blocks, "cho_solve": blocks}
    for t, energy in zip(run.t_samples, run.energies):
        assert energy == solve_energy(family.at(t), radial_points, 8)


def test_differentiate_energy_single_level_has_no_rate():
    family = PerturbedDomainFamily.from_spec(PARAMS, PerturbationSpec({}))
    run = differentiate_energy(
        family, t0=0.01, levels=1, radial_points=64, angular_modes=8
    )
    assert len(run.t_samples) == 5
    assert math.isnan(run.convergence_rate)


def test_differentiate_energy_has_no_rate_below_roundoff():
    # the steps are so small that E(+-h) == E(0): every second difference
    # is 0, so no convergence rate can be observed
    spec = PerturbationSpec({ModeIndex(2, 1): (1.0, 0.0)})
    family = PerturbedDomainFamily.from_spec(PARAMS, spec)
    run = differentiate_energy(
        family, t0=1e-150, levels=2, radial_points=32, angular_modes=8
    )
    assert run.d2 == 0.0
    assert math.isnan(run.convergence_rate)


def test_config_construction():
    config = {
        "dim": 2,
        "radius": 0.5,
        "sigma": 2.0,
        "modes": [{"degree": 2, "order": 1, "alpha_in": 1.0}],
        "t0": 0.02,
        "levels": 1,
        "radial_points": 64,
        "angular_modes": 8,
    }
    family = family_from_config(config)
    assert family.params == PARAMS
    assert family.inner_shape.terms == ((2, 1, 1.0),)
    assert family.outer_shape.terms == ()
    run = run_from_config(config)
    assert run.radial_points == 64
    assert len(run.t_samples) == 5


def test_config_requires_radius():
    with pytest.raises(KeyError) as excinfo:
        family_from_config({"sigma": 2.0})
    assert str(excinfo.value) == "missing required key 'radius'"
