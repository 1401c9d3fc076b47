"""Finite-difference energy oracle on perturbed domains (fast grids)."""

import gc
import json
import math
import sys
import threading
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twophase_torsion import pde_oracle
from twophase_torsion.exact_state import baseline_energy
from twophase_torsion.params import ModeIndex, PerturbationSpec, ProblemParams
from twophase_torsion.pde_oracle import (
    InterfaceOrderingError,
    PerturbedDomainFamily,
    SolveError,
    angular_operator,
    differentiate_energy,
    family_from_config,
    run_from_config,
    solve_energy,
)
from twophase_torsion.second_variation import assemble_spectrum
from twophase_torsion.stability import classify

PARAMS = ProblemParams(dim=2, core_radius=0.5, sigma=2.0)
# cos theta on the interface and sin theta on the outer boundary
DEGREE_ONE = PerturbedDomainFamily(
    PARAMS, PerturbationSpec({ModeIndex(1, 1): (1.0, 0.0), ModeIndex(1, 2): (0.0, 1.0)})
)


def _built_workspaces(monkeypatch):
    """Weak references to each workspace built from here on; a workspace
    whose checks refuse it is not built."""
    built = []

    class Recorded(pde_oracle._Workspace):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(weakref.ref(self))

    monkeypatch.setattr(pde_oracle, "_Workspace", Recorded)
    return built


def test_spectral_diff_matrix_differentiates_trig_polynomials():
    m = 32
    theta = 2.0 * math.pi * np.arange(m) / m
    diff, eigen, _, _ = angular_operator(m)
    for k in (1, 3, 11):
        assert diff @ np.cos(k * theta) == pytest.approx(
            -k * np.sin(k * theta), abs=1e-11
        )
        assert diff @ np.sin(k * theta) == pytest.approx(
            k * np.cos(k * theta), abs=1e-11
        )
    assert diff @ np.ones(m) == pytest.approx(np.zeros(m), abs=1e-12)
    # D^T D takes mode j to eigen[j] times itself, and the Nyquist mode to 0
    for j, value in enumerate(eigen):
        for wave in (np.cos(j * theta), np.sin(j * theta)):
            assert diff.T @ diff @ wave == pytest.approx(value * wave, abs=1e-10)
    assert eigen[-1] == 0.0 and eigen[:-1] == pytest.approx(np.arange(m // 2) ** 2)


@pytest.mark.parametrize("m", [4, 6, 32, 64])
def test_spectral_diff_matrix_is_an_exact_antisymmetric_circulant(m):
    # every workspace of one grid shares one angular operator, built once,
    # so no caller may write to it; a run reads none
    angular_operator.cache_clear()
    work = pde_oracle._Workspace(DEGREE_ONE, 4, m)
    differentiate_energy(DEGREE_ONE, 4, m)
    solve_energy(DEGREE_ONE.at(0.01), 4, m)
    info = angular_operator.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    operator = work.angular
    assert pde_oracle._Workspace(DEGREE_ONE.at(0.01), 4, m).angular is operator
    diff = operator.diff
    assert not any(array.flags.writeable for array in operator)
    assert np.array_equal(diff, -diff.T)
    for k in range(m):
        assert np.array_equal(diff[k], np.roll(diff[0], k))
    assert diff[m // 2, 0] == 0.0  # the offset whose cotangent is cot(pi/2)


@pytest.mark.parametrize("m", [4, 6, 32, 64])
def test_the_real_fourier_pair_is_rfft_and_irfft(m):
    # the preconditioner's cos and sin coefficients are rfft's real part and
    # negated imaginary part, and synthesis inverts them as irfft does
    _, _, analysis, synthesis = angular_operator(m)
    rings = np.random.default_rng(m).standard_normal((3, m))
    spectrum = np.fft.rfft(rings)
    cos_part, sin_part = analysis @ rings.T
    assert np.abs(cos_part.T - spectrum.real).max() <= 1e-14 * m
    assert np.abs(sin_part.T + spectrum.imag).max() <= 1e-14 * m
    # sin(j theta) vanishes exactly for the constant and the Nyquist mode
    assert not analysis[1, 0].any() and not analysis[1, -1].any()
    coefficients = (analysis @ rings.T).reshape(m + 2, 3)
    assert np.abs(coefficients.T @ synthesis - rings).max() <= 1e-14
    assert np.abs(coefficients.T @ synthesis - np.fft.irfft(spectrum, m)).max() <= 1e-14


def test_normal_speed_evaluation():
    spec = PerturbationSpec({ModeIndex(2, 1): (3.0, 0.0)})
    theta = np.linspace(0.0, 2.0 * math.pi, 17)
    (g, dg), (g_out, dg_out) = pde_oracle._normal_speeds(spec, theta)
    expected = 3.0 * np.cos(2.0 * theta) / math.sqrt(math.pi)
    assert g == pytest.approx(expected, abs=1e-14)
    assert dg == pytest.approx(-6.0 * np.sin(2.0 * theta) / math.sqrt(math.pi), abs=1e-13)
    assert not g_out.any() and not dg_out.any()
    # the outer boundary reads the second coefficient
    outer = PerturbationSpec({ModeIndex(2, 1): (0.0, 3.0)})
    (g_in, _), (g, _) = pde_oracle._normal_speeds(outer, theta)
    assert not g_in.any()
    assert g == pytest.approx(expected, abs=1e-14)
    family = PerturbedDomainFamily(PARAMS, spec)
    # degree 2 is resolved on 8 angles, and not on 4
    assert pde_oracle._moving_modes(spec, 8) == [(ModeIndex(2, 1), (3.0, 0.0))]
    with pytest.raises(ValueError, match="^angular_modes too small for the perturbation degree$"):
        pde_oracle._moving_modes(spec, 4)
    # L^2 mean square of 3 Y_{2,1} over the circle, 9 / (2 pi): the
    # exact-area radius is sqrt(rho_0^2 + 2 rho_0 t g + t^2 (g^2 - 9/(2 pi)))
    t = 0.01
    rho_in, _, _, _ = family.at(t).boundary_radii(theta)
    radicand = 0.25 + 2.0 * 0.5 * t * expected + t * t * (expected**2 - 9.0 / (2.0 * math.pi))
    assert rho_in == pytest.approx(np.sqrt(radicand), rel=1e-14)


def test_harmonics_are_orthonormal_on_the_circle():
    thetas = 2.0 * math.pi * np.arange(400) / 400
    weight = 2.0 * math.pi / 400
    indices = [ModeIndex(0, 1), ModeIndex(1, 1), ModeIndex(1, 2), ModeIndex(3, 2)]
    values = {
        index: pde_oracle._normal_speeds(
            PerturbationSpec({index: (1.0, 0.0)}), thetas
        )[0][0]
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


def test_family_validates_its_spec(monkeypatch):
    # an order the circle does not have is named before the dimension
    bad_order = PerturbationSpec({ModeIndex(2, 3): (1.0, 0.0)})
    with pytest.raises(ValueError, match="^order 3 exceeds multiplicity 2"):
        PerturbedDomainFamily(ProblemParams(3, 0.5, 2.0), bad_order)
    with pytest.raises(ValueError, match="restricted to dim = 2"):
        PerturbedDomainFamily(ProblemParams(3, 0.5, 2.0), PerturbationSpec({}))
    # the exact-area family preserves areas of mean-free motions only
    mean = PerturbationSpec({ModeIndex(0, 1): (1.0, 0.0)})
    with pytest.raises(ValueError, match="^exact_area needs modes of degree >= 1; "):
        PerturbedDomainFamily(PARAMS, mean)
    assert PerturbedDomainFamily(PARAMS, mean, exact_area=False).spec == mean
    # a degree-0 record with zero coefficients moves nothing
    still = PerturbationSpec({ModeIndex(0, 1): (0.0, 0.0)})
    assert PerturbedDomainFamily(PARAMS, still).exact_area
    # only nonzero coefficients count towards the resolved degree: a still
    # degree 40 next to a moving degree 3 is resolved on 8 angles
    zero = PerturbationSpec({ModeIndex(40, 1): (0.0, 0.0), ModeIndex(3, 2): (0.0, 1.0)})
    family = PerturbedDomainFamily(PARAMS, zero)
    assert solve_energy(family.at(0.01), radial_points=4, angular_modes=8) > 0.0
    # a moving degree 4 is not, and is refused before a workspace is built
    moving = PerturbedDomainFamily(PARAMS, PerturbationSpec({ModeIndex(4, 1): (1.0, 0.0)}))
    built = _built_workspaces(monkeypatch)
    with pytest.raises(ValueError, match="^angular_modes too small for the perturbation degree$"):
        solve_energy(moving, radial_points=4, angular_modes=8)
    assert built == []


def test_family_boundary_radii_at_zero_are_concentric():
    spec = PerturbationSpec({ModeIndex(2, 1): (1.0, 1.0)})
    family = PerturbedDomainFamily(PARAMS, spec)
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
    family = PerturbedDomainFamily(PARAMS, spec)
    base_in, base_out = enclosed_areas(family.at(0.0))
    assert base_in == pytest.approx(math.pi * 0.25, rel=1e-12)
    assert base_out == pytest.approx(math.pi, rel=1e-12)
    for t in (0.02, -0.05, 0.1):
        area_in, area_out = enclosed_areas(family.at(t))
        assert area_in == pytest.approx(base_in, rel=1e-12)
        assert area_out == pytest.approx(base_out, rel=1e-12)


def test_linear_family_changes_area_at_second_order():
    spec = PerturbationSpec({ModeIndex(2, 1): (1.0, 0.0)})
    family = PerturbedDomainFamily(PARAMS, spec, exact_area=False)
    base_in, _ = enclosed_areas(family.at(0.0))
    t = 0.1
    area_in, _ = enclosed_areas(family.at(t))
    # mean-zero linear boundary motion: area drift = (t^2/2) |g|_2^2
    drift = 0.5 * t * t * spec.coefficients(ModeIndex(2, 1))[0] ** 2
    assert area_in - base_in == pytest.approx(drift, rel=1e-10)


def test_interface_crossing_is_detected():
    spec = PerturbationSpec({ModeIndex(2, 1): (5.0, 0.0)})
    family = PerturbedDomainFamily(PARAMS, spec)
    theta = np.linspace(0.0, 2.0 * math.pi, 64)
    with pytest.raises(InterfaceOrderingError):
        family.at(0.45).boundary_radii(theta)
    # an outer boundary that dips inside the core is refused in one line
    outer = PerturbedDomainFamily(PARAMS, PerturbationSpec({ModeIndex(2, 1): (0.0, 1.0)}))
    with pytest.raises(InterfaceOrderingError, match="^interface ordering 0 < rho_D < rho_Omega violated$"):
        solve_energy(outer.at(0.9), 16, 8)


def test_solve_energy_matches_the_closed_form_on_coarse_grids():
    for sigma in (1.0, 2.0, 0.5):
        params = ProblemParams(2, 0.5, sigma)
        family = PerturbedDomainFamily(params, PerturbationSpec({}))
        energy = solve_energy(family, radial_points=128, angular_modes=16)
        exact = baseline_energy(params)
        assert energy == pytest.approx(exact, rel=5e-5)


def test_solve_energy_validates_the_angular_grid(monkeypatch):
    spec = PerturbationSpec({ModeIndex(9, 1): (0.1, 0.0)})
    family = PerturbedDomainFamily(PARAMS, spec)
    built = _built_workspaces(monkeypatch)
    with pytest.raises(ValueError, match="even"):
        solve_energy(family, radial_points=64, angular_modes=15)
    with pytest.raises(ValueError, match=">= 4"):
        solve_energy(family, radial_points=64, angular_modes=2)
    with pytest.raises(ValueError, match="^radial_points must be >= 4$"):
        solve_energy(family, radial_points=3, angular_modes=32)
    with pytest.raises(ValueError, match="too small for the perturbation"):
        solve_energy(family, radial_points=64, angular_modes=16)
    # each is refused before the grid's workspace is built
    assert built == []


def test_differentiate_energy_returns_a_complete_run():
    spec = PerturbationSpec({ModeIndex(2, 1): (1.0, 0.0)})
    family = PerturbedDomainFamily(PARAMS, spec)
    run = differentiate_energy(family, radial_points=96, angular_modes=16)
    assert run.energy == pytest.approx(baseline_energy(PARAMS), rel=1e-4)
    assert abs(run.d1) < 1e-6
    # coarse-grid d2 still lands within a few percent of the target
    assert run.d2 == pytest.approx(-0.1077127659574468, rel=0.05)
    document = run.to_document()
    assert document["radial_points"] == 96
    assert (document["t_samples"], document["energies"]) == ([0.0], [run.energy])
    assert document["d2"] == run.d2


def test_differentiate_energy_validates_input(monkeypatch):
    family = PerturbedDomainFamily(PARAMS, PerturbationSpec({}))
    built = _built_workspaces(monkeypatch)
    # a run differentiates at t = 0, so a family at t = 0.3 is refused, not read at 0
    with pytest.raises(ValueError, match=r"^the family must be at t = 0, not t = 0\.3$"):
        differentiate_energy(family.at(0.3))
    with pytest.raises(ValueError, match="^angular_modes must be even and >= 4$"):
        differentiate_energy(family, 16, 7)
    with pytest.raises(ValueError, match="^radial_points must be >= 4$"):
        differentiate_energy(family, 3, 8)
    # the angles bound the degree, as they do for a solve: a moving degree 4
    # is refused on 8 angles, and a still degree 40 is not
    moving = PerturbationSpec({ModeIndex(4, 1): (1.0, 0.0), ModeIndex(40, 1): (0.0, 0.0)})
    with pytest.raises(ValueError, match="^angular_modes too small for the perturbation degree$"):
        differentiate_energy(PerturbedDomainFamily(PARAMS, moving), 16, 8)
    assert differentiate_energy(PerturbedDomainFamily(PARAMS, moving), 16, 10).d2 < 0.0
    # a run builds no workspace
    assert built == []


@pytest.mark.parametrize(
    "modes, exact_area, finite",
    [
        # g overflows to inf on the outer boundary
        ({ModeIndex(k, 1): (0.0, 1.79e308) for k in (0, 1, 2)}, False, (False, False, True)),
        # g' = -4e308 sin 4 theta/sqrt(pi) overflows where g does not
        ({ModeIndex(4, 1): (1e308, 0.0)}, False, (True, False, True)),
        # the circle mean m of g^2 = 1e400 cos^2 theta/pi overflows
        ({ModeIndex(1, 1): (1e200, 0.0)}, True, (True, True, False)),
    ],
)
def test_a_jet_of_a_non_finite_motion_is_refused(modes, exact_area, finite):
    # a solve's motion on the grid overflows; the run reads no angle, and
    # bounds |g| and |g'| over the circle by the coefficients, which
    # overflow there too
    family = PerturbedDomainFamily(PARAMS, PerturbationSpec(modes), exact_area=exact_area)
    work = pde_oracle._Workspace(family, 16, 16)
    _, g, dg, mean_square = work.motion
    assert tuple(bool(np.isfinite(x).all()) for x in (g, dg, mean_square)) == finite
    with pytest.raises(InterfaceOrderingError, match="^perturbed radius is not finite$"):
        differentiate_energy(family, 16, 16)


def test_solve_energy_raises_when_the_energy_is_not_finite(monkeypatch):
    # an outer circle of radius 1e97: the energy, of order rho^4, overflows
    huge = PerturbationSpec({ModeIndex(0, 1): (0.0, 1e100)})
    overflowing = PerturbedDomainFamily(PARAMS, huge, exact_area=False).at(0.01)
    with pytest.raises(SolveError, match="^energy is not finite$"):
        solve_energy(overflowing, radial_points=16, angular_modes=8)
    # the preconditioner's tridiagonal factorization breaks down
    spec = PerturbationSpec({ModeIndex(2, 1): (1.0, 0.0)})
    monkeypatch.setattr(pde_oracle, "cho_factor", lambda d, e, **_: (d, e, 1))
    with pytest.raises(SolveError, match="^block factorization failed$"):
        solve_energy(PerturbedDomainFamily(PARAMS, spec), radial_points=16, angular_modes=8)


def test_the_family_refuses_sigma_above_the_ceiling():
    # above it solves fail in the factorization or, worse, answer wrong:
    # E = 0.402 for 0.390 at R = 0.3 and sigma = 1e30 on 64x16
    spec = PerturbationSpec({ModeIndex(2, 1): (0.0, 1.0)})
    ceiling = pde_oracle.SIGMA_CEILING
    for sigma in (math.nextafter(ceiling, math.inf), 3.2e59, 1e308):
        with pytest.raises(ValueError, match=r"^sigma = \S+ exceeds the oracle's ceiling 1e\+12$"):
            PerturbedDomainFamily(ProblemParams(2, 0.3, sigma), spec)
    # at the ceiling E(0) is the sigma -> infinity limit's to rounding
    stiff, limit = (
        solve_energy(PerturbedDomainFamily(ProblemParams(2, 0.3, sigma), spec), 256, 32)
        for sigma in (ceiling, 1e9)
    )
    assert stiff == pytest.approx(limit, rel=1e-8)


_CHO_SOLVE, _STIFFNESS = pde_oracle.cho_solve, pde_oracle._stiffness
NOT_SPD = "system is not positive definite"
PERTURBED = PerturbedDomainFamily(
    PARAMS, PerturbationSpec({ModeIndex(2, 1): (1.0, 0.5), ModeIndex(3, 2): (0.0, 1.0)})
)


@pytest.mark.parametrize(
    "broken, message",
    [
        # a preconditioner that returns zeros: r.z = 0
        (("cho_solve", lambda d, e, b, **_: (np.zeros_like(b), 0)), NOT_SPD),
        # one that negates its solution: r.z < 0
        (("cho_solve", lambda d, e, b, **_: (-_CHO_SOLVE(d, e, b)[0], 0)), NOT_SPD),
        (("cho_solve", lambda d, e, b, **_: (np.full_like(b, np.nan), 0)), "energy is not finite"),
        # an operator that is negative definite: p.Kp < 0
        (("_stiffness", lambda work, rows, v: -_STIFFNESS(work, rows, v)), NOT_SPD),
        # a non-symmetric operator: the iteration cannot converge
        (("_stiffness", lambda work, rows, v: v + 10.0 * (np.roll(v, 1) - np.roll(v, -1))),
         "iteration did not converge"),
    ],
)
def test_a_broken_iteration_never_returns_an_energy(monkeypatch, broken, message):
    monkeypatch.setattr(pde_oracle, *broken)
    with pytest.raises(SolveError, match=f"^{message}$"):
        solve_energy(PERTURBED.at(0.03), radial_points=16, angular_modes=8)


def _cell_rows_at(work, t):
    """Copies of the cell rows and the load of the workspace's family at t,
    as solve_energy forms them in the workspace."""
    rho, drho = work.family._radii(work.motion, t)
    rows, load = pde_oracle._cell_rows(work, rho, drho)
    return rows.copy(), load.copy()


def _dense_at(work, t):
    """The dense K, from the operator's columns, and the load of the
    workspace's family at t."""
    rows, load = _cell_rows_at(work, t)
    # each product is written to the workspace, so each column is a copy
    columns = [pde_oracle._stiffness(work, rows, unit).copy() for unit in np.eye(load.size)]
    return np.column_stack(columns), load


def _dense_system(family, radial_points, angular_modes):
    """The dense K, the load and the workspace of a solve."""
    work = pde_oracle._Workspace(family, radial_points, angular_modes)
    return (*_dense_at(work, family.t), work)


def _assert_cg_equals_a_dense_solve(family, radial_points, angular_modes):
    matrix, load, _ = _dense_system(family, radial_points, angular_modes)
    assert np.abs(matrix - matrix.T).max() <= 1e-14 * np.abs(matrix).max()
    energy = solve_energy(family, radial_points, angular_modes)
    exact = np.linalg.solve(matrix, load)
    assert energy == pytest.approx(load @ exact, rel=1e-12)


@pytest.mark.parametrize("radial_points", [16, 4])
def test_conjugate_gradients_equal_a_dense_solve(radial_points):
    # radial_points = 4 leaves three rings of unknowns, so the ring after the
    # center is next to the last one
    _assert_cg_equals_a_dense_solve(PERTURBED.at(0.03), radial_points, 8)


# (R, log sigma) where a t = 0 solve on 4x4, outer degree 1, leaves a
# residual of exactly zero after its first step; about 1 in 25000 points does
EXACT_FIRST_STEP = (0.2661550595493104, -1.908618127918362)


def test_an_exact_first_step_stops_on_the_zero_residual(monkeypatch):
    # at t = 0 the preconditioner is the operator, so the first step solves
    # the system; here it does so exactly, and the second step stops on the
    # zero residual before it applies the operator again
    spec = PerturbationSpec({ModeIndex(1, 1): (0.0, 1.0)})
    radius, log_sigma = EXACT_FIRST_STEP
    family = PerturbedDomainFamily(ProblemParams(2, radius, math.exp(log_sigma)), spec)
    calls = _count_calls(monkeypatch, "_stiffness")
    solve_energy(family, 4, 4)
    assert calls == {"_stiffness": 1}


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
# the t = 0 solve of test_an_exact_first_step_stops_on_the_zero_residual
@example(
    radius=EXACT_FIRST_STEP[0],
    log_sigma=EXACT_FIRST_STEP[1],
    grid=(4, 1),
    order=1,
    alphas=(0.0, 1.0),
    t=0.0,
    radial_points=4,
)
def test_conjugate_gradients_equal_a_dense_solve_everywhere(
    radius, log_sigma, grid, order, alphas, t, radial_points
):
    angular_modes, degree = grid
    params = ProblemParams(2, radius, math.exp(log_sigma))
    spec = PerturbationSpec({ModeIndex(degree, order): alphas})
    family = PerturbedDomainFamily(params, spec).at(t)
    _assert_cg_equals_a_dense_solve(family, radial_points, angular_modes)


def _scalar_cell_rows(family, radial_points, angular_modes):
    """_cell_rows transcribed cell by cell from the module docstring: A11,
    A12 and A22 at each cell's midpoint, and the exact load of its
    piecewise-linear Jacobian phi phi_s."""
    radius, sigma = family.params.core_radius, family.params.sigma
    m = angular_modes
    dtheta = 2.0 * math.pi / m
    theta = 2.0 * math.pi * np.arange(m) / m
    rho_in, drho_in, rho_out, drho_out = family.boundary_radii(theta)
    s_nodes, j_in = pde_oracle._radial_grid(radius, radial_points)
    rows = np.zeros((3, radial_points, m))
    nodes = np.zeros((radial_points + 1, m))
    for cell in range(radial_points):
        left, right = s_nodes[cell], s_nodes[cell + 1]
        h, s = right - left, 0.5 * (left + right)
        for k in range(m):
            if cell < j_in:
                conductivity = sigma
                phi_s = rho_in[k] / radius
                phi_theta = s * drho_in[k] / radius
                phi = [x * phi_s for x in (left, s, right)]
            else:
                conductivity = 1.0
                phi_s = (rho_out[k] - rho_in[k]) / (1.0 - radius)
                phi_theta = drho_in[k] + (s - radius) * (drho_out[k] - drho_in[k]) / (1.0 - radius)
                phi = [rho_in[k] + (x - radius) * phi_s for x in (left, s, right)]
            a11 = (phi[1] ** 2 + phi_theta**2) / (phi[1] * phi_s)
            a12 = -phi_theta / phi[1]
            a22 = phi_s / phi[1]
            rows[:, cell, k] = conductivity * np.array(
                [dtheta / h * a11, 0.5 * dtheta * a12, dtheta * h / 4.0 * a22]
            )
            jacobian_left, jacobian_right = phi[0] * phi_s, phi[2] * phi_s
            nodes[cell, k] += dtheta * h * (2.0 * jacobian_left + jacobian_right) / 6.0
            nodes[cell + 1, k] += dtheta * h * (jacobian_left + 2.0 * jacobian_right) / 6.0
    load = np.concatenate([[nodes[0].sum()], nodes[1:-1].ravel()])
    return rows, load


@settings(max_examples=150, deadline=None)
@given(
    radius=st.floats(0.05, 0.95),
    log_sigma=st.floats(math.log(1e-4), math.log(pde_oracle.SIGMA_CEILING)),
    grid=ANGULAR_GRIDS,
    order=st.integers(1, 2),
    alphas=st.sampled_from([(1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]),  # inner, outer, coupled
    # t as a share of the largest amplitude that keeps both radii ordered, and
    # no share so small that the rows' shear and theta terms are subnormal
    reach=st.one_of(st.just(0.0), st.floats(-1.0, 1.0).filter(lambda x: abs(x) >= 1e-12)),
    exact_area=st.booleans(),
    radial_points=st.integers(4, 24),
)
# the interface at the first node (j_in = 1) and at the last (j_in = n - 1)
@example(radius=0.05, log_sigma=0.0, grid=(4, 1), order=1, alphas=(1.0, 1.0),
         reach=0.5, exact_area=True, radial_points=4)
@example(radius=0.95, log_sigma=0.0, grid=(12, 5), order=2, alphas=(1.0, 0.0),
         reach=-0.5, exact_area=False, radial_points=24)
def test_cell_rows_equal_a_scalar_transcription(
    radius, log_sigma, grid, order, alphas, reach, exact_area, radial_points
):
    angular_modes, degree = grid
    params = ProblemParams(2, radius, math.exp(log_sigma))
    spec = PerturbationSpec({ModeIndex(degree, order): alphas})
    # |g| <= 1/sqrt(pi) per boundary, so each radius moves by less than the
    # gap min(R, 1 - R)/2 at |t| <= 0.8 min(R, 1 - R)
    t = 0.8 * min(radius, 1.0 - radius) * reach
    family = PerturbedDomainFamily(params, spec, exact_area=exact_area).at(t)
    work = pde_oracle._Workspace(family, radial_points, angular_modes)
    rows, load = _cell_rows_at(work, t)
    expected_rows, expected_load = _scalar_cell_rows(family, radial_points, angular_modes)
    ulp = 4.0 * sys.float_info.epsilon
    for row, expected in zip(rows, expected_rows):
        assert np.abs(row - expected).max() <= ulp * np.abs(expected).max()
    assert np.abs(load - expected_load).max() <= ulp * np.abs(expected_load).max()


def _mirror_image(spec, angle):
    """spec's speeds reflected about the line at angle: g(2 angle - theta).
    Each degree k's (cos, sin) pair turns by the reflection of angle k angle,
    and degree 0 stays."""
    modes = {}
    for degree in {index.degree for index in spec.modes}:
        cos_pair = spec.coefficients(ModeIndex(degree, 1))
        if degree == 0:
            modes[ModeIndex(0, 1)] = cos_pair
            continue
        sin_pair = spec.coefficients(ModeIndex(degree, 2))
        c, s = math.cos(2.0 * degree * angle), math.sin(2.0 * degree * angle)
        modes[ModeIndex(degree, 1)] = tuple(c * a + s * b for a, b in zip(cos_pair, sin_pair))
        modes[ModeIndex(degree, 2)] = tuple(s * a - c * b for a, b in zip(cos_pair, sin_pair))
    return PerturbationSpec(modes)


def _jet_workspace(exact_area, mirrored=False):
    """A 16x8 workspace of PERTURBED's modes, of period 1 and even about pi/2
    on 8 angles, or of their mirror image about pi/8, which maps the 8 angles
    onto themselves and mixes both orders of each degree; without exact_area
    with a degree-0 mode besides, which moves the mean radii."""
    modes = dict(PERTURBED.spec.modes)
    if not exact_area:
        modes[ModeIndex(0, 1)] = (0.3, -0.2)
    spec = PerturbationSpec(modes)
    if mirrored:
        spec = _mirror_image(spec, math.pi / 8)
    family = PerturbedDomainFamily(PARAMS, spec, exact_area=exact_area)
    return pde_oracle._Workspace(family, 16, 8)


def _taylor_terms(work, h=1e-3):
    """The t^0, t^1 and t^2 Taylor coefficients of the dense K and of the
    load of the workspace's family at t = 0, by five-point differences of
    _dense_at at t = 0, +-h and +-2h: h^4 error and about eps/h^2 rounding."""
    (k_2m, q_2m), (k_m, q_m), (k_0, q_0), (k_p, q_p), (k_2p, q_2p) = (
        _dense_at(work, t) for t in (-2.0 * h, -h, 0.0, h, 2.0 * h)
    )
    first = [(x_2m - 8.0 * x_m + 8.0 * x_p - x_2p) / (12.0 * h) for x_2m, x_m, x_p, x_2p in
             ((k_2m, k_m, k_p, k_2p), (q_2m, q_m, q_p, q_2p))]
    second = [(-x_2m + 16.0 * x_m - 30.0 * x_0 + 16.0 * x_p - x_2p) / (24.0 * h * h)
              for x_2m, x_m, x_0, x_p, x_2p in
              ((k_2m, k_m, k_0, k_p, k_2p), (q_2m, q_m, q_0, q_p, q_2p))]
    return (k_0, q_0), first, second


@pytest.mark.parametrize("mirrored", [False, True])
@pytest.mark.parametrize("exact_area", [True, False])
def test_the_jet_is_the_t_derivatives_of_the_cell_rows(exact_area, mirrored):
    # the run reads the rows' jet in closed form, per unit speed and per
    # degree, and never forms an angle; its d1 and d2 are the Taylor terms
    # of the dense system that the rows and the load (_cell_rows) make on
    # the angular grid: d1 = 2 q_1.u - u.K_1 u and
    # d2 = 4 q_2.u - 2 u.K_2 u + 2 w.K_0^-1 w,
    # with u = K_0^-1 q_0 and w = q_1 - K_1 u.  Two degrees with both
    # boundaries moving, and a degree-0 mode without exact_area, or their
    # mirror image.  The differences' error here is at most 1.1e-11 E(0) in
    # d1 and 2.8e-9 in d2
    work = _jet_workspace(exact_area, mirrored)
    (k_0, q_0), (k_1, q_1), (k_2, q_2) = _taylor_terms(work)
    u = np.linalg.solve(k_0, q_0)
    w = q_1 - k_1 @ u
    d1 = 2.0 * q_1 @ u - u @ k_1 @ u
    d2 = 4.0 * q_2 @ u - 2.0 * u @ k_2 @ u + 2.0 * w @ np.linalg.solve(k_0, w)
    run = differentiate_energy(work.family, *work.grid)
    assert run.energy == pytest.approx(q_0 @ u, rel=1e-13)
    assert abs(run.d1 - d1) <= 1e-8 * run.energy
    assert abs(run.d2 - d2) <= 1e-8 * max(1.0, abs(d2))
    if exact_area:
        assert run.d1 == 0.0
    if mirrored:
        # a mirror image of the domains, whose run is the unmirrored one's
        unmirrored = differentiate_energy(_jet_workspace(exact_area).family, *work.grid)
        assert run.energy == pytest.approx(unmirrored.energy, rel=1e-13)
        assert abs(run.d1 - unmirrored.d1) <= 1e-13 * run.energy
        assert run.d2 == pytest.approx(unmirrored.d2, rel=1e-12)


@pytest.mark.parametrize("symmetry", ["mirrored", "unmirrored", "sector"])
def test_the_concentric_solution_is_radial(symmetry):
    # at t = 0 K_0 and q_0 are the same at every angle, so the dense solve
    # of K_0 u = q_0 on a solve's full angular grid is one value per ring,
    # whatever the family's symmetry, and its energy is the run's E(0) from
    # the flux, area Delta = -cumsum(q_0), which solves no chain
    if symmetry == "sector":
        # cos 2 theta on the interface and sin 4 theta on the outer boundary,
        # of period 2 on 16 angles, with no axis of both
        modes = {ModeIndex(2, 1): (1.0, 0.0), ModeIndex(4, 2): (0.0, 1.0)}
        family = PerturbedDomainFamily(PARAMS, PerturbationSpec(modes))
        work = pde_oracle._Workspace(family, 16, 16)
    elif symmetry == "unmirrored":
        # no grid angle is a mirror axis of both cos theta and sin theta
        work = pde_oracle._Workspace(DEGREE_ONE, 16, 8)
    else:
        work = _jet_workspace(True)
    k_0, q_0 = _dense_at(work, 0.0)
    u = np.linalg.solve(k_0, q_0)
    rings = u[1:].reshape(work.grid[0] - 1, -1)
    assert np.abs(rings - rings[:, :1]).max() <= 1e-13 * np.abs(u).max()
    assert np.abs(rings[0, 0] - u[0]) > 0.0  # the center is a node of its own
    run = differentiate_energy(work.family, *work.grid)
    assert run.energy == pytest.approx(q_0 @ u, rel=1e-13)


def test_a_workspace_builds_its_radial_factors_once_per_radius(monkeypatch):
    # a run builds its radial arrays per unit angle and its load weights
    # once; each solve's workspace builds its own radial factors, with their
    # load weights, once
    names = ("_radial_factors", "_load_weights")
    calls = _count_calls(monkeypatch, *names)
    spec = PerturbationSpec({ModeIndex(3, 2): (1.0, 1.0)})
    for params, built in [(PARAMS, 1), (PARAMS, 2), (ProblemParams(2, 0.3, 2.0), 3)]:
        family = PerturbedDomainFamily(params, spec)
        differentiate_energy(family, radial_points=16, angular_modes=8)
        assert calls == {"_radial_factors": 0, "_load_weights": built}
    for solved in (1, 2):
        solve_energy(family.at(0.01), 16, 8)
        assert calls == {"_radial_factors": solved, "_load_weights": 3 + solved}
    # read by every row a workspace forms, so no caller may write to them
    work = pde_oracle._Workspace(family, 16, 8)
    _, core, shell, weights = work.factors
    assert not any(array.flags.writeable for array in (*core, *shell, weights))
    # the arrays the solves write are views of one allocation (module docstring)
    arrays = (work.rows, work.load, work.nodes, work.cells, work.rhs, work.coefficients, work.scaled)
    assert len({id(array.base) for array in arrays}) == 1


def test_a_workspace_computes_its_normal_speeds_once_per_spec(monkeypatch):
    # a run reads no angle, so it computes no normal speeds; a solve
    # computes its spec's once, and a later solve of the spec, of an equal
    # one or of another computes its own
    spec = PerturbationSpec({ModeIndex(2, 1): (1.0, 1.0)})
    calls = _count_calls(monkeypatch, "_normal_speeds")
    for params, modes, computed in [
        (PARAMS, spec.modes, 1),
        (ProblemParams(2, 0.3, 0.5), spec.modes, 2),
        (PARAMS, dict(spec.modes), 3),
        (PARAMS, {ModeIndex(2, 1): (1.0, 0.0)}, 4),
    ]:
        family = PerturbedDomainFamily(params, PerturbationSpec(modes))
        differentiate_energy(family, radial_points=16, angular_modes=8)
        solve_energy(family.at(0.01), 16, 8)
        assert calls == {"_normal_speeds": computed}


def test_a_runs_workspace_is_freed_when_the_run_returns(monkeypatch):
    # a run builds no workspace, and nothing outlives a solve: no workspace
    # is kept for a later one
    built = _built_workspaces(monkeypatch)
    for angular_modes in range(4, 20, 2):
        differentiate_energy(DEGREE_ONE, 4, angular_modes)
        solve_energy(DEGREE_ONE.at(0.01), 4, angular_modes)
    gc.collect()
    assert len(built) == 8
    assert not any(work() is not None for work in built)


def test_threads_on_one_grid_do_not_share_a_workspace():
    # a solve's workspace keeps the speeds of its last spec: sin 3 theta
    # would read the speeds of cos theta from a shared one.  Runs build no
    # workspace, and solves share the grid's angular operator read-only
    families = [
        PerturbedDomainFamily(PARAMS, PerturbationSpec({ModeIndex(2, 1): (1.0, 0.0)})),
        PerturbedDomainFamily(ProblemParams(2, 0.3, 0.25), PerturbationSpec({ModeIndex(3, 2): (0.0, 1.0)})),
        PerturbedDomainFamily(ProblemParams(2, 0.4, 0.5), PerturbationSpec({ModeIndex(1, 1): (1.0, 1.0)})),
        DEGREE_ONE,
    ]

    def energies(family):
        run = differentiate_energy(family, radial_points=128, angular_modes=16)
        return run.energy, run.d1, run.d2, solve_energy(family.at(0.01), 128, 16)

    alone = [energies(family) for family in families]
    barrier = threading.Barrier(len(families))
    together = [[] for _ in families]

    def run(index):
        barrier.wait()
        for _ in range(4):
            together[index].append(energies(families[index]))

    threads = [threading.Thread(target=run, args=(index,)) for index in range(len(families))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert together == [[expected] * 4 for expected in alone]


@pytest.mark.parametrize(
    "radius, sigma, radial_points, angular_modes",
    [(0.5, 2.0, 4, 4), (0.3, 0.25, 12, 8), (0.7, 4.0, 16, 12)],
)
def test_the_preconditioner_is_the_inverse_of_the_concentric_operator(
    monkeypatch, radius, sigma, radial_points, angular_modes
):
    params = ProblemParams(2, radius, sigma)
    spec = PerturbationSpec({ModeIndex(1, 2): (1.0, 1.0)})
    concentric = PerturbedDomainFamily(params, spec)  # at t = 0
    matrix, load, work = _dense_system(concentric, radial_points, angular_modes)
    # the preconditioner a t = 0 solve builds from its own rows' means
    rows = pde_oracle._cell_rows(work, *concentric._radii(work.motion, 0.0))[0]
    area, bend = rows[::2].mean(axis=-1)
    precondition = pde_oracle._preconditioner(work, pde_oracle._factor(work, area, bend))
    inverse = np.column_stack([precondition(unit).copy() for unit in np.eye(load.size)])
    exact = np.linalg.inv(matrix)
    assert np.abs(inverse - exact).max() <= 1e-13 * np.abs(exact).max()
    # so the first step of a t = 0 solve is exact, and the second step's
    # energy increment is below eps E
    calls = _count_calls(monkeypatch, "cho_solve", "_stiffness")
    solve_energy(concentric, radial_points, angular_modes)
    assert calls == {"cho_solve": 2, "_stiffness": 2}


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
    family = PerturbedDomainFamily(params, PerturbationSpec({mode: alphas}))
    for t, expected in zip((-0.01, 0.01), energies):
        assert solve_energy(family.at(t), 64, 16) == pytest.approx(expected, rel=1e-12)


# E(-0.05), E(0.05) at 64x16 from a one-sided block Cholesky sweep of the
# assembled block-tridiagonal matrix, an independent solver of the same scheme
SWEEP_ENERGIES = [
    (ProblemParams(2, 0.5, 0.25), ModeIndex(2, 2), (1.0, 1.0),
     (0.46530034035893381, 0.46530034035892981)),
    (ProblemParams(2, 0.7, 4.0), ModeIndex(1, 2), (0.0, 1.0),
     (0.32145180935565837, 0.32145180935565790)),
    (ProblemParams(2, 0.3, 4.0), ModeIndex(3, 2), (1.0, 0.0),
     (0.39018189973163003, 0.39018189973162950)),
]


@pytest.mark.parametrize("params, mode, alphas, energies", SWEEP_ENERGIES)
def test_solve_energy_matches_block_sweep_energies(params, mode, alphas, energies):
    family = PerturbedDomainFamily(params, PerturbationSpec({mode: alphas}))
    for t, expected in zip((-0.05, 0.05), energies):
        assert solve_energy(family.at(t), 64, 16) == pytest.approx(expected, rel=1e-12)


# far from the concentric configuration: a degree-15 core at t = 0.2 and an
# outer boundary at t = 0.7 at 256x32; energies from the same block Cholesky
# sweep.  Preconditioned by their own theta-averaged operators they take 51
# and 38 steps; the concentric K(0) alone would take 92 and 40
@pytest.mark.parametrize(
    "mode, alphas, t, expected",
    [
        (ModeIndex(15, 1), (1.0, 0.0), 0.2, 0.37498226071837704),
        (ModeIndex(2, 1), (0.0, 1.0), 0.7, 0.25265035871319600),
    ],
)
def test_hard_inputs_match_block_sweep_energies(monkeypatch, mode, alphas, t, expected):
    family = PerturbedDomainFamily(PARAMS, PerturbationSpec({mode: alphas}))
    calls = _count_calls(monkeypatch, "cho_solve")
    assert solve_energy(family.at(t), 256, 32) == pytest.approx(expected, rel=1e-12)
    assert calls["cho_solve"] <= 60


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


# the benchmark's oracle families: inner, outer and coupled channels of
# degrees 1-4 at 256x32
BENCH_LIKE = [
    (ProblemParams(2, radius, sigma), ModeIndex(degree, order), alphas)
    for radius, sigma, degree, order, alphas in [
        (0.3, 0.25, 1, 1, (1.0, 0.0)),
        (0.7, 4.0, 2, 2, (0.0, 1.0)),
        (0.5, 2.0, 3, 1, (1.0, 1.0)),
        (0.4, 0.5, 4, 2, (1.0, 1.0)),
        (0.6, 3.0, 4, 1, (0.0, 1.0)),
    ]
]


# and a motionless family, and a degree-0 family, which moves its radii
# linearly (exact_area false, the only family a degree-0 mode has)
FACTORED_ONCE = BENCH_LIKE + [
    (ProblemParams(2, 0.5, 2.0), ModeIndex(2, 1), (0.0, 0.0)),
    (ProblemParams(2, 0.5, 2.0), ModeIndex(0, 1), (1.0, 1.0)),
]


def _assert_one_chain_per_moving_degree(monkeypatch, family, chains):
    """A run of family builds no workspace, calls no _stiffness and no
    solve_energy, and factors and solves the given number of chains."""
    built = _built_workspaces(monkeypatch)
    names = ("cho_factor", "cho_solve", "_stiffness", "solve_energy")
    calls = _count_calls(monkeypatch, *names)
    run = differentiate_energy(family, radial_points=256, angular_modes=32)
    assert built == []
    assert calls == dict(zip(names, (chains, chains, 0, 0)))
    return run


@pytest.mark.parametrize("params, mode, alphas", FACTORED_ONCE)
def test_each_run_factors_once_and_solves_once_per_step(monkeypatch, params, mode, alphas):
    # a run solves at t = 0 alone, one degree at a time: one factorization
    # and one two-column solve of the degree's chain for its 2x2 form, none
    # for a motionless family, and none for degree 0, whose chain, mode 0's,
    # the flux inverts.  Only a degree-0 mode has d1 != 0
    spec = PerturbationSpec({mode: alphas})
    family = PerturbedDomainFamily(params, spec, exact_area=mode.degree > 0)
    chains = 1 if mode.degree and any(alphas) else 0
    run = _assert_one_chain_per_moving_degree(monkeypatch, family, chains)
    assert (run.d1 != 0.0) == (mode.degree == 0 and any(alphas))
    if not any(alphas):  # the motionless family's system is the same at every t
        assert run.d1 == run.d2 == 0.0


@pytest.mark.parametrize(
    "modes, chains",
    [
        # two distinct degrees, and degree 3's second order, which its chain serves too
        ({ModeIndex(2, 1): (1.0, 0.0), ModeIndex(3, 2): (0.0, 1.0)}, 2),
        ({ModeIndex(2, 1): (1.0, 0.0), ModeIndex(3, 1): (0.5, 0.5),
          ModeIndex(3, 2): (0.0, 1.0)}, 2),
        # both orders of one degree, and a still degree that the grid cannot resolve
        ({ModeIndex(4, 1): (1.0, 1.0), ModeIndex(4, 2): (-1.0, 0.5),
          ModeIndex(40, 1): (0.0, 0.0)}, 1),
        # a degree-0 mode beside degree 2, without exact_area
        ({ModeIndex(0, 1): (0.3, -0.2), ModeIndex(2, 2): (1.0, 1.0)}, 1),
    ],
)
def test_a_run_factors_one_chain_per_moving_degree(monkeypatch, modes, chains):
    exact_area = ModeIndex(0, 1) not in modes
    family = PerturbedDomainFamily(PARAMS, PerturbationSpec(modes), exact_area=exact_area)
    _assert_one_chain_per_moving_degree(monkeypatch, family, chains)


# every benchmark family shape: degrees 1-4 of both orders on the inner,
# outer and coupled channels
MIRROR_PARAMS = {
    1: ProblemParams(2, 0.3, 0.25),
    2: ProblemParams(2, 0.7, 4.0),
    3: ProblemParams(2, 0.5, 2.0),
    4: ProblemParams(2, 0.4, 0.5),
}
MIRRORED_RUNS = [
    (MIRROR_PARAMS[degree], ModeIndex(degree, order), alphas)
    for degree in (1, 2, 3, 4)
    for order in (1, 2)
    for alphas in ((1.0, 0.0), (0.0, 1.0), (1.0, 1.0))
]


def _solves_at_three_amplitudes(family):
    """Solves of family at t = -0.01, 0 and 0.01 on 256x32, and their second
    difference, of d2's order."""
    energies = [solve_energy(family.at(t), 256, 32) for t in (-0.01, 0.0, 0.01)]
    return energies, (energies[0] - 2.0 * energies[1] + energies[2]) / 1e-4


@pytest.mark.parametrize("params, mode, alphas", MIRRORED_RUNS)
def test_a_mirrored_run_is_the_full_circle_run(params, mode, alphas):
    # the mirror image of a family about pi/32, half a grid step, which maps
    # the 32 angles onto themselves: its perturbed disks are the family's,
    # reflected, and its solves on the full circle, which mix both orders of
    # the degree, are the family's
    family = PerturbedDomainFamily(params, PerturbationSpec({mode: alphas}))
    image = PerturbedDomainFamily(params, _mirror_image(family.spec, math.pi / 32))
    assert all(any(image.spec.coefficients(ModeIndex(mode.degree, order))) for order in (1, 2))
    mirrored, mirrored_d2 = _solves_at_three_amplitudes(image)
    circle, circle_d2 = _solves_at_three_amplitudes(family)
    # equal to rounding; the coupled degree-1 direction has d2 near 0 (a
    # rigid translation of both boundaries), so d2 is held to an absolute
    # floor as well
    assert mirrored == pytest.approx(circle, rel=1e-14)
    assert abs(mirrored_d2 - circle_d2) <= 1e-9 + 1e-7 * abs(circle_d2)


@pytest.mark.parametrize("radial_points", [4, 16])
def test_a_reused_workspace_changes_no_energy(radial_points):
    # a run's E(0), from the flux on its mode-0 chain, is a standalone
    # conjugate-gradient solve's to rounding; the coupled channel: both
    # boundaries move
    spec = PerturbationSpec({ModeIndex(2, 1): (1.0, 1.0)})
    family = PerturbedDomainFamily(PARAMS, spec)
    run = differentiate_energy(family, radial_points=radial_points, angular_modes=8)
    assert run.energy == pytest.approx(solve_energy(family, radial_points, 8), rel=1e-14)


def _richardson(estimates):
    """Extrapolate a step-halving sequence with an h^2 error series."""
    table = [list(estimates)]
    for level in range(1, len(estimates)):
        previous = table[-1]
        factor = 4.0**level
        table.append(
            [
                (factor * previous[i + 1] - previous[i]) / (factor - 1.0)
                for i in range(len(previous) - 1)
            ]
        )
    return table[-1][0]


# the largest gap between the exact d1 or d2 and the Richardson limit of the
# central differences of solves at t = +-0.01/2^l, l = 0, 1, 2: the
# differences' t-error and rounding, about eps E(0)/h^2 at the finest step h.
# Over 1200 random families of the property below it measured at most
# 4.0e-10 in d2 and 3.8e-12 in d1, and over 4000 of its mixed families
# 4.7e-10 and 4.2e-12
RICHARDSON_GAP = 1e-9


def _mixed_modes(angular_modes, degree, order, alphas, extra):
    """The mode (degree, order) with alphas, and besides it, by extra: a
    mode of another degree, the degree's other order, both, or a degree-0
    mode, whose family moves its radii linearly; or nothing.  Returns the
    modes and whether the family may preserve the areas exactly."""
    modes = {ModeIndex(degree, order): alphas}
    other = (-0.3 * alphas[1], 0.3 * alphas[0])
    if extra in ("degree", "both"):
        modes[ModeIndex(degree % (angular_modes // 2 - 1) + 1, 2)] = other
    if extra in ("order", "both"):
        modes[ModeIndex(degree, 3 - order)] = (0.2, -0.4)
    if extra == "mean":
        modes[ModeIndex(0, 1)] = (0.3, -0.2)
    return modes, extra != "mean"


@settings(max_examples=100, deadline=None)
@given(
    grid=st.sampled_from([8, 12, 16]).flatmap(
        lambda m: st.tuples(st.just(m), st.integers(1, min(4, m // 2 - 1)))
    ),
    order=st.integers(1, 2),
    alphas=st.sampled_from([(1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]),  # inner, outer, coupled
    exact_area=st.booleans(),
    radius=st.floats(0.3, 0.7),
    log_sigma=st.floats(math.log(0.25), math.log(4.0)),
    radial_points=st.integers(8, 64),
    extra=st.sampled_from([None, "degree", "order", "both", "mean"]),
)
# cos 3 theta and sin theta on both boundaries, with sin 3 theta besides;
# both orders of degree 2; and a degree-0 mode beside cos 2 theta
@example(grid=(8, 3), order=1, alphas=(1.0, 1.0), exact_area=True, radius=0.5,
         log_sigma=math.log(2.0), radial_points=24, extra="both")
@example(grid=(12, 2), order=2, alphas=(1.0, 0.0), exact_area=True, radius=0.4,
         log_sigma=math.log(0.5), radial_points=16, extra="order")
@example(grid=(8, 2), order=1, alphas=(0.0, 1.0), exact_area=False, radius=0.6,
         log_sigma=math.log(3.0), radial_points=16, extra="mean")
def test_exact_derivatives_are_the_richardson_limits_of_sampled_solves(
    grid, order, alphas, exact_area, radius, log_sigma, radial_points, extra
):
    # d1 and d2 differentiate the discrete energy exactly, so they are the
    # limits that central differences of standalone solves approach.  The
    # solves work on the angular grid, where the run sums its degrees'
    # forms, so mixed families tie that sum to perturbed disks
    angular_modes, degree = grid
    params = ProblemParams(2, radius, math.exp(log_sigma))
    modes, may_preserve = _mixed_modes(angular_modes, degree, order, alphas, extra)
    spec = PerturbationSpec(modes)
    family = PerturbedDomainFamily(params, spec, exact_area=exact_area and may_preserve)
    run = differentiate_energy(family, radial_points, angular_modes)
    base = solve_energy(family, radial_points, angular_modes)
    assert run.energy == pytest.approx(base, rel=1e-12)
    steps = [math.ldexp(0.01, -level) for level in range(3)]
    energy = {t: solve_energy(family.at(t), radial_points, angular_modes) for h in steps for t in (h, -h)}
    d1 = _richardson([(energy[h] - energy[-h]) / (2.0 * h) for h in steps])
    d2 = _richardson([(energy[h] - 2.0 * base + energy[-h]) / (h * h) for h in steps])
    assert abs(run.d1 - d1) <= RICHARDSON_GAP
    assert abs(run.d2 - d2) <= RICHARDSON_GAP


# the grid error of a 128x16 run against the closed forms at sigma = 1,
# over R in [0.2, 0.8], degrees 1-4 and the three channels, is at most
# 1.0e-5 in E(0), relative, and 6.2e-5 in d2, as a share of the larger of 1
# and the table's row scale; the bounds are ten times these.  The error
# does not grow with sigma: up to SIGMA_CEILING it stays below 1.0e-5 and
# 1.0e-4.  A u solved on K_0's mode-0 chain, whose differences cancel in a
# stiff core, fails them, at sigma = 2.6e10 and R = 0.5 among others
STIFF_ENERGY_BOUND = 1e-4
STIFF_D2_BOUND = 6e-4


@settings(max_examples=100, deadline=None)
@given(
    log_sigma=st.floats(0.0, math.log(pde_oracle.SIGMA_CEILING)),
    radius=st.floats(0.2, 0.8),
    degree=st.integers(1, 4),
    alphas=st.sampled_from([(1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]),  # inner, outer, coupled
)
@example(log_sigma=math.log(pde_oracle.SIGMA_CEILING), radius=0.5, degree=2, alphas=(1.0, 0.0))
@example(log_sigma=math.log(pde_oracle.SIGMA_CEILING), radius=0.3, degree=2, alphas=(0.0, 1.0))
def test_a_stiff_core_matches_the_closed_forms(log_sigma, radius, degree, alphas):
    # in a stiff core u is nearly constant, and the run reads its
    # differences from the flux, never by subtraction
    params = ProblemParams(2, radius, min(math.exp(log_sigma), pde_oracle.SIGMA_CEILING))
    family = PerturbedDomainFamily(params, PerturbationSpec({ModeIndex(degree, 1): alphas}))
    run = differentiate_energy(family, 128, 16)
    assert run.energy == pytest.approx(baseline_energy(params), rel=STIFF_ENERGY_BOUND)
    spectrum = assemble_spectrum(params, degree)
    e_in, e_out, e_res = spectrum.e_in, spectrum.e_out, spectrum.e_res
    alpha_in, alpha_out = alphas
    expected = alpha_in**2 * e_in + alpha_out**2 * e_out + alpha_in * alpha_out * e_res
    scale = max(1.0, abs(e_in), abs(e_out), abs(e_res))
    assert abs(run.d2 - expected) <= STIFF_D2_BOUND * scale


@pytest.mark.parametrize(
    "channel, sigma", [("e_in", 1e-8), ("e_in", 1e-12), ("e_in", 1e-16), ("e_out", 1e-12)]
)
def test_a_soft_core_matches_the_second_variation_of_its_channel(channel, sigma):
    # E(0) grows like 1/sigma; the interface's d2 grows with it, while the
    # outer boundary's stays O(1) (e_out(2) = -0.382 at sigma = 1e-12).  Both
    # match the assembled coefficient to the grid's error: 1.63e-4 (e_in)
    # and 1.24e-4 (e_out)
    params = ProblemParams(2, 0.5, sigma)
    alpha = (1.0, 0.0) if channel == "e_in" else (0.0, 1.0)
    family = PerturbedDomainFamily(params, PerturbationSpec({ModeIndex(2, 1): alpha}))
    run = differentiate_energy(family, 64, 16)
    assert run.d2 == pytest.approx(getattr(assemble_spectrum(params, 2), channel), rel=2e-4)


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
    assert family.spec == PerturbationSpec({ModeIndex(2, 1): (1.0, 0.0)})
    assert family.exact_area
    run = run_from_config(config)
    assert run.radial_points == 64
    assert run.to_document()["t_samples"] == [0.0]


def test_config_requires_radius():
    with pytest.raises(KeyError) as excinfo:
        family_from_config({"sigma": 2.0})
    assert str(excinfo.value) == "missing required key 'radius'"


MODE_INDICES = st.integers(0, 20).flatmap(
    lambda degree: st.builds(ModeIndex, st.just(degree), st.integers(1, 1 if degree == 0 else 2))
)
ALPHAS = st.one_of(st.just(0.0), st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=250, deadline=None)
@given(modes=st.dictionaries(MODE_INDICES, st.tuples(ALPHAS, ALPHAS), max_size=6))
def test_a_spec_document_is_an_oracle_config(modes):
    spec = PerturbationSpec(modes)
    document = json.loads(json.dumps(spec.to_document(), allow_nan=False))
    assert [(record["degree"], record["order"]) for record in document["modes"]] == sorted(
        (index.degree, index.order) for index in modes
    )
    config = {"radius": 0.5, "sigma": 2.0, "exact_area": False, **document}
    assert family_from_config(config).spec == spec


def test_oracle_and_classify_documents_rebuild_their_specs():
    spec = PerturbationSpec({ModeIndex(3, 2): (0.0, -1.5), ModeIndex(2, 1): (1.0, 0.25)})
    run = differentiate_energy(PerturbedDomainFamily(PARAMS, spec), radial_points=16, angular_modes=8)
    document = run.to_document()
    assert "inner_shape" not in document and "outer_shape" not in document
    rebuilt = family_from_config({"radius": 0.5, "sigma": 2.0, "modes": document["modes"]})
    assert rebuilt.spec == spec
    verdict = classify(ProblemParams(2, 0.5, 0.5), 10)
    document = verdict.to_document()
    for label, witness in (
        ("witness_positive", verdict.witness_positive),
        ("witness_negative", verdict.witness_negative),
    ):
        assert list(document[label]) == ["modes"]
        assert family_from_config({"radius": 0.5, "sigma": 0.5, **document[label]}).spec == witness
