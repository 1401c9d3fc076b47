"""Finite-difference energy oracle on perturbed domains (fast grids)."""

import gc
import json
import math
import re
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
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
# no grid angle is a mirror axis of both cos theta and sin theta
UNMIRRORED = PerturbedDomainFamily(
    PARAMS, PerturbationSpec({ModeIndex(1, 1): (1.0, 0.0), ModeIndex(1, 2): (0.0, 1.0)})
)
# cos theta alone: of period 1 and even about angle 0
MIRRORED = PerturbedDomainFamily(PARAMS, PerturbationSpec({ModeIndex(1, 1): (1.0, 0.0)}))


def _built_workspaces(monkeypatch):
    """Weak references to the angular D of each workspace built from here on;
    a workspace whose checks refuse it is not built."""
    built = []

    class Recorded(pde_oracle._Workspace):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(weakref.ref(self.angular.diff))

    monkeypatch.setattr(pde_oracle, "_Workspace", Recorded)
    return built


def _period_one_workspace(family, radial_points, angular_modes, axis=None):
    """A period-1 workspace of family: on the full circle, or on the half
    circle from the axis."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pde_oracle, "_period", lambda family, angular_modes: (1, axis))
        return pde_oracle._Workspace(family, radial_points, angular_modes)


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
    # a mirrored workspace's D P differentiates the functions even about
    # angle 0 on the m/2 + 1 angles from 0 to pi, and D^T D's eigenvalues are
    # the same
    work = pde_oracle._Workspace(MIRRORED, 4, m)
    half = theta[: m // 2 + 1]
    assert work.angular.diff.shape == (m // 2 + 1, m // 2 + 1)
    assert np.array_equal(work.angular.eigen, eigen)
    for k in (0, 1, 3, 11):
        derivative = work.angular.diff @ np.cos(k * half)
        assert derivative == pytest.approx(-k * np.sin(k * half), abs=1e-11)
    # the slope of an even function vanishes on the axis and at pi
    assert not work.angular.diff[[0, -1]].any()
    assert work.multiplicity.tolist() == [1.0] + [2.0] * (m // 2 - 1) + [1.0]


@pytest.mark.parametrize("m", [4, 6, 32, 64])
def test_spectral_diff_matrix_is_an_exact_antisymmetric_circulant(monkeypatch, m):
    # the solves of one run share one workspace operator, so no caller may
    # write to it
    calls = _count_calls(monkeypatch, "angular_operator")
    # cos theta on the interface and sin theta on the outer boundary: no
    # grid angle is a mirror axis of both, so the solve reads the full circle
    assert pde_oracle._period(UNMIRRORED, m) == (1, None)
    work = pde_oracle._Workspace(UNMIRRORED, 4, m)
    for t in (0.0, 0.01):
        solve_energy(UNMIRRORED.at(t), 4, m, workspace=work)
    assert calls == {"angular_operator": 1}
    operator = work.angular
    diff = operator.diff
    assert not any(array.flags.writeable for array in operator)
    # nor to a mirrored workspace's
    work = pde_oracle._Workspace(MIRRORED, 4, m)
    solve_energy(MIRRORED.at(0.01), 4, m, workspace=work)
    assert not any(array.flags.writeable for array in (*work.angular, work.multiplicity))
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
    # degree 2 is resolved on 8 angles, of period 2 and even about angle 0,
    # and not on 4
    assert pde_oracle._period(family, 8) == (2, 0)
    with pytest.raises(ValueError, match="^angular_modes too small for the perturbation degree$"):
        pde_oracle._period(family, 4)
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
    # degree 40 next to a moving degree 3 is resolved on 8 angles, of period 1,
    # and sin 3 theta is even about pi/2
    zero = PerturbationSpec({ModeIndex(40, 1): (0.0, 0.0), ModeIndex(3, 2): (0.0, 1.0)})
    family = PerturbedDomainFamily(PARAMS, zero)
    assert pde_oracle._period(family, 8) == (1, 2)
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


def test_a_start_of_the_wrong_size_is_refused_in_one_line(monkeypatch):
    # degree 2 on 8 angles solves on half a sector of 4, 3 angles:
    # 1 + 3 x 3 = 10 unknowns, where the sector has 1 + 3 x 4 = 13 and the
    # full circle 1 + 3 x 8 = 25
    family = PerturbedDomainFamily(PARAMS, PerturbationSpec({ModeIndex(2, 1): (1.0, 0.0)}))
    work = pde_oracle._Workspace(family, 4, 8)
    built = _built_workspaces(monkeypatch)
    calls = _count_calls(monkeypatch, "_cell_rows")
    for start in (np.zeros(13), np.zeros(25), np.zeros((10, 1)), 0.0):
        shape = re.escape(str(np.shape(start)))
        message = rf"^start has shape {shape}, not the solve's \(10,\)$"
        with pytest.raises(ValueError, match=message):
            solve_energy(family.at(0.01), 4, 8, start=start, workspace=work)
        # a solve on its own sizes the start by the workspace it builds
        with pytest.raises(ValueError, match=message):
            solve_energy(family.at(0.01), 4, 8, start=start)
    # each is refused before any row is formed, and on a run's workspace
    # before another is built
    assert calls == {"_cell_rows": 0}
    assert len(built) == 4
    assert solve_energy(family.at(0.01), 4, 8, start=np.zeros(10), workspace=work) > 0.0


def test_differentiate_energy_returns_a_complete_run():
    spec = PerturbationSpec({ModeIndex(2, 1): (1.0, 0.0)})
    family = PerturbedDomainFamily(PARAMS, spec)
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


def test_differentiate_energy_validates_input(monkeypatch):
    family = PerturbedDomainFamily(PARAMS, PerturbationSpec({}))
    with pytest.raises(ValueError, match="^t0 must be positive$"):
        differentiate_energy(family, t0=0.0)
    # a run differentiates at t = 0, so a family at t = 0.3 is refused, not read at 0
    with pytest.raises(ValueError, match=r"^the family must be at t = 0, not t = 0\.3$"):
        differentiate_energy(family.at(0.3))
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
    # the Richardson weights 4^levels overflow past levels 511: only a
    # motionless family gets past the rounding floor that far, and it is
    # refused before any solve
    built = _built_workspaces(monkeypatch)
    for levels in (512, 1000):
        with pytest.raises(ValueError, match="^levels must be <= 511$"):
            differentiate_energy(family, t0=1e150, levels=levels, radial_points=4, angular_modes=4)
    assert built == []
    run = differentiate_energy(family, t0=1e150, levels=511, radial_points=4, angular_modes=4)
    assert len(run.t_samples) == 1025
    assert run.d1 == run.d2 == 0.0


def test_differentiate_energy_checks_the_range_before_listing_steps():
    # a million levels are rejected without building their million steps
    family = PerturbedDomainFamily(PARAMS, PerturbationSpec({}))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="^t0 out of range"):
            differentiate_energy(family, t0=0.01, levels=10**6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


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
    # above it runs fail in the factorization or, worse, answer wrong:
    # d2 = +0.035 at R = 0.3 and sigma = 1e40, where e_out(2) = -0.52
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
        (("_stiffness", lambda work, v: -_STIFFNESS(work, v)), NOT_SPD),
        # a non-symmetric operator: the iteration cannot converge
        (("_stiffness", lambda work, v: v + 10.0 * (np.roll(v, 1) - np.roll(v, -1))),
         "iteration did not converge"),
    ],
)
def test_a_broken_iteration_never_returns_an_energy(monkeypatch, broken, message):
    monkeypatch.setattr(pde_oracle, *broken)
    with pytest.raises(SolveError, match=f"^{message}$"):
        solve_energy(PERTURBED.at(0.03), radial_points=16, angular_modes=8)


def _dense_system(family, radial_points, angular_modes, axis=None):
    """The dense K, from the operator's columns, the load and the workspace
    of a period-1 solve: on the full circle, or on the half circle from the
    mirror axis."""
    work = _period_one_workspace(family, radial_points, angular_modes, axis)
    _, load = pde_oracle._cell_rows(work, family.t)
    # each product is written to the workspace, so each column is a copy
    columns = [pde_oracle._stiffness(work, unit).copy() for unit in np.eye(load.size)]
    return np.column_stack(columns), load, work


def _assert_cg_equals_a_dense_solve(family, radial_points, angular_modes):
    matrix, load, _ = _dense_system(family, radial_points, angular_modes)
    assert np.abs(matrix - matrix.T).max() <= 1e-14 * np.abs(matrix).max()
    work = pde_oracle._Workspace(family, radial_points, angular_modes)
    # solve_energy solves on one of the family's sectors, or half of one
    energy = solve_energy(family, radial_points, angular_modes, workspace=work)
    exact = np.linalg.solve(matrix, load)
    assert energy == pytest.approx(load @ exact, rel=1e-12)
    # the circle's u repeats from sector to sector and is even about the
    # mirror axis, if there is one, and the solve hands back its angles';
    # a start next to that u finds the same energy
    period, axis = pde_oracle._period(family, angular_modes)
    scale = np.abs(exact).max()
    rings = exact[1:].reshape(radial_points - 1, angular_modes)
    sector = angular_modes // period
    assert np.abs(np.tile(rings[:, :sector], period) - rings).max() <= 1e-6 * scale
    angles = np.arange(sector)
    if axis is not None:
        offsets = np.arange(angular_modes)
        reflected = rings[:, (axis - offsets) % angular_modes]
        assert np.abs(reflected - rings[:, (axis + offsets) % angular_modes]).max() <= 1e-6 * scale
        angles = axis + np.arange(sector // 2 + 1)
    exact = np.concatenate([exact[:1], rings[:, angles % angular_modes].ravel()])
    (solution,) = work.solutions
    assert np.abs(solution - exact).max() <= 1e-6 * np.abs(exact).max()
    start = solution * (1.0 + 1e-3 * np.cos(np.arange(solution.size)))
    warm = solve_energy(family, radial_points, angular_modes, start=start)
    assert warm == pytest.approx(energy, rel=1e-12)
    # a start no nearer than u = 0 in the energy norm, -2 J(-u) = -3 E, is
    # dropped, so its energy is the cold solve's, bit for bit
    assert solve_energy(family, radial_points, angular_modes, start=-solution) == energy


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
# a solve on two sectors of 4 angles and on four sectors of 4 angles
@example(radius=0.5, log_sigma=0.0, grid=(8, 2), order=2, alphas=(1.0, 1.0), t=0.02,
         radial_points=6)
@example(radius=0.4, log_sigma=1.0, grid=(16, 4), order=1, alphas=(0.0, 1.0), t=-0.03,
         radial_points=5)
def test_conjugate_gradients_equal_a_dense_solve_everywhere(
    radius, log_sigma, grid, order, alphas, t, radial_points
):
    angular_modes, degree = grid
    params = ProblemParams(2, radius, math.exp(log_sigma))
    spec = PerturbationSpec({ModeIndex(degree, order): alphas})
    family = PerturbedDomainFamily(params, spec).at(t)
    _assert_cg_equals_a_dense_solve(family, radial_points, angular_modes)


@pytest.mark.parametrize(
    "modes, angular_modes, period",
    [
        ({ModeIndex(2, 1): (1.0, 0.0), ModeIndex(4, 1): (0.0, 1.0)}, 32, 2),
        ({ModeIndex(4, 1): (1.0, 1.0)}, 32, 4),
        ({ModeIndex(4, 1): (1.0, 1.0)}, 12, 2),
        ({ModeIndex(2, 1): (1.0, 0.0), ModeIndex(3, 1): (0.0, 1.0)}, 32, 1),
        ({ModeIndex(6, 1): (0.0, 1.0)}, 64, 2),
        ({ModeIndex(8, 1): (1.0, 0.0)}, 64, 8),
        ({}, 32, 1),
        # a zero coefficient moves nothing, so its degree sets no period
        ({ModeIndex(4, 1): (1.0, 0.0), ModeIndex(3, 1): (0.0, 0.0)}, 32, 4),
        # a degree-0 mode is unchanged by every rotation (a linear family)
        ({ModeIndex(0, 1): (1.0, 0.0)}, 32, 1),
        ({ModeIndex(0, 1): (1.0, 0.0), ModeIndex(2, 1): (0.0, 1.0)}, 32, 2),
    ],
)
def test_the_period_is_the_gcd_of_half_the_angles_and_the_moving_degrees(
    modes, angular_modes, period
):
    exact_area = ModeIndex(0, 1) not in modes
    family = PerturbedDomainFamily(PARAMS, PerturbationSpec(modes), exact_area=exact_area)
    # every cosine is even about angle 0
    assert pde_oracle._period(family, angular_modes) == (period, 0)
    # sin k theta is cos k theta turned by a quarter of its period: the same period
    sines = {
        ModeIndex(index.degree, 2 if index.degree else 1): pair for index, pair in modes.items()
    }
    family = PerturbedDomainFamily(PARAMS, PerturbationSpec(sines), exact_area=exact_area)
    assert pde_oracle._period(family, angular_modes)[0] == period


# (modes, angular_modes, the mirror axis as an angle, or None without one)
MIRROR_AXES = [
    *(({ModeIndex(k, 1): (1.0, 0.0)}, 32, 0.0) for k in (1, 2, 3, 4)),
    ({ModeIndex(1, 2): (1.0, 0.0)}, 32, math.pi / 2),
    ({ModeIndex(2, 2): (0.0, 1.0)}, 32, math.pi / 4),
    ({ModeIndex(3, 2): (1.0, 1.0)}, 32, math.pi / 2),
    ({ModeIndex(4, 2): (1.0, 0.0)}, 32, math.pi / 8),
    ({ModeIndex(2, 1): (1.0, 0.0), ModeIndex(1, 2): (0.0, 1.0)}, 32, math.pi / 2),
    # cos 2 theta is even about the multiples of pi/2 and sin 2 theta about
    # the odd multiples of pi/4, so no angle is an axis of both; sin theta is
    # even about pi/2 and 3 pi/2, which are no grid angles of 30
    ({ModeIndex(2, 1): (1.0, 0.0), ModeIndex(2, 2): (0.0, 1.0)}, 32, None),
    ({ModeIndex(1, 2): (1.0, 1.0)}, 30, None),
]


@pytest.mark.parametrize("modes, angular_modes, angle", MIRROR_AXES)
def test_the_mirror_axis_is_the_first_grid_angle_every_mode_is_even_about(
    modes, angular_modes, angle
):
    family = PerturbedDomainFamily(PARAMS, PerturbationSpec(modes))
    period, axis = pde_oracle._period(family, angular_modes)
    if angle is None:
        assert axis is None
        return
    assert 2.0 * math.pi * axis / angular_modes == pytest.approx(angle, abs=1e-15)
    assert 0 <= axis < angular_modes // period
    # each mode's speeds are even about the axis on the grid
    theta = 2.0 * math.pi * (axis + np.arange(angular_modes)) / angular_modes
    mirror = 2.0 * math.pi * (axis - np.arange(angular_modes)) / angular_modes
    assert pde_oracle._normal_speeds(family.spec, theta)[:, 0] == pytest.approx(
        pde_oracle._normal_speeds(family.spec, mirror)[:, 0], abs=1e-14
    )


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
    work = _period_one_workspace(family, radial_points, angular_modes)
    rows, load = pde_oracle._cell_rows(work, t)
    expected_rows, expected_load = _scalar_cell_rows(family, radial_points, angular_modes)
    ulp = 4.0 * sys.float_info.epsilon
    for row, expected in zip(rows, expected_rows):
        assert np.abs(row - expected).max() <= ulp * np.abs(expected).max()
    assert np.abs(load - expected_load).max() <= ulp * np.abs(expected_load).max()
    # a mirrored workspace's rows and ring loads are the circle's at its
    # angles, from the axis on, times each angle's multiplicity, and its
    # center's load is the sector's share of the circle's
    period, axis = pde_oracle._period(family, angular_modes)
    if axis is None:
        return
    work = pde_oracle._Workspace(family, radial_points, angular_modes)
    rows, load = pde_oracle._cell_rows(work, t)
    angles = (axis + np.arange(work.multiplicity.size)) % angular_modes
    for row, expected in zip(rows, expected_rows):
        expected_half = expected[:, angles] * work.multiplicity
        assert np.abs(row - expected_half).max() <= ulp * np.abs(expected_half).max()
    rings = expected_load[1:].reshape(radial_points - 1, angular_modes)[:, angles]
    rings *= work.multiplicity
    expected_load = np.concatenate([[expected_load[0] / period], rings.ravel()])
    assert np.abs(load - expected_load).max() <= ulp * np.abs(expected_load).max()


def test_a_workspace_builds_its_radial_factors_once_per_radius(monkeypatch):
    # the family's symmetry, the angular operator and the radial factors of a
    # run's one radius are the run's, built once for its seven samples; a
    # second run, at that radius or another, and a solve on its own build their own
    names = ("_period", "angular_operator", "_radial_factors")
    calls = _count_calls(monkeypatch, *names)
    spec = PerturbationSpec({ModeIndex(3, 2): (1.0, 1.0)})
    for params, built in [(PARAMS, 1), (PARAMS, 2), (ProblemParams(2, 0.3, 2.0), 3)]:
        # sin 3 theta, of period 1 and even about pi/2, whose axis _period scans for
        family = PerturbedDomainFamily(params, spec)
        differentiate_energy(family, t0=0.02, levels=2, radial_points=16, angular_modes=8)
        assert calls == dict.fromkeys(names, built)
    solve_energy(family.at(0.01), 16, 8)
    assert calls == dict.fromkeys(names, 4)
    # shared by every solve of a run, so no caller may write to them
    work = pde_oracle._Workspace(family, 16, 8)
    _, core, shell, weights = work.factors
    assert not any(array.flags.writeable for array in (*core, *shell, weights))
    # the arrays the solves write are views of one allocation (module docstring)
    arrays = (work.rows, work.nodes, work.cells, work.rhs, work.coefficients, work.load, work.scaled)
    assert len({id(array.base) for array in arrays}) == 1


def test_a_workspace_computes_its_normal_speeds_once_per_spec(monkeypatch):
    # a run's seven samples share one spec and its speeds; a later run of the
    # spec, of an equal one or of another, and a solve on its own compute their own
    spec = PerturbationSpec({ModeIndex(2, 1): (1.0, 1.0)})
    calls = _count_calls(monkeypatch, "_normal_speeds")
    for params, modes, computed in [
        (PARAMS, spec.modes, 1),
        (ProblemParams(2, 0.3, 0.5), spec.modes, 2),
        (PARAMS, dict(spec.modes), 3),
        (PARAMS, {ModeIndex(2, 1): (1.0, 0.0)}, 4),
    ]:
        family = PerturbedDomainFamily(params, PerturbationSpec(modes))
        differentiate_energy(family, t0=0.02, levels=2, radial_points=16, angular_modes=8)
        assert calls == {"_normal_speeds": computed}
    solve_energy(family.at(0.01), 16, 8)
    assert calls == {"_normal_speeds": 5}


def test_a_runs_workspace_is_freed_when_the_run_returns(monkeypatch):
    # nothing outlives a run or a solve: no workspace is kept for a later one
    built = _built_workspaces(monkeypatch)
    for angular_modes in range(4, 20, 2):
        differentiate_energy(MIRRORED, 0.02, 1, 4, angular_modes)
        solve_energy(MIRRORED.at(0.01), 4, angular_modes)
    gc.collect()
    assert len(built) == 16
    assert not any(diff() is not None for diff in built)


def test_threads_on_one_grid_do_not_share_a_workspace():
    # a workspace keeps the speeds of its last spec: sin 3 theta, of period 1
    # and even about pi/2, would read the speeds of cos theta, of period 1
    # and even about 0, from a shared one; the last family has no mirror axis
    families = [
        PerturbedDomainFamily(PARAMS, PerturbationSpec({ModeIndex(2, 1): (1.0, 0.0)})),
        PerturbedDomainFamily(ProblemParams(2, 0.3, 0.25), PerturbationSpec({ModeIndex(3, 2): (0.0, 1.0)})),
        PerturbedDomainFamily(MIRROR_PARAMS[4], PerturbationSpec({ModeIndex(1, 1): (1.0, 1.0)})),
        UNMIRRORED,
    ]
    symmetries = [pde_oracle._period(family, 16) for family in families]
    assert symmetries == [(2, 0), (1, 4), (1, 0), (1, None)]

    def energies(family):
        return differentiate_energy(family, t0=0.02, levels=2, radial_points=128, angular_modes=16).energies

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


@pytest.mark.parametrize("mirrored", [False, True])
@pytest.mark.parametrize(
    "radius, sigma, radial_points, angular_modes",
    [(0.5, 2.0, 4, 4), (0.3, 0.25, 12, 8), (0.7, 4.0, 16, 12)],
)
def test_the_preconditioner_is_the_inverse_of_the_concentric_operator(
    monkeypatch, radius, sigma, radial_points, angular_modes, mirrored
):
    params = ProblemParams(2, radius, sigma)
    spec = PerturbationSpec({ModeIndex(1, 2): (1.0, 1.0)})
    concentric = PerturbedDomainFamily(params, spec)  # at t = 0
    # on the full circle, or on the half circle from the axis of sin theta
    axis = pde_oracle._period(concentric, angular_modes)[1] if mirrored else None
    matrix, load, work = _dense_system(concentric, radial_points, angular_modes, axis)
    # the preconditioner a t = 0 solve builds from its own rows
    precondition = pde_oracle._preconditioner(work, pde_oracle._factor(work))
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


@pytest.mark.parametrize("params, mode, alphas", FACTORED_ONCE)
def test_each_run_factors_once_and_solves_once_per_step(monkeypatch, params, mode, alphas):
    spec = PerturbationSpec({mode: alphas})
    family = PerturbedDomainFamily(params, spec, exact_area=mode.degree > 0)
    calls = _count_calls(monkeypatch, "cho_factor", "cho_solve", "_stiffness")
    steps = []
    solve = pde_oracle.solve_energy

    def counted_solve(*args, **kwargs):
        before = calls["cho_solve"]
        energy = solve(*args, **kwargs)
        steps.append(calls["cho_solve"] - before)
        return energy

    monkeypatch.setattr(pde_oracle, "solve_energy", counted_solve)
    differentiate_energy(family, t0=0.01, levels=2, radial_points=256, angular_modes=32)
    # the t = 0 sample factors its preconditioner, K(0), and the 6 others reuse it
    assert len(steps) == 7
    assert calls["cho_factor"] == 1
    # one preconditioner application per step; one operator application per
    # step and one for the residual of each warm start, every sample but t = 0
    # of a family that moves
    assert calls["cho_solve"] == sum(steps)
    assert calls["_stiffness"] == sum(steps) + (6 if any(alphas) else 0)
    assert sum(steps) <= 16
    # a sample solved on its own factors its own preconditioner
    calls["cho_factor"] = 0
    solve_energy(family.at(0.01), 256, 32)
    assert calls["cho_factor"] == 1


def test_a_run_factors_again_where_its_samples_leave_the_held_chains(monkeypatch):
    # a degree-15 core at t0 = 0.2: at t = 0.1 and 0.2 the samples' own chains
    # leave K(0)'s by factors of 2.5 and 7.3, where K(0) would take 33 and 92
    # steps from zero against their own 27 and 51; each factors its own, and
    # the sample at -t reuses the one at +t
    family = PerturbedDomainFamily(PARAMS, PerturbationSpec({ModeIndex(15, 1): (1.0, 0.0)}))
    calls = _count_calls(monkeypatch, "cho_factor", "cho_solve")
    differentiate_energy(family, 0.2, 2, radial_points=256, angular_modes=32)
    assert calls["cho_factor"] == 3
    assert calls["cho_solve"] <= 165


def test_a_workspace_of_another_family_or_grid_is_refused():
    # a workspace holds one family's rows, chains and solutions on one grid,
    # at any t; any other solve is refused in one line, before any row is formed
    family = PerturbedDomainFamily(PARAMS, PerturbationSpec({ModeIndex(2, 1): (1.0, 0.0)}))
    other = PerturbedDomainFamily(PARAMS, PerturbationSpec({ModeIndex(1, 1): (1.0, 0.0)}))
    softer = PerturbedDomainFamily(ProblemParams(2, 0.5, 0.5), family.spec)
    for held_by, grid in [(family, (32, 8)), (family, (16, 12)), (other, (16, 8)), (softer, (16, 8))]:
        work = pde_oracle._Workspace(held_by, *grid)
        with pytest.raises(ValueError, match="^the workspace was built for another family or grid$"):
            solve_energy(family.at(0.01), 16, 8, workspace=work)
        assert work.factorization is None and work.solutions == []
    work = pde_oracle._Workspace(family, 16, 8)
    energy = solve_energy(family.at(0.01), 16, 8, workspace=work)
    assert energy == solve_energy(family.at(0.01), 16, 8)


# the benchmark-like families of even degree, of period 2 or 4 at 256x32, and
# one moving degree 2 on its interface and degree 4 on its outer boundary
SECTOR_RUNS = [
    (params, {mode: alphas}) for params, mode, alphas in BENCH_LIKE if mode.degree % 2 == 0
] + [(ProblemParams(2, 0.45, 1.5), {ModeIndex(2, 2): (1.0, 0.0), ModeIndex(4, 1): (0.0, 1.0)})]


@pytest.mark.parametrize("params, modes", SECTOR_RUNS)
def test_a_sector_run_is_the_full_circle_run(monkeypatch, params, modes):
    family = PerturbedDomainFamily(params, PerturbationSpec(modes))
    period = pde_oracle._period(family, 32)[0]
    assert period > 1
    # the turn alone, then neither turn nor mirror
    monkeypatch.setattr(pde_oracle, "_period", lambda family, angular_modes: (period, None))
    sector = differentiate_energy(family, t0=0.01, levels=2, radial_points=256, angular_modes=32)
    monkeypatch.setattr(pde_oracle, "_period", lambda family, angular_modes: (1, None))
    circle = differentiate_energy(family, t0=0.01, levels=2, radial_points=256, angular_modes=32)
    # equal to rounding, which the second differences amplify
    assert sector.energies == pytest.approx(circle.energies, rel=1e-14)
    assert sector.d2 == pytest.approx(circle.d2, rel=1e-7)


# every benchmark family shape: degrees 1-4 of both orders on the inner,
# outer and coupled channels, each even about a grid angle of 32
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


@pytest.mark.parametrize("params, mode, alphas", MIRRORED_RUNS)
def test_a_mirrored_run_is_the_full_circle_run(monkeypatch, params, mode, alphas):
    family = PerturbedDomainFamily(params, PerturbationSpec({mode: alphas}))
    assert pde_oracle._period(family, 32)[1] is not None
    mirrored = differentiate_energy(family, t0=0.01, levels=2, radial_points=256, angular_modes=32)
    monkeypatch.setattr(pde_oracle, "_period", lambda family, angular_modes: (1, None))
    circle = differentiate_energy(family, t0=0.01, levels=2, radial_points=256, angular_modes=32)
    # equal to rounding, which the second differences amplify; the coupled
    # degree-1 direction has d2 near 0 (a rigid translation of both
    # boundaries), so d2 is held to an absolute floor as well
    assert mirrored.energies == pytest.approx(circle.energies, rel=1e-14)
    assert abs(mirrored.d2 - circle.d2) <= 1e-9 + 1e-7 * abs(circle.d2)


MIRROR_GRIDS = st.sampled_from([8, 12, 16, 20, 24])


@st.composite
def _mirror_families(draw):
    """A grid and a family of one to three moving modes on it, at a t."""
    m = draw(MIRROR_GRIDS)
    indices = st.builds(ModeIndex, st.integers(1, m // 2 - 1), st.integers(1, 2))
    coefficient = st.floats(-1.0, 1.0)
    pairs = st.tuples(coefficient, coefficient)
    modes = draw(st.dictionaries(indices, pairs, min_size=1, max_size=3))
    params = ProblemParams(2, draw(st.floats(0.3, 0.7)), math.exp(draw(st.floats(-2.0, 2.0))))
    # |g| <= 3/sqrt(pi) < 1.7 per boundary, so each radius moves by about
    # |t g| < 0.07 at |t| <= 0.04, well inside the least gap, 0.3
    t = draw(st.floats(-0.04, 0.04))
    return m, PerturbedDomainFamily(params, PerturbationSpec(modes)).at(t)


@settings(max_examples=150, deadline=None)
@given(case=_mirror_families(), radial_points=st.integers(4, 16))
# cos 2 theta, sin theta and sin 3 theta on 12 angles: even about pi/2 and 3 pi/2
@example(
    case=(12, PerturbedDomainFamily(PARAMS, PerturbationSpec({
        ModeIndex(2, 1): (1.0, 0.0), ModeIndex(1, 2): (0.5, 1.0), ModeIndex(3, 2): (0.0, -0.5)
    })).at(0.03)),
    radial_points=8,
)
def test_a_mirrored_solve_is_the_unmirrored_solve(case, radial_points):
    angular_modes, family = case
    period, axis = pde_oracle._period(family, angular_modes)
    assume(axis is not None)
    mirrored = solve_energy(family, radial_points, angular_modes)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pde_oracle, "_period", lambda family, angular_modes: (period, None))
        unmirrored = solve_energy(family, radial_points, angular_modes)
    assert mirrored == pytest.approx(unmirrored, rel=1e-13)


# families far from the benchmark's: a degree-15 core at t0 = 0.2, four
# levels, the outer boundary at t0 = 0.5, and contrasts of 100 and 0.01
HARDER_RUNS = [
    (PARAMS, {ModeIndex(15, 1): (1.0, 0.0)}, 0.2, 2),
    (PARAMS, {ModeIndex(3, 1): (1.0, 1.0)}, 0.01, 4),
    (PARAMS, {ModeIndex(2, 1): (0.0, 1.0)}, 0.5, 2),
    (ProblemParams(2, 0.5, 100.0), {ModeIndex(4, 2): (1.0, 1.0)}, 0.05, 2),
    (ProblemParams(2, 0.4, 0.01), {ModeIndex(4, 2): (1.0, 1.0)}, 0.05, 2),
    # deep runs: through every solved sample, the start's basis weights reach
    # 1.8e13 at levels 6 and 1.9e22 at levels 8
    (PARAMS, {ModeIndex(3, 1): (1.0, 1.0)}, 0.01, 6),
    (PARAMS, {ModeIndex(3, 1): (1.0, 1.0)}, 0.01, 8),
    (PARAMS, {ModeIndex(15, 1): (1.0, 0.0)}, 0.2, 6),
]


@pytest.mark.parametrize("params, modes, t0, levels", HARDER_RUNS)
def test_a_warm_started_run_takes_no_more_steps_than_cold_solves(
    monkeypatch, params, modes, t0, levels
):
    family = PerturbedDomainFamily(params, PerturbationSpec(modes))
    calls = _count_calls(monkeypatch, "cho_solve")
    run = differentiate_energy(family, t0, levels, radial_points=256, angular_modes=32)
    warm = calls["cho_solve"]
    for t, energy in zip(run.t_samples, run.energies):
        assert solve_energy(family.at(t), 256, 32) == pytest.approx(energy, rel=1e-14)
    assert warm <= calls["cho_solve"] - warm


def test_a_start_weighs_the_solved_samples_boundedly_at_any_levels():
    # the samples cluster geometrically at t = 0, so the polynomial through
    # all of them would weigh the last start's values up to 1.9e22 at levels 8
    largest = 0.0
    for levels in range(1, 17):
        steps = [math.ldexp(1.0, -level) for level in range(levels + 1)]
        order = [0.0] + [sign * h for h in reversed(steps) for sign in (+1.0, -1.0)]
        for count, t in enumerate(order[1:], 1):
            weights = pde_oracle._lagrange(order[:count], list(np.eye(count)), t)
            assert weights.sum() == pytest.approx(1.0, rel=1e-12)
            largest = max(largest, np.abs(weights).sum())
    assert 4000.0 < largest <= 4589.0


@pytest.mark.parametrize("radial_points", [4, 16])
def test_a_reused_workspace_changes_no_energy(monkeypatch, radial_points):
    # a run's energies are those of standalone cold solves, sample by sample,
    # to rounding: the warm starts change the steps, not the solution (the
    # largest gap measured is 8.8e-16); the coupled channel: both boundaries move
    spec = PerturbationSpec({ModeIndex(2, 1): (1.0, 1.0)})
    family = PerturbedDomainFamily(PARAMS, spec)
    calls = _count_calls(monkeypatch, "solve_energy", "cho_factor")
    run = differentiate_energy(
        family, t0=0.02, levels=2, radial_points=radial_points, angular_modes=8
    )
    assert calls == {"solve_energy": 7, "cho_factor": 1}
    for t, energy in zip(run.t_samples, run.energies):
        assert energy == pytest.approx(solve_energy(family.at(t), radial_points, 8), rel=1e-14)


@st.composite
def _oracle_runs(draw):
    """A grid, a family on it and a t0: one or two moving modes, mirrored or
    not, and with a degree-0 mode a family that moves its radii linearly."""
    m = draw(st.sampled_from([8, 12, 16]))
    indices = st.builds(ModeIndex, st.integers(1, m // 2 - 1), st.integers(1, 2))
    coefficient = st.one_of(st.just(0.0), st.floats(0.1, 0.3), st.floats(-0.3, -0.1))
    pairs = st.tuples(coefficient, coefficient)
    modes = draw(st.dictionaries(indices, pairs, min_size=1, max_size=2))
    linear = draw(st.booleans())
    if linear:
        modes[ModeIndex(0, 1)] = draw(pairs)
    params = ProblemParams(2, draw(st.floats(0.3, 0.7)), math.exp(draw(st.floats(-2.0, 2.0))))
    # |g| <= 3 x 0.3/sqrt(pi) < 0.51 per boundary, so each radius moves by
    # less than 0.11 at |t| <= 0.2, inside half the least gap, 0.3
    t0 = draw(st.floats(1e-3, 0.2))
    return m, PerturbedDomainFamily(params, PerturbationSpec(modes), exact_area=not linear), t0


@settings(max_examples=100, deadline=None)
@given(case=_oracle_runs(), radial_points=st.integers(4, 32))
def test_a_run_reads_the_energies_of_standalone_solves(case, radial_points):
    # each sample of a run, warm-started and preconditioned by the chains an
    # earlier sample factored, has the energy of a cold solve with its own
    angular_modes, family, t0 = case
    run = differentiate_energy(family, t0, 2, radial_points, angular_modes)
    for t, energy in zip(run.t_samples, run.energies):
        alone = solve_energy(family.at(t), radial_points, angular_modes)
        assert energy == pytest.approx(alone, rel=1e-12)


def test_differentiate_energy_single_level_has_no_rate():
    family = PerturbedDomainFamily(PARAMS, PerturbationSpec({}))
    run = differentiate_energy(
        family, t0=0.01, levels=1, radial_points=64, angular_modes=8
    )
    assert len(run.t_samples) == 5


def test_differentiate_energy_has_no_rate_below_roundoff():
    # below the rounding floor the second differences are rounding noise:
    # at t0 = 1e-9 they gave d2 = -7387 and at 1e-150 exactly 0, where the
    # second variation is about -0.108; such runs are refused before any solve
    spec = PerturbationSpec({ModeIndex(2, 1): (1.0, 0.0)})
    family = PerturbedDomainFamily(PARAMS, spec)
    for t0 in (1e-150, 1e-9, 1e-6):
        with pytest.raises(ValueError, match=r"^t0 below the rounding floor: eps E\(0\)/"):
            differentiate_energy(family, t0=t0, levels=2, radial_points=32, angular_modes=8)
    # the floor scales with the displacement t0/2^levels |alpha|
    strong = PerturbedDomainFamily(PARAMS, PerturbationSpec({ModeIndex(2, 1): (1e3, 0.0)}))
    differentiate_energy(strong, t0=1e-6, levels=2, radial_points=32, angular_modes=8)
    run = differentiate_energy(family, t0=1e-4, levels=2, radial_points=32, angular_modes=8)
    assert run.d2 == pytest.approx(-0.1077127659574468, rel=0.05)
    # a motionless family has no floor: every sample is the same system, so
    # every second difference is exactly 0
    still = PerturbedDomainFamily(PARAMS, PerturbationSpec({ModeIndex(2, 1): (0.0, 0.0)}))
    run = differentiate_energy(still, t0=1e-150, levels=2, radial_points=32, angular_modes=8)
    assert len(set(run.energies)) == 1
    assert run.d1 == run.d2 == 0.0


@pytest.mark.parametrize(
    "params, alphas",
    [
        (PARAMS, (1.0, 0.0)),
        (ProblemParams(2, 0.5, 100.0), (0.0, 1.0)),
        (ProblemParams(2, 0.5, 1e-4), (0.0, 1.0)),  # E(0) = 246, 650 times PARAMS'
        (ProblemParams(2, 0.3, 0.25), (1.0, 1.0)),
        # the interface of a soft core, whose d2 scales with E(0)
        (ProblemParams(2, 0.5, 1e-4), (1.0, 0.0)),
        (ProblemParams(2, 0.5, 1e-12), (1.0, 1.0)),  # E(0) = 2.5e10
    ],
)
def test_the_rounding_floor_bounds_the_error_of_d2(params, alphas):
    # at the smallest t0 the floor accepts, eps E(0)/(h^2 S) = ROUNDING_FLOOR at
    # the finest step h, with S = max(E(0), 1) |alpha_in|^2 + |alpha_out|^2,
    # d2's rounding error is a few ROUNDING_FLOOR S whatever E(0) is (at most
    # 14.5 of them measured over R, sigma, degree and channel); just below it
    # the run is refused
    family = PerturbedDomainFamily(params, PerturbationSpec({ModeIndex(2, 1): alphas}))
    energy = solve_energy(family.at(0.0), 64, 16)
    scale = max(energy, 1.0) * alphas[0] ** 2 + alphas[1] ** 2
    floor = 4.0 * math.sqrt(sys.float_info.epsilon * energy / pde_oracle.ROUNDING_FLOOR / scale)
    reference = differentiate_energy(family, 1e-2, 2, 64, 16).d2
    run = differentiate_energy(family, 1.01 * floor, 2, 64, 16)
    assert abs(run.d2 - reference) <= 16.0 * pde_oracle.ROUNDING_FLOOR * scale
    with pytest.raises(ValueError, match="^t0 below the rounding floor"):
        differentiate_energy(family, 0.99 * floor, 2, 64, 16)


@pytest.mark.parametrize("sigma", [1e-8, 1e-12, 1e-16])
def test_the_rounding_floor_accepts_the_interface_of_a_soft_core(sigma):
    # the interface's d2 grows like E(0), about 1/sigma, and so does the
    # rounding error of its second differences, so runs that the floor once
    # refused at sigma <= 1e-12 match e_in(2) as closely as at sigma = 1e-8
    # (to 1.63e-4, the grid's error); the outer channel stays refused
    # (test_cli's test_oracle_rejects_malformed_configs)
    params = ProblemParams(2, 0.5, sigma)
    family = PerturbedDomainFamily(params, PerturbationSpec({ModeIndex(2, 1): (1.0, 0.0)}))
    run = differentiate_energy(family, 0.01, 2, 64, 16)
    assert run.d2 == pytest.approx(assemble_spectrum(params, 2).e_in, rel=2e-4)


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
    assert len(run.t_samples) == 5


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
    run = differentiate_energy(
        PerturbedDomainFamily(PARAMS, spec), radial_points=16, angular_modes=8, levels=1
    )
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
