"""Independent numerical ground truth for the planar (N=2) problem.

Solves -div(sigma grad u) = 1, u = 0 on the outer boundary, on perturbed
two-phase disks, and recovers first and second t-derivatives of the energy
E(t) = int sigma |grad u_t|^2 by Richardson-extrapolated central differences.

Discretization.  The perturbed domain is mapped to reference coordinates
(s, theta) by a piecewise-linear radial map placing the material interface
exactly at the grid circle s = R:

    r = phi(s, theta) = s rho_D(theta)/R                            s <= R,
    r = rho_D + (s - R)(rho_Omega - rho_D)/(1 - R)                  s >  R,

so the coefficient jump never crosses a cell.  In mapped coordinates the
energy reads

    B[u,u] = int sigma { A11 u_s^2 + 2 A12 u_s u_theta + A22 u_theta^2 },
    A11 = (phi^2 + phi_theta^2)/(phi phi_s),  A12 = -phi_theta/phi,
    A22 = phi_s/phi,

and the scheme is the Ritz minimizer over functions piecewise linear in s
and trigonometric in theta, with coefficients sampled at radial cell
midpoints (conservative, second order) and theta-derivatives applied by the
periodic spectral differentiation matrix.  The center collapses to a single
unknown.  The resulting symmetric block-tridiagonal system is solved by a
block Cholesky-Thomas sweep, and the energy of the discrete solution is
recovered variationally as E = u . q, with the load q integrated exactly for
the piecewise-linear Jacobian.

The perturbation family

    rho(theta, t)^2 = rho_0^2 + 2 rho_0 t g(theta) + t^2 (g^2 - mean(g^2))

preserves the enclosed area of both regions exactly for every t, so the
measured second difference of E is directly comparable to the analytic
second variation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .params import ModeIndex, PerturbationSpec, ProblemParams

DEFAULT_RADIAL_POINTS = 512
DEFAULT_ANGULAR_MODES = 64
DEFAULT_STEP = 1e-2
DEFAULT_LEVELS = 2


class InterfaceOrderingError(RuntimeError):
    """The perturbed interface touched or crossed the outer boundary."""


class SolveError(RuntimeError):
    """The discrete system could not be solved."""


@dataclass(frozen=True)
class AngularProfile:
    """Finite real-Fourier series g(theta) = sum coeff * Y_{k,i}(theta).

    Basis: 1/sqrt(2 pi) for degree 0, cos(k theta)/sqrt(pi) for order 1,
    sin(k theta)/sqrt(pi) for order 2 (orthonormal on the circle).
    """

    terms: tuple[tuple[int, int, float], ...] = ()

    def evaluate(self, theta: np.ndarray) -> np.ndarray:
        g = np.zeros_like(theta)
        for degree, order, coeff in self.terms:
            if degree == 0:
                g += coeff / math.sqrt(2.0 * math.pi)
            elif order == 1:
                g += coeff * np.cos(degree * theta) / math.sqrt(math.pi)
            else:
                g += coeff * np.sin(degree * theta) / math.sqrt(math.pi)
        return g

    def derivative(self, theta: np.ndarray) -> np.ndarray:
        dg = np.zeros_like(theta)
        for degree, order, coeff in self.terms:
            if degree == 0:
                continue
            if order == 1:
                dg += -coeff * degree * np.sin(degree * theta) / math.sqrt(math.pi)
            else:
                dg += coeff * degree * np.cos(degree * theta) / math.sqrt(math.pi)
        return dg

    def mean_square(self) -> float:
        """Exact circle average of g^2 (the basis is orthonormal)."""
        return sum(coeff * coeff for _, _, coeff in self.terms) / (2.0 * math.pi)

    def max_degree(self) -> int:
        return max((degree for degree, _, _ in self.terms), default=0)

    def is_zero(self) -> bool:
        return all(coeff == 0.0 for _, _, coeff in self.terms)


@dataclass(frozen=True)
class PerturbedDomainFamily:
    """Two-phase disk family with exactly area-preserving boundary motion.

    inner_shape and outer_shape are the first-order normal speeds g_D, g_Omega
    of the interface and the outer boundary.  With exact_area (the default)
    the radii follow the quadratic-in-t correction that freezes both enclosed
    areas; with exact_area=False the radii move linearly, rho_0 + t g, which
    is only first-order volume preserving and exists to probe the first
    variation of non-volume-preserving motions.
    """

    params: ProblemParams
    inner_shape: AngularProfile
    outer_shape: AngularProfile
    t: float = 0.0
    exact_area: bool = True

    def __post_init__(self) -> None:
        if self.params.dim != 2:
            raise ValueError("the PDE oracle is restricted to dim = 2")

    @classmethod
    def from_spec(
        cls,
        params: ProblemParams,
        spec: PerturbationSpec,
        t: float = 0.0,
        exact_area: bool = True,
    ) -> "PerturbedDomainFamily":
        inner_terms = []
        outer_terms = []
        for index, (alpha_in, alpha_out) in spec.sorted_items():
            index.check_order(2)
            if alpha_in != 0.0:
                inner_terms.append((index.degree, index.order, alpha_in))
            if alpha_out != 0.0:
                outer_terms.append((index.degree, index.order, alpha_out))
        return cls(
            params=params,
            inner_shape=AngularProfile(tuple(inner_terms)),
            outer_shape=AngularProfile(tuple(outer_terms)),
            t=t,
            exact_area=exact_area,
        )

    def at(self, t: float) -> "PerturbedDomainFamily":
        return replace(self, t=t)

    def _radius(
        self, base: float, shape: AngularProfile, theta: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Radius rho(theta) and its theta-derivative at amplitude self.t."""
        g = shape.evaluate(theta)
        dg = shape.derivative(theta)
        if not self.exact_area:
            return base + self.t * g, self.t * dg
        rho_sq = (
            base * base
            + 2.0 * base * self.t * g
            + self.t * self.t * (g * g - shape.mean_square())
        )
        if np.any(rho_sq <= 0.0):
            raise InterfaceOrderingError("perturbed radius collapsed to zero")
        rho = np.sqrt(rho_sq)
        drho = (base * self.t * dg + self.t * self.t * g * dg) / rho
        return rho, drho

    def boundary_radii(
        self, theta: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(rho_D, rho_D', rho_Omega, rho_Omega') on the angular grid."""
        rho_in, drho_in = self._radius(self.params.core_radius, self.inner_shape, theta)
        rho_out, drho_out = self._radius(1.0, self.outer_shape, theta)
        if np.any(rho_in <= 0.0) or np.any(rho_in >= rho_out):
            raise InterfaceOrderingError(
                "interface ordering 0 < rho_D < rho_Omega violated"
            )
        return rho_in, drho_in, rho_out, drho_out

    def max_degree(self) -> int:
        return max(self.inner_shape.max_degree(), self.outer_shape.max_degree())


def spectral_diff_matrix(m: int) -> np.ndarray:
    """Periodic spectral differentiation matrix on m equispaced points.

    Antisymmetric circulant with entries 0.5 (-1)^j cot(j pi / m); exact for
    trigonometric polynomials up to degree m/2 - 1.
    """
    if m % 2 != 0 or m < 4:
        raise ValueError("angular_modes must be even and >= 4")
    offsets = (np.arange(m)[:, np.newaxis] - np.arange(m)[np.newaxis, :]) % m
    with np.errstate(divide="ignore"):
        entries = 0.5 * (-1.0) ** offsets / np.tan(offsets * math.pi / m)
    return np.where(offsets == 0, 0.0, entries)


def _radial_grid(radius: float, radial_points: int) -> tuple[np.ndarray, int]:
    """Node coordinates with the interface exactly at a node."""
    if radial_points < 4:
        raise ValueError("radial_points must be >= 4")
    j_in = int(round(radial_points * radius))
    j_in = max(1, min(radial_points - 1, j_in))
    inner = radius * np.arange(j_in + 1) / j_in
    outer = radius + (1.0 - radius) * np.arange(1, radial_points - j_in + 1) / (
        radial_points - j_in
    )
    return np.concatenate([inner, outer]), j_in


def _block_thomas_solve(
    diag_blocks: list[np.ndarray], upper_blocks: list[np.ndarray], rhs: list[np.ndarray]
) -> list[np.ndarray]:
    """Solve a symmetric positive definite block-tridiagonal system.

    diag_blocks[i] is square (sizes may vary), upper_blocks[i] couples block
    i to block i+1, and the subdiagonal is the transpose.
    """
    n = len(diag_blocks)
    factors = []
    carried = list(rhs)
    mod_diag = [block.copy() for block in diag_blocks]
    try:
        for i in range(n):
            if i > 0:
                upper = upper_blocks[i - 1]
                solved = cho_solve(factors[i - 1], upper)
                mod_diag[i] -= upper.T @ solved
                mod_diag[i] = 0.5 * (mod_diag[i] + mod_diag[i].T)
                carried[i] = carried[i] - upper.T @ cho_solve(
                    factors[i - 1], carried[i - 1]
                )
            factors.append(cho_factor(mod_diag[i], lower=True))
        solution = [np.empty(0)] * n
        solution[n - 1] = cho_solve(factors[n - 1], carried[n - 1])
        for i in range(n - 2, -1, -1):
            solution[i] = cho_solve(
                factors[i], carried[i] - upper_blocks[i] @ solution[i + 1]
            )
        return solution
    except np.linalg.LinAlgError as exc:
        raise SolveError("block factorization failed") from exc


def solve_energy(
    family: PerturbedDomainFamily,
    radial_points: int = DEFAULT_RADIAL_POINTS,
    angular_modes: int = DEFAULT_ANGULAR_MODES,
) -> float:
    """Energy of the perturbed configuration at the family's amplitude."""
    m = angular_modes
    if m % 2 != 0 or m < 4:
        raise ValueError("angular_modes must be even and >= 4")
    if 2 * family.max_degree() >= m:
        raise ValueError("angular_modes too small for the perturbation degree")
    radius, sigma = family.params.core_radius, family.params.sigma

    theta = 2.0 * math.pi * np.arange(m) / m
    dtheta = 2.0 * math.pi / m
    rho_in, drho_in, rho_out, drho_out = family.boundary_radii(theta)

    s_nodes, j_in = _radial_grid(radius, radial_points)
    n_cells = radial_points
    diff = spectral_diff_matrix(m)

    # map phi, its s-slope (constant per segment), and theta-derivative
    slope_inner = rho_in / radius
    slope_outer = (rho_out - rho_in) / (1.0 - radius)

    def cell_fields(j: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
        s_half = 0.5 * (s_nodes[j] + s_nodes[j + 1])
        if j < j_in:
            phi = s_half * slope_inner
            phi_s = slope_inner
            phi_theta = s_half * drho_in / radius
            conductivity = sigma
        else:
            phi = rho_in + (s_half - radius) * slope_outer
            phi_s = slope_outer
            phi_theta = drho_in + (s_half - radius) * (drho_out - drho_in) / (
                1.0 - radius
            )
            conductivity = 1.0
        return phi, phi_s, phi_theta, conductivity

    def node_jacobian(j: int, cell: int) -> np.ndarray:
        """phi * phi_s at node j using the slope of the given cell."""
        s = s_nodes[j]
        if cell < j_in:
            return (s * slope_inner) * slope_inner
        phi = rho_in + (s - radius) * slope_outer
        return phi * slope_outer

    n_blocks = n_cells  # center + nodes 1..n_cells-1 (node n_cells is Dirichlet)
    diag_blocks: list[np.ndarray] = [np.zeros((1, 1))]
    diag_blocks += [np.zeros((m, m)) for _ in range(n_blocks - 1)]
    upper_blocks: list[np.ndarray] = [np.zeros((1, m))]
    upper_blocks += [np.zeros((m, m)) for _ in range(n_blocks - 2)]
    rhs: list[np.ndarray] = [np.zeros(1)] + [np.zeros(m) for _ in range(n_blocks - 1)]

    for j in range(n_cells):
        h = s_nodes[j + 1] - s_nodes[j]
        phi, phi_s, phi_theta, conductivity = cell_fields(j)
        a11 = conductivity * (phi * phi + phi_theta * phi_theta) / (phi * phi_s)
        a12 = -conductivity * phi_theta / phi
        a22 = conductivity * phi_s / phi

        a_block = (dtheta / h) * np.diag(a11)
        sg = a12[:, np.newaxis] * diff
        sym_sg = 0.5 * (sg + sg.T)
        skew_sg = 0.5 * (sg.T - sg)
        w_block = (dtheta * h / 4.0) * (diff.T @ (a22[:, np.newaxis] * diff))

        k00 = a_block - dtheta * sym_sg + w_block
        k11 = a_block + dtheta * sym_sg + w_block
        k01 = -a_block + dtheta * skew_sg + w_block

        jac_left = node_jacobian(j, j)
        jac_right = node_jacobian(j + 1, j)
        load_left = dtheta * h * (2.0 * jac_left + jac_right) / 6.0
        load_right = dtheta * h * (jac_left + 2.0 * jac_right) / 6.0

        if j == 0:
            # center: u is a single unknown, the constant angular mode
            ones = np.ones(m)
            diag_blocks[0][0, 0] = ones @ a_block @ ones
            upper_blocks[0][0, :] = -(ones @ a_block) - 0.5 * dtheta * (ones @ sg)
            diag_blocks[1] += k11
            rhs[0][0] = np.sum(load_left)
            rhs[1] += load_right
        else:
            diag_blocks[j] += k00
            rhs[j] += load_left
            if j + 1 < n_cells:
                diag_blocks[j + 1] += k11
                upper_blocks[j] += k01
                rhs[j + 1] += load_right
            # j + 1 == n_cells: Dirichlet node, row and column dropped

    solution = _block_thomas_solve(diag_blocks, upper_blocks, rhs)
    return float(sum(np.dot(u, q) for u, q in zip(solution, rhs)))


def enclosed_areas(
    family: PerturbedDomainFamily, angular_modes: int = DEFAULT_ANGULAR_MODES
) -> tuple[float, float]:
    """Quadrature areas of the core and of the whole perturbed domain."""
    theta = 2.0 * math.pi * np.arange(angular_modes) / angular_modes
    rho_in, _, rho_out, _ = family.boundary_radii(theta)
    dtheta = 2.0 * math.pi / angular_modes
    return (
        0.5 * dtheta * float(np.sum(rho_in**2)),
        0.5 * dtheta * float(np.sum(rho_out**2)),
    )


@dataclass(frozen=True)
class OracleRun:
    """One finite-difference differentiation experiment on E(t)."""

    family: PerturbedDomainFamily
    radial_points: int
    angular_modes: int
    t_samples: tuple[float, ...]
    energies: tuple[float, ...]
    d1: float
    d2: float
    convergence_rate: float
    extrapolation_agreement: float

    def energy_at(self, t: float) -> float:
        return self.energies[self.t_samples.index(t)]

    def to_document(self) -> dict:
        return {
            "params": {
                "dim": self.family.params.dim,
                "radius": self.family.params.core_radius,
                "sigma": self.family.params.sigma,
            },
            "inner_shape": [list(term) for term in self.family.inner_shape.terms],
            "outer_shape": [list(term) for term in self.family.outer_shape.terms],
            "exact_area": self.family.exact_area,
            "radial_points": self.radial_points,
            "angular_modes": self.angular_modes,
            "t_samples": list(self.t_samples),
            "energies": list(self.energies),
            "d1": self.d1,
            "d2": self.d2,
            "convergence_rate": self.convergence_rate,
            "extrapolation_agreement": self.extrapolation_agreement,
        }


def _richardson(estimates: list[float]) -> float:
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


def differentiate_energy(
    family: PerturbedDomainFamily,
    t0: float = DEFAULT_STEP,
    levels: int = DEFAULT_LEVELS,
    radial_points: int = DEFAULT_RADIAL_POINTS,
    angular_modes: int = DEFAULT_ANGULAR_MODES,
) -> OracleRun:
    """Central differences of E(t) at steps t0, t0/2, ..., extrapolated.

    Samples t in {0} union {+-t0/2^l}; d1 and d2 are the Richardson limits of
    the first and second central differences.  The convergence rate is the
    observed reduction order of successive raw second differences (needs
    levels >= 2); the extrapolation agreement is the relative gap between the
    last two extrapolants, small when E(t) is smooth (near-quadratic) at
    this scale.
    """
    if t0 <= 0.0:
        raise ValueError("t0 must be positive")
    if levels < 1:
        raise ValueError("levels must be >= 1")
    steps = [t0 / 2.0**level for level in range(levels + 1)]
    samples = sorted({0.0} | {sign * h for h in steps for sign in (+1.0, -1.0)})

    energies = [
        solve_energy(family.at(t), radial_points, angular_modes) for t in samples
    ]
    energy_of = dict(zip(samples, energies))

    base = energy_of[0.0]
    d1_raw = [(energy_of[h] - energy_of[-h]) / (2.0 * h) for h in steps]
    d2_raw = [(energy_of[h] - 2.0 * base + energy_of[-h]) / (h * h) for h in steps]
    d1 = _richardson(d1_raw)
    d2 = _richardson(d2_raw)

    if levels >= 2:
        spacing_coarse = abs(d2_raw[0] - d2_raw[1])
        spacing_fine = abs(d2_raw[1] - d2_raw[2])
        if spacing_fine > 0.0 and spacing_coarse > 0.0:
            rate = math.log2(spacing_coarse / spacing_fine)
        else:
            rate = 2.0  # differences below roundoff: treat as converged
    else:
        rate = float("nan")

    penultimate = _richardson(d2_raw[:-1])
    agreement = abs(d2 - penultimate) / max(abs(d2), 1e-12)

    return OracleRun(
        family=family,
        radial_points=radial_points,
        angular_modes=angular_modes,
        t_samples=tuple(samples),
        energies=tuple(energy_of[t] for t in samples),
        d1=d1,
        d2=d2,
        convergence_rate=rate,
        extrapolation_agreement=agreement,
    )


def family_from_config(config: dict) -> PerturbedDomainFamily:
    """Build a domain family from a configuration dictionary.

    Expected keys: dim, radius, sigma, and modes (a list of records with
    degree, order, alpha_in, alpha_out); optional exact_area flag.
    """
    params = ProblemParams(
        dim=int(config.get("dim", 2)),
        core_radius=float(config["radius"]),
        sigma=float(config["sigma"]),
    )
    modes = {}
    for record in config.get("modes", []):
        index = ModeIndex(int(record["degree"]), int(record.get("order", 1)))
        modes[index] = (
            float(record.get("alpha_in", 0.0)),
            float(record.get("alpha_out", 0.0)),
        )
    spec = PerturbationSpec(modes=modes, allow_mean=bool(config.get("allow_mean", False)))
    return PerturbedDomainFamily.from_spec(
        params, spec, exact_area=bool(config.get("exact_area", True))
    )


def run_from_config(config: dict) -> OracleRun:
    """Run differentiate_energy as described by a configuration dictionary."""
    family = family_from_config(config)
    return differentiate_energy(
        family,
        t0=float(config.get("t0", DEFAULT_STEP)),
        levels=int(config.get("levels", DEFAULT_LEVELS)),
        radial_points=int(config.get("radial_points", DEFAULT_RADIAL_POINTS)),
        angular_modes=int(config.get("angular_modes", DEFAULT_ANGULAR_MODES)),
    )
