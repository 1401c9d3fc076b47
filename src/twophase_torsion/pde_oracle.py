"""Independent numerical ground truth for the planar (N=2) problem.

Solves -div(sigma grad u) = 1, u = 0 on the outer boundary, on perturbed
two-phase disks, and differentiates the discrete energy of the perturbation
amplitude t exactly at t = 0: a run reports E(0) and the first and second
t-derivatives d1 and d2, and nothing else.

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
periodic spectral differentiation matrix D.  The center collapses to a
single unknown.  The system K u = q is symmetric positive definite, with
the load q integrated exactly for the piecewise-linear Jacobian; the energy
of the discrete solution is E = q^T K^{-1} q.  K is applied cell by cell,
never formed (_stiffness), and is linear in the cell rows (_cell_rows).

Derivatives.  E(t) = max_v 2 q(t).v - v.K(t) v is analytic in t, and reads t
through the radii, whose jet at t = 0 is rho = rho_0 + t g - t^2 m/(2 rho_0)
and rho' = t g' to O(t^3), m being the circle mean of g^2 under exact_area
(the family below) and 0 without it.  With K_n and q_n the t^n Taylor
coefficients of the operator and the load, u = K_0^{-1} q_0 and
w = q_1 - K_1 u,

    d1 = 2 q_1.u - u.K_1 u                                (envelope theorem),
    d2 = 4 q_2.u - 2 u.K_2 u + 2 w.K_0^{-1} w.

They are the exact derivatives of the discrete energy, with the grid's h^2
error and no error in t.  At t = 0 the disk is concentric and the run works
one degree at a time, as the paper's second variation does, on radial
arrays per unit angle: no angle is formed.  K_0 and q_0 are the same at
every angle, so u is radial, and each cell's flux on the mode-0 chain is
minus the load inside it: area Delta = -cumsum(q_0) gives u's differences
with no subtraction, and E(0) = 2 pi sum area Delta^2.  The t^1 terms are
linear in g and g', and the t^2 terms of q_2.u and u.K_2 u are angle sums of
quadratics in them, which the trapezoid rule gives exactly below degree m/2
(Parseval): sums of alpha alpha^T over the modes, weighted by 1 or k^2.  On
degree k, D^T D = k^2, so w = q_1 - K_1 u per unit inner or outer speed is a
radial pair W = W_area + k^2 W_shear in closed form, K_0 is one radial
chain, and w.K_0^{-1} w sums alpha^T H_k alpha over the degree's orders,
H_k = W^T chain_k^{-1} W.  A degree-0 mode (exact_area false) reads
the mode-0 chain with the center, which its flux inverts, and is the one
mode with d1 != 0.  The angle count only bounds the degree.

Solver.  A run factors one chain per distinct moving degree k >= 1 on the
n - 1 ring nodes, with diagonal area + k^2 bend from both cells of a node
and coupling k^2 bend - area across a cell, and solves it once with W's two
columns.  cho_factor and cho_solve are this module's names for the LAPACK
pttrf and pttrs bindings, through which the benchmark's tracer
(bench/spans.py) times and counts the calls.  solve_energy, the energy at
any t, runs conjugate gradients (Hestenes & Stiefel) on the full angular
grid, preconditioned by its rows' angular mean without the shear (Concus,
Golub & O'Leary 1976): one chain per real Fourier mode j (the center joins
mode 0's), factored together (_factor) and applied through the real Fourier
pair.  A solve builds one workspace (_Workspace) of its arrays, radial
factors and _motion; the angular_operator of its grid outlives it, shared
read-only.

The perturbation family reads its normal speeds g of the interface and of
the outer boundary from a PerturbationSpec, the package's one description of
a perturbation: alpha_in and alpha_out per circular harmonic (_normal_speeds).
For mean-free g the family

    rho(theta, t)^2 = rho_0^2 + 2 rho_0 t g(theta) + t^2 (g^2 - mean(g^2))

preserves the enclosed area of both regions exactly for every t, so d2 is
directly comparable to the analytic second variation.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np
# LAPACK pttrf and pttrs under the names bench/spans.py traces (module docstring)
from scipy.linalg.lapack import dpttrf as cho_factor, dpttrs as cho_solve

from .params import ModeIndex, PerturbationSpec, ProblemParams

DEFAULT_RADIAL_POINTS = 512
DEFAULT_ANGULAR_MODES = 64
# the largest sigma the oracle accepts.  Over R in {0.3, 0.5, 0.7}, degree 2
# on each boundary channel and sigma from 1e10 to 1e12 in quarter decades,
# every run at 64x16, 256x32, 512x64 and 1024x16 factored its chain and
# matched the sigma = 1e9 run to 3.2e-10 in E(0) and 3.0e-9 in d2, the
# sigma -> infinity limit's own drift; above it runs stay right until d2
# overflows, from 1e305.  The ceiling is solve_energy's.  Its solves of the
# same families at t = 0 and 0.01 matched the sigma = 1e9 solve to 3.2e-10
# up to 1e12 on 64x16, 256x32 and 512x64, but on 1024x16 15 of the 36 at
# 5.6e11 and 1e12 failed to factor the mode-0 chain.  By decades to 1e307
# most fail to factor from 1e14 at 256x32 and 1e15 at 64x16, and 573 and
# 771 of the 2655 t = 0 solves there ended silently wrong by over 1 %, from
# 1e30: at R = 0.3 and sigma = 1e30 on 64x16 each channel read E = 0.402
# for 0.390
SIGMA_CEILING = 1e12


class InterfaceOrderingError(RuntimeError):
    """A perturbed radius collapsed to zero, a radius or a term of the radii's
    jet at t = 0 is not finite, or the interface touched or crossed the outer
    boundary."""


class SolveError(RuntimeError):
    """The discrete system could not be solved."""


def _normal_speeds(spec: PerturbationSpec, theta: np.ndarray) -> np.ndarray:
    """The normal speeds on theta as a (2, 2, angles) array: (g, g') of the
    interface, then (g, g') of the outer boundary.

    g = sum alpha Y_{k,i} over the spec's nonzero coefficients, in the
    circle's orthonormal basis: 1/sqrt(2 pi) for degree 0, cos(k theta)/sqrt(pi)
    for order 1 and sin(k theta)/sqrt(pi) for order 2.
    """
    speeds = np.zeros((2, 2, len(theta)))
    for index, pair in spec.sorted_items():
        degree = index.degree
        for coeff, (g, dg) in zip(pair, speeds):
            if coeff == 0.0:
                continue
            if degree == 0:
                g += coeff / math.sqrt(2.0 * math.pi)
            elif index.order == 1:
                g += coeff * np.cos(degree * theta) / math.sqrt(math.pi)
                dg += -coeff * degree * np.sin(degree * theta) / math.sqrt(math.pi)
            else:
                g += coeff * np.sin(degree * theta) / math.sqrt(math.pi)
                dg += coeff * degree * np.cos(degree * theta) / math.sqrt(math.pi)
    return speeds


@dataclass(frozen=True)
class PerturbedDomainFamily:
    """Two-phase disk family with exactly area-preserving boundary motion.

    The spec's alpha_in and alpha_out give the first-order normal speeds
    g_D, g_Omega of the interface and the outer boundary; every mode's order
    must exist on the circle.  With exact_area (the default) the radii
    follow the quadratic-in-t correction that freezes both enclosed areas,
    which holds for mean-free speeds only, so a nonzero degree-0 mode is
    rejected; with exact_area=False the radii move linearly, rho_0 + t g,
    which is only first-order volume preserving and exists to probe the
    first variation of non-volume-preserving motions.  sigma may not exceed
    SIGMA_CEILING.
    """

    params: ProblemParams
    spec: PerturbationSpec
    t: float = 0.0
    exact_area: bool = True

    def __post_init__(self) -> None:
        for index in self.spec.modes:
            index.check_order(2)
        if self.params.dim != 2:
            raise ValueError("the PDE oracle is restricted to dim = 2")
        if self.params.sigma > SIGMA_CEILING:
            raise ValueError(
                f"sigma = {self.params.sigma:g} exceeds the oracle's ceiling {SIGMA_CEILING:g}"
            )
        if self.exact_area and self.spec.coefficients(ModeIndex(0, 1)) != (0.0, 0.0):
            raise ValueError(
                "exact_area needs modes of degree >= 1; "
                "set exact_area to false for degree-0 modes"
            )

    def at(self, t: float) -> "PerturbedDomainFamily":
        return replace(self, t=t)

    def _motion(self, speeds: np.ndarray) -> tuple[np.ndarray, ...]:
        """What the radii read of the spec and the core radius, the same at
        every t, from the _normal_speeds array of both boundaries: rho_0, g,
        g' and m, the circle mean of g^2 with exact_area and 0 without it,
        each a (2, angles) array or a (2, 1) column, the interface's row
        first."""
        base = np.array([[self.params.core_radius], [1.0]])
        mean_square = np.zeros_like(base)
        if self.exact_area:
            # the circle average of g^2: the basis is orthonormal
            items = self.spec.sorted_items()
            squares = [[sum(pair[side] * pair[side] for _, pair in items)] for side in (0, 1)]
            mean_square = np.array(squares) / (2.0 * math.pi)
        return base, speeds[:, 0], speeds[:, 1], mean_square

    def _radii(
        self, motion: tuple[np.ndarray, ...], t: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Radii rho(theta) and their theta-derivatives at amplitude t, each a
        (2, angles) array, the interface's row first, from the family's
        _motion."""
        base, g, dg, mean_square = motion
        if not self.exact_area:
            rho, drho = base + t * g, t * dg
        else:
            rho_sq = base * base + t * (2.0 * base * g) + t * t * (g * g - mean_square)
            if np.any(rho_sq <= 0.0):
                raise InterfaceOrderingError("perturbed radius collapsed to zero")
            rho = np.sqrt(rho_sq)
            drho = (t * (base * dg) + t * t * (g * dg)) / rho
        # an overflowing g or g^2 makes a radius NaN, which passes every comparison
        if not np.isfinite(rho).all():
            raise InterfaceOrderingError("perturbed radius is not finite")
        if np.any(rho[0] <= 0.0) or np.any(rho[0] >= rho[1]):
            raise InterfaceOrderingError(
                "interface ordering 0 < rho_D < rho_Omega violated"
            )
        return rho, drho

    def boundary_radii(
        self, theta: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(rho_D, rho_D', rho_Omega, rho_Omega') on the angular grid."""
        motion = self._motion(_normal_speeds(self.spec, theta))
        (rho_in, rho_out), (drho_in, drho_out) = self._radii(motion, self.t)
        return rho_in, drho_in, rho_out, drho_out


class AngularOperator(NamedTuple):
    """The angular pieces of the scheme on m equispaced points (angular_operator)."""

    diff: np.ndarray  # (m, m) spectral differentiation matrix D
    eigen: np.ndarray  # (m/2 + 1,) eigenvalues of D^T D by real Fourier mode
    analysis: np.ndarray  # (2, m/2 + 1, m) cos and sin of j theta
    synthesis: np.ndarray  # (m + 2, m) the inverse of analysis on real data


@functools.lru_cache(maxsize=8)  # a process runs a few grids; an operator at m = 256 is 1.5 MB
def angular_operator(m: int) -> AngularOperator:
    """The periodic spectral differentiation matrix D on m equispaced points,
    the eigenvalues of D^T D by real Fourier mode j = 0..m/2, and the real
    Fourier transform pair of the preconditioner, built once per m and
    returned read-only, as every workspace of the grid shares them.  m must
    be even and at least 4, as _Workspace checks.

    D is the antisymmetric circulant with entries 0.5 (-1)^j cot(j pi / m) at
    offset j, built from one coefficient row with c_{m-j} = -c_j and
    c_{m/2} = 0, so D^T = -D holds exactly; exact for trigonometric
    polynomials up to degree m/2 - 1.  D^T D takes cos(j theta) and
    sin(j theta) to j^2 times themselves and annihilates the Nyquist mode.
    analysis @ x gives the cos and sin coefficients sum x cos(j theta) and
    sum x sin(j theta), the real and (negated) imaginary parts of rfft(x),
    and coefficients @ synthesis gives back x, as irfft does.
    """
    j = np.arange(1, m // 2)
    coefficients = np.zeros(m)
    coefficients[j] = 0.5 * (-1.0) ** j / np.tan(j * math.pi / m)
    coefficients[m - j] = -coefficients[j]
    offsets = (np.arange(m)[:, np.newaxis] - np.arange(m)[np.newaxis, :]) % m
    eigen = np.arange(m // 2 + 1.0) ** 2
    eigen[-1] = 0.0  # D annihilates the Nyquist mode
    # j theta_k reduced mod 2 pi exactly, so sin vanishes at j = 0 and m/2
    angles = 2.0 * math.pi / m * (np.outer(np.arange(m // 2 + 1), np.arange(m)) % m)
    analysis = np.stack([np.cos(angles), np.sin(angles)])
    analysis[1, [0, -1]] = 0.0
    weights = np.full(m // 2 + 1, 2.0 / m)
    weights[[0, -1]] = 1.0 / m
    synthesis = (weights[:, np.newaxis] * analysis).reshape(m + 2, m)
    operator = AngularOperator(coefficients[offsets], eigen, analysis, synthesis)
    for array in operator:
        array.flags.writeable = False
    return operator


def _radial_grid(radius: float, radial_points: int) -> tuple[np.ndarray, int]:
    """Node coordinates with the interface exactly at a node."""
    j_in = int(round(radial_points * radius))
    j_in = max(1, min(radial_points - 1, j_in))
    inner = radius * np.arange(j_in + 1) / j_in
    outer = radius + (1.0 - radius) * np.arange(1, radial_points - j_in + 1) / (radial_points - j_in)
    return np.concatenate([inner, outer]), j_in


def _load_weights(s_nodes: np.ndarray, j_in: int, radius: float, dtheta: float) -> np.ndarray:
    """The (nodes, 3) load weights of rho_D^2/R^2, rho_D B and B^2 at the angle
    step dtheta, the center's row first: each cell's load is the exact
    integral of its Jacobian phi phi_s, s rho_D^2/R^2 in the core and
    rho_D B + (s - R) B^2 in the shell."""
    inner, outer = slice(None, j_in), slice(j_in, None)
    left, right = s_nodes[:-1, np.newaxis], s_nodes[1:, np.newaxis]
    # the Jacobian at each cell's left and right node, by load factor
    jacobian_left, jacobian_right = np.zeros((2, left.size, 3))
    jacobian_left[inner, :1], jacobian_right[inner, :1] = left[inner], right[inner]
    jacobian_left[outer, 1] = jacobian_right[outer, 1] = 1.0
    jacobian_left[outer, 2:] = left[outer] - radius
    jacobian_right[outer, 2:] = right[outer] - radius
    width = dtheta * (right - left) / 6.0
    weights = width * (2.0 * jacobian_left + jacobian_right)  # each cell's left node
    weights[1:] += width[:-1] * (jacobian_left[:-1] + 2.0 * jacobian_right[:-1])
    return weights


def _radial_factors(radius: float, radial_points: int, angular_modes: int) -> tuple:
    """What _cell_rows reads of the grid, read-only as a workspace keeps them:
    the interface node j_in; the core cells' factors dtheta s/h and
    dtheta h/(4 s); the shell cells' offsets s - R and factors dtheta/h and
    dtheta h/4, as (cells, 1) columns at the midpoints s; the _load_weights."""
    s_nodes, j_in = _radial_grid(radius, radial_points)
    dtheta = 2.0 * math.pi / angular_modes
    inner, outer = slice(None, j_in), slice(j_in, None)
    left, right = s_nodes[:-1, np.newaxis], s_nodes[1:, np.newaxis]
    h, s = right - left, 0.5 * (left + right)
    core = (dtheta * s[inner] / h[inner], dtheta * h[inner] / (4.0 * s[inner]))
    shell = (s[outer] - radius, dtheta / h[outer], dtheta * h[outer] / 4.0)
    weights = _load_weights(s_nodes, j_in, radius, dtheta)
    for array in (*core, *shell, weights):
        array.flags.writeable = False
    return j_in, core, shell, weights


def _check_grid(radial_points: int, angular_modes: int) -> None:
    """Refuse fewer than 4 radial points, or an odd angle count or below 4."""
    if radial_points < 4:
        raise ValueError("radial_points must be >= 4")
    if angular_modes % 2 != 0 or angular_modes < 4:
        raise ValueError("angular_modes must be even and >= 4")


def _moving_modes(
    spec: PerturbationSpec, angular_modes: int
) -> list[tuple[ModeIndex, tuple[float, float]]]:
    """The spec's modes with a nonzero coefficient, by (degree, order).
    Raises ValueError when such a degree is at least angular_modes/2, which
    the grid cannot resolve."""
    moving = [(index, pair) for index, pair in spec.sorted_items() if any(pair)]
    if moving and 2 * moving[-1][0].degree >= angular_modes:
        raise ValueError("angular_modes too small for the perturbation degree")
    return moving


class _Workspace:
    """What a solve of one family on one grid reads or writes, built once
    (module docstring): the grid's shared angular_operator, the radial
    factors, the family's _motion and the arrays.  The grid, then the
    degrees against it (_moving_modes, which refuses a degree the grid
    cannot resolve) are checked before anything is built."""

    @np.errstate(all="ignore")  # the radii's checks refuse an overflowing g or g^2
    def __init__(
        self, family: PerturbedDomainFamily, radial_points: int, angular_modes: int
    ) -> None:
        _check_grid(radial_points, angular_modes)
        _moving_modes(family.spec, angular_modes)
        self.family, self.grid = family, (radial_points, angular_modes)
        n, m = radial_points, angular_modes
        self.angular = angular_operator(m)
        theta = 2.0 * math.pi * np.arange(m) / m
        self.motion = family._motion(_normal_speeds(family.spec, theta))
        self.factors = _radial_factors(family.params.core_radius, n, m)
        shapes = [
            (3, n, m),  # rows: area, shear/2 and bend by cell and angle (_cell_rows)
            (1 + (n - 1) * m,),  # load
            (n + 1, m),  # nodes: the node values; the Dirichlet row stays 0
            (5, n, m),  # cells: _stiffness' delta, slope, f, h and scratch
            (2, 1 + (m // 2 + 1) * (n - 1)),  # rhs: the chains' cos and sin right-hand sides
            (2 * (m // 2 + 1), n - 1),  # coefficients: the rings' Fourier coefficients
            # vectors of unknowns: K v, the preconditioned residual and CG's
            (5, 1 + (n - 1) * m),
        ]
        offsets = list(itertools.accumulate(map(math.prod, shapes), initial=0))
        memory = np.empty(offsets[-1])
        self.rows, self.load, self.nodes, self.cells, self.rhs, self.coefficients, vectors = (
            memory[start:end].reshape(shape)
            for shape, start, end in zip(shapes, offsets, offsets[1:])
        )
        self.nodes[-1] = 0.0
        self.product, self.preconditioned, self.residual, self.direction, self.scaled = vectors


def _cell_rows(
    work: _Workspace, rho: np.ndarray, drho: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The (area, shear/2, bend) coefficient rows of every radial cell, and
    the load: the center's, then node 1..n-1's, one angular ring after the
    other (the unknowns' order; the Dirichlet node n is dropped), from the
    radii rho and their theta-derivatives drho at one t, each a (2, angles)
    array, the interface's row first.  Written to work.rows and work.load.

    A row is dtheta/h A11, dtheta/2 A12 and dtheta h/4 A22 at the cell's
    midpoint s, times sigma in the core.  There phi = s rho_D/R, so each row
    is a radial factor times an angular one: area = (sigma dtheta s/h)
    (1 + (rho_D'/rho_D)^2), shear/2 = -sigma dtheta/2 rho_D'/rho_D and
    bend = sigma dtheta h/(4 s).  In the shell phi = A + (s - R) B with
    A = rho_D and B = (rho_Omega - rho_D)/(1 - R), and one reciprocal 1/phi
    serves all three rows.
    """
    radius, sigma = work.family.params.core_radius, work.family.params.sigma
    dtheta = 2.0 * math.pi / work.grid[1]
    (rho_in, rho_out), (drho_in, drho_out) = rho, drho
    j_in, (core_area, core_bend), (offset, shell_area, shell_bend), _ = work.factors
    area, half_shear, bend = work.rows

    log_slope = drho_in * (1.0 / rho_in)
    area[:j_in] = core_area * (sigma * (log_slope * log_slope + 1.0))
    half_shear[:j_in] = (-0.5 * sigma * dtheta) * log_slope
    bend[:j_in] = sigma * core_bend

    slope = (rho_out - rho_in) / (1.0 - radius)
    phi = rho_in + offset * slope
    phi_theta = drho_in + offset * ((drho_out - drho_in) / (1.0 - radius))
    reciprocal = 1.0 / phi
    shear_ratio = phi_theta * reciprocal  # phi_theta/phi
    # (phi^2 + phi_theta^2)/(phi phi_s) as (phi + phi_theta^2/phi)/B
    area[j_in:] = (phi + phi_theta * shear_ratio) * (1.0 / slope) * shell_area
    half_shear[j_in:] = (-0.5 * dtheta) * shear_ratio
    bend[j_in:] = slope * reciprocal * shell_bend

    # the load from the load factors rho_D^2/R^2, rho_D B and B^2 of each
    # angle; the center is a single unknown, the constant angular mode
    factors = np.stack([rho_in * rho_in / (radius * radius), rho_in * slope, slope * slope])
    nodes = np.matmul(work.factors[-1], factors, out=work.cells[-1])
    work.load[0] = np.sum(nodes[0])
    work.load[1:] = nodes[1:].ravel()
    return work.rows, work.load


def _stiffness(work: _Workspace, rows: np.ndarray, v: np.ndarray) -> np.ndarray:
    """K v into work.product, cell by cell, for the (area, shear/2, bend)
    rows of K and the unknowns v in load order.

    A cell's energy area Delta^2 + 2 (shear/2) Delta P + bend P^2 has the
    gradient F + H at its right node and H - F at its left node, with
    F = area Delta + (shear/2) P and H = D^T ((shear/2) Delta + bend P).
    The center's row is the theta-sum of cell 0's left gradient.
    """
    (area, half_shear, bend), diff, nodes = rows, work.angular.diff, work.nodes
    delta, slope, f, h, scratch = work.cells
    nodes[0] = v[0]
    nodes[1:-1] = v[1:].reshape(len(area) - 1, -1)
    np.subtract(nodes[1:], nodes[:-1], out=delta)
    np.matmul(np.add(nodes[1:], nodes[:-1], out=scratch), diff.T, out=slope)
    np.multiply(area, delta, out=f)
    f += np.multiply(half_shear, slope, out=h)
    np.multiply(half_shear, delta, out=scratch)
    scratch += np.multiply(bend, slope, out=h)
    np.matmul(scratch, diff, out=h)
    work.product[0] = np.sum(h[0] - f[0])
    rings = np.add(f[:-1], h[:-1], out=work.product[1:].reshape(len(f) - 1, -1))
    rings += h[1:]
    rings -= f[1:]
    return work.product


def _factor(work: _Workspace, area: np.ndarray, bend: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """pttrf's diagonal and subdiagonal factors of the chains of the
    concentric operator whose area and bend rows are the same at every angle
    and take the given values by cell: the mean of a solve's rows over the
    angles, shear dropped (solve_energy).

    Its chains are ordered [center, mode 0 | mode 1 | ... | mode m/2]: the
    diagonal takes area + j^2 bend of both cells of a node, the coupling
    across a cell is j^2 bend - area.  The first chain, of the first
    radial_points entries, is the center's and mode 0's.
    """
    angular_part = work.angular.eigen[:, np.newaxis] * bend
    diagonal, coupling = area + angular_part, angular_part - area
    coupling[:, -1] = 0.0  # the last node's coupling goes to the Dirichlet node
    d = np.concatenate([[area[0]], (diagonal[:, :-1] + diagonal[:, 1:]).ravel()])
    e = np.concatenate([[-area[0]], coupling[:, 1:].ravel()[:-1]])
    d, e, info = cho_factor(d, e, overwrite_d=1, overwrite_e=1)
    if info != 0:
        raise SolveError("block factorization failed")
    return d, e


def _preconditioner(
    work: _Workspace, factors: tuple[np.ndarray, np.ndarray]
) -> Callable[[np.ndarray], np.ndarray]:
    """The inverse of the factored chains, applied into work.preconditioned
    by the real Fourier pair: the cos and the sin coefficients of each ring
    are the right-hand sides of one chain solve; the center's chain unknown
    is the angle count m times its value.
    """
    angular, rhs, result = work.angular, work.rhs, work.preconditioned
    d, e = factors
    rings, m = work.grid[0] - 1, work.grid[1]
    modes = len(angular.eigen)
    # the rings' Fourier coefficients by side and mode, in rhs and in work.coefficients
    spectra = rhs[:, 1:].reshape(2, modes, rings)
    coefficients = work.coefficients.reshape(2, modes, rings)

    def precondition(residual: np.ndarray) -> np.ndarray:
        rhs[0, 0] = residual[0]
        rhs[1:, 0] = 0.0
        np.matmul(angular.analysis, residual[1:].reshape(rings, -1).T, out=spectra)
        solution, _ = cho_solve(d, e, rhs.T, overwrite_b=1)
        result[0] = solution[0, 0] / m
        np.copyto(coefficients, solution[1:].T.reshape(2, modes, rings))
        np.matmul(work.coefficients.T, angular.synthesis, out=result[1:].reshape(rings, -1))
        return result

    return precondition


def _positive(value: float) -> float:
    """value, which must be finite and positive (r.z and p.Kp in CG, E(0))."""
    if not math.isfinite(value):
        raise SolveError("energy is not finite")
    if value <= 0.0:
        raise SolveError("system is not positive definite")
    return value


@np.errstate(all="ignore")  # a non-finite energy raises SolveError instead
def solve_energy(
    family: PerturbedDomainFamily,
    radial_points: int = DEFAULT_RADIAL_POINTS,
    angular_modes: int = DEFAULT_ANGULAR_MODES,
) -> float:
    """Energy of the perturbed configuration at the family's amplitude.

    Conjugate gradients from u = 0 on the full angular grid, preconditioned
    by the factored chains of the solve's own rows (module docstring),
    stopped when a step's energy increment alpha r.z is at most eps E or the
    residual is exactly zero.  The workspace checks the grid and the degrees
    before anything is built.  A non-finite or non-positive r.z or p.Kp
    raises SolveError, as do more steps than unknowns.
    """
    work = _Workspace(family, radial_points, angular_modes)
    rho, drho = family._radii(work.motion, family.t)
    rows, load = _cell_rows(work, rho, drho)
    area, bend = rows[::2].mean(axis=-1)
    precondition = _preconditioner(work, _factor(work, area, bend))
    residual, direction, scaled = work.residual, work.direction, work.scaled
    np.copyto(residual, load)
    energy = 0.0
    previous = None  # r.z of the previous step; the first has no direction
    for _ in range(load.size):
        z = precondition(residual)
        gamma = float(residual @ z)
        if gamma == 0.0 and not residual.any():
            # the last step solved the system exactly, as it does when the
            # preconditioner is the operator itself (t = 0)
            break
        gamma = _positive(gamma)
        if previous is None:
            np.copyto(direction, z)
        else:
            direction *= gamma / previous
            direction += z
        product = _stiffness(work, rows, direction)
        step = gamma / _positive(float(direction @ product))
        energy += step * gamma
        if step * gamma <= sys.float_info.epsilon * energy:
            break
        residual -= np.multiply(product, step, out=scaled)
        previous = gamma
    else:
        raise SolveError("iteration did not converge")
    return _positive(energy)


@dataclass(frozen=True)
class OracleRun:
    """One oracle run: E(0) and the exact t-derivatives d1 and d2 of the
    discrete energy at t = 0."""

    family: PerturbedDomainFamily
    radial_points: int
    angular_modes: int
    energy: float
    d1: float
    d2: float

    def to_document(self) -> dict:
        return {
            "params": {
                "dim": self.family.params.dim,
                "radius": self.family.params.core_radius,
                "sigma": self.family.params.sigma,
            },
            **self.family.spec.to_document(),
            "exact_area": self.family.exact_area,
            "radial_points": self.radial_points,
            "angular_modes": self.angular_modes,
            # E(0) as the one sample at t = 0, where bench/checks.py reads it
            "t_samples": [0.0],
            "energies": [self.energy],
            "d1": self.d1,
            "d2": self.d2,
        }


@np.errstate(all="ignore")  # a non-finite energy or derivative raises instead
def differentiate_energy(
    family: PerturbedDomainFamily,
    radial_points: int = DEFAULT_RADIAL_POINTS,
    angular_modes: int = DEFAULT_ANGULAR_MODES,
) -> OracleRun:
    """E(0) and its exact t-derivatives d1 and d2 at t = 0, degree by degree
    (module docstring).  The family must be at t = 0; the grid and the
    degrees are checked as solve_energy checks them.  A non-finite term of
    the radii's jet raises InterfaceOrderingError, and a non-finite E(0), d1
    or d2 SolveError.

    Per unit angle, with s the cell midpoints, phi_0 = s, beta = 1/(1 - R)
    and a = beta (s - R), the shell's slope B has the t^n terms
    B_1 = beta (g_out - g_in) and B_2 = beta (rho_Omega,2 - rho_D,2),
    rho_2 = -m/(2 rho_0), and its phi_theta theta_1 = (1 - a) g_in' + a g_out',
    so that the rows and load factors (_cell_rows) read

        area       sigma s/h, s/h;  bend  sigma h/(4 s), h/(4 s)
        t^1 area   0, (g_in - R B_1)/h
        t^1 shear  -sigma g_in'/(2 R), -theta_1/(2 s)
        t^2 area   sigma g_in'^2/(R^2) s/h,
                   (rho_D,2 - g_in B_1 + R (B_1^2 - B_2) + theta_1^2/s)/h
        load       (1, R, 1), (2 g_in/R, g_in + R B_1, 2 B_1),
                   ((g_in^2 - m_in)/R^2, rho_D,2 + g_in B_1 + R B_2,
                   B_1^2 + 2 B_2)

    in the core and the shell, and the t^2 terms are summed over the circle.
    """
    if family.t != 0.0:
        raise ValueError(f"the family must be at t = 0, not t = {family.t:g}")
    _check_grid(radial_points, angular_modes)
    modes = _moving_modes(family.spec, angular_modes)
    radius, sigma, tau = family.params.core_radius, family.params.sigma, 2.0 * math.pi
    # the circle integrals of g_in^2, g_in g_out and g_out^2 and of the same
    # products of g' are sums of alpha alpha^T weighted by 1 and k^2, as the
    # basis is orthonormal; the jet is finite where m and bounds of |g| and
    # |g'| are: sqrt(pi) max |Y| is 1/sqrt(2) on degree 0 and 1 above, and
    # sqrt(pi) max |Y'| is k
    alphas = np.array([pair for _, pair in modes], dtype=float).reshape(-1, 2)
    by_mode = np.array(
        [[1.0, index.degree**2, 1.0 if index.degree else math.sqrt(0.5), index.degree]
         for index, _ in modes]
    ).reshape(-1, 4)
    integrals = np.einsum("mk,mi,mj->kij", by_mode[:, :2], alphas, alphas).reshape(2, 4)
    m_in, m_out = (integrals[0, [0, 3]] / tau).tolist() if family.exact_area else (0.0, 0.0)
    if not (np.isfinite(np.abs(alphas).T @ by_mode[:, 2:]).all() and math.isfinite(m_in + m_out)):
        raise InterfaceOrderingError("perturbed radius is not finite")
    (g_ii, g_io, g_oo), (t_ii, t_io, t_oo) = integrals[:, [0, 1, 3]].tolist()
    s_nodes, j_in = _radial_grid(radius, radial_points)
    n, core, shell = radial_points, slice(None, j_in), slice(j_in, None)
    h, s = s_nodes[1:] - s_nodes[:-1], 0.5 * (s_nodes[:-1] + s_nodes[1:])
    area, bend = s / h, h / (4.0 * s)
    area[core], bend[core] = sigma * area[core], sigma * bend[core]
    # the t^1 rows by cell, per unit inner and outer speed (the columns)
    beta = 1.0 / (1.0 - radius)
    s_shell, h_shell = s[shell], h[shell]
    a = beta * (s_shell - radius)
    area_1 = np.zeros((n, 2))
    area_1[shell] = np.outer(1.0 / h_shell, (1.0 + radius * beta, -radius * beta))
    shear_1 = np.empty((n, 2))
    shear_1[core] = (-0.5 * sigma / radius, 0.0)
    shear_1[shell] = np.column_stack([1.0 - a, a]) * (-0.5 / s_shell)[:, np.newaxis]
    # the t^2 area row summed over the circle, by cell
    rho_in, rho_out = -m_in / (2.0 * radius), -m_out / 2.0
    slope_2 = beta * (rho_out - rho_in)
    in_slope, slope_slope = beta * (g_io - g_ii), beta * beta * (g_ii - 2.0 * g_io + g_oo)
    level = tau * rho_in - in_slope + radius * (slope_slope - tau * slope_2)
    theta_theta = t_ii + a * (2.0 * (t_io - t_ii) + a * (t_ii - 2.0 * t_io + t_oo))
    area_2 = np.empty(n)
    area_2[core] = (t_ii / (radius * radius)) * area[core]
    area_2[shell] = (level + theta_theta / s_shell) / h_shell
    # the load by node, the center's first: q_0, q_1 per unit speed and q_2
    # summed over the circle
    factors = np.array([
        [1.0, 2.0 / radius, 0.0, (g_ii - tau * m_in) / (radius * radius)],
        [radius, 1.0 - radius * beta, radius * beta, tau * (rho_in + radius * slope_2) + in_slope],
        [1.0, -2.0 * beta, 2.0 * beta, slope_slope + 2.0 * tau * slope_2],
    ])
    loads = _load_weights(s_nodes, j_in, radius, 1.0) @ factors
    load_1 = loads[:, 1:3]

    # the flux through each cell is minus the load inside it
    flux = np.cumsum(loads[:, 0])
    delta = -flux / area
    u = -np.cumsum(delta[::-1])[::-1]  # the Dirichlet node's u is 0
    energy = -tau * (flux @ delta)
    # w = q_1 - K_1 u per unit speed: its area part on mode 0, the center's
    # first, and its shear/2 part on degree k over k^2, on the rings
    f = area_1 * delta[:, np.newaxis]
    w_area = load_1 + f
    w_area[1:] -= f[:-1]
    sheared = shear_1 * delta[:, np.newaxis]
    w_shear = -(sheared[:-1] + sheared[1:])

    d1, d2 = 0.0, 4.0 * (loads[:, 3] @ u) - 2.0 * (area_2 @ (delta * delta))
    for degree, group in itertools.groupby(modes, key=lambda mode: mode[0].degree):
        pairs = [pair for _, pair in group]
        if degree == 0:
            d1 = math.sqrt(tau) * ((2.0 * (u @ load_1) - delta @ f) @ pairs[0])
            # the mode-0 chain with the center, inverted by its flux
            inside = np.cumsum(w_area, axis=0)
            form = inside.T @ (inside / area[:, np.newaxis])
        else:
            k2 = float(degree * degree)
            w = w_area[1:] + k2 * w_shear
            chain = area + k2 * bend
            diagonal, coupling = chain[:-1] + chain[1:], (k2 * bend - area)[1:-1]
            d, e, info = cho_factor(diagonal, coupling, overwrite_d=1, overwrite_e=1)
            if info != 0:
                raise SolveError("block factorization failed")
            form = w.T @ cho_solve(d, e, w)[0]
        (h_ii, h_io), (_, h_oo) = form.tolist()
        d2 += 2.0 * sum(x * x * h_ii + 2.0 * x * y * h_io + y * y * h_oo for x, y in pairs)
    energy, d1, d2 = float(energy), float(d1), float(d2)
    if not (math.isfinite(d1) and math.isfinite(d2)):
        raise SolveError("energy is not finite")
    return OracleRun(family, radial_points, angular_modes, _positive(energy), d1, d2)


_CONFIG_KEYS = frozenset(
    {
        "dim", "radius", "sigma", "modes", "exact_area",
        "t0", "levels", "radial_points", "angular_modes",
    }
)
_MODE_KEYS = frozenset({"degree", "order", "alpha_in", "alpha_out"})
_JSON_TYPES = {int: "integer", float: "number", bool: "boolean", list: "list"}


class MissingKeyError(KeyError):
    """A required config key is absent."""

    def __str__(self) -> str:
        return f"missing required key {self.args[0]!r}"


def _check_keys(record, keys: frozenset, what: str) -> None:
    """record must be a JSON object with no key outside keys."""
    if not isinstance(record, dict):
        raise TypeError(f"{what} must be a JSON object")
    unknown = sorted(set(record) - keys)
    if unknown:
        raise ValueError(f"unknown {what} key {unknown[0]!r}")


def _field(record: dict, key: str, kind: type, default=None):
    """record[key] as kind, which must also be its JSON type: an integer is
    a number, but a boolean is neither and a fraction is no integer.  With
    no default the key is required."""
    if key not in record:
        if default is None:
            raise MissingKeyError(key)
        return default
    value = record[key]
    accepted = (int, float) if kind is float else (kind,)
    if type(value) not in accepted:
        raise TypeError(f"{key} must be a JSON {_JSON_TYPES[kind]}")
    try:
        return kind(value)
    except OverflowError:  # an integer past the float range reads as 1e400 does
        return math.inf if value > 0 else -math.inf


def family_from_config(config: dict) -> PerturbedDomainFamily:
    """Build a domain family from a configuration dictionary.

    Keys: dim (default 2), radius, sigma, modes (default none; a list of
    records with degree, order, alpha_in, alpha_out, as
    PerturbationSpec.to_document writes them), the optional exact_area flag, and the run keys of
    run_from_config.  Unknown keys, values of the wrong JSON type and a
    repeated (degree, order) are rejected.
    """
    _check_keys(config, _CONFIG_KEYS, "config")
    params = ProblemParams(
        dim=_field(config, "dim", int, 2),
        core_radius=_field(config, "radius", float),
        sigma=_field(config, "sigma", float),
    )
    modes = {}
    for record in _field(config, "modes", list, []):
        _check_keys(record, _MODE_KEYS, "mode")
        index = ModeIndex(
            _field(record, "degree", int), _field(record, "order", int, 1)
        )
        if index in modes:
            raise ValueError(
                f"duplicate mode (degree {index.degree}, order {index.order})"
            )
        modes[index] = (
            _field(record, "alpha_in", float, 0.0),
            _field(record, "alpha_out", float, 0.0),
        )
    spec = PerturbationSpec(modes=modes)
    return PerturbedDomainFamily(
        params, spec, exact_area=_field(config, "exact_area", bool, True)
    )


def run_from_config(config: dict) -> OracleRun:
    """Run differentiate_energy as described by a configuration dictionary.
    t0 and levels, the steps of an earlier sampled differentiation, are
    type-checked and not read."""
    family = family_from_config(config)
    for key, kind in (("t0", float), ("levels", int)):
        _field(config, key, kind, kind())
    return differentiate_energy(
        family,
        radial_points=_field(config, "radial_points", int, DEFAULT_RADIAL_POINTS),
        angular_modes=_field(config, "angular_modes", int, DEFAULT_ANGULAR_MODES),
    )
