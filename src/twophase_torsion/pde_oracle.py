"""Independent numerical ground truth for the planar (N=2) problem.

Solves -div(sigma grad u) = 1, u = 0 on the outer boundary, on perturbed
two-phase disks, and recovers first and second t-derivatives of the energy
E(t) = int sigma |grad u_t|^2 by Richardson-extrapolated central differences.
A run reports its samples t, their energies and the two derivatives, and
nothing else: any further figure, such as the t-order of the raw second
differences, is recomputed from the samples and energies.

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
of the discrete solution is E = u . q = q^T K^{-1} q.

Solver.  K is applied cell by cell, never formed (_stiffness).  E is the sum
of the step increments alpha r.z of conjugate gradients (Hestenes & Stiefel),
begun at -2 J(u0) = u0 . (q + r0) for a start vector u0 with residual r0, or
at u = 0 when that is not positive; u is formed alongside, one axpy per step,
for the later samples' start vectors.  differentiate_energy solves its samples
outwards from t = 0 and starts each at the Lagrange polynomial through the five
nearest solutions already solved (Fischer 1998; Saad 2003, section 6): u(t) is
analytic in t, so the start is close and each later sample needs a few steps.
Each solve is preconditioned by an operator of cell rows averaged in theta,
with the shear dropped (Concus, Golub & O'Leary 1976): with area and bend
constant in theta and no shear, K splits by real Fourier mode j into one SPD
tridiagonal radial chain (the center joins mode 0's), all factored together
(_factor) and applied by a real cos and sin analysis matrix, one chain solve
with the cos and sin parts as its two right-hand sides (the cos part alone
on half a sector, below), and the synthesis matrix back.  At t = 0,
phi_theta = 0 removes the shear and area and bend are already constant in
theta, so the preconditioner is the concentric operator K(0) itself.  A solve
on its own factors the chains of its own rows.  differentiate_energy keeps
the t = 0 solve's, K(0)'s, on its run's workspace for every later sample,
which uses them while their cell coefficients stay within a factor of 2 of
its own (_fits) and otherwise factors its own, kept for the samples after
it.  For mean-free speeds a sample's averaged rows differ from K(0)'s at O(t^2) only,
so a run of small steps factors once; a degree-15 core at t0 = 0.2 leaves
K(0)'s chains by 2.5 and 7.3 at t = 0.1 and 0.2, and factors again there.
The preconditioner changes the steps, not the energy, which every
sample reads to rounding as a solve on its own does.  D, the chains'
eigenvalues j^2 and the cos and sin pair come from one function,
angular_operator.  cho_factor and cho_solve are this module's names for the
LAPACK pttrf and pttrs bindings, kept because the benchmark's tracer
(bench/spans.py) times and counts the calls through those two module
attributes.  A run has one workspace (_Workspace), built for its family and
grid before its first solve and read and written by each of its samples: the
family's period and mirror axis, the angular operator and multiplicities of
the angles solved, the radial factors and what the radii read of the normal
speeds at every t (PerturbedDomainFamily._motion), the held chains and the
solutions solved, and the arrays every solve writes by out= and in-place
ufuncs, in the order of the expressions they replace, so the energies are bit
for bit those of fresh arrays; only u is new in each solve, as the run keeps
it.  A solve on its own builds its own workspace, and nothing is kept between
runs.  The arrays are views of one allocation.  glibc raises its trim
threshold to twice the largest block it has unmapped (mallopt(3),
M_MMAP_THRESHOLD and M_TRIM_THRESHOLD), so once one run has freed that block
the next reuses the pages at the top of the heap.  Allocated one by one, the
largest 0.2 MB at 256x32, they set the threshold below the 0.8 MB a run
frees, which went back to the kernel and was faulted in again by the next
run: 116 pages and about 0.4 ms a run, against 1 to 11 pages as one block.

Symmetry.  A family whose degrees k >= 1 with a nonzero coefficient share a
factor g with m/2, on m angles, is unchanged by a turn of 2 pi/g, which moves
the grid onto itself; so is the discrete system, and its solution repeats g
times around the circle (reduction by symmetry: Bossavit, Comput. Methods
Appl. Mech. Engrg. 56 (1986) 167-215; Fassler & Stiefel, Group Theoretical
Methods and Their Applications, Birkhauser 1992).  g is the family's _period.
On g-periodic vectors D acts as g times the differentiation matrix of the
m' = m/g points of a sector, so the sector's D is that, and the eigenvalues of
its D^T D are g^2 j^2; dtheta and the radial factors stay those of the m
angles, and the center's row and load sum over the sector.  With P the
replication of a sector g times, the sector's operator is P^T K P/g and its
load P^T q/g, so its solution is the circle's on the sector and its energy
E/g, which the solve multiplies by g.

When moreover every such mode is even about one grid angle c, the mirror axis
that _period finds (cos k theta when sin k c = 0, sin k theta when
cos k c = 0, so a sine's axis is a quarter of its period off 0), so is the
sector's system: the reflection about c maps the grid onto itself, keeps area
and bend, negates shear/2 and anticommutes with D; the solution is even about
c.  The solve then reads the h = m'/2 + 1 angles from c to c + pi/g.  With P
now the even extension of those angles to the sector's, taking angle i to
angles i and m' - i, the half sector's operator is P^T K P and its load P^T q:
_stiffness applies it with the first h rows of D P as its D and each angle's
rows times its multiplicity w = (1, 2, ..., 2, 1), the number of sector angles
it stands for, and the load is w q, so the energy is the sector's.  The
preconditioner is P^T M P for the sector's M, whose rows' sum times w over m'
is the sector's mean: even data has no sin coefficients about c, so it takes
the cos rows of the Fourier pair, restricted to the h angles, and one
right-hand side.  Its r.z and CG's p.Kp are the sector's, so the half sector
takes the sector's steps.  Without an axis, as for cos 2 theta with
sin 2 theta, or any sine on m = 2 (mod 4) angles, w = 1 and the whole sector
is solved; at g = 1 that is the circle, and every operation is the full grid's.

Cell rows.  In the core phi = s rho_D/R, so each coefficient row is a factor
of s, which the grid alone fixes, times a factor of theta; in the shell one
reciprocal 1/phi serves all three rows (_cell_rows).  The grid's factors
and the load's weights (_radial_factors) and the parts of the radii that do
not depend on t (PerturbedDomainFamily._motion, from _normal_speeds) are
built with the run's workspace, so a sample forms both boundaries' radii in
a few array operations, its angular factors, its shell rows and one small
product for the load.  At 256x32 on one BLAS thread of a 2-vCPU Xeon
container, building a mirrored run's workspace takes about 0.15 ms at
periods 1, 2 and 4 (0.04, 0.03 and 0.025 ms of it the angular operator,
0.034 ms the radial factors), and at period 1 a mirrored sample's fixed
work is about 0.09 ms of cell rows and 0.007 ms to check the held chains
(_fits), against 0.06 ms to factor its own, and a CG step about 0.045 ms
of preconditioner and 0.047 ms of operator application, against 0.115,
0.007, 0.065, 0.093 and 0.075 ms on the whole circle: a 7-sample run of
12 steps, 6 warm-start residuals and one factorization takes about 2.9 ms
mirrored and 4.2 ms whole, against 3.4 and 5.2 ms when each sample factored
its own chains.  On the same host, at R = 0.5, sigma = 2
and both boundaries moving, mirrored runs of periods 1, 2 and 4 took 0.68,
0.51 and 0.44 of the whole circle's 4.5 ms (medians of 60 runs each,
interleaved).

The perturbation family reads its normal speeds g of the interface and of
the outer boundary from a PerturbationSpec, the package's one description of
a perturbation: alpha_in and alpha_out per circular harmonic (_normal_speeds).
For mean-free g the family

    rho(theta, t)^2 = rho_0^2 + 2 rho_0 t g(theta) + t^2 (g^2 - mean(g^2))

preserves the enclosed area of both regions exactly for every t, so the
measured second difference of E is directly comparable to the analytic
second variation.
"""

from __future__ import annotations

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
DEFAULT_STEP = 1e-2
DEFAULT_LEVELS = 2
# the largest eps E(0)/(h^2 S) differentiate_energy accepts, h being the
# finest step t0/2^levels and S = max(E(0), 1) |alpha_in|^2 + |alpha_out|^2
# the scale of d2: the interface's share of d2 grows like E(0) once E(0) > 1
# (as 1/sigma at small sigma), the outer boundary's stays O(1).  Rounding each
# sample's E to about eps E(0) puts an error of about eps E(0)/h^2 into d2 at
# step h, so the floor holds d2's rounding error near ROUNDING_FLOOR S.  At
# 64x16, R = 0.5, sigma = 2 and unit alpha (E(0) = 0.38) it measured 5.4e-7
# at t0 = 1e-4, which passes, and 3.7e-3 at t0 = 1e-6, 3.4 % of d2, which is
# refused.  At the floor, over R in {0.3, 0.5, 0.7}, sigma in {1e-16, 1e-12,
# 1e-8, 1e-4, 1e-2, 1, 100} (E(0) from 0.30 to 9.4e14), degrees 2 and 4 and
# each boundary channel, against d2 at t0 = 1e-2, it measured at most
# 14.5 eps E(0)/h^2 = 14.5 ROUNDING_FLOOR S, 11.8 where S exceeds |alpha|^2.
# That is 112 of the 126 runs: in the other 14, outer alone at sigma <= 1e-8,
# the floor's step collapses a radius or t0 = 1e-2 is itself refused
ROUNDING_FLOOR = 1e-4
# the largest sigma the oracle accepts: above it the core's stiffness swamps
# the shell's in float arithmetic.  Over R in {0.3, 0.5, 0.7}, degree 2 on
# each boundary channel and sigma from 1e10 in quarter decades, every run at
# 64x16 and 256x32 up to sigma = 3.2e12, and at 512x64 up to 1e12, matched
# the sigma = 1e9 run to 3.2e-10 in E(0) and 4.5e-9 in d2 (relative), the
# sigma -> infinity limit's own drift.  Above that runs fail in the
# preconditioner's factorization, from 3.2e12 at 512x64, 5.6e12 at 256x32 and
# 5.6e13 at 64x16, and some end silently wrong instead: in a scan by decades
# to 1e307, 54 runs at 256x32 and 272 at 64x16, from 1e21; at R = 0.3 the
# outer channel read E(0) = 0.119 for 0.390 and d2 = +0.035 for
# e_out(2) = -0.52 from sigma = 1e35 up
SIGMA_CEILING = 1e12


class InterfaceOrderingError(RuntimeError):
    """The perturbed interface touched or crossed the outer boundary."""


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
        """What _radii reads of the spec and the core radius, the same at
        every t, from the _normal_speeds array of both boundaries: with
        exact_area rho_0^2, 2 rho_0 g, g^2 - mean(g^2), rho_0 g' and g g',
        without it rho_0, g and g', each a (2, angles) array or a (2, 1)
        column, the interface's row first."""
        g, dg = speeds[:, 0], speeds[:, 1]
        base = np.array([[self.params.core_radius], [1.0]])
        if not self.exact_area:
            return base, g, dg
        # the circle average of g^2: the basis is orthonormal
        items = self.spec.sorted_items()
        squares = [[sum(pair[side] * pair[side] for _, pair in items)] for side in (0, 1)]
        mean_square = np.array(squares) / (2.0 * math.pi)
        return base * base, 2.0 * base * g, g * g - mean_square, base * dg, g * dg

    def _radii(
        self, motion: tuple[np.ndarray, ...], t: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Radii rho(theta) and their theta-derivatives at amplitude t, each a
        (2, angles) array, the interface's row first, from the family's
        _motion."""
        if not self.exact_area:
            base, g, dg = motion
            rho, drho = base + t * g, t * dg
        else:
            square, linear, quadratic, base_slope, product = motion
            rho_sq = square + t * linear + t * t * quadratic
            if np.any(rho_sq <= 0.0):
                raise InterfaceOrderingError("perturbed radius collapsed to zero")
            rho = np.sqrt(rho_sq)
            drho = (t * base_slope + t * t * product) / rho
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


def angular_operator(m: int) -> AngularOperator:
    """The periodic spectral differentiation matrix D on m equispaced points,
    the eigenvalues of D^T D by real Fourier mode j = 0..m/2, and the real
    Fourier transform pair of the preconditioner, returned read-only: a
    workspace shares them with every solve of its run.  m must be even and
    at least 4, as solve_energy checks.

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
    outer = radius + (1.0 - radius) * np.arange(1, radial_points - j_in + 1) / (
        radial_points - j_in
    )
    return np.concatenate([inner, outer]), j_in


def _radial_factors(radius: float, radial_points: int, angular_modes: int) -> tuple:
    """What _cell_rows needs of the grid and does not read from the family,
    returned read-only, as a workspace keeps them for every solve of its
    run: the interface node j_in; the core cells' area and bend
    factors dtheta s/h and dtheta h/(4 s); the shell cells' offsets s - R and
    their area and bend factors dtheta/h and dtheta h/4, all as (cells, 1)
    columns at the midpoints s; and the (nodes, 3) load weights of
    rho_D^2/R^2, rho_D B and B^2, the center's row first.

    Each cell's load is the exact integral of its Jacobian phi phi_s, linear
    in s: s rho_D^2/R^2 in the core and rho_D B + (s - R) B^2 in the shell.
    """
    s_nodes, j_in = _radial_grid(radius, radial_points)
    dtheta = 2.0 * math.pi / angular_modes
    inner, outer = slice(None, j_in), slice(j_in, None)
    left, right = s_nodes[:-1, np.newaxis], s_nodes[1:, np.newaxis]
    h = right - left
    s = 0.5 * (left + right)
    core = (dtheta * s[inner] / h[inner], dtheta * h[inner] / (4.0 * s[inner]))
    shell = (s[outer] - radius, dtheta / h[outer], dtheta * h[outer] / 4.0)
    # the Jacobian at each cell's left and right node, as coefficients of the
    # three load factors
    jacobian_left, jacobian_right = np.zeros((2, radial_points, 3))
    jacobian_left[inner, :1], jacobian_right[inner, :1] = left[inner], right[inner]
    jacobian_left[outer, 1] = jacobian_right[outer, 1] = 1.0
    jacobian_left[outer, 2:] = left[outer] - radius
    jacobian_right[outer, 2:] = right[outer] - radius
    width = dtheta * h / 6.0
    weights = width * (2.0 * jacobian_left + jacobian_right)  # each cell's left node
    weights[1:] += width[:-1] * (jacobian_left[:-1] + 2.0 * jacobian_right[:-1])
    for array in (*core, *shell, weights):
        array.flags.writeable = False
    return j_in, core, shell, weights


def _period(family: PerturbedDomainFamily, angular_modes: int) -> tuple[int, int | None]:
    """The family's symmetry on the grid (module docstring): the number g of
    sectors its solve repeats over, gcd(angular_modes/2, every degree >= 1
    with a nonzero coefficient), 1 when there is none; and its mirror axis,
    the first grid index j in [0, angular_modes/g) about whose angle
    c = 2 pi j/angular_modes every such mode is even, None when there is no
    such j.  cos k theta is even about c when 4 k j = 0 and sin k theta when
    4 k j = angular_modes, modulo 2 angular_modes.  Raises ValueError when
    a moving degree is at least angular_modes/2, which the grid cannot
    resolve; below that, g divides angular_modes/2 and is at most
    angular_modes/4, so a sector holds an even number of angles, at least 4."""
    m = angular_modes
    moving = [index for index, pair in family.spec.modes.items() if index.degree and any(pair)]
    if 2 * max((index.degree for index in moving), default=0) >= m:
        raise ValueError("angular_modes too small for the perturbation degree")
    period = math.gcd(m // 2, *(index.degree for index in moving)) if moving else 1
    residues = [(4 * index.degree, 0 if index.order == 1 else m) for index in moving]
    axes = (j for j in range(m // period) if all(k * j % (2 * m) == r for k, r in residues))
    return period, next(axes, None)


class _Workspace:
    """What every solve of one run, of one family on one grid, reads or
    writes, built once (module docstring): the family's _period; the angular
    operator of the angles solved, with D scaled by the period and D^T D's
    eigenvalues by its square, and each angle's multiplicity in the sector;
    the radial factors and the family's _motion; the arrays; and the run's
    held Factorization and solutions, which solve_energy updates.  The grid,
    then the degrees against it (_period, which refuses a degree the grid
    cannot resolve) are checked before anything is built."""

    @np.errstate(all="ignore")  # _radii refuses the radii of an overflowing g or g^2
    def __init__(
        self, family: PerturbedDomainFamily, radial_points: int, angular_modes: int
    ) -> None:
        if radial_points < 4:
            raise ValueError("radial_points must be >= 4")
        if angular_modes % 2 != 0 or angular_modes < 4:
            raise ValueError("angular_modes must be even and >= 4")
        period, axis = _period(family, angular_modes)
        self.family, self.grid, self.period = family, (radial_points, angular_modes), period
        n, m = radial_points, angular_modes // period
        # a mirrored solve reads the half sector's m/2 + 1 angles from the
        # axis, and only the cos half of the Fourier pair
        count, sides = (m, 2) if axis is None else (m // 2 + 1, 1)
        self.sector_angles = m
        sector = angular_operator(m)
        diff, eigen = period * sector.diff, period * period * sector.eigen
        analysis, synthesis = sector.analysis, sector.synthesis
        self.multiplicity = np.ones(count)
        if axis is not None:
            # D P, P the even extension of the half sector to the sector
            extension = np.zeros((m, count))
            extension[np.arange(count), np.arange(count)] = 1.0
            extension[m - np.arange(1, count - 1), np.arange(1, count - 1)] = 1.0
            diff = (diff @ extension)[:count]
            analysis = np.ascontiguousarray(analysis[:1, :, :count])
            synthesis = np.ascontiguousarray(synthesis[: m // 2 + 1, :count])
            self.multiplicity[1:-1] = 2.0  # the angles strictly inside the half sector
        self.mean_weights = np.full(count, 1.0 / m)  # _chain_means' weights
        for array in (diff, eigen, analysis, synthesis, self.multiplicity, self.mean_weights):
            array.flags.writeable = False
        self.angular = AngularOperator(diff, eigen, analysis, synthesis)
        theta = 2.0 * math.pi * ((axis or 0) + np.arange(count)) / angular_modes
        self.motion = family._motion(_normal_speeds(family.spec, theta))
        self.factors = _radial_factors(family.params.core_radius, n, angular_modes)
        self.factorization = None  # the held chains, solve_energy's
        self.solutions = []  # each solve's u on the angles solved, in solve order
        # the arrays, views of one allocation (module docstring)
        shapes = [
            (3, n, count),  # rows: area, shear/2 and bend by cell and angle
            (n + 1, count),  # nodes: the node values; the Dirichlet row stays 0
            (5, n, count),  # cells: _stiffness' delta, slope, f, h and scratch
            (sides, 1 + (m // 2 + 1) * (n - 1)),  # rhs: the chains' right-hand sides
            (sides * (m // 2 + 1), n - 1),  # coefficients: the rings' Fourier coefficients
            # vectors of unknowns: the load, K v, the preconditioned residual and CG's
            (6, 1 + (n - 1) * count),
        ]
        offsets = list(itertools.accumulate(map(math.prod, shapes), initial=0))
        memory = np.empty(offsets[-1])
        self.rows, self.nodes, self.cells, self.rhs, self.coefficients, vectors = (
            memory[start:end].reshape(shape)
            for shape, start, end in zip(shapes, offsets, offsets[1:])
        )
        self.nodes[-1] = 0.0
        self.load, self.product, self.preconditioned, self.residual, self.direction, self.scaled = (
            vectors
        )


def _cell_rows(work: _Workspace, t: float) -> tuple:
    """The (area, shear/2, bend) coefficient rows of every radial cell, and
    the load: the center's, then node 1..n-1's, one angular ring after the
    other (the unknowns' order; the Dirichlet node n is dropped), of the
    workspace's family at amplitude t on the angles it solves; written to
    work.rows and work.load, each angle's rows and load times its
    multiplicity.

    A row is dtheta/h A11, dtheta/2 A12 and dtheta h/4 A22 at the cell's
    midpoint s, times sigma in the core.  There phi = s rho_D/R, so each row
    is a radial factor times an angular one: area = (sigma dtheta s/h)
    (1 + (rho_D'/rho_D)^2), shear/2 = -sigma dtheta/2 rho_D'/rho_D and
    bend = sigma dtheta h/(4 s).  In the shell phi = A + (s - R) B with
    A = rho_D and B = (rho_Omega - rho_D)/(1 - R), and one reciprocal 1/phi
    serves all three rows.
    """
    area, half_shear, bend = work.rows
    radius, sigma = work.family.params.core_radius, work.family.params.sigma
    dtheta = 2.0 * math.pi / work.grid[1]
    (rho_in, rho_out), (drho_in, drho_out) = work.family._radii(work.motion, t)
    j_in, (core_area, core_bend), (offset, shell_area, shell_bend), weights = work.factors
    multiplicity = work.multiplicity

    log_slope = drho_in / rho_in
    np.multiply(core_area, sigma * (1.0 + log_slope * log_slope) * multiplicity, out=area[:j_in])
    half_shear[:j_in] = ((-0.5 * sigma * dtheta) * multiplicity) * log_slope
    np.multiply(sigma * core_bend, multiplicity, out=bend[:j_in])

    slope = (rho_out - rho_in) / (1.0 - radius)
    phi = rho_in + offset * slope
    phi_theta = drho_in + offset * ((drho_out - drho_in) / (1.0 - radius))
    reciprocal = 1.0 / phi
    # (phi^2 + phi_theta^2)/(phi phi_s) as (phi + phi_theta^2/phi)/B
    area[j_in:] = (phi + phi_theta * phi_theta * reciprocal) * (shell_area / (slope / multiplicity))
    half_shear[j_in:] = ((-0.5 * dtheta) * multiplicity) * phi_theta * reciprocal
    bend[j_in:] = (shell_bend * (slope * multiplicity)) * reciprocal

    factors = np.stack([rho_in * rho_in / (radius * radius), rho_in * slope, slope * slope])
    nodes = np.matmul(weights, factors * multiplicity, out=work.cells[-1])
    # the center is a single unknown, the constant angular mode
    work.load[0] = np.sum(nodes[0])
    work.load[1:] = nodes[1:].ravel()
    return work.rows, work.load


def _stiffness(work: _Workspace, v: np.ndarray) -> np.ndarray:
    """K v into work.product, cell by cell, for the unknowns v in load order.

    A cell's energy area Delta^2 + 2 (shear/2) Delta P + bend P^2 has the
    gradient F + H at its right node and H - F at its left node, with
    F = area Delta + (shear/2) P and H = D^T ((shear/2) Delta + bend P).
    The center's row is the theta-sum of cell 0's left gradient.
    """
    (area, half_shear, bend), diff, nodes = work.rows, work.angular.diff, work.nodes
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
    rings = np.add(f[:-1], h[:-1], out=work.product[1:].reshape(len(area) - 1, -1))
    rings += h[1:]
    rings -= f[1:]
    return work.product


class Factorization(NamedTuple):
    """The preconditioner's chains, factored (_factor)."""

    means: np.ndarray  # (2, cells) the area and bend coefficients of the chains' cells
    d: np.ndarray  # pttrf's diagonal factor
    e: np.ndarray  # pttrf's subdiagonal factor


def _chain_means(work: _Workspace) -> np.ndarray:
    """The area and bend rows of work.rows averaged over the sector's
    angles, a (2, cells) array.  The rows carry each angle's multiplicity,
    so their sum over the angles solved, divided by the sector's angle
    count, is the sector's mean."""
    return work.rows[::2] @ work.mean_weights


def _factor(work: _Workspace) -> Factorization:
    """The factored chains of the operator of work.rows averaged over the
    sector's angles, shear dropped.

    Its chains are ordered [center, mode 0 | mode 1 | ... | mode m/2]: the
    diagonal takes area + j^2 bend of both cells of a node, the coupling
    across a cell is j^2 bend - area.
    """
    means = _chain_means(work)
    area, bend = means
    angular_part = work.angular.eigen[:, np.newaxis] * bend
    diagonal, coupling = area + angular_part, angular_part - area
    coupling[:, -1] = 0.0  # the last node's coupling goes to the Dirichlet node
    d = np.concatenate([[area[0]], (diagonal[:, :-1] + diagonal[:, 1:]).ravel()])
    e = np.concatenate([[-area[0]], coupling[:, 1:].ravel()[:-1]])
    d, e, info = cho_factor(d, e, overwrite_d=1, overwrite_e=1)
    if info != 0:
        raise SolveError("block factorization failed")
    return Factorization(means, d, e)


def _fits(held: Factorization, work: _Workspace) -> bool:
    """Whether held, chains factored for an earlier solve of the run,
    precondition the solve of work.rows nearly as well as its own chains:
    the ratios of their cell coefficients spread by at most a factor of 2.
    The energy of either set of chains is a sum of the same cell terms, so
    that spread bounds the held chains' condition number relative to the own
    ones, and CG's step bound grows by at most sqrt 2."""
    ratio = _chain_means(work) / held.means
    return bool(ratio.max() <= 2.0 * ratio.min())


def _preconditioner(
    work: _Workspace, factorization: Factorization
) -> Callable[[np.ndarray], np.ndarray]:
    """The inverse of the factored chains, applied into work.preconditioned
    by the real Fourier pair: the cos and, unmirrored, the sin coefficients
    of each ring are the right-hand sides of one chain solve; the center's
    chain unknown is the sector's angle count m times its value.
    """
    angular, rhs, result = work.angular, work.rhs, work.preconditioned
    _, d, e = factorization
    m, rings = work.sector_angles, work.rows.shape[1] - 1
    sides, modes = len(rhs), len(angular.eigen)
    # the rings' Fourier coefficients by side and mode, in rhs and in work.coefficients
    spectra = rhs[:, 1:].reshape(sides, modes, rings)
    coefficients = work.coefficients.reshape(sides, modes, rings)

    def precondition(residual: np.ndarray) -> np.ndarray:
        rhs[0, 0] = residual[0]
        rhs[1:, 0] = 0.0
        np.matmul(angular.analysis, residual[1:].reshape(rings, -1).T, out=spectra)
        solution, _ = cho_solve(d, e, rhs.T, overwrite_b=1)
        result[0] = solution[0, 0] / m
        np.copyto(coefficients, solution[1:].T.reshape(sides, modes, rings))
        np.matmul(work.coefficients.T, angular.synthesis, out=result[1:].reshape(rings, -1))
        return result

    return precondition


def _positive(value: float) -> float:
    """value, which must be finite and positive (r.z and p.Kp in CG)."""
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
    *,
    start: np.ndarray | None = None,
    workspace: _Workspace | None = None,
) -> float:
    """Energy of the perturbed configuration at the family's amplitude.

    Preconditioned conjugate gradients (module docstring) on one of the
    family's _period sectors, or on its half from the mirror axis when it
    has one, from start, or from u = 0 without one, stopped when a step's
    energy increment alpha r.z is at most eps E or the residual is exactly
    zero; the energy returned is the period times the sector's.  A start
    vector, in the unknowns of the angles solved, costs one operator
    application for its residual r = q - K start, and the energy begins at
    -2 J(start) = start . (q + r); a start whose -2 J is not positive is
    dropped for u = 0.  The solve reads and writes workspace, a _Workspace
    of the family at any amplitude on the same grid, and without one builds
    its own, which checks the grid and the degrees first.  The
    preconditioner is the workspace's held Factorization where that _fits
    the solve, and otherwise the chains of the solve's own rows, factored,
    which the workspace then holds for its later solves; the discrete u on
    the angles solved is appended to the workspace's solutions.  A workspace
    of another family or grid, and a start of another size than the
    unknowns, are refused before any row is formed.  A non-finite or
    non-positive r.z or p.Kp raises SolveError, as do more steps than
    unknowns.
    """
    # the same family at any t, on the same grid
    built = workspace and workspace.family
    if built and (built.params, built.spec, built.exact_area, workspace.grid) != (
        family.params, family.spec, family.exact_area, (radial_points, angular_modes)
    ):
        raise ValueError("the workspace was built for another family or grid")
    work = workspace or _Workspace(family, radial_points, angular_modes)
    if start is not None and np.shape(start) != work.load.shape:
        raise ValueError(f"start has shape {np.shape(start)}, not the solve's {work.load.shape}")
    _, load = _cell_rows(work, family.t)
    if work.factorization is None or not _fits(work.factorization, work):
        work.factorization = _factor(work)
    precondition = _preconditioner(work, work.factorization)

    residual, direction, scaled = work.residual, work.direction, work.scaled
    if start is not None:
        u = np.array(start, dtype=float)
        np.subtract(load, _stiffness(work, u), out=residual)
        energy = float(u @ np.add(load, residual, out=scaled))
    if start is None or not energy > 0.0:
        # J(start) >= J(0): u = 0 is as near the solution in the energy
        # norm, and starting there keeps the energy sum free of cancellation
        u, energy = np.zeros(load.size), 0.0
        residual[:] = load
    work.solutions.append(u)  # the loop below updates u in place
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
        product = _stiffness(work, direction)
        step = gamma / _positive(float(direction @ product))
        energy += step * gamma
        u += np.multiply(direction, step, out=scaled)
        if step * gamma <= sys.float_info.epsilon * energy:
            break
        residual -= np.multiply(product, step, out=scaled)
        previous = gamma
    else:
        raise SolveError("iteration did not converge")
    return _positive(work.period * energy)


@dataclass(frozen=True)
class OracleRun:
    """One finite-difference differentiation experiment on E(t): the
    samples, their energies and the extrapolated derivatives d1 and d2."""

    family: PerturbedDomainFamily
    radial_points: int
    angular_modes: int
    t_samples: tuple[float, ...]
    energies: tuple[float, ...]
    d1: float
    d2: float

    def energy_at(self, t: float) -> float:
        return self.energies[self.t_samples.index(t)]

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
            "t_samples": list(self.t_samples),
            "energies": list(self.energies),
            "d1": self.d1,
            "d2": self.d2,
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


def _lagrange(nodes: list[float], values: list[np.ndarray], t: float) -> np.ndarray:
    """The polynomial through the five nodes nearest t and their values, at t,
    in Lagrange form.

    Through every node the basis weights would grow like 2^(levels^2), the
    samples clustering geometrically at t = 0, and would multiply the solved
    values' errors; through the five nearest their absolute sum is at most
    4589 at any levels.
    """
    nearest = sorted(range(len(nodes)), key=lambda i: abs(t - nodes[i]))[:5]
    weights = [
        math.prod((t - nodes[j]) / (nodes[i] - nodes[j]) for j in nearest if j != i)
        for i in nearest
    ]
    total = weights[0] * values[nearest[0]]
    for weight, i in zip(weights[1:], nearest[1:]):
        total += weight * values[i]
    return total


def differentiate_energy(
    family: PerturbedDomainFamily,
    t0: float = DEFAULT_STEP,
    levels: int = DEFAULT_LEVELS,
    radial_points: int = DEFAULT_RADIAL_POINTS,
    angular_modes: int = DEFAULT_ANGULAR_MODES,
) -> OracleRun:
    """Central differences of E(t) at steps t0, t0/2, ..., extrapolated.

    Samples t in {0} union {+-t0/2^l}, solved from t = 0 outwards on one
    workspace built for the family and grid, each from the samples already
    solved and preconditioned by the chains the t = 0 solve factors, K(0)'s,
    while they fit its own (module docstring); d1 and d2 are the Richardson
    limits of the first and second central differences, whose weights 4^l
    overflow past levels 511, which is refused before any solve.  A run
    whose finest step h = t0/2^levels has eps E(0)/(h^2 S) above
    ROUNDING_FLOOR, with S = max(E(0), 1) |alpha_in|^2 + |alpha_out|^2 the
    scale of d2, is refused after the t = 0 solve and before any other,
    since its second differences would be rounding noise.  The family must
    be at t = 0, the point differentiated at.
    """
    if family.t != 0.0:
        raise ValueError(f"the family must be at t = 0, not t = {family.t:g}")
    if not math.isfinite(t0):
        raise ValueError("t0 must be finite")
    if t0 <= 0.0:
        raise ValueError("t0 must be positive")
    if levels < 1:
        raise ValueError("levels must be >= 1")
    finest = math.ldexp(t0, -levels)  # checked before the steps are listed
    if not sys.float_info.min <= finest * finest <= sys.float_info.max:
        raise ValueError("t0 out of range: (t0/2^levels)^2 must be a normal float")
    if levels > 511:  # _richardson's 4.0**levels overflows past it
        raise ValueError("levels must be <= 511")
    steps = [math.ldexp(t0, -level) for level in range(levels + 1)]
    # |alpha_in| and |alpha_out|, the L^2 norms of g on the circle, and the
    # finest step's boundary displacement
    items = family.spec.sorted_items()
    inner, outer = (math.hypot(*(pair[side] for _, pair in items)) for side in (0, 1))
    delta = finest * math.hypot(inner, outer)

    # from t = 0 outwards, each sample starts at the Lagrange polynomial through
    # the solutions already solved; a motionless family (delta = 0) has the same
    # system at every t, so it solves each sample cold and its energies are equal.
    # The samples share the workspace's chains, K(0)'s, while they fit
    work = _Workspace(family, radial_points, angular_modes)
    base = solve_energy(family, radial_points, angular_modes, workspace=work)
    # the finest step's displacement on d2's scale: the interface's share of
    # d2 grows like E(0) where E(0) > 1 (as 1/sigma at small sigma), the
    # outer boundary's does not
    scale = finest * math.hypot(math.sqrt(max(base, 1.0)) * inner, outer)
    rounding = sys.float_info.epsilon * base / scale / scale if delta > 0.0 else 0.0
    if rounding > ROUNDING_FLOOR:
        raise ValueError(
            "t0 below the rounding floor: eps E(0)/(t0/2^levels)^2/"
            f"(max(E(0), 1) |alpha_in|^2 + |alpha_out|^2) = "
            f"{rounding:.3g} exceeds {ROUNDING_FLOOR:g}"
        )
    order = [0.0] + [sign * h for h in reversed(steps) for sign in (+1.0, -1.0)]
    energy_of = {0.0: base}
    for count, t in enumerate(order[1:], 1):
        start = _lagrange(order[:count], work.solutions, t) if delta > 0.0 else None
        energy_of[t] = solve_energy(
            family.at(t), radial_points, angular_modes, start=start, workspace=work
        )
    samples = sorted(energy_of)

    d1_raw = [(energy_of[h] - energy_of[-h]) / (2.0 * h) for h in steps]
    d2_raw = [(energy_of[h] - 2.0 * base + energy_of[-h]) / (h * h) for h in steps]
    d1 = _richardson(d1_raw)
    d2 = _richardson(d2_raw)
    return OracleRun(
        family=family,
        radial_points=radial_points,
        angular_modes=angular_modes,
        t_samples=tuple(samples),
        energies=tuple(energy_of[t] for t in samples),
        d1=d1,
        d2=d2,
    )


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
    """Run differentiate_energy as described by a configuration dictionary."""
    family = family_from_config(config)
    return differentiate_energy(
        family,
        t0=_field(config, "t0", float, DEFAULT_STEP),
        levels=_field(config, "levels", int, DEFAULT_LEVELS),
        radial_points=_field(config, "radial_points", int, DEFAULT_RADIAL_POINTS),
        angular_modes=_field(config, "angular_modes", int, DEFAULT_ANGULAR_MODES),
    )
