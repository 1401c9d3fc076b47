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
unknown.  The assembled system K u = q is symmetric positive definite and
block tridiagonal, with the load q integrated exactly for the
piecewise-linear Jacobian.  The energy of the discrete solution is
E = u . q = q^T K^{-1} q, so u itself is never formed: a forward one-sided
block Cholesky sweep (Golub & Van Loan, section 4.5) factors each Schur
complement S_b = L_b L_b^T and gives E = sum_b |L_b^{-1} z_b|^2 over the
carried loads z_b, with no back-substitution.

Each block b is stored as two (m+1) x m C-order slabs, [q_b; D_b] and
[.; U_b^T], whose transposes are the Fortran-order panels [q_b | D_b] and
[z_b | U_b] that LAPACK and BLAS update in place.  Per block the sweep makes
three calls: one dgemm Schur update [z_b | S_b] = [q_b | D_b] - W[:, 1:]^T W
with the previous block's panel W = L_{b-1}^{-1} [z_{b-1} | U_{b-1}], a Cholesky
factorization of S_b in place, and one triangular solve that turns
[z_b | U_b] into the next W.  The center unknown enters as the 1 x (m+1)
panel [q_0 | U_0]/sqrt(D_0), a 1x1 block.  cho_factor and cho_solve are this
module's names for the LAPACK potrf and trtrs bindings, kept because the
benchmark's tracer (bench/spans.py) times and counts the per-block calls
through those two module attributes.

What does not depend on t -- the spectral differentiation matrix, the bases
that map cell coefficients to node blocks, and the two block stacks -- lives
in one workspace per differentiate_energy run, shared by its samples and
freed when the run returns.

The perturbation family

    rho(theta, t)^2 = rho_0^2 + 2 rho_0 t g(theta) + t^2 (g^2 - mean(g^2))

preserves the enclosed area of both regions exactly for every t, so the
measured second difference of E is directly comparable to the analytic
second variation.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
from scipy.linalg.blas import dgemm
# LAPACK potrf and trtrs under the names bench/spans.py traces (module docstring)
from scipy.linalg.lapack import dpotrf as cho_factor, dtrtrs as cho_solve

from .params import ModeIndex, PerturbationSpec, ProblemParams, presets

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


class _Workspace:
    """The t-independent part of a solve on one grid, shared by a run's samples.

    The spectral differentiation matrix and the bases that map a cell's
    coefficient rows to its node blocks depend only on the angular grid, and
    the block stacks only on the grid's size.  Every solve overwrites all of
    both stacks before it reads them, so no result depends on whether a
    workspace is reused.
    """

    def __init__(self, radial_points: int, angular_modes: int) -> None:
        m = angular_modes
        self.diff = diff = spectral_diff_matrix(m)  # first, as it also validates m
        shear_rows = np.eye(m)[:, :, np.newaxis] * diff  # [k, i, l] = delta_ki diff_il
        sym = 0.5 * (shear_rows + shear_rows.transpose(0, 2, 1))
        bend_basis = diff[:, :, np.newaxis] * diff[:, np.newaxis, :]
        self.diag_basis = np.concatenate([bend_basis, sym]).reshape(2 * m, m * m)
        # transposed, so that the product is the stack of U_b^T
        upper_basis = np.concatenate([bend_basis, sym - shear_rows])
        self.upper_basis_t = upper_basis.transpose(0, 2, 1).reshape(2 * m, m * m)
        self.shape = (radial_points - 1, m + 1, m)

    @cached_property
    def stacks(self) -> tuple[np.ndarray, np.ndarray]:
        """The [q_b; D_b] and [.; U_b^T] slabs of every block, allocated by
        the first solve, after it has validated the grid."""
        return np.empty(self.shape), np.empty(self.shape)


def _forward_energy(
    center: tuple[float, np.ndarray, float], faces: np.ndarray, couplings: np.ndarray
) -> float:
    """E = q . K^{-1} q for a symmetric positive definite block-tridiagonal K.

    center = (D_0, U_0, q_0) is the 1x1 center block, its coupling row and
    its load.  faces[i] = [q; D] and couplings[i] = [.; U^T] hold the load,
    diagonal block and upper block of block i + 1, where U couples it to
    block i + 2; the last upper block couples to the dropped Dirichlet node,
    so only the load column of the last panel is used.  Both stacks are
    overwritten.

    The previous block's panel W = L^{-1} [z | U] (for the center the 1x1
    block's [q_0 | U_0]/sqrt(D_0)) enters block b through one dgemm,
    [z_b | S_b] = [q_b | D_b] - W[:, 1:]^T W, in place in faces[b].T, which
    gives the Schur complement S_b = D_b - U^T S^{-1} U and the carried load
    z_b = q_b - U^T S^{-1} z.  S_b = L_b L_b^T is factored in place, and one
    triangular solve turns couplings[b].T = [z_b | U_b] into the next panel.
    Row 0 of each coupling slab then holds L_b^{-1} z_b, and
    E = q_0^2/D_0 + sum_b |L_b^{-1} z_b|^2 needs no back-substitution.
    """
    d0, u0, q0 = center
    panel = np.append(q0, u0)[np.newaxis, :] / np.sqrt(d0)
    for face, coupling in zip(faces, couplings):
        head = dgemm(-1.0, panel[:, 1:], panel, 1.0, face.T, trans_a=1, overwrite_c=1)
        factor, info = cho_factor(head[:, 1:], lower=1, clean=0, overwrite_a=1)
        if info != 0:
            raise SolveError("block factorization failed")
        coupling[0] = head[:, 0]
        panel, info = cho_solve(factor, coupling.T, lower=1, overwrite_b=1)
        if info != 0:
            raise SolveError("block factorization failed")
    energy = q0 * q0 / d0 + np.sum(np.square(couplings[:, 0, :]))
    if not np.isfinite(energy):
        raise SolveError("energy is not finite")
    return float(energy)


@np.errstate(all="ignore")  # a non-finite energy raises SolveError instead
def solve_energy(
    family: PerturbedDomainFamily,
    radial_points: int = DEFAULT_RADIAL_POINTS,
    angular_modes: int = DEFAULT_ANGULAR_MODES,
    *,
    workspace: _Workspace | None = None,
) -> float:
    """Energy of the perturbed configuration at the family's amplitude.

    workspace, built for the same grid, carries the t-independent operator
    and the block stacks from one solve to the next; without one the solve
    builds its own.
    """
    m = angular_modes
    if workspace is None:
        workspace = _Workspace(radial_points, m)  # first, as it also validates m
    diff = workspace.diff
    if 2 * family.max_degree() >= m:
        raise ValueError("angular_modes too small for the perturbation degree")
    radius, sigma = family.params.core_radius, family.params.sigma

    theta = 2.0 * math.pi * np.arange(m) / m
    dtheta = 2.0 * math.pi / m
    rho_in, drho_in, rho_out, drho_out = family.boundary_radii(theta)

    s_nodes, j_in = _radial_grid(radius, radial_points)

    # cell fields, one row per radial cell: the map phi at the cell's left
    # node, midpoint and right node, its s-slope (constant per segment) and
    # its theta-derivative at the midpoint
    inner = (np.arange(radial_points) < j_in)[:, np.newaxis]
    h = np.diff(s_nodes)[:, np.newaxis]
    s = np.stack([s_nodes[:-1], 0.5 * (s_nodes[:-1] + s_nodes[1:]), s_nodes[1:]])
    s = s[:, :, np.newaxis]
    s_half = s[1]
    slope_inner = rho_in / radius
    slope_outer = (rho_out - rho_in) / (1.0 - radius)
    phi_left, phi, phi_right = np.where(
        inner, s * slope_inner, rho_in + (s - radius) * slope_outer
    )
    phi_s = np.where(inner, slope_inner, slope_outer)
    phi_theta = np.where(
        inner,
        s_half * drho_in / radius,
        drho_in + (s_half - radius) * (drho_out - drho_in) / (1.0 - radius),
    )
    conductivity = np.where(inner, sigma, 1.0)
    a11 = conductivity * (phi * phi + phi_theta * phi_theta) / (phi * phi_s)
    a12 = -conductivity * phi_theta / phi
    a22 = conductivity * phi_s / phi

    # A cell's stiffness blocks are linear in three coefficient rows:
    #   area   (dtheta/h) A11, as diag(area)
    #   shear  dtheta A12, as sym and skew parts of sg = shear[:, None] * diff
    #   bend   (dtheta h/4) A22, as diff^T diag(bend) diff
    # with left-left k00 = area - sym + bend, right-right k11 = area + sym +
    # bend and left-right k01 = -area + skew + bend.  Node i = 1..n-1 takes
    # k00 of cell i plus k11 of cell i-1 and couples to node i+1 by k01 of
    # cell i, so each stack of node blocks is one product of (summed) cell
    # coefficients with a fixed basis of m x m matrices, written straight
    # into rows 1..m of the block slabs.
    area = (dtheta / h) * a11
    shear = dtheta * a12
    bend = (dtheta * h / 4.0) * a22
    faces, couplings = workspace.stacks
    blocks = radial_points - 1
    on_diagonal = np.arange(m)
    diag = np.concatenate([bend[1:] + bend[:-1], shear[:-1] - shear[1:]], axis=1)
    np.matmul(diag, workspace.diag_basis, out=faces.reshape(blocks, -1)[:, m:])
    faces[:, 1 + on_diagonal, on_diagonal] += area[1:] + area[:-1]
    upper = np.concatenate([bend[1:], shear[1:]], axis=1)
    np.matmul(upper, workspace.upper_basis_t, out=couplings.reshape(blocks, -1)[:, m:])
    couplings[:, 1 + on_diagonal, on_diagonal] -= area[1:]

    jac_left = phi_left * phi_s
    jac_right = phi_right * phi_s
    load_left = dtheta * h * (2.0 * jac_left + jac_right) / 6.0
    load_right = dtheta * h * (jac_left + 2.0 * jac_right) / 6.0
    np.add(load_left[1:], load_right[:-1], out=faces[:, 0, :])

    # center: u is a single unknown, the constant angular mode
    center = (np.sum(area[0]), -area[0] - 0.5 * (shear[0] @ diff), np.sum(load_left[0]))
    return _forward_energy(center, faces, couplings)


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
            # JSON has no NaN: an unobservable rate is null
            "convergence_rate": (
                None if math.isnan(self.convergence_rate) else self.convergence_rate
            ),
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
    observed reduction order of successive raw second differences; it is NaN
    when levels < 2 or either spacing is zero.  The extrapolation agreement
    is the relative gap between the last two extrapolants, small when E(t)
    is smooth (near-quadratic) at this scale.
    """
    if not math.isfinite(t0):
        raise ValueError("t0 must be finite")
    if t0 <= 0.0:
        raise ValueError("t0 must be positive")
    if levels < 1:
        raise ValueError("levels must be >= 1")
    steps = [math.ldexp(t0, -level) for level in range(levels + 1)]
    if not sys.float_info.min <= steps[-1] * steps[-1] <= sys.float_info.max:
        raise ValueError("t0 out of range: (t0/2^levels)^2 must be a normal float")
    samples = sorted({0.0} | {sign * h for h in steps for sign in (+1.0, -1.0)})

    # one workspace for the run's samples, freed when the run returns
    workspace = _Workspace(radial_points, angular_modes)
    energies = [
        solve_energy(family.at(t), radial_points, angular_modes, workspace=workspace)
        for t in samples
    ]
    energy_of = dict(zip(samples, energies))

    base = energy_of[0.0]
    d1_raw = [(energy_of[h] - energy_of[-h]) / (2.0 * h) for h in steps]
    d2_raw = [(energy_of[h] - 2.0 * base + energy_of[-h]) / (h * h) for h in steps]
    d1 = _richardson(d1_raw)
    d2 = _richardson(d2_raw)

    rate = float("nan")  # no rate without two nonzero spacings
    if levels >= 2:
        spacing_coarse = abs(d2_raw[0] - d2_raw[1])
        spacing_fine = abs(d2_raw[1] - d2_raw[2])
        if spacing_fine > 0.0 and spacing_coarse > 0.0:
            rate = math.log2(spacing_coarse / spacing_fine)

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


_CONFIG_KEYS = frozenset(
    {
        "dim", "radius", "sigma", "modes", "preset", "allow_mean", "exact_area",
        "t0", "levels", "radial_points", "angular_modes",
    }
)
_MODE_KEYS = frozenset({"degree", "order", "alpha_in", "alpha_out"})
_JSON_TYPES = {
    int: "integer", float: "number", bool: "boolean", str: "string", list: "list"
}


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
    return kind(value)


def family_from_config(config: dict) -> PerturbedDomainFamily:
    """Build a domain family from a configuration dictionary.

    Keys: dim (default 2), radius, sigma, and either preset (a name from
    params.presets) or modes (a list of records with degree, order,
    alpha_in, alpha_out); optional allow_mean and exact_area flags, and the
    run keys of run_from_config.  Unknown keys, values of the wrong JSON type
    and preset together with modes are rejected.
    """
    _check_keys(config, _CONFIG_KEYS, "config")
    params = ProblemParams(
        dim=_field(config, "dim", int, 2),
        core_radius=_field(config, "radius", float),
        sigma=_field(config, "sigma", float),
    )
    allow_mean = _field(config, "allow_mean", bool, False)
    if "preset" in config:
        if "modes" in config:
            raise ValueError("give either preset or modes, not both")
        table = presets()
        name = _field(config, "preset", str)
        if name not in table:
            known = ", ".join(sorted(table))
            raise ValueError(f"unknown preset {name!r} (known: {known})")
        spec = table[name]
    else:
        modes = {}
        for record in _field(config, "modes", list, []):
            _check_keys(record, _MODE_KEYS, "mode")
            index = ModeIndex(
                _field(record, "degree", int), _field(record, "order", int, 1)
            )
            modes[index] = (
                _field(record, "alpha_in", float, 0.0),
                _field(record, "alpha_out", float, 0.0),
            )
        spec = PerturbationSpec(modes=modes, allow_mean=allow_mean)
    return PerturbedDomainFamily.from_spec(
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
