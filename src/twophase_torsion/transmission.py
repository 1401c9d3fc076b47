"""Per-mode transmission problems for the shape derivative of the state.

For a degree-k harmonic perturbation of the interface (kind=Inner) or of the
outer boundary (kind=Outer), the shape derivative u' is harmonic in the core
and in the shell, with matching conditions at r = R and a Dirichlet condition
at r = 1.  Separation of variables reduces each mode to a radial profile

    w(r) = B r^k                      in the core,
    w(r) = C r^{2-N-k} + D r^k        in the shell,

and the matching conditions to a 3x3 linear system in (B, C, D).  Two
independent computations are provided: a numerical solve of that system (the
authoritative source consumed downstream) and the closed-form coefficient
expressions evaluated verbatim.  The two are compared by the fidelity report,
which is where any discrepancy is surfaced; the closed forms are never
silently patched.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from .exact_state import traces
from .params import ModeIndex, PerturbationSpec, ProblemParams
from .tolerances import RESIDUAL_TOL


class ModeKind(enum.Enum):
    INNER = "Inner"
    OUTER = "Outer"


class TransmissionSolveError(RuntimeError):
    """The 3x3 mode system was singular or left a residual above contract."""


@dataclass(frozen=True)
class ModeProfile:
    """Radial coefficients of one harmonic mode of u'.

    inner_coeff multiplies r^k in the core; outer_sing and outer_reg multiply
    r^{2-N-k} and r^k in the shell; denom is the common denominator F > 0 of
    the closed forms, recorded for reporting.
    """

    kind: ModeKind
    degree: int
    inner_coeff: float
    outer_sing: float
    outer_reg: float
    denom: float

    def __post_init__(self) -> None:
        if self.degree < 1:
            raise ValueError("degree must be >= 1")
        if not self.denom > 0.0:
            raise ValueError("denom must be positive")

    def inner_value(self, params: ProblemParams, r: float) -> float:
        return self.inner_coeff * r**self.degree

    def inner_derivative(self, params: ProblemParams, r: float) -> float:
        k = self.degree
        return self.inner_coeff * k * r ** (k - 1)

    def outer_value(self, params: ProblemParams, r: float) -> float:
        n, k = params.dim, self.degree
        return self.outer_sing * r ** (2 - n - k) + self.outer_reg * r**k

    def outer_derivative(self, params: ProblemParams, r: float) -> float:
        n, k = params.dim, self.degree
        return (
            self.outer_sing * (2 - n - k) * r ** (1 - n - k)
            + self.outer_reg * k * r ** (k - 1)
        )


def denom_F(params: ProblemParams, degree: int) -> float:
    """Common denominator F = N(N-2+k+k sigma)R^{2-N-2k} + kN(1-sigma) > 0."""
    if degree < 1:
        raise ValueError("degree must be >= 1")
    n, radius, sigma = params.dim, params.core_radius, params.sigma
    k = degree
    return n * (n - 2 + k + k * sigma) * radius ** (2 - n - 2 * k) + k * n * (
        1.0 - sigma
    )


@functools.lru_cache(maxsize=8192)
def solve_mode_oracle(
    params: ProblemParams, degree: int, kind: ModeKind
) -> ModeProfile:
    """Solve the degree-k mode system numerically, unit mode coefficient.

    Conditions at the interface r = R and the boundary r = 1:
      (i)   flux jump zero:   w_+' (R) - sigma w_-' (R) = 0
      (ii)  value jump:       w_+(R) - w_-(R) = -[d_n u]   (Inner) or 0 (Outer)
      (iii) boundary value:   w(1) = 0 (Inner) or -d_n u(1) = 1/N (Outer)

    Solved in the scaled unknowns (B R^k, C R^{2-N-k}, D R^k) so the matrix
    stays well conditioned for large k and small R.  Raises if the backward
    error of any condition exceeds the 1e-12 relative contract.

    Cached per argument triple; the bound holds the 5400 keys of the verify
    suites and the fidelity report together, and keeps long parameter
    sweeps from growing memory.
    """
    if degree < 1:
        raise ValueError("degree must be >= 1")
    n, radius, sigma = params.dim, params.core_radius, params.sigma
    k = degree
    state = traces(params)

    jump_value = -state.jump_dn if kind is ModeKind.INNER else 0.0
    boundary_value = 0.0 if kind is ModeKind.INNER else 1.0 / n

    matrix = np.array(
        [
            [-sigma * k, float(2 - n - k), float(k)],
            [-1.0, 1.0, 1.0],
            [0.0, radius ** (n - 2 + 2 * k), 1.0],
        ]
    )
    rhs = np.array([0.0, jump_value, boundary_value * radius**k])

    try:
        scaled = np.linalg.solve(matrix, rhs)
    except np.linalg.LinAlgError as exc:
        raise TransmissionSolveError(
            f"singular mode system at degree {k}, kind {kind.value}"
        ) from exc

    # backward error per condition, relative to the row magnitudes
    row_terms = np.abs(matrix * scaled[np.newaxis, :]).sum(axis=1) + np.abs(rhs)
    residual = np.abs(matrix @ scaled - rhs)
    rel_residual = residual / np.maximum(row_terms, np.finfo(float).tiny)
    if np.any(rel_residual > RESIDUAL_TOL):
        raise TransmissionSolveError(
            f"mode system residual {rel_residual.max():.3e} exceeds "
            f"{RESIDUAL_TOL:.0e} at degree {k}, kind {kind.value}"
        )

    b, c, d = (float(value) for value in scaled)
    return ModeProfile(
        kind=kind,
        degree=k,
        inner_coeff=b * radius ** (-k),
        outer_sing=c * radius ** (n - 2 + k),
        outer_reg=d * radius ** (-k),
        denom=denom_F(params, k),
    )


def closed_form_mode(
    params: ProblemParams, degree: int, kind: ModeKind
) -> ModeProfile:
    """Evaluate the printed closed-form coefficients verbatim.

    These are reference expressions for the fidelity report; downstream
    computation uses solve_mode_oracle instead.
    """
    if degree < 1:
        raise ValueError("degree must be >= 1")
    n, radius, sigma = params.dim, params.core_radius, params.sigma
    k = degree
    f_denom = denom_F(params, k)
    rho = radius ** (2 - n - 2 * k)

    if kind is ModeKind.INNER:
        c_coeff = (sigma - 1.0) * k * radius ** (-k + 1) / f_denom
        return ModeProfile(
            kind=kind,
            degree=k,
            inner_coeff=(1.0 - sigma) * radius ** (-k + 1) * ((n - 2 + k) * rho) / f_denom,
            outer_sing=c_coeff,
            outer_reg=-c_coeff,
            denom=f_denom,
        )
    return ModeProfile(
        kind=kind,
        degree=k,
        inner_coeff=(n - 2 + 2 * k) * rho / f_denom,
        outer_sing=(1.0 - sigma) * k / f_denom,
        outer_reg=(n - 2 + k + k * sigma) * rho / f_denom,
        denom=f_denom,
    )


def _harmonic_2d(index: ModeIndex, theta: float) -> float:
    """Real orthonormal harmonics on the circle: cos/sin(k theta)/sqrt(pi)."""
    k, order = index.degree, index.order
    if k == 0:
        return 1.0 / math.sqrt(2.0 * math.pi)
    if order == 1:
        return math.cos(k * theta) / math.sqrt(math.pi)
    return math.sin(k * theta) / math.sqrt(math.pi)


def harmonic_value(dim: int, index: ModeIndex, angle) -> float:
    """Evaluate the real orthonormal harmonic Y_{k,i} on the circle (N=2).

    The point is a polar angle or a unit vector (x, y).
    """
    if dim != 2:
        raise ValueError("pointwise harmonic evaluation supports dim 2 only")
    index.check_order(dim)
    if np.ndim(angle) == 0:
        theta = float(angle)
    else:
        x, y = np.asarray(angle, dtype=float)
        theta = math.atan2(y, x)
    return _harmonic_2d(index, theta)


def u_prime_value(
    spec: PerturbationSpec, params: ProblemParams, r: float, angle
) -> float:
    """Pointwise shape derivative u'(r theta) from oracle-validated profiles.

    Inner branch for r <= R, outer branch for r > R; modes superposed
    linearly with the spec coefficients.
    """
    if params.dim != 2:
        raise ValueError("u' evaluation supports dim 2 only")
    if not 0.0 <= r <= 1.0:
        raise ValueError("r must lie in [0,1]")
    inside = r <= params.core_radius
    total = 0.0
    for index, (alpha_in, alpha_out) in spec.sorted_items():
        if alpha_in == 0.0 and alpha_out == 0.0:
            continue
        if index.degree == 0:
            raise ValueError("degree-0 modes have no mode profile")
        y_value = harmonic_value(params.dim, index, angle)
        for alpha, kind in ((alpha_in, ModeKind.INNER), (alpha_out, ModeKind.OUTER)):
            if alpha == 0.0:
                continue
            profile = solve_mode_oracle(params, index.degree, kind)
            if inside:
                radial = profile.inner_value(params, r)
            else:
                radial = profile.outer_value(params, r)
            total += alpha * radial * y_value
    return total
