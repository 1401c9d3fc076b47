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

Both cover a whole degree ladder at once: `solve_modes` stacks the systems
of degrees 1..kmax and both kinds, solves the stack in one call and returns
a `ModeTable`; `closed_form_modes` returns the printed (B, C, D) of the same
ladder in the layout of `ModeTable.coefficients`.  Every power of R is taken
with Python's scalar pow, one value per degree, so row k does not depend on
kmax.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .exact_state import traces
from .params import ProblemParams

# Contract tolerance for the mode system's backward error.
RESIDUAL_TOL = 1e-12


class ModeKind(enum.Enum):
    INNER = "Inner"
    OUTER = "Outer"


KINDS = tuple(ModeKind)  # axis 0 of a ModeTable


class TransmissionSolveError(RuntimeError):
    """The 3x3 mode system was singular or left a residual above contract."""


class FloatRangeError(ValueError):
    """A degree of the ladder takes a value outside the float range."""

    def __init__(self, degree: int) -> None:
        super().__init__(f"degree {degree} leaves float range for these parameters")
        self.degree = degree

    @classmethod
    def check(cls, finite: np.ndarray) -> None:
        """Raise at the first degree whose flag is False; the flags are
        indexed by degree - 1."""
        if not finite.all():
            raise cls(int(np.argmin(finite)) + 1)


def _scalar_powers(base: float, exponents: Iterable[int]) -> np.ndarray:
    """base**e for each exponent by Python's scalar pow, inf past float range.

    numpy's vectorised pow differs from the scalar one by an ulp on about 5%
    of these inputs; the scalar pow gives each degree the value a per-degree
    evaluation gives, whatever the length of the ladder.
    """
    values = []
    for exponent in exponents:
        try:
            values.append(base**exponent)
        except OverflowError:
            values.append(math.inf)
    return np.array(values)


def _denominator(n: int, sigma: float, k, rho):
    """F = N(N-2+k+k sigma) rho + kN(1-sigma) with rho = R^{2-N-2k},
    elementwise in every argument."""
    return n * (n - 2 + k + k * sigma) * rho + k * n * (1.0 - sigma)


def _printed_ladder(
    params: ProblemParams, kmax: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The degrees 1..kmax with R^{2-N-2k}, R^{1-k} and F, the terms the
    printed closed forms share; entries past float range are inf or NaN."""
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    n, radius = params.dim, params.core_radius
    # integers, so the integer factors stay exact; allocated before the
    # scalar loops, so an infeasible kmax fails at once
    degrees = np.arange(1, kmax + 1)
    ks = range(1, kmax + 1)
    rho = _scalar_powers(radius, (2 - n - 2 * k for k in ks))
    r_lead = _scalar_powers(radius, (1 - k for k in ks))
    with np.errstate(over="ignore", invalid="ignore"):
        f_denom = _denominator(n, params.sigma, degrees, rho)
    return degrees, rho, r_lead, f_denom


def denom_F(params: ProblemParams, kmax: int) -> np.ndarray:
    """The common denominator F = N(N-2+k+k sigma)R^{2-N-2k} + kN(1-sigma) > 0
    of degrees 1..kmax, as a read-only column indexed by degree - 1.  Raises
    FloatRangeError at the first degree that leaves the float range."""
    f_denom = _printed_ladder(params, kmax)[3]
    FloatRangeError.check(np.isfinite(f_denom))
    f_denom.flags.writeable = False
    return f_denom


@dataclass(frozen=True, eq=False)
class ModeTable:
    """The mode profiles of degrees 1..kmax, both kinds.

    Arrays are indexed [kind, degree - 1, column], kinds in KINDS order.
    coefficients holds (B, C, D) of each profile; derivatives holds the
    radial derivatives w'(R) in the core, w'(R) in the shell and w'(1), the
    traces the boundary-integral assembly of the spectrum reads.  Both are
    read-only and finite.
    """

    coefficients: np.ndarray
    derivatives: np.ndarray


def solve_modes(params: ProblemParams, kmax: int) -> ModeTable:
    """Solve the mode systems of degrees 1..kmax, both kinds, in one call.

    Conditions at the interface r = R and the boundary r = 1:
      (i)   flux jump zero:   w_+' (R) - sigma w_-' (R) = 0
      (ii)  value jump:       w_+(R) - w_-(R) = -[d_n u]   (Inner) or 0 (Outer)
      (iii) boundary value:   w(1) = 0 (Inner) or -d_n u(1) = 1/N (Outer)

    Solved in the scaled unknowns (B R^k, C R^{2-N-k}, D R^k) so each matrix
    stays well conditioned for large k and small R.  Raises
    TransmissionSolveError if the backward error of any condition exceeds
    the 1e-12 relative contract, and FloatRangeError at the first degree
    whose system or profile leaves the float range.
    """
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    n, radius, sigma = params.dim, params.core_radius, params.sigma
    state = traces(params)
    ks = range(1, kmax + 1)
    degrees = np.arange(1.0, kmax + 1.0)

    # overflow is not an error here: FloatRangeError reports where it happened
    with np.errstate(over="ignore", invalid="ignore"):
        matrices = np.zeros((len(KINDS), kmax, 3, 3))
        matrices[:, :, 0, 0] = -sigma * degrees
        matrices[:, :, 0, 1] = 2 - n - degrees
        matrices[:, :, 0, 2] = degrees
        matrices[:, :, 1] = (-1.0, 1.0, 1.0)
        matrices[:, :, 2, 1] = _scalar_powers(radius, (n - 2 + 2 * k for k in ks))
        matrices[:, :, 2, 2] = 1.0
        rhs = np.zeros((len(KINDS), kmax, 3))
        rhs[0, :, 1] = -state.jump_dn
        rhs[1, :, 2] = (1.0 / n) * _scalar_powers(radius, ks)
        FloatRangeError.check(
            np.isfinite(matrices).all(axis=(0, 2, 3)) & np.isfinite(rhs).all(axis=(0, 2))
        )

        try:
            scaled = np.linalg.solve(matrices, rhs[..., np.newaxis])[..., 0]
        except np.linalg.LinAlgError as exc:
            raise TransmissionSolveError(
                f"singular mode system among degrees 1..{kmax}"
            ) from exc

        # backward error per condition, relative to the row magnitudes
        terms = matrices * scaled[..., np.newaxis, :]
        residual = np.abs(terms.sum(axis=-1) - rhs)
        row_terms = np.abs(terms).sum(axis=-1) + np.abs(rhs)
        rel_residual = residual / np.maximum(row_terms, np.finfo(float).tiny)
        failed = (rel_residual > RESIDUAL_TOL).any(axis=-1)
        if failed.any():
            index = int(np.argmax(failed.any(axis=0)))
            kind = 0 if failed[0, index] else 1
            raise TransmissionSolveError(
                f"mode system residual {rel_residual[kind, index].max():.3e} exceeds "
                f"{RESIDUAL_TOL:.0e} at degree {index + 1}, kind {KINDS[kind].value}"
            )

        r_minus_k = _scalar_powers(radius, (-k for k in ks))
        inner_coeff = scaled[..., 0] * r_minus_k
        outer_sing = scaled[..., 1] * _scalar_powers(radius, (n - 2 + k for k in ks))
        outer_reg = scaled[..., 2] * r_minus_k
        r_sing = _scalar_powers(radius, (1 - n - k for k in ks))  # r^{1-N-k} at R
        r_reg = _scalar_powers(radius, (k - 1 for k in ks))  # r^{k-1} at R
        sing_slope = outer_sing * (2 - n - degrees)
        reg_slope = outer_reg * degrees
        derivatives = np.stack(
            [
                inner_coeff * degrees * r_reg,
                sing_slope * r_sing + reg_slope * r_reg,
                sing_slope + reg_slope,  # at r = 1 both powers are 1
            ],
            axis=-1,
        )
    coefficients = np.stack([inner_coeff, outer_sing, outer_reg], axis=-1)
    FloatRangeError.check(
        np.isfinite(coefficients).all(axis=(0, 2))
        & np.isfinite(derivatives).all(axis=(0, 2))
    )
    coefficients.flags.writeable = False
    derivatives.flags.writeable = False
    return ModeTable(coefficients, derivatives)


def closed_form_modes(params: ProblemParams, kmax: int) -> np.ndarray:
    """Evaluate the printed closed-form coefficients verbatim.

    Returns (B, C, D) of degrees 1..kmax, both kinds, as a read-only array
    laid out like ModeTable.coefficients.  These are reference expressions
    for the fidelity report; downstream computation uses solve_modes
    instead.  Raises FloatRangeError at the first degree that leaves the
    float range.
    """
    n, sigma = params.dim, params.sigma
    k, rho, r_lead, f_denom = _printed_ladder(params, kmax)
    with np.errstate(over="ignore", invalid="ignore"):
        c_in = (sigma - 1.0) * k * r_lead / f_denom
        inner = (
            (1.0 - sigma) * r_lead * ((n - 2 + k) * rho) / f_denom,
            c_in,
            -c_in,
        )
        outer = (
            (n - 2 + 2 * k) * rho / f_denom,
            (1.0 - sigma) * k / f_denom,
            (n - 2 + k + k * sigma) * rho / f_denom,
        )
        coefficients = np.stack([np.stack(inner, axis=-1), np.stack(outer, axis=-1)])
    FloatRangeError.check(np.isfinite(coefficients).all(axis=(0, 2)))
    coefficients.flags.writeable = False
    return coefficients
