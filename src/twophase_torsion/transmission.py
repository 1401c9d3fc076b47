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

Both cover a whole degree ladder at a tuple of parameter points at once:
`solve_modes` stacks the systems of every point, degrees 1..kmax and both
kinds, solves the stack in one call and returns a `ModeTable`;
`closed_form_modes` returns the printed (B, C, D) of the same ladders.  Their
arrays lead with the point axis.  Each call takes the powers of R it needs
from one ladder per distinct R, built with Python's scalar pow over the
integer exponents the call uses, so row (point, k) depends neither on kmax
nor on the other points.

The `ModeTable` holds the scaled unknowns, floats at every degree;
`mode_coefficients` undoes the scaling for the comparisons with the printed
(B, C, D), which read degrees 1..20.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .exact_state import traces
from .params import ProblemParams

# Contract tolerance for the mode system's backward error.
RESIDUAL_TOL = 1e-12


class ModeKind(enum.Enum):
    INNER = "Inner"
    OUTER = "Outer"


KINDS = tuple(ModeKind)  # the kind axis of a ModeTable


class TransmissionSolveError(RuntimeError):
    """The 3x3 mode system was singular or left a residual above contract."""


def _named(points: tuple[ProblemParams, ...], point: int) -> str:
    """The prefix that names a point in a diagnostic: empty for one point."""
    return f"{points[point]}: " if len(points) > 1 else ""


class FloatRangeError(ValueError):
    """A degree of the ladder takes a value outside the float range."""

    def __init__(self, degree: int, prefix: str = "") -> None:
        super().__init__(
            f"{prefix}degree {degree} leaves float range for these parameters"
        )
        self.degree = degree

    @classmethod
    def check(cls, points: tuple[ProblemParams, ...], finite: np.ndarray) -> None:
        """Raise at the first point with a False flag, at its first degree;
        the flags are indexed [point, degree - 1]."""
        if not finite.all():
            point, index = np.argwhere(~finite)[0].tolist()
            raise cls(index + 1, _named(points, point))


def _exponents(*terms: tuple[int, int, int]) -> np.ndarray:
    """The (a, b, c) of exponents a + bN + ck, as three arrays that broadcast
    against [term, point, degree - 1]."""
    return np.array(terms).T[..., np.newaxis, np.newaxis]


# R^{N-2+2k}, R^{N-2+k} and R^{N-1+k}: the mode systems and the spectrum
_MODE_POWERS = _exponents((-2, 1, 2), (-2, 1, 1), (-1, 1, 1))
# R^{2-N-2k} and R^{1-k}: the printed closed forms
_PRINTED_POWERS = _exponents((2, -1, -2), (1, 0, -1))


def _radius_powers(points: tuple[ProblemParams, ...], kmax: int, terms: np.ndarray) -> np.ndarray:
    """R^{a + bN + ck} for each term (a, b, c) of _exponents, at each point
    (radius R, dimension N) and degree k = 1..kmax, indexed
    [term, point, degree - 1]; inf past float range.

    One ladder per distinct R runs over the exponents from the least to the
    greatest, by Python's scalar pow, and every entry is gathered from it.
    numpy's vectorised pow differs from the scalar one by an ulp on about 5%
    of these inputs; the scalar pow gives each entry the value a per-entry
    evaluation gives, whatever the other points and the length of the ladder.
    """
    a, b, c = terms
    dims = np.array([params.dim for params in points])[:, np.newaxis]
    # allocated before the scalar loop, so an infeasible kmax fails at once
    exponents = a + b * dims + c * np.arange(1, kmax + 1)
    lowest = int(exponents.min())
    width = int(exponents.max()) - lowest + 1
    radii = list(dict.fromkeys(params.core_radius for params in points))
    values = []
    for radius in radii:
        for exponent in range(lowest, lowest + width):
            try:
                values.append(radius**exponent)
            except OverflowError:
                values.append(math.inf)
    # the ladders lie one after another in values; origins holds the index
    # of R^0 in the ladder of each point's radius
    origins = np.array([radii.index(params.core_radius) * width - lowest for params in points])
    return np.array(values)[origins[:, np.newaxis] + exponents]


def _check_ladder(points: tuple[ProblemParams, ...], kmax: int) -> None:
    """Reject an empty degree range or an empty tuple of points."""
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    if not points:
        raise ValueError("points must not be empty")


def _denominator(n, sigma, k, rho):
    """F = N(N-2+k+k sigma) rho + kN(1-sigma) with rho = R^{2-N-2k},
    elementwise in every argument."""
    return n * (n - 2 + k + k * sigma) * rho + k * n * (1.0 - sigma)


def _printed_ladder(
    points: tuple[ProblemParams, ...], kmax: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The degrees 1..kmax with R^{2-N-2k}, R^{1-k} and F, the terms the
    printed closed forms share, indexed [point, degree - 1]; entries past
    float range are inf or NaN."""
    _check_ladder(points, kmax)
    # integers, so the integer factors stay exact
    degrees = np.arange(1, kmax + 1)
    dims = np.array([params.dim for params in points])[:, np.newaxis]
    sigmas = np.array([params.sigma for params in points])[:, np.newaxis]
    rho, r_lead = _radius_powers(points, kmax, _PRINTED_POWERS)
    with np.errstate(over="ignore", invalid="ignore"):
        f_denom = _denominator(dims, sigmas, degrees, rho)
    return degrees, rho, r_lead, f_denom


def denom_F(points: tuple[ProblemParams, ...], kmax: int) -> np.ndarray:
    """The common denominator F = N(N-2+k+k sigma)R^{2-N-2k} + kN(1-sigma) > 0
    of degrees 1..kmax at each point, read-only and indexed
    [point, degree - 1].  Raises FloatRangeError at the first degree that
    leaves the float range."""
    f_denom = _printed_ladder(points, kmax)[3]
    FloatRangeError.check(points, np.isfinite(f_denom))
    f_denom.flags.writeable = False
    return f_denom


@dataclass(frozen=True, eq=False)
class ModeTable:
    """The solved mode systems of degrees 1..kmax, both kinds.

    unknowns, indexed [point, kind, degree - 1, column] with kinds in KINDS
    order, holds (B R^k, C R^{2-N-k}, D R^k) of the Inner kind and
    (B, C R^{2-N-2k}, D) of the Outer kind, whose system is divided by R^k.
    powers, indexed [power, point, degree - 1], holds R^{N-2+2k}, R^{N-2+k}
    and R^{N-1+k}, which may underflow to 0.  Both are read-only and finite.
    """

    unknowns: np.ndarray
    powers: np.ndarray


def solve_modes(points: tuple[ProblemParams, ...], kmax: int) -> ModeTable:
    """Solve the mode systems of degrees 1..kmax, both kinds, at every point
    in one call.

    Conditions at the interface r = R and the boundary r = 1:
      (i)   flux jump zero:   w_+' (R) - sigma w_-' (R) = 0
      (ii)  value jump:       w_+(R) - w_-(R) = -[d_n u]   (Inner) or 0 (Outer)
      (iii) boundary value:   w(1) = 0 (Inner) or -d_n u(1) = 1/N (Outer)

    Solved in the scaled unknowns of ModeTable, so each matrix stays well
    conditioned for large k and small R and no R^{-k} is formed.  Raises
    TransmissionSolveError if the backward error of any condition exceeds
    the 1e-12 relative contract, and FloatRangeError at the first degree
    whose system or unknowns leave the float range; of several points, the
    diagnostic names the first point that fails.
    """
    _check_ladder(points, kmax)
    # per point, in scalar arithmetic, as columns that broadcast against
    # [point, kind, degree - 1]: -sigma, 2-N, -[d_n u] and 1/N
    neg_sigma, two_minus_n, neg_jump, inv_n = np.array(
        [
            (-params.sigma, 2 - params.dim, -traces(params).jump_dn, 1.0 / params.dim)
            for params in points
        ]
    ).T[..., np.newaxis, np.newaxis]
    degrees = np.arange(1.0, kmax + 1.0)
    # both kinds share the matrix: its kind axis has length 1
    matrices = np.zeros((len(points), 1, kmax, 3, 3))
    rhs = np.zeros((len(points), len(KINDS), kmax, 3))
    powers = _radius_powers(points, kmax, _MODE_POWERS)

    # overflow is not an error here: FloatRangeError reports where it happened
    with np.errstate(over="ignore", invalid="ignore"):
        matrices[..., 0, 0] = neg_sigma * degrees
        matrices[..., 0, 1] = two_minus_n - degrees
        matrices[..., 0, 2] = degrees
        matrices[..., 1, :] = (-1.0, 1.0, 1.0)
        matrices[..., 2, 1] = powers[0, :, np.newaxis]
        matrices[..., 2, 2] = 1.0
        rhs[:, :1, :, 1] = neg_jump
        rhs[:, 1:, :, 2] = inv_n
        FloatRangeError.check(
            points,
            np.isfinite(matrices).all(axis=(1, 3, 4)) & np.isfinite(rhs).all(axis=(1, 3)),
        )

        try:
            unknowns = np.linalg.solve(matrices, rhs[..., np.newaxis])[..., 0]
        except np.linalg.LinAlgError as exc:
            raise TransmissionSolveError(
                f"singular mode system among degrees 1..{kmax}"
            ) from exc

        # backward error per condition, relative to the row magnitudes
        terms = matrices * unknowns[..., np.newaxis, :]
        residual = np.abs(terms.sum(axis=-1) - rhs)
        row_terms = np.abs(terms, out=terms).sum(axis=-1) + np.abs(rhs)
        rel_residual = residual / np.maximum(row_terms, np.finfo(float).tiny)
        failed = (rel_residual > RESIDUAL_TOL).any(axis=-1)
        if failed.any():
            point, index = np.argwhere(failed.any(axis=1))[0].tolist()
            kind = 0 if failed[point, 0, index] else 1
            raise TransmissionSolveError(
                f"{_named(points, point)}mode system residual "
                f"{rel_residual[point, kind, index].max():.3e} exceeds "
                f"{RESIDUAL_TOL:.0e} at degree {index + 1}, kind {KINDS[kind].value}"
            )
    FloatRangeError.check(points, np.isfinite(unknowns).all(axis=(1, 3)))
    unknowns.flags.writeable = False
    powers.flags.writeable = False
    return ModeTable(unknowns, powers)


def mode_coefficients(points: tuple[ProblemParams, ...], table: ModeTable) -> np.ndarray:
    """The profile coefficients (B, C, D) of table = solve_modes(points,
    kmax), read-only and laid out like table.unknowns.  The Inner B and D
    carry R^{-k}, and a scaled unknown that is exactly zero gives a zero
    coefficient: raises FloatRangeError at the first degree where a nonzero
    one meets an R^{-k} or leaves the float range."""
    (r_minus_k,) = _radius_powers(points, table.unknowns.shape[2], _exponents((0, 0, -1)))
    epsilon, inner_power, _ = table.powers
    coefficients = table.unknowns.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        coefficients[:, 0] *= np.stack([r_minus_k, inner_power, r_minus_k], axis=-1)
    coefficients[:, 1, :, 1] *= epsilon
    # 0 * inf is nan; the zero unknown's own coefficient is that zero
    np.copyto(coefficients, table.unknowns, where=table.unknowns == 0.0)
    FloatRangeError.check(points, np.isfinite(coefficients).all(axis=(1, 3)))
    coefficients.flags.writeable = False
    return coefficients


def closed_form_modes(points: tuple[ProblemParams, ...], kmax: int) -> np.ndarray:
    """Evaluate the printed closed-form coefficients verbatim.

    Returns (B, C, D) of degrees 1..kmax, both kinds, at every point, as a
    read-only array laid out like mode_coefficients.  These are
    reference expressions for the fidelity report; downstream computation
    uses solve_modes instead.  Raises FloatRangeError at the first degree
    that leaves the float range.
    """
    k, rho, r_lead, f_denom = _printed_ladder(points, kmax)
    n = np.array([params.dim for params in points])[:, np.newaxis]
    sigma = np.array([params.sigma for params in points])[:, np.newaxis]
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
        coefficients = np.stack(
            [np.stack(inner, axis=-1), np.stack(outer, axis=-1)], axis=1
        )
    FloatRangeError.check(points, np.isfinite(coefficients).all(axis=(1, 3)))
    coefficients.flags.writeable = False
    return coefficients
