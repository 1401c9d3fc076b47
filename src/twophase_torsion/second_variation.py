"""The second shape variation of the energy on the concentric balls, and the
per-mode transmission problems it is assembled from.

The second variation diagonalizes over spherical-harmonic degrees: for a
perturbation with normal traces sum alpha_in Y_{k,i} on the interface and
sum alpha_out Y_{k,i} on the outer boundary,

    E''(Phi) = sum_{k,i} { alpha_in^2 e_in(k) + alpha_out^2 e_out(k)
                           + alpha_in alpha_out e_res(k) }.

Modes.  For a degree-k harmonic perturbation of the interface (kind Inner) or
of the outer boundary (kind Outer), the shape derivative u' is harmonic in
the core and in the shell, with matching conditions at r = R and a Dirichlet
condition at r = 1.  Separation of variables reduces each mode to a radial
profile

    w(r) = B r^k                      in the core,
    w(r) = C r^{2-N-k} + D r^k        in the shell,

and the matching conditions to a 3x3 linear system in (B, C, D).

Spectrum.  One pass, `spectrum_grid(points, kmax)`, solves these systems
numerically, the path independent of the printed formulas, checks them and
assembles the boundary-integral formula for E'' per mode into a
`SpectrumGrid`, the one format and the one cache of the solved modes and the
spectrum, floats at every degree; its docstring states the conditions, the
elimination, the contract and the assembly.  `mode_coefficients(grid)`
unscales the unknowns for the comparisons with the printed (B, C, D).  Every
quadratic form E''(Phi) is summed from a one-point grid
(`total_second_variation`).  This assembled spectrum is the one consumed
downstream: it is self-consistent (e_in(1) = e_out(1)) and confirmed by the
PDE oracle.

Printed path.  `closed_form_modes` and `printed_spectrum` evaluate the
printed closed forms verbatim, over the same ladders, with their common
denominator `denom_F`: reference values for the fidelity report and the
printed path of the CSV emitter (`SpectrumPath`).  Any discrepancy is
surfaced there; the closed forms are never silently patched.  The three
read one cached pass per (points, kmax), which evaluates them all over one
ladder and is bounded like `spectrum_grid`; each checks its own arrays.

Ladder conventions, for every function over degrees 1..kmax at a tuple of
points: arrays lead with the point axis, [point, degree - 1] for a column
and [point, kind, degree - 1, column] for the modes; each power of R is
Python's scalar pow at its exact integer exponent, so row (point, k)
depends neither on kmax nor on the other points; results are read-only,
and FloatRangeError names the first degree that leaves the float range,
prefixed by the first point that fails when there are several.  The
spectrum raises it too where the entry that decides stability reads 0 and
its sign is lost: e_in(1) = O(R^N) for sigma != 1, and e_out(2) = -2/N^2
for sigma = 1.

Also provided: the discriminant delta of the resonance quadratic
Q(t) = e_in t^2 + e_res t + e_out, elementwise over such columns, and the
proof functions a, b, c certifying monotone decrease of the spectrum, at
each point and elementwise in x.
"""

from __future__ import annotations

import enum
import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .exact_state import traces
from .params import PerturbationSpec, ProblemParams

# Contract tolerance for the mode system's backward error.
RESIDUAL_TOL = 1e-12

# the kind axis of SpectrumGrid.unknowns: the modes of the interface and of
# the outer boundary, as the diagnostics name them
KINDS = ("Inner", "Outer")


class TransmissionSolveError(RuntimeError):
    """A mode system's solution left a residual above contract."""


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


# R^{N-2+2k}, R^{N-2+k} and R^{N-1+k}: the mode systems and the spectrum, as
# the (a, b, c) of exponents a + bN + ck
_MODE_POWERS = ((-2, 1, 2), (-2, 1, 1), (-1, 1, 1))
# R^{2-N-2k} and R^{1-k}: the printed closed forms
_PRINTED_POWERS = ((2, -1, -2), (1, 0, -1))


def _radius_power(radius: float, exponent: int) -> float:
    """radius**exponent by Python's scalar pow, for 0 < radius < 1: inf past
    float range, and 0.0 or inf for an exponent past it."""
    try:
        return radius**exponent
    except OverflowError:
        return 0.0 if exponent > 0 else math.inf


def _radius_powers(points: tuple[ProblemParams, ...], kmax: int, terms) -> np.ndarray:
    """R^{a + bN + ck} for each term (a, b, c), at each point (radius R,
    dimension N) and degree k = 1..kmax, indexed [term, point, degree - 1];
    inf past float range.  Every ladder starts here, so here an empty degree
    range or an empty tuple of points is rejected.

    numpy's vectorised pow differs from Python's scalar one by an ulp on
    about 5% of these inputs, so each entry is the scalar pow at its exact
    exponent: one row R^{base + ck}, k = 1..kmax, with base = a + bN in
    Python's ints, per distinct (R, base, c), gathered to every (term, point)
    that shares it.
    """
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    if not points:
        raise ValueError("points must not be empty")
    # allocated first, so an infeasible kmax fails at once
    powers = np.empty((len(terms), len(points), kmax))
    rows = {}
    index = [[rows.setdefault((p.core_radius, a + b * p.dim, c), len(rows)) for p in points]
             for a, b, c in terms]
    table = [[_radius_power(r, base + c * k) for k in range(1, kmax + 1)] for r, base, c in rows]
    np.take(np.array(table), index, axis=0, out=powers)
    return powers


def _denominator(n, sigma, k, rho):
    """F = N(N-2+k+k sigma) rho + kN(1-sigma) with rho = R^{2-N-2k},
    elementwise in every argument."""
    return n * (n - 2 + k + k * sigma) * rho + k * n * (1.0 - sigma)


@functools.lru_cache(maxsize=16)
def _printed(points: tuple[ProblemParams, ...], kmax: int) -> tuple[np.ndarray, ...]:
    """F, the (B, C, D) of closed_form_modes and the e_in, e_out, e_res of
    printed_spectrum, evaluated verbatim over one ladder and cached like
    spectrum_grid: read-only and unchecked, inf or NaN past float range."""
    rho, r_lead = _radius_powers(points, kmax, _PRINTED_POWERS)
    # the degrees as integers, so that k k stays exact, and N as a float,
    # exact below 2^53, so that an N past int64 makes no object array
    k = np.arange(1, kmax + 1)
    n = np.array([params.dim for params in points], dtype=float)[:, np.newaxis]
    sigma = np.array([params.sigma for params in points])[:, np.newaxis]
    r_pow = np.array([params.core_radius**params.dim for params in points])[:, np.newaxis]
    with np.errstate(over="ignore", invalid="ignore"):
        f_denom = _denominator(n, sigma, k, rho)
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
        e_in = (
            (2.0 * r_pow / n)
            * ((1.0 - sigma) / sigma)
            * (f_denom - k * (k * (1.0 - sigma) + (n - 2 + k) * (1.0 - sigma) * rho))
            / f_denom
        )
        e_out = (
            (2.0 / n)
            * (f_denom - k * ((-n + 2 - k) * (1.0 - sigma) + (n - 2 + k + k * sigma) * rho))
            / f_denom
        )
        e_res = (4.0 * (sigma - 1.0) * r_lead / n) * ((n - 2) * k + 2 * k * k) / f_denom
    printed = f_denom, coefficients, e_in, e_out, e_res
    for array in printed:
        array.flags.writeable = False
    return printed


def denom_F(points: tuple[ProblemParams, ...], kmax: int) -> np.ndarray:
    """The common denominator F = N(N-2+k+k sigma)R^{2-N-2k} + kN(1-sigma) > 0
    of the printed closed forms, degrees 1..kmax at each point."""
    f_denom = _printed(points, kmax)[0]
    FloatRangeError.check(points, np.isfinite(f_denom))
    return f_denom


def _eliminate(sigma, stiffness, two_minus_n, k, epsilon, complement, r1, r2):
    """The unknowns b, c, d of conditions (i)-(iii) of spectrum_grid, with
    stiffness = sigma k and complement = 1 - eps: d = r2 - eps c by (iii),
    and (b, c) by Cramer's rule on the 2x2 system that (i) and (ii) leave."""
    a12 = two_minus_n - k - k * epsilon
    det = a12 - stiffness * complement
    b = (-k * r2 * complement - a12 * (r1 - r2)) / det
    # -sigma k (r1 - r2) - k r2, grouped so that 1 - sigma is exact near 1
    c = -k * (sigma * r1 + (1.0 - sigma) * r2) / det
    return b, c, r2 - epsilon * c


def mode_coefficients(grid: SpectrumGrid) -> np.ndarray:
    """The profile coefficients (B, C, D) of the grid's solved modes at its
    own points, read-only and laid out like grid.unknowns.  The Inner B and
    D carry R^{-k}, and a scaled unknown that is exactly zero gives a zero
    coefficient: raises FloatRangeError at the first degree where a nonzero
    one meets an R^{-k} or leaves the float range."""
    (r_minus_k,) = _radius_powers(grid.points, grid.unknowns.shape[2], ((0, 0, -1),))
    epsilon, inner_power, _ = grid.powers
    coefficients = grid.unknowns.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        coefficients[:, 0] *= np.stack([r_minus_k, inner_power, r_minus_k], axis=-1)
    coefficients[:, 1, :, 1] *= epsilon
    # 0 * inf is nan; the zero unknown's own coefficient is that zero
    np.copyto(coefficients, grid.unknowns, where=grid.unknowns == 0.0)
    FloatRangeError.check(grid.points, np.isfinite(coefficients).all(axis=(1, 3)))
    coefficients.flags.writeable = False
    return coefficients


def closed_form_modes(points: tuple[ProblemParams, ...], kmax: int) -> np.ndarray:
    """The printed closed-form (B, C, D) of degrees 1..kmax, both kinds, at
    every point, evaluated verbatim and laid out like mode_coefficients."""
    coefficients = _printed(points, kmax)[1]
    FloatRangeError.check(points, np.isfinite(coefficients).all(axis=(1, 3)))
    return coefficients


def printed_spectrum(
    points: tuple[ProblemParams, ...], kmax: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The printed closed-form columns e_in, e_out, e_res of degrees 1..kmax
    at every point, evaluated verbatim."""
    e_in, e_out, e_res = _printed(points, kmax)[2:]
    FloatRangeError.check(
        points, np.isfinite(e_in) & np.isfinite(e_out) & np.isfinite(e_res)
    )
    return e_in, e_out, e_res


class SpectrumPath(enum.Enum):
    ASSEMBLED = "assembled"
    PRINTED = "printed"


@dataclass(frozen=True)
class SecondVariationSpectrum:
    """The quadratic-form coefficients of the second variation at one
    degree."""

    degree: int
    e_in: float
    e_out: float
    e_res: float


def discriminant(e_in, e_out, e_res):
    """delta = e_res^2 - 4 e_in e_out, the discriminant of the resonance
    quadratic Q(t) = e_in t^2 + e_res t + e_out; elementwise, and inf where
    the squares leave the float range, as in scalar arithmetic."""
    with np.errstate(over="ignore", invalid="ignore"):
        return e_res * e_res - 4.0 * e_in * e_out


@dataclass(frozen=True, eq=False)
class SpectrumGrid:
    """The assembled spectra of degrees 1..kmax at a tuple of parameter points
    and the mode solve they come from, all read-only and finite: e_in, e_out
    and e_res, indexed [point, degree - 1]; unknowns, indexed [point, kind,
    degree - 1, column] with the kinds in KINDS order, (B R^k, C R^{2-N-k},
    D R^k) of the Inner kind, the interface's modes, and (B, C R^{2-N-2k}, D)
    of the Outer kind, the outer boundary's, whose system is divided by R^k;
    and powers, indexed [power, point, degree - 1], R^{N-2+2k}, R^{N-2+k}
    and R^{N-1+k}, which may underflow to 0."""

    points: tuple[ProblemParams, ...]
    unknowns: np.ndarray
    powers: np.ndarray
    e_in: np.ndarray
    e_out: np.ndarray
    e_res: np.ndarray


@functools.lru_cache(maxsize=16)
def spectrum_grid(points: tuple[ProblemParams, ...], kmax: int) -> SpectrumGrid:
    """Solve the mode systems of degrees 1..kmax, both kinds, at every point,
    check them, and assemble e_in, e_out, e_res from them, in one pass.

    Conditions at the interface r = R and the boundary r = 1, in the scaled
    unknowns (b, c, d) of SpectrumGrid, so that no R^{-k} is formed, with
    eps = R^{N-2+2k}, r1 = -[d_n u] = -R(1-sigma)/(N sigma), r2 = 0 (Inner)
    and r1 = 0, r2 = 1/N (Outer, whose system is divided by R^k):

      (i)   flux jump zero:   -sigma k b + (2-N-k) c + k d = 0
      (ii)  value jump:       -b + c + d = r1
      (iii) boundary value:   eps c + d = r2

    Elimination: d = r2 - eps c by (iii) leaves a 2x2 system in (b, c),
    solved by Cramer's rule elementwise (_eliminate).  Its determinant
    (2-N-k-k eps) - sigma k (1-eps) is a sum of two terms <= 0, the first
    <= -k, so it never cancels; nor does 1 - eps as R nears 1, formed there
    by expm1.  Contract: the backward error of each condition, its residual
    over the sum of the magnitudes of its terms, is at most RESIDUAL_TOL.

    Assembly: the boundary-integral formula, with u radial and the surface
    integrals of Y^2 contributing R^{N-1} at the interface and 1 at the
    boundary,

        E'' = +2 int_{|x|=1} grad u . grad u' (h.n) + 2 int_{|x|=1} d_n u d_nn u (h.n)^2
              -2 int_{|x|=R} [sigma grad u . grad u'] (h.n)
              -2 int_{|x|=R} sigma d_n u_- [d_nn u] (h.n)^2,

    gives per mode, with Dw' := w'_+(R) - w'_-(R), the first line of each
    entry; (i), Dw' = (sigma-1) k B R^{k-1}, and (iii) turn it into the
    second, in the scaled unknowns with no power of R negative:

        e_in  = (2 R^N / N) Dw'_in + 2 R^N (1-sigma) / (N^2 sigma)
              = (2 R^{N-1} / N) (1-sigma) (R / (N sigma) - k b_in)
        e_out = -(2/N) w'_out(1) + 2/N^2
              = 2(1-k)/N^2 + (2/N)(N-2+2k) c_out eps
        e_res = -(2/N) w'_in(1) + (2 R^N / N) Dw'_out
              = (2/N)(N-2+2k) c_in R^{N-2+k} + (2/N)(sigma-1) k b_out R^{N-1+k}

    As sigma -> 0, b_in is about R/(N sigma k), and the bracket of e_in
    subtracts two O(1/sigma) terms: at k = 1 its O(1) value lost every
    digit.  So below sigma = 1/2 the bracket is read through (ii),
    b_in = c_in (1-eps) + R(1-sigma)/(N sigma), as

        R/(N sigma) - k b_in = R(1-k)/(N sigma) + k (R/N - c_in (1-eps))

    with c_in < 0, where the row k = 1 is a sum of positive terms.  Near
    sigma = 1 the second form would subtract (k-1)R/N from kR/N instead.

    Raises TransmissionSolveError if a backward error exceeds the contract,
    and FloatRangeError at the first degree whose system, unknowns or
    entries leave the float range, and where the entry that decides the
    verdict underflows to 0: e_in(1) for sigma != 1, e_out(2) = -2/N^2 for
    sigma = 1.  This is the spectrum's one cache, keyed by (points, kmax):
    `spectrum` rereads the grid `classify` built, and the analytic criteria
    read one grid, so 16 grids serve it, where 512 held 148 MB at kmax 3000
    over a long sweep of points.
    """
    powers = _radius_powers(points, kmax, _MODE_POWERS)
    # per point, in scalar arithmetic like every power of R: N, R, sigma,
    # 2 R^{N-1} and 2-N, then r1 and r2 of both kinds
    columns = np.array([
        (p.dim, p.core_radius, p.sigma, 2.0 * p.core_radius ** (p.dim - 1), 2 - p.dim,
         -traces(p), 0.0, 0.0, 1.0 / p.dim) for p in points
    ], dtype=float)[..., np.newaxis]
    # indexed [point, degree - 1], and [point, kind, degree - 1] for the solve
    n, radius, sigma, interface = columns[:, :4].swapaxes(0, 1)
    two_minus_n, r1, r2 = columns[:, 4:5], columns[:, 5:7], columns[:, 7:]
    k = np.arange(1.0, kmax + 1.0)
    epsilon, inner_power, outer_power = powers
    # 1 - eps, but for a thin shell, R > 1/2, where R - 1 is exact, by scalar
    # expm1 over the exponents N-2+2k, once per distinct (R, N)
    complement, shells = 1.0 - epsilon, {}
    for point, p in enumerate(points):
        if p.core_radius > 0.5:
            shells.setdefault((math.log1p(p.core_radius - 1.0), p.dim), []).append(point)
    for (log_radius, dim), rows in shells.items():
        complement[rows] = [-math.expm1(e * log_radius) for e in range(dim, dim + 2 * kmax, 2)]

    # overflow is not an error here: FloatRangeError reports where it happened
    with np.errstate(over="ignore", invalid="ignore"):
        stiffness = sigma[:, np.newaxis] * k
        FloatRangeError.check(
            points, (np.isfinite(stiffness) & np.isfinite(r1) & np.isfinite(r2)).all(axis=1)
        )
        b, c, d = _eliminate(
            sigma[:, np.newaxis], stiffness, two_minus_n, k, epsilon[:, np.newaxis],
            complement[:, np.newaxis], r1, r2,
        )
        # backward error per condition, the right-hand side moved over among
        # its terms; the worst condition's, ignoring NaN
        tiny, total = sys.float_info.min, functools.partial(functools.reduce, np.add)
        flux = (-stiffness * b, (two_minus_n - k) * c, k * d)
        worst = functools.reduce(np.fmax, [
            np.abs(total(terms)) / np.maximum(total(map(np.abs, terms)), tiny)
            for terms in (flux, (-b, c, d, -r1), (epsilon[:, np.newaxis] * c, d, -r2))
        ])
        failed = worst > RESIDUAL_TOL
        if failed.any():
            point, index = np.argwhere(failed.any(axis=1))[0].tolist()
            kind = 0 if failed[point, 0, index] else 1
            raise TransmissionSolveError(
                f"{_named(points, point)}mode system residual "
                f"{worst[point, kind, index]:.3e} exceeds "
                f"{RESIDUAL_TOL:.0e} at degree {index + 1}, kind {KINDS[kind]}"
            )
        (b_in, b_out), (c_in, c_out) = b.swapaxes(0, 1), c.swapaxes(0, 1)
        shell = 2.0 * (n - 2 + 2 * k) / n
        # R/(N sigma) - k b_in, and below sigma = 1/2 the same by (ii)
        bracket = np.where(
            sigma < 0.5,
            radius * (1 - k) / (n * sigma) + k * (radius / n - c_in * complement),
            radius / (n * sigma) - k * b_in,
        )
        # 1-sigma here and sigma-1 in e_res, so that sigma = 1 gives +0.0
        e_in = interface / n * (1.0 - sigma) * bracket
        e_out = 2.0 * (1 - k) / (n * n) + shell * c_out * epsilon
        e_res = shell * c_in * inner_power + 2.0 * ((sigma - 1.0) * k * b_out) / n * outer_power
    unknowns = np.stack((b, c, d), axis=-1)
    FloatRangeError.check(points, np.isfinite(unknowns).all(axis=(1, 3)))
    FloatRangeError.check(points, np.isfinite(e_in) & np.isfinite(e_out) & np.isfinite(e_res))
    # the entry that decides the verdict, nonzero in exact arithmetic, reads 0
    # where it left the float range with its sign: at sigma = 1, e_in is +0.0
    signed = (sigma == 1.0) | (e_in[:, :1] != 0.0), (sigma != 1.0) | (e_out[:, 1:2] != 0.0)
    FloatRangeError.check(points, np.hstack(signed))
    for array in (unknowns, powers, e_in, e_out, e_res):
        array.flags.writeable = False
    return SpectrumGrid(points, unknowns, powers, e_in, e_out, e_res)


def assemble_spectrum(params: ProblemParams, degree: int) -> SecondVariationSpectrum:
    """The entries of one degree of the assembled spectrum: the last of each
    column of spectrum_grid((params,), degree)."""
    if degree < 1:
        raise ValueError("degree must be >= 1")
    table = spectrum_grid((params,), degree)
    return SecondVariationSpectrum(
        degree, *(float(column[0, -1]) for column in (table.e_in, table.e_out, table.e_res))
    )


def total_second_variation(spec: PerturbationSpec, table: SpectrumGrid) -> float:
    """Quadratic form E''(Phi) summed over the modes stored in the spec, from
    the columns of the one-point spectrum grid of its parameter point."""
    if len(table.points) != 1:
        raise ValueError(
            f"the spectrum grid holds {len(table.points)} points; give the grid of one"
        )
    kmax = table.e_in.shape[1]
    total = 0.0
    for index, (alpha_in, alpha_out) in spec.sorted_items():
        if index.degree == 0:
            raise ValueError(
                "degree-0 modes are not volume preserving; the second "
                "variation is defined on volume-preserving perturbations"
            )
        index.check_order(table.points[0].dim)
        if index.degree > kmax:
            raise ValueError(
                f"degree {index.degree} lies outside the spectrum table 1..{kmax}"
            )
        row = index.degree - 1
        total += (
            alpha_in * alpha_in * float(table.e_in[0, row])
            + alpha_out * alpha_out * float(table.e_out[0, row])
            + alpha_in * alpha_out * float(table.e_res[0, row])
        )
    return total


def monotonicity_functions(
    points: tuple[ProblemParams, ...], x
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The proof functions a, b, c certifying strict decrease of the spectrum.

    With L = 1/R, lambda = log L, M = N-2, P = L^{2x+M}:

        a(x) = x^2 P^{-1} + M(2x+M) - (x+M)^2 P - 2 lambda (2x^3 + 3Mx^2 + M^2 x)
        b(x) = -2x^2 P^{-1} - M(2x+M) - 2(Mx + x^2) P + 2 lambda M (Mx + 2x^2)
        c(x) = P^{-1} - P + 2 lambda (M + 2x)

    All three are strictly negative for x > 0, which forces the spectrum to
    decrease in the degree.  Indexed [point, ...] with x's shape after the
    point axis; where P leaves the float range the values are -inf, their
    limit.
    """
    x = np.asarray(x, dtype=float)
    if not (x > 0.0).all():
        raise ValueError("x must be positive")
    column = (len(points),) + (1,) * x.ndim
    big_l = np.array([1.0 / params.core_radius for params in points]).reshape(column)
    lam = np.array([math.log(1.0 / params.core_radius) for params in points]).reshape(column)
    m = np.array([params.dim - 2 for params in points]).reshape(column)
    with np.errstate(over="ignore"):
        p = np.power(big_l, 2.0 * x + m)
        a = (
            x * x / p
            + m * (2.0 * x + m)
            - (x + m) ** 2 * p
            - 2.0 * lam * (2.0 * x**3 + 3.0 * m * x * x + m * m * x)
        )
        b = (
            -2.0 * x * x / p
            - m * (2.0 * x + m)
            - 2.0 * (m * x + x * x) * p
            + 2.0 * lam * m * (m * x + 2.0 * x * x)
        )
        c = 1.0 / p - p + 2.0 * lam * (m + 2.0 * x)
    return a, b, c
