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
`spectrum_grid` solves that system numerically, by eliminating its boundary
row, the path independent of the printed formulas, and keeps its scaled
unknowns, floats at every degree; `mode_coefficients(grid)` undoes the
scaling for the comparisons with the printed (B, C, D), which read degrees
1..20.

Spectrum.  The solved modes and the spectrum have one format, the
`SpectrumGrid`: `spectrum_grid(points, kmax)`, its one entry point and its
one cache, reduces the boundary-integral formula for E'' per mode, from one
stacked solve,

    E'' = +2 int_{|x|=1} grad u . grad u' (h.n) + 2 int_{|x|=1} d_n u d_nn u (h.n)^2
          -2 int_{|x|=R} [sigma grad u . grad u'] (h.n)
          -2 int_{|x|=R} sigma d_n u_- [d_nn u] (h.n)^2,

with u radial, so grad u . grad u' = (d_r u)(d_r u') on each sphere, and the
surface integrals of Y^2 contributing R^{N-1} at the interface and 1 at the
boundary; the grid assembles it from its own scaled unknowns, so its entries
are floats at every degree.  Every quadratic form E''(Phi) is summed from the
columns of a one-point grid (`total_second_variation(spec, table)`), so a
caller that holds the grid of its parameter point reads the form from it.
This assembled spectrum is the one consumed downstream: it is
self-consistent (translation invariance e_in(1) = e_out(1)) and confirmed by
the PDE oracle.

Printed path.  `closed_form_modes` and `printed_spectrum` evaluate the
printed closed forms verbatim, over the same ladders, with their common
denominator `denom_F`: reference values for the fidelity report and the
printed path of the CSV emitter (`SpectrumPath`).  Any discrepancy is
surfaced there; the closed forms are never silently patched.

Ladder conventions, for every function over degrees 1..kmax at a tuple of
points: arrays lead with the point axis, [point, degree - 1] for a column
and [point, kind, degree - 1, column] for the modes; the powers of R come
from one ladder per distinct R, built with Python's scalar pow over the
integer exponents the call uses, so row (point, k) depends neither on kmax
nor on the other points; results are read-only, and FloatRangeError names
the first degree that leaves the float range, prefixed by the first point
that fails when there are several.

Also provided: the discriminant delta of the resonance quadratic
Q(t) = e_in t^2 + e_res t + e_out, elementwise over such columns, and the
proof functions a, b, c certifying monotone decrease of the spectrum, at
each point and elementwise in x.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from .exact_state import traces
from .params import PerturbationSpec, ProblemParams

# Contract tolerance for the mode system's backward error.
RESIDUAL_TOL = 1e-12


class ModeKind(enum.Enum):
    INNER = "Inner"
    OUTER = "Outer"


KINDS = tuple(ModeKind)  # the kind axis of SpectrumGrid.unknowns


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


def _exponents(*terms: tuple[int, int, int]) -> np.ndarray:
    """The (a, b, c) of exponents a + bN + ck, as three arrays that broadcast
    against [term, point, degree - 1]."""
    return np.array(terms).T[..., np.newaxis, np.newaxis]


# R^{N-2+2k}, R^{N-2+k} and R^{N-1+k}: the mode systems and the spectrum
_MODE_POWERS = _exponents((-2, 1, 2), (-2, 1, 1), (-1, 1, 1))
# R^{2-N-2k} and R^{1-k}: the printed closed forms
_PRINTED_POWERS = _exponents((2, -1, -2), (1, 0, -1))


def _radius_powers(points: tuple[ProblemParams, ...], kmax: int, terms) -> np.ndarray:
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


def _printed_ladder(points: tuple[ProblemParams, ...], kmax: int) -> tuple[np.ndarray, ...]:
    """The terms the printed closed forms share: the columns N and sigma of
    the points, the degrees 1..kmax, and R^{2-N-2k}, R^{1-k} and F indexed
    [point, degree - 1]; entries past float range are inf or NaN."""
    _check_ladder(points, kmax)
    # integers, so the integer factors stay exact
    degrees = np.arange(1, kmax + 1)
    dims = np.array([params.dim for params in points])[:, np.newaxis]
    sigmas = np.array([params.sigma for params in points])[:, np.newaxis]
    rho, r_lead = _radius_powers(points, kmax, _PRINTED_POWERS)
    with np.errstate(over="ignore", invalid="ignore"):
        f_denom = _denominator(dims, sigmas, degrees, rho)
    return dims, sigmas, degrees, rho, r_lead, f_denom


def denom_F(points: tuple[ProblemParams, ...], kmax: int) -> np.ndarray:
    """The common denominator F = N(N-2+k+k sigma)R^{2-N-2k} + kN(1-sigma) > 0
    of the printed closed forms, degrees 1..kmax at each point."""
    f_denom = _printed_ladder(points, kmax)[-1]
    FloatRangeError.check(points, np.isfinite(f_denom))
    f_denom.flags.writeable = False
    return f_denom


def _eliminate(sigma, stiffness, two_minus_n, k, epsilon, complement, r1, r2):
    """The unknowns b, c, d of conditions (i)-(iii) of _solve_modes, with
    stiffness = sigma k and complement = 1 - eps: d = r2 - eps c by (iii),
    and (b, c) by Cramer's rule on the 2x2 system that (i) and (ii) leave."""
    a12 = two_minus_n - k - k * epsilon
    det = a12 - stiffness * complement
    b = (-k * r2 * complement - a12 * (r1 - r2)) / det
    # -sigma k (r1 - r2) - k r2, grouped so that 1 - sigma is exact near 1
    c = -k * (sigma * r1 + (1.0 - sigma) * r2) / det
    return b, c, r2 - epsilon * c


def _solve_modes(points: tuple[ProblemParams, ...], kmax: int) -> tuple[np.ndarray, np.ndarray]:
    """The unknowns and powers of SpectrumGrid: the mode systems of degrees
    1..kmax, both kinds, solved at every point in one call.

    Conditions at the interface r = R and the boundary r = 1, in the scaled
    unknowns (b, c, d) of SpectrumGrid, so that no R^{-k} is formed, with
    eps = R^{N-2+2k}, r1 = -[d_n u], r2 = 0 (Inner) and r1 = 0, r2 = 1/N
    (Outer, whose system is divided by R^k):
      (i)   flux jump zero:   -sigma k b + (2-N-k) c + k d = 0
      (ii)  value jump:       -b + c + d = r1
      (iii) boundary value:   eps c + d = r2
    Eliminating (iii), d = r2 - eps c, leaves a 2x2 system in (b, c), solved
    by Cramer's rule elementwise.  Its determinant (2-N-k-k eps) - sigma k
    (1-eps) is a sum of two terms <= 0, the first <= -k, so it never
    cancels; nor does 1 - eps as R nears 1.  Raises TransmissionSolveError
    if the backward error of any condition exceeds the 1e-12 relative
    contract, and FloatRangeError at the first degree whose system or
    unknowns leave the float range.
    """
    _check_ladder(points, kmax)
    # per point, in scalar arithmetic, as columns that broadcast against
    # [point, kind, degree - 1]: sigma, 2-N, and r1 and r2 of both kinds
    columns = np.array(
        [(p.sigma, 2 - p.dim, -traces(p).jump_dn, 0.0, 0.0, 1.0 / p.dim) for p in points]
    )[..., np.newaxis]
    sigma, two_minus_n, r1, r2 = columns[:, :1], columns[:, 1:2], columns[:, 2:4], columns[:, 4:]
    k = np.arange(1.0, kmax + 1.0)
    powers = _radius_powers(points, kmax, _MODE_POWERS)
    epsilon = powers[0, :, np.newaxis]
    # 1 - eps, but for a thin shell, R > 1/2, where R - 1 is exact, by scalar
    # expm1 over the exponents N-2+2k, once per distinct (R, N)
    complement, shells = 1.0 - epsilon, {}
    for point, p in enumerate(points):
        if p.core_radius > 0.5:
            shells.setdefault((math.log1p(p.core_radius - 1.0), p.dim), []).append(point)
    for (log_radius, dim), rows in shells.items():
        complement[rows, 0] = [-math.expm1(e * log_radius) for e in range(dim, dim + 2 * kmax, 2)]

    # overflow is not an error here: FloatRangeError reports where it happened
    with np.errstate(over="ignore", invalid="ignore"):
        stiffness = sigma * k
        FloatRangeError.check(
            points, (np.isfinite(stiffness) & np.isfinite(r1) & np.isfinite(r2)).all(axis=1)
        )
        b, c, d = _eliminate(sigma, stiffness, two_minus_n, k, epsilon, complement, r1, r2)
        # backward error per condition: its residual over the sum of the
        # magnitudes of its terms, the right-hand side moved over among them;
        # the worst condition's, ignoring NaN
        tiny, total = np.finfo(float).tiny, functools.partial(functools.reduce, np.add)
        flux = (-stiffness * b, (two_minus_n - k) * c, k * d)
        worst = functools.reduce(np.fmax, [
            np.abs(total(terms)) / np.maximum(total(map(np.abs, terms)), tiny)
            for terms in (flux, (-b, c, d, -r1), (epsilon * c, d, -r2))
        ])
        failed = worst > RESIDUAL_TOL
        if failed.any():
            point, index = np.argwhere(failed.any(axis=1))[0].tolist()
            kind = 0 if failed[point, 0, index] else 1
            raise TransmissionSolveError(
                f"{_named(points, point)}mode system residual "
                f"{worst[point, kind, index]:.3e} exceeds "
                f"{RESIDUAL_TOL:.0e} at degree {index + 1}, kind {KINDS[kind].value}"
            )
    unknowns = np.stack((b, c, d), axis=-1)
    FloatRangeError.check(points, np.isfinite(unknowns).all(axis=(1, 3)))
    unknowns.flags.writeable = False
    powers.flags.writeable = False
    return unknowns, powers


def mode_coefficients(grid: SpectrumGrid) -> np.ndarray:
    """The profile coefficients (B, C, D) of the grid's solved modes at its
    own points, read-only and laid out like grid.unknowns.  The Inner B and
    D carry R^{-k}, and a scaled unknown that is exactly zero gives a zero
    coefficient: raises FloatRangeError at the first degree where a nonzero
    one meets an R^{-k} or leaves the float range."""
    (r_minus_k,) = _radius_powers(grid.points, grid.unknowns.shape[2], _exponents((0, 0, -1)))
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
    n, sigma, k, rho, r_lead, f_denom = _printed_ladder(points, kmax)
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


def printed_spectrum(
    points: tuple[ProblemParams, ...], kmax: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The printed closed-form columns e_in, e_out, e_res of degrees 1..kmax
    at every point, evaluated verbatim."""
    n, sigma, k, rho, r_lead, f_denom = _printed_ladder(points, kmax)
    r_pow = np.array([params.core_radius**params.dim for params in points])[:, np.newaxis]
    with np.errstate(over="ignore", invalid="ignore"):
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
    FloatRangeError.check(
        points, np.isfinite(e_in) & np.isfinite(e_out) & np.isfinite(e_res)
    )
    for column in (e_in, e_out, e_res):
        column.flags.writeable = False
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
    degree - 1, column] with kinds in KINDS order, (B R^k, C R^{2-N-k}, D R^k)
    of the Inner kind and (B, C R^{2-N-2k}, D) of the Outer kind, whose
    system is divided by R^k; and powers, indexed [power, point, degree - 1],
    R^{N-2+2k}, R^{N-2+k} and R^{N-1+k}, which may underflow to 0."""

    points: tuple[ProblemParams, ...]
    unknowns: np.ndarray
    powers: np.ndarray
    e_in: np.ndarray
    e_out: np.ndarray
    e_res: np.ndarray


@functools.lru_cache(maxsize=16)
def spectrum_grid(points: tuple[ProblemParams, ...], kmax: int) -> SpectrumGrid:
    """Assemble e_in, e_out, e_res of degrees 1..kmax at every point from the
    boundary-integral formula, from one stacked mode solve.

    With w the radial profile of the mode (from _solve_modes) and
    Dw' := w'_+(R) - w'_-(R) the derivative jump at the interface:

        e_in  = (2 R^N / N) Dw'_in  + 2 R^N (1-sigma) / (N^2 sigma)
        e_out = -(2/N) w'_out(1) + 2/N^2
        e_res = -(2/N) w'_in(1)  + (2 R^N / N) Dw'_out

    By the flux condition, Dw' = (sigma-1) k B R^{k-1}, and the boundary
    condition, D = -C (Inner) or C + D = 1/N (Outer), in the grid's scaled
    unknowns b, c and with eps = R^{N-2+2k}, no power of R negative:

        e_in  = (2 R^{N-1} / N) (1-sigma) (R / (N sigma) - k b_in)
        e_out = 2(1-k)/N^2 + (2/N)(N-2+2k) c_out eps
        e_res = (2/N)(N-2+2k) c_in R^{N-2+k} + (2/N)(sigma-1) k b_out R^{N-1+k}

    Raises FloatRangeError at the first degree whose entries leave the float
    range.  This is the spectrum's one cache, keyed by (points, kmax), with
    points a tuple.  Its traffic is a few keys at a time: `spectrum`
    rereads the one-point grid that `classify` at the same point built,
    criteria 1-8 read the 45-point grid at kmax 20 and 50 and 27 points at
    50, and criteria 11-12 two one-point grids; so 16 grids serve it, where
    512 held 148 MB at kmax 3000 over a long sweep of points.
    """
    unknowns, powers = _solve_modes(points, kmax)
    # per point: N, R, sigma and 2 R^{N-1}, by Python's scalar pow like every power of R
    n, radius, sigma, interface = np.array(
        [(p.dim, p.core_radius, p.sigma, 2.0 * p.core_radius ** (p.dim - 1)) for p in points]
    ).T[..., np.newaxis]
    k = np.arange(1, kmax + 1)
    epsilon, inner_power, outer_power = powers
    (b_in, c_in, _), (b_out, c_out, _) = np.moveaxis(unknowns, (1, 3), (0, 1))

    with np.errstate(over="ignore", invalid="ignore"):
        shell = 2.0 * (n - 2 + 2 * k) / n
        # 1-sigma here and sigma-1 in e_res, so that sigma = 1 gives +0.0
        e_in = interface / n * (1.0 - sigma) * (radius / (n * sigma) - k * b_in)
        e_out = 2.0 * (1 - k) / (n * n) + shell * c_out * epsilon
        e_res = shell * c_in * inner_power + 2.0 * ((sigma - 1.0) * k * b_out) / n * outer_power
    FloatRangeError.check(points, np.isfinite(e_in) & np.isfinite(e_out) & np.isfinite(e_res))
    for column in (e_in, e_out, e_res):
        column.flags.writeable = False
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
