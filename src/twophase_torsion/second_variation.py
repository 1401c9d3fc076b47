"""The second shape variation of the energy on the concentric balls.

The second variation diagonalizes over spherical-harmonic degrees: for a
perturbation with normal traces sum alpha_in Y_{k,i} on the interface and
sum alpha_out Y_{k,i} on the outer boundary,

    E''(Phi) = sum_{k,i} { alpha_in^2 e_in(k) + alpha_out^2 e_out(k)
                           + alpha_in alpha_out e_res(k) }.

The spectrum has one format, the `SpectrumGrid`: `spectrum_grid(points,
kmax)` reduces the boundary-integral formula for E'' per mode using
oracle-validated profiles, for the whole ladder of degrees 1..kmax at every
point of a tuple, from one stacked solve, its columns indexed [point,
degree - 1]; `spectrum_table(params, kmax)` caches the grid of one point,

    E'' = +2 int_{|x|=1} grad u . grad u' (h.n) + 2 int_{|x|=1} d_n u d_nn u (h.n)^2
          -2 int_{|x|=R} [sigma grad u . grad u'] (h.n)
          -2 int_{|x|=R} sigma d_n u_- [d_nn u] (h.n)^2,

with u radial, so grad u . grad u' = (d_r u)(d_r u') on each sphere, and the
surface integrals of Y^2 contributing R^{N-1} at the interface and 1 at the
boundary; the grid assembles it from the mode table's scaled unknowns, so
its entries are floats at every degree.  Every quadratic form E''(Phi) is
summed from the columns of a one-point grid (`total_second_variation(spec,
table)`), so a caller that holds the grid of its parameter point reads the
form from it.  This assembled spectrum is the one consumed downstream: it is
self-consistent (translation invariance e_in(1) = e_out(1)) and confirmed by
the PDE oracle.  The closed-form spectrum is evaluated verbatim by
`printed_spectrum(points, kmax)`, as the same three columns over the same
ladders, for the fidelity report and the printed path of the CSV emitter
(`SpectrumPath`).

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

from .params import PerturbationSpec, ProblemParams
from .transmission import FloatRangeError, ModeTable, _printed_ladder, solve_modes


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
    and the mode table they were assembled from; e_in, e_out and e_res are
    read-only, finite, and indexed [point, degree - 1]."""

    points: tuple[ProblemParams, ...]
    modes: ModeTable
    e_in: np.ndarray
    e_out: np.ndarray
    e_res: np.ndarray


def spectrum_grid(points: tuple[ProblemParams, ...], kmax: int) -> SpectrumGrid:
    """Assemble e_in, e_out, e_res of degrees 1..kmax at every point from the
    boundary-integral formula, from one stacked mode solve.

    With w the radial profile of the mode (from the transmission solve) and
    Dw' := w'_+(R) - w'_-(R) the derivative jump at the interface:

        e_in  = (2 R^N / N) Dw'_in  + 2 R^N (1-sigma) / (N^2 sigma)
        e_out = -(2/N) w'_out(1) + 2/N^2
        e_res = -(2/N) w'_in(1)  + (2 R^N / N) Dw'_out

    By the flux condition, Dw' = (sigma-1) k B R^{k-1}, and the boundary
    condition, D = -C (Inner) or C + D = 1/N (Outer), in the ModeTable's
    unknowns b, c and with eps = R^{N-2+2k}, no power of R negative:

        e_in  = (2 R^{N-1} / N) (1-sigma) (R / (N sigma) - k b_in)
        e_out = 2(1-k)/N^2 + (2/N)(N-2+2k) c_out eps
        e_res = (2/N)(N-2+2k) c_in R^{N-2+k} + (2/N)(sigma-1) k b_out R^{N-1+k}

    Row (point, k) is the row of that point's own table.  Raises
    FloatRangeError at the first degree whose entries leave the float range;
    of several points, the diagnostic names the first point that fails.
    """
    modes = solve_modes(points, kmax)
    # per point: N, R, sigma and 2 R^{N-1}, by Python's scalar pow like every power of R
    n, radius, sigma, interface = np.array(
        [(p.dim, p.core_radius, p.sigma, 2.0 * p.core_radius ** (p.dim - 1)) for p in points]
    ).T[..., np.newaxis]
    k = np.arange(1, kmax + 1)
    epsilon, inner_power, outer_power = modes.powers
    (b_in, c_in, _), (b_out, c_out, _) = np.moveaxis(modes.unknowns, (1, 3), (0, 1))

    with np.errstate(over="ignore", invalid="ignore"):
        shell = 2.0 * (n - 2 + 2 * k) / n
        # 1-sigma here and sigma-1 in e_res, so that sigma = 1 gives +0.0
        e_in = interface / n * (1.0 - sigma) * (radius / (n * sigma) - k * b_in)
        e_out = 2.0 * (1 - k) / (n * n) + shell * c_out * epsilon
        e_res = shell * c_in * inner_power + 2.0 * ((sigma - 1.0) * k * b_out) / n * outer_power
    FloatRangeError.check(points, np.isfinite(e_in) & np.isfinite(e_out) & np.isfinite(e_res))
    for column in (e_in, e_out, e_res):
        column.flags.writeable = False
    return SpectrumGrid(points, modes, e_in, e_out, e_res)


@functools.lru_cache(maxsize=16)
def spectrum_table(params: ProblemParams, kmax: int) -> SpectrumGrid:
    """The assembled spectrum of degrees 1..kmax at one point: the one-point
    spectrum_grid((params,), kmax).

    Raises FloatRangeError at the first degree whose entries leave the float
    range.  This is the cache of the one-point grids, keyed by (params,
    kmax): the classifier, the CSV emitter and criteria 11-12 read its row 0.
    Its traffic is a few keys at a time (a spectrum rereads the grid its
    classification just built; criteria 11-12 read two points), so 16 grids
    serve it, where 512 held 148 MB at kmax 3000 over a long sweep.  The
    criteria's grids are solved whole by spectrum_grid instead.
    """
    return spectrum_grid((params,), kmax)


def assemble_spectrum(params: ProblemParams, degree: int) -> SecondVariationSpectrum:
    """The entries of one degree of the assembled spectrum: the last of each
    column of spectrum_table(params, degree)."""
    if degree < 1:
        raise ValueError("degree must be >= 1")
    table = spectrum_table(params, degree)
    return SecondVariationSpectrum(
        degree, *(float(column[0, -1]) for column in (table.e_in, table.e_out, table.e_res))
    )


def printed_spectrum(
    points: tuple[ProblemParams, ...], kmax: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Evaluate the closed-form spectrum expressions verbatim.

    Returns the read-only columns e_in, e_out, e_res of degrees 1..kmax at
    every point, indexed [point, degree - 1].  Reference values for the
    fidelity report; see spectrum_grid for the path consumed downstream.
    Raises FloatRangeError at the first degree whose entries leave the float
    range.
    """
    k, rho, r_lead, f_denom = _printed_ladder(points, kmax)
    n = np.array([params.dim for params in points])[:, np.newaxis]
    sigma = np.array([params.sigma for params in points])[:, np.newaxis]
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
