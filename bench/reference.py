"""Multiple-precision closed forms that the benchmark checks the program against.

Nothing here imports the program.  The spectrum uses the corrected numerators
`F/N - k(...)` for e_in and e_out (README, "Known formula discrepancies") and
the printed, exact e_res:

    rho   = R^(2-N-2k)
    F     = N (N-2+k+k sigma) rho + k N (1-sigma)
    e_in  = (2 R^N/N) ((1-sigma)/sigma) (F/N - k (k(1-sigma) + (N-2+k)(1-sigma) rho)) / F
    e_out = (2/N) (F/N - k ((2-N-k)(1-sigma) + (N-2+k+k sigma) rho)) / F
    e_res = (4 (sigma-1) R^(1-k)/N) ((N-2) k + 2 k^2) / F

and the baseline energy is omega/(N^2 (N+2)) (1 - R^(N+2) + R^(N+2)/sigma),
with omega = 2 pi^(N/2)/Gamma(N/2) the area of the unit sphere.
"""

from __future__ import annotations

import mpmath

DIGITS = 30


def spectrum(dim: int, radius: float, sigma: float, kmax: int) -> list[tuple[float, float, float]]:
    """(e_in, e_out, e_res) for degrees 1..kmax, rounded to float."""
    rows = []
    with mpmath.workdps(DIGITS):
        n, r, s = mpmath.mpf(dim), mpmath.mpf(radius), mpmath.mpf(sigma)
        a = 1 - s
        c_in = 2 * r**dim * a / (n * s)
        c_res = -4 * a / n
        inv_r = 1 / r
        inv_r2 = inv_r * inv_r
        rho = r ** (2 - dim)  # R^(2-N-2k), stepped by R^-2 per degree
        r_res = r  # R^(1-k), stepped by R^-1 per degree
        for k in range(1, kmax + 1):
            rho *= inv_r2
            r_res *= inv_r
            growth = (dim - 2 + k * (1 + s)) * rho
            f = n * growth + k * n * a
            e_in = c_in * (f / n - k * a * (k + (dim - 2 + k) * rho)) / f
            e_out = 2 * (f / n - k * ((2 - dim - k) * a + growth)) / (n * f)
            e_res = c_res * r_res * k * (dim - 2 + 2 * k) / f
            rows.append((float(e_in), float(e_out), float(e_res)))
    return rows


def baseline_energy(dim: int, radius: float, sigma: float) -> float:
    with mpmath.workdps(DIGITS):
        n, r, s = mpmath.mpf(dim), mpmath.mpf(radius), mpmath.mpf(sigma)
        omega = 2 * mpmath.pi ** (n / 2) / mpmath.gamma(n / 2)
        r_pow = r ** (n + 2)
        return float(omega / (n * n * (n + 2)) * (1 - r_pow + r_pow / s))
