"""The explicit unperturbed state and its derived quantities.

On the concentric configuration the state function solving
-div(sigma grad u) = 1 with zero boundary data is radial:

    u(r) = (1 - R^2)/(2N) + (R^2 - r^2)/(2N sigma)   for r <= R,
    u(r) = (1 - r^2)/(2N)                            for R < r <= 1.

Everything downstream (the interface jump [d_n u], outside minus inside,
which `traces` returns, and the baseline energy) is an elementary function
of (N, R, sigma) and is kept in closed form here; quadrature lives only in
the PDE oracle so the two paths stay independent.
"""

from __future__ import annotations

import math

from .params import ProblemParams


def sphere_area(dim: int) -> float:
    """Surface area of the unit sphere S^{N-1}: 2 pi^{N/2} / Gamma(N/2)."""
    if dim < 2:
        raise ValueError("dim must be >= 2")
    return 2.0 * math.pi ** (dim / 2.0) / math.gamma(dim / 2.0)


def traces(params: ProblemParams) -> float:
    """The interface jump [d_n u] = d_n u_+ - d_n u_- (outside minus inside)
    = R (1 - sigma)/(N sigma), differentiated in closed form."""
    n, radius, sigma = params.dim, params.core_radius, params.sigma
    return radius * (1.0 - sigma) / (n * sigma)


def baseline_energy(params: ProblemParams) -> float:
    """Energy of the concentric configuration.

    E = integral of sigma |grad u|^2 = omega_{N-1}/(N^2 (N+2)) *
        (1 - R^{N+2} + R^{N+2}/sigma).
    """
    n, radius, sigma = params.dim, params.core_radius, params.sigma
    r_pow = radius ** (n + 2)
    return sphere_area(n) / (n * n * (n + 2)) * (1.0 - r_pow + r_pow / sigma)
