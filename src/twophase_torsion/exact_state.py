"""The explicit unperturbed state and its derived quantities.

On the concentric configuration the state function solving
-div(sigma grad u) = 1 with zero boundary data is radial:

    u(r) = (1 - R^2)/(2N) + (R^2 - r^2)/(2N sigma)   for r <= R,
    u(r) = (1 - r^2)/(2N)                            for R < r <= 1.

Everything downstream (the interface jump of d_n u, the baseline energy)
is an elementary function of (N, R, sigma) and is kept in closed form here;
quadrature lives only in the PDE oracle so the two paths stay independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .params import ProblemParams


def sphere_area(dim: int) -> float:
    """Surface area of the unit sphere S^{N-1}: 2 pi^{N/2} / Gamma(N/2)."""
    if dim < 2:
        raise ValueError("dim must be >= 2")
    if dim == 2:
        return 2.0 * math.pi
    if dim == 3:
        return 4.0 * math.pi
    return 2.0 * math.pi ** (dim / 2.0) / math.gamma(dim / 2.0)


@dataclass(frozen=True)
class StateTraces:
    """Traces of u on the interface.

    Jump convention [f] := f_+ - f_- (outside minus inside).
    """

    jump_dn: float


def traces(params: ProblemParams) -> StateTraces:
    """Interface traces of u, differentiated in closed form."""
    n, radius, sigma = params.dim, params.core_radius, params.sigma
    return StateTraces(jump_dn=radius * (1.0 - sigma) / (n * sigma))


def baseline_energy(params: ProblemParams) -> float:
    """Energy of the concentric configuration.

    E = integral of sigma |grad u|^2 = omega_{N-1}/(N^2 (N+2)) *
        (1 - R^{N+2} + R^{N+2}/sigma).
    """
    n, radius, sigma = params.dim, params.core_radius, params.sigma
    r_pow = radius ** (n + 2)
    return sphere_area(n) / (n * n * (n + 2)) * (1.0 - r_pow + r_pow / sigma)
