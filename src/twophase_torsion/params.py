"""Problem parameters, spherical-harmonic mode bookkeeping, and perturbation
specifications with constraint validation.

The geometry is a core ball of radius R inside the unit ball of R^N, with
conductivity sigma in the core and 1 outside.  Boundary perturbations are
described by their normal traces expanded in real spherical harmonics
Y_{k,i}, orthonormal in L^2(S^{N-1}):

    (h_in . n)(R theta) = sum_{k,i} alpha_in[k,i] Y_{k,i}(theta)
    (h_out . n)(theta)  = sum_{k,i} alpha_out[k,i] Y_{k,i}(theta)

Degree-0 (mean) modes violate first-order volume preservation and degree-1
outer modes violate the barycenter constraint; validate names both, and each
consumer that needs the constraints refuses them itself.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from decimal import Decimal
from typing import Mapping


def _integer(record, name: str, least: int, message: str, not_integer: str = "") -> None:
    """Store the field name of record as an int if it is an integer >= least,
    numpy's included but not a bool; else raise ValueError(not_integer) for a
    value that is not an integer, when given, and ValueError(message)."""
    value = getattr(record, name)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(not_integer or message)
    if value < least:
        raise ValueError(message)
    object.__setattr__(record, name, int(value))


def _finite(value, name: str) -> float:
    """value as a float if it is a finite real number, numpy's, Fraction and
    Decimal included but not a bool or a string; else raise ValueError."""
    if isinstance(value, bool) or not isinstance(value, (numbers.Real, Decimal)):
        raise ValueError(f"{name} must be a real number")
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite")
    return value


@dataclass(frozen=True)
class ProblemParams:
    """Dimension N >= 2, core radius R in (0,1), conductivity sigma > 0."""

    dim: int
    core_radius: float
    sigma: float

    def __post_init__(self) -> None:
        _integer(self, "dim", 2, "dim must be an integer >= 2")
        # every ladder reads N as a float too
        try:
            float(self.dim)
        except OverflowError:
            raise ValueError("dim leaves float range") from None
        object.__setattr__(self, "core_radius", _finite(self.core_radius, "radius"))
        if not 0.0 < self.core_radius < 1.0:
            raise ValueError("radius must lie in (0,1)")
        object.__setattr__(self, "sigma", _finite(self.sigma, "sigma"))
        if not self.sigma > 0.0:
            raise ValueError("sigma must be positive")


def multiplicity(dim: int, degree: int) -> int:
    """Dimension of the space of degree-k spherical harmonics on S^{N-1}.

    binom(N+k-1, k) - binom(N+k-3, k-2), second term zero for k < 2.
    """
    if dim < 2:
        raise ValueError("dim must be >= 2")
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    total = math.comb(dim + degree - 1, degree)
    if degree >= 2:
        total -= math.comb(dim + degree - 3, degree - 2)
    return total


@dataclass(frozen=True, order=True)
class ModeIndex:
    """Spherical-harmonic index: degree k >= 0, order 1 <= i <= d_k.

    The upper bound on the order depends on the dimension, which the index
    does not carry; use check_order once a dimension is known.
    """

    degree: int
    order: int

    def __post_init__(self) -> None:
        _integer(self, "degree", 0, "degree must be nonnegative", "degree must be an integer")
        _integer(self, "order", 1, "order must be >= 1", "order must be an integer")

    def check_order(self, dim: int) -> None:
        d_k = multiplicity(dim, self.degree)
        if self.order > d_k:
            raise ValueError(
                f"order {self.order} exceeds multiplicity {d_k} "
                f"of degree {self.degree} in dimension {dim}"
            )


@dataclass(frozen=True)
class PerturbationSpec:
    """Sparse map of harmonic modes to (alpha_in, alpha_out) coefficients.

    The package's one form of a perturbation: keys are ModeIndex, unspecified
    modes have coefficient zero, and every coefficient must be finite.  Any
    degree is representable; validate reports the constrained ones, and
    to_document writes the form every document and oracle config shares.
    """

    modes: Mapping[ModeIndex, tuple[float, float]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        frozen = {}
        for index, (alpha_in, alpha_out) in dict(self.modes).items():
            if not isinstance(index, ModeIndex):
                raise TypeError(f"mode keys must be ModeIndex, not {type(index).__name__}")
            frozen[index] = (_finite(alpha_in, "alpha_in"), _finite(alpha_out, "alpha_out"))
        object.__setattr__(self, "modes", frozen)

    def coefficients(self, index: ModeIndex) -> tuple[float, float]:
        return self.modes.get(index, (0.0, 0.0))

    def sorted_items(self) -> list[tuple[ModeIndex, tuple[float, float]]]:
        return sorted(self.modes.items(), key=lambda item: item[0])

    def to_document(self) -> dict:
        """{"modes": [...]}: one record per stored mode, by (degree, order),
        in the form an oracle config reads back."""
        return {
            "modes": [
                {
                    "degree": index.degree,
                    "order": index.order,
                    "alpha_in": alpha_in,
                    "alpha_out": alpha_out,
                }
                for index, (alpha_in, alpha_out) in self.sorted_items()
            ]
        }


def validate(spec: PerturbationSpec) -> tuple[tuple[ModeIndex, str], ...]:
    """Check a perturbation against the volume and barycenter constraints.

    Returns the violations, empty when the perturbation is admissible: every
    stored degree-0 mode, and every degree-1 mode with nonzero outer
    coefficient.
    """
    violations: list[tuple[ModeIndex, str]] = []
    for index, (alpha_in, alpha_out) in spec.sorted_items():
        if index.degree == 0:
            violations.append(
                (index, "degree-0 mode violates first-order volume preservation")
            )
        elif index.degree == 1 and alpha_out != 0.0:
            violations.append(
                (index, "degree-1 outer coefficient violates the barycenter constraint")
            )
    return tuple(violations)
