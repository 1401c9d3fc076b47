"""Problem parameters, spherical-harmonic mode bookkeeping, and perturbation
specifications with constraint validation and named presets.

The geometry is a core ball of radius R inside the unit ball of R^N, with
conductivity sigma in the core and 1 outside.  Boundary perturbations are
described by their normal traces expanded in real spherical harmonics
Y_{k,i}, orthonormal in L^2(S^{N-1}):

    (h_in . n)(R theta) = sum_{k,i} alpha_in[k,i] Y_{k,i}(theta)
    (h_out . n)(theta)  = sum_{k,i} alpha_out[k,i] Y_{k,i}(theta)

Degree-0 (mean) modes violate first-order volume preservation and are only
representable when explicitly allowed; degree-1 outer modes violate the
barycenter constraint.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Mapping


@dataclass(frozen=True)
class ProblemParams:
    """Dimension N >= 2, core radius R in (0,1), conductivity sigma > 0."""

    dim: int
    core_radius: float
    sigma: float

    def __post_init__(self) -> None:
        if not isinstance(self.dim, int) or self.dim < 2:
            raise ValueError("dim must be an integer >= 2")
        if not math.isfinite(self.core_radius):
            raise ValueError("radius must be finite")
        if not 0.0 < self.core_radius < 1.0:
            raise ValueError("radius must lie in (0,1)")
        if not math.isfinite(self.sigma):
            raise ValueError("sigma must be finite")
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
        if self.degree < 0:
            raise ValueError("degree must be nonnegative")
        if self.order < 1:
            raise ValueError("order must be >= 1")

    def check_order(self, dim: int) -> None:
        d_k = multiplicity(dim, self.degree)
        if self.order > d_k:
            raise ValueError(
                f"order {self.order} exceeds multiplicity {d_k} "
                f"of degree {self.degree} in dimension {dim}"
            )


class Constraint(enum.Enum):
    VOLUME_ONLY = "VolumeOnly"
    VOLUME_AND_BARYCENTER = "VolumeAndBarycenter"


@dataclass(frozen=True)
class ValidationVerdict:
    """Outcome of a constraint check: ok iff no violations."""

    constraint: Constraint
    violations: tuple[tuple[ModeIndex, str], ...]

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class PerturbationSpec:
    """Sparse map of harmonic modes to (alpha_in, alpha_out) coefficients.

    Unspecified modes have coefficient zero.  Degree-0 entries are rejected
    unless allow_mean is set; they exist solely so the first variation can be
    exercised on non-volume-preserving perturbations.
    """

    modes: Mapping[ModeIndex, tuple[float, float]] = field(default_factory=dict)
    allow_mean: bool = False

    def __post_init__(self) -> None:
        frozen = {}
        for index, pair in dict(self.modes).items():
            if not isinstance(index, ModeIndex):
                index = ModeIndex(*index)
            alpha_in, alpha_out = pair
            if index.degree == 0 and not self.allow_mean:
                raise ValueError(
                    "degree-0 modes violate first-order volume preservation; "
                    "construct with allow_mean=True to represent them"
                )
            frozen[index] = (float(alpha_in), float(alpha_out))
        object.__setattr__(self, "modes", frozen)

    def coefficients(self, index: ModeIndex) -> tuple[float, float]:
        return self.modes.get(index, (0.0, 0.0))

    def sorted_items(self) -> list[tuple[ModeIndex, tuple[float, float]]]:
        return sorted(self.modes.items(), key=lambda item: item[0])


def validate(spec: PerturbationSpec, constraint: Constraint) -> ValidationVerdict:
    """Check a perturbation against the volume (and barycenter) constraints.

    VolumeOnly fails on any stored degree-0 mode; VolumeAndBarycenter
    additionally fails on degree-1 modes with nonzero outer coefficient.
    """
    violations: list[tuple[ModeIndex, str]] = []
    for index, (alpha_in, alpha_out) in spec.sorted_items():
        if index.degree == 0:
            violations.append(
                (index, "degree-0 mode violates first-order volume preservation")
            )
        elif (
            constraint is Constraint.VOLUME_AND_BARYCENTER
            and index.degree == 1
            and alpha_out != 0.0
        ):
            violations.append(
                (index, "degree-1 outer coefficient violates the barycenter constraint")
            )
    return ValidationVerdict(constraint=constraint, violations=tuple(violations))


def presets() -> dict[str, PerturbationSpec]:
    """Named resonance-case perturbations.

    case-i    interface degree 3 against boundary degree 5 (no resonance),
    case-ii   same degree 5, different orders (no resonance),
    case-iii  same mode, aligned coefficients (resonance),
    case-iv   same mode, opposed coefficients (resonance),
    case-v    the translation-like coupled degree-1 mode (neutral direction).
    """
    return {
        "case-i": PerturbationSpec(
            {ModeIndex(3, 1): (1.0, 0.0), ModeIndex(5, 1): (0.0, 1.0)}
        ),
        "case-ii": PerturbationSpec(
            {ModeIndex(5, 1): (1.0, 0.0), ModeIndex(5, 2): (0.0, 1.0)}
        ),
        "case-iii": PerturbationSpec({ModeIndex(5, 1): (1.0, 1.0)}),
        "case-iv": PerturbationSpec({ModeIndex(5, 1): (1.0, -1.0)}),
        "case-v": PerturbationSpec({ModeIndex(1, 1): (1.0, 1.0)}),
    }
