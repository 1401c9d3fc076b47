"""Shared numerical comparison tolerances.

Printed-vs-independent comparisons use relative tolerance REL_TOL with
absolute floor ABS_FLOOR.  Looser, experiment-specific tolerances (PDE
discretization error, finite-difference truncation) are named with the
acceptance criteria in `reporting`, and the classifier's sign floor in
`stability`.
"""

from __future__ import annotations

REL_TOL = 1e-10
ABS_FLOOR = 1e-14

# Contract tolerance for the transmission-system solver residuals.
RESIDUAL_TOL = 1e-12


def rel_deviation(a: float, b: float, floor: float = ABS_FLOOR) -> float:
    """Relative deviation |a-b| / max(|a|, |b|, floor)."""
    return abs(a - b) / max(abs(a), abs(b), floor)
