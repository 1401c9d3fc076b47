"""Two-phase torsional rigidity on concentric balls.

Closed-form shape-derivative analysis of the energy E = int sigma |grad u|^2
for the state problem -div(sigma grad u) = 1 on the unit ball with a
concentric core of radius R and conductivity sigma: per-mode transmission
profiles, the per-degree quadratic form of the second variation, stability
classification, and two independent numerical oracles (a small linear-system
solve per mode and a finite-difference solver on perturbed domains).
"""

from .exact_state import baseline_energy, sphere_area, traces
from .params import (
    ModeIndex,
    PerturbationSpec,
    ProblemParams,
    multiplicity,
    validate,
)
from .reporting import (
    SUITES,
    CheckResult,
    build_fidelity_report,
    emit_spectrum_csv,
    run_coefficients_suite,
    run_monotonicity_suite,
    run_pde_suite,
    run_secondvar_suite,
)
from .second_variation import (
    FloatRangeError,
    SecondVariationSpectrum,
    SpectrumGrid,
    SpectrumPath,
    TransmissionSolveError,
    assemble_spectrum,
    closed_form_modes,
    denom_F,
    discriminant,
    mode_coefficients,
    monotonicity_functions,
    printed_spectrum,
    spectrum_grid,
    total_second_variation,
)
from .stability import Channel, Classification, StabilityVerdict, classify

__version__ = "0.1.0"

__all__ = [
    "Channel",
    "CheckResult",
    "Classification",
    "FloatRangeError",
    "InterfaceOrderingError",
    "ModeIndex",
    "OracleRun",
    "PerturbationSpec",
    "PerturbedDomainFamily",
    "ProblemParams",
    "SUITES",
    "SecondVariationSpectrum",
    "SolveError",
    "SpectrumGrid",
    "SpectrumPath",
    "StabilityVerdict",
    "TransmissionSolveError",
    "assemble_spectrum",
    "baseline_energy",
    "build_fidelity_report",
    "classify",
    "closed_form_modes",
    "denom_F",
    "differentiate_energy",
    "discriminant",
    "emit_spectrum_csv",
    "family_from_config",
    "mode_coefficients",
    "monotonicity_functions",
    "multiplicity",
    "printed_spectrum",
    "run_coefficients_suite",
    "run_from_config",
    "run_monotonicity_suite",
    "run_pde_suite",
    "run_secondvar_suite",
    "solve_energy",
    "spectrum_grid",
    "sphere_area",
    "total_second_variation",
    "traces",
    "validate",
]


def __getattr__(name: str):
    # The names of __all__ left unbound are the FD oracle's, resolved on first
    # access: a process that never runs the oracle never imports scipy.
    if name in __all__:
        from . import pde_oracle
        return getattr(pde_oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
