"""Two-phase torsional rigidity on concentric balls.

Closed-form shape-derivative analysis of the energy E = int sigma |grad u|^2
for the state problem -div(sigma grad u) = 1 on the unit ball with a
concentric core of radius R and conductivity sigma: per-mode transmission
profiles, the per-degree quadratic form of the second variation, stability
classification, and two independent numerical oracles (a small linear-system
solve per mode and a finite-difference solver on perturbed domains).
"""

from .exact_state import StateTraces, baseline_energy, sphere_area, traces, u_value
from .params import (
    Constraint,
    ModeIndex,
    PerturbationSpec,
    ProblemParams,
    ValidationVerdict,
    multiplicity,
    presets,
    validate,
)
from .pde_oracle import (
    AngularProfile,
    InterfaceOrderingError,
    OracleRun,
    PerturbedDomainFamily,
    SolveError,
    differentiate_energy,
    family_from_config,
    run_from_config,
    solve_energy,
)
from .reporting import (
    SUITES,
    CheckResult,
    FidelityEntry,
    FidelityReport,
    FidelityVerdict,
    build_fidelity_report,
    emit_spectrum_csv,
    run_coefficients_suite,
    run_monotonicity_suite,
    run_pde_suite,
    run_secondvar_suite,
)
from .second_variation import (
    SecondVariationSpectrum,
    SpectrumPath,
    SpectrumTable,
    assemble_spectrum,
    discriminant,
    factored_discriminant,
    first_variation,
    monotonicity_functions,
    printed_spectrum,
    spectrum_table,
    total_second_variation,
)
from .stability import Channel, Classification, StabilityVerdict, classify
from .transmission import (
    FloatRangeError,
    ModeKind,
    ModeTable,
    TransmissionSolveError,
    closed_form_modes,
    denom_F,
    solve_modes,
)

__version__ = "0.1.0"

__all__ = [
    "AngularProfile",
    "Channel",
    "CheckResult",
    "Classification",
    "Constraint",
    "FidelityEntry",
    "FidelityReport",
    "FidelityVerdict",
    "FloatRangeError",
    "InterfaceOrderingError",
    "ModeIndex",
    "ModeKind",
    "ModeTable",
    "OracleRun",
    "PerturbationSpec",
    "PerturbedDomainFamily",
    "ProblemParams",
    "SUITES",
    "SecondVariationSpectrum",
    "SolveError",
    "SpectrumPath",
    "SpectrumTable",
    "StabilityVerdict",
    "StateTraces",
    "TransmissionSolveError",
    "ValidationVerdict",
    "assemble_spectrum",
    "baseline_energy",
    "build_fidelity_report",
    "classify",
    "closed_form_modes",
    "denom_F",
    "differentiate_energy",
    "discriminant",
    "emit_spectrum_csv",
    "factored_discriminant",
    "family_from_config",
    "first_variation",
    "monotonicity_functions",
    "multiplicity",
    "presets",
    "printed_spectrum",
    "run_coefficients_suite",
    "run_from_config",
    "run_monotonicity_suite",
    "run_pde_suite",
    "run_secondvar_suite",
    "solve_energy",
    "solve_modes",
    "spectrum_table",
    "sphere_area",
    "total_second_variation",
    "traces",
    "u_value",
    "validate",
]
