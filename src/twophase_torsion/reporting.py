"""Fidelity report, spectrum emitter, and the acceptance criteria behind the
verify suites.

The fidelity report compares every printed closed-form expression (six mode
coefficients, three spectrum entries) against the independent computation
path (transmission solve, assembled boundary integrals) over a parameter
grid, and records per formula whether it matches.  Mismatches are report
content, never silently corrected: the printed path keeps returning the
printed expressions, and downstream consumers use the oracle-backed path.

Acceptance criteria 1-12 are defined here and nowhere else, one function
each; `verify <suite>` prints them and the acceptance tests assert them.
"""

from __future__ import annotations

import enum
import functools
import math
import sys
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .exact_state import baseline_energy
from .params import ModeIndex, PerturbationSpec, ProblemParams
from .pde_oracle import (
    DEFAULT_RADIAL_POINTS,
    OracleRun,
    PerturbedDomainFamily,
    differentiate_energy,
    solve_energy,
)
from .second_variation import (
    SpectrumPath,
    discriminant,
    monotonicity_functions,
    printed_spectrum,
    spectrum_table,
    total_second_variation,
)
from .stability import Classification, StabilityVerdict, classify
from .transmission import (
    KINDS,
    RESIDUAL_TOL,
    TransmissionSolveError,
    _denominator,
    closed_form_modes,
    denom_F,
)

GRID_DIMS = (2, 3, 4)
GRID_SIGMAS = (0.1, 0.5, 1.0, 2.0, 10.0)
GRID_RADII = (0.2, 0.5, 0.8)
GRID_DEGREES = tuple(range(1, 21))
GRID_KMAX = GRID_DEGREES[-1]

GRID_DESCRIPTION = (
    "N in {2,3,4} x sigma in {0.1,0.5,1,2,10} x R in {0.2,0.5,0.8} x k in 1..20"
)

# Printed-vs-independent comparisons: relative tolerance REL_TOL, with the
# fidelity report's absolute floor ABS_FLOOR.
REL_TOL = 1e-10
ABS_FLOOR = 1e-14


def _rel_deviation(a, b, floor):
    """Relative deviation |a-b| / max(|a|, |b|, floor), elementwise."""
    return np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)


def grid_params() -> list[ProblemParams]:
    return [
        ProblemParams(dim, radius, sigma)
        for dim in GRID_DIMS
        for sigma in GRID_SIGMAS
        for radius in GRID_RADII
    ]


class FidelityVerdict(enum.Enum):
    MATCH = "Match"
    MISMATCH = "Mismatch"


@dataclass(frozen=True)
class FidelityEntry:
    """Worst-case comparison of one printed formula over the grid."""

    formula_id: str
    printed_value: float
    reference_value: float
    max_relative_deviation: float
    verdict: FidelityVerdict
    worst_point: str
    note: str = ""

    def to_document(self) -> dict:
        return {
            "formula": self.formula_id,
            "printed_value": self.printed_value,
            "assembled_value": self.reference_value,
            "relative_deviation": self.max_relative_deviation,
            "verdict": self.verdict.value,
            "worst_point": self.worst_point,
            "note": self.note,
        }


@dataclass(frozen=True)
class FidelityReport:
    grid_description: str
    entries: tuple[FidelityEntry, ...]

    def to_document(self) -> dict:
        return {
            "grid": self.grid_description,
            "entries": [entry.to_document() for entry in self.entries],
        }


_MISMATCH_NOTE = (
    "printed closed form differs from the independent computation; the "
    "independent value is used downstream (see README, Known formula "
    "discrepancies)"
)

# The (kind, column) entries of a mode table, row-major; the spectrum's three
# columns; and, last, the perfect square: at degree 1 the quadratic
# t -> e_in t^2 + e_res t + e_out has the double root t = 1, which pins
# e_res(1) = -2 e_in(1).
_FORMULAS = (
    "B_in", "C_in", "D_in", "B_out", "C_out", "D_out",
    "E_in", "E_out", "E_res", "E_res_k1_perfect_square",
)


def build_fidelity_report() -> FidelityReport:
    """Compare printed vs independent values per formula over the grid,
    worst case wins (the last one among ties)."""
    grid = grid_params()
    tables = [spectrum_table(params, GRID_KMAX) for params in grid]
    # [point, kind, degree - 1, column] and [point, entry, degree - 1]
    solved = np.stack([table.modes.coefficients for table in tables])
    printed_modes = np.stack([closed_form_modes(params, GRID_KMAX) for params in grid])
    assembled = np.stack([(table.e_in, table.e_out, table.e_res) for table in tables])
    printed = np.stack([printed_spectrum(params, GRID_KMAX) for params in grid])

    # Near-cancellation values are judged against the magnitude of the
    # companion quantities at the same grid point and degree, not against zero.
    mode_floor = np.maximum(np.abs(solved).max(axis=3), ABS_FLOOR)
    spectrum_floor = np.maximum(np.abs(assembled).max(axis=1), ABS_FLOOR)
    # per formula: printed values, reference values and floors, [point, degree - 1]
    comparisons = [
        (printed_modes[:, kind, :, column], solved[:, kind, :, column], mode_floor[:, kind])
        for kind in range(2)
        for column in range(3)
    ]
    comparisons += [
        (printed[:, entry], assembled[:, entry], spectrum_floor) for entry in range(3)
    ]
    comparisons.append((printed[:, 2, :1], -2.0 * assembled[:, 0, :1], spectrum_floor[:, :1]))

    entries = []
    for formula, (printed_values, reference, floor) in zip(_FORMULAS, comparisons):
        deviations = _rel_deviation(printed_values, reference, floor).ravel()
        flat = deviations.size - 1 - int(np.argmax(deviations[::-1]))
        worst = divmod(flat, printed_values.shape[1])  # (point, degree - 1)
        params, deviation = grid[worst[0]], float(deviations[flat])
        matched = deviation <= REL_TOL
        entries.append(
            FidelityEntry(
                formula_id=formula,
                printed_value=float(printed_values[worst]),
                reference_value=float(reference[worst]),
                max_relative_deviation=deviation,
                verdict=FidelityVerdict.MATCH if matched else FidelityVerdict.MISMATCH,
                worst_point=(
                    f"N={params.dim}, sigma={params.sigma:g}, "
                    f"R={params.core_radius:g}, k={worst[1] + 1}"
                ),
                note="" if matched else _MISMATCH_NOTE,
            )
        )
    return FidelityReport(grid_description=GRID_DESCRIPTION, entries=tuple(entries))


def emit_spectrum_csv(params: ProblemParams, kmax: int, path: SpectrumPath) -> str:
    """CSV rows k, e_in, e_out, e_res, delta with 17 significant digits."""
    if path is SpectrumPath.ASSEMBLED:
        table = spectrum_table(params, kmax)
        columns = (table.e_in, table.e_out, table.e_res)
    else:
        columns = printed_spectrum(params, kmax)
    columns = (*columns, discriminant(*columns))
    rows = zip(range(1, kmax + 1), *(column.tolist() for column in columns))
    lines = ["k,e_in,e_out,e_res,delta"] + [
        f"{degree},{e_in:.17g},{e_out:.17g},{e_res:.17g},{delta:.17g}"
        for degree, e_in, e_out, e_res, delta in rows
    ]
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def _result(name: str, failures: list[str], detail: str = "") -> CheckResult:
    """Passed iff nothing failed; the detail names the first failure."""
    return CheckResult(name, not failures, failures[0] if failures else detail)


# -- acceptance criteria 1-12 --------------------------------------------------
#
# Each criterion is one function returning one CheckResult.  Criteria 1-6
# and 8 draw on the grid above; the other grids and every tolerance are
# named here.

SPECTRUM_KMAX = 50  # criteria 4, 5, 6, 8
RANDOM_SEED = 12345  # criterion 2
RANDOM_SAMPLES = 1000
PROOF_DIMS = range(2, 7)  # criterion 7
PROOF_RADII = np.linspace(0.05, 0.95, 21)
PROOF_POINTS = np.geomspace(1e-3, 50.0, 40)
RESONANCE_SIGMAS = (1.5, 2.0, 10.0)  # criterion 8
# 100 ratios t = alpha_in/alpha_out, including the aligned and opposed modes
RESONANCE_RATIOS = np.concatenate([np.linspace(-10.0, 10.0, 98), [-1.0, 1.0]])
HARDER_CORE = ProblemParams(2, 0.5, 2.0)  # criteria 9-12
BASELINE_PARAMS = (ProblemParams(2, 0.5, 1.0), HARDER_CORE)  # criterion 9
SOFTER_CORE = ProblemParams(2, 0.5, 0.5)  # criterion 12
FIRST_VARIATION_DEGREES = (1, 2, 3)  # criterion 10
CROSS_DEGREE = 2  # criterion 11
CLASSIFY_KMAX = 30  # criteria 11, 12: the tables of both cores

TRANSLATION_TOL = 1e-12  # criterion 4, relative
SINGLE_PHASE_TOL = 1e-12  # criterion 5, absolute
RESONANCE_TOL = 1e-10  # criterion 8: delta(1) and Q(1), relative to their scales
BASELINE_TOL = 1e-6  # criterion 9, relative
ORDER_RANGE = (1.5, 2.5)  # criterion 9, observed spatial convergence order
FIRST_VARIATION_TOL = 1e-4  # criterion 10, relative to E(0)
DIRECT_TOL = 0.02  # criterion 11, relative to the assembled value
CROSS_TOL = 0.05  # criterion 11, relative to e_res
WITNESS_TOL = 0.05  # criterion 12, relative to the assembled value

_NO_FLOOR = sys.float_info.min  # relative deviations with no absolute floor
_CHANNELS = (("inner", (1.0, 0.0)), ("outer", (0.0, 1.0)))


def transmission_residuals() -> CheckResult:
    """1. Every mode solve on the grid meets the residual contract; the
    solver raises when it does not, so completing the sweep is the check."""
    failures = []
    for params in grid_params():
        try:
            spectrum_table(params, GRID_KMAX)
        except (TransmissionSolveError, ValueError) as exc:
            failures.append(f"{params}: {exc}")
    solves = len(grid_params()) * len(GRID_DEGREES) * len(KINDS)
    return _result(
        f"transmission residuals < {RESIDUAL_TOL:g} across grid",
        failures,
        f"{solves} solves",
    )


def denominator_positivity() -> CheckResult:
    """2. F > 0 on the grid and on random parameter samples."""
    failures = [
        f"{params}, k={index + 1}"
        for params in grid_params()
        for index in np.flatnonzero(~(denom_F(params, GRID_KMAX) > 0.0)).tolist()
    ]
    rng = np.random.default_rng(RANDOM_SEED)
    dims = rng.integers(2, 7, size=RANDOM_SAMPLES)
    radii = rng.uniform(0.05, 0.95, size=RANDOM_SAMPLES)
    sigmas = np.exp(rng.uniform(np.log(0.05), np.log(20.0), size=RANDOM_SAMPLES))
    degrees = rng.integers(1, 51, size=RANDOM_SAMPLES)
    f_denom = _denominator(dims, sigmas, degrees, np.power(radii, 2 - dims - 2 * degrees))
    failures += [
        f"{ProblemParams(int(dims[i]), float(radii[i]), float(sigmas[i]))}, k={degrees[i]}"
        for i in np.flatnonzero(~(f_denom > 0.0)).tolist()
    ]
    return _result(
        f"denominator F positive on grid and {RANDOM_SAMPLES} random samples",
        failures,
    )


def closed_form_fidelity() -> CheckResult:
    """3. The printed shell coefficients C_in, D_in match the solve."""
    worst = (0.0, "")
    for params in grid_params():
        solved = spectrum_table(params, GRID_KMAX).modes.coefficients[0, :, 1:]
        printed = closed_form_modes(params, GRID_KMAX)[0, :, 1:]
        deviations = _rel_deviation(printed, solved, _NO_FLOOR)
        index, column = np.unravel_index(np.argmax(deviations), deviations.shape)
        if deviations[index, column] > worst[0]:
            field = ("outer_sing", "outer_reg")[column]
            worst = (deviations[index, column], f"{field} at {params}, k={index + 1}")
    return CheckResult(
        f"printed C_in and D_in match the transmission solve to {REL_TOL:g}",
        worst[0] <= REL_TOL,
        f"max deviation {worst[0]:.3e} ({worst[1]})",
    )


def translation_invariance() -> CheckResult:
    """4. e_in(1) = e_out(1) on the grid."""
    worst = (0.0, "")
    for params in grid_params():
        values = spectrum_table(params, SPECTRUM_KMAX).row(1)
        deviation = _rel_deviation(values.e_in, values.e_out, _NO_FLOOR)
        if deviation > worst[0]:
            worst = (deviation, str(params))
    return CheckResult(
        f"translation invariance e_in(1) = e_out(1) to {TRANSLATION_TOL:g}",
        worst[0] <= TRANSLATION_TOL,
        f"max deviation {worst[0]:.3e} ({worst[1]})",
    )


def single_phase_degeneracy() -> CheckResult:
    """5. At sigma = 1: e_in = 0, e_out(1) = 0, e_out(k >= 2) < 0."""
    failures = []
    for dim in GRID_DIMS:
        for radius in GRID_RADII:
            params = ProblemParams(dim, radius, 1.0)
            table = spectrum_table(params, SPECTRUM_KMAX)
            failed = np.stack(
                [
                    np.abs(table.e_in) > SINGLE_PHASE_TOL,
                    np.concatenate(
                        [np.abs(table.e_out[:1]) > SINGLE_PHASE_TOL, ~(table.e_out[1:] < 0.0)]
                    ),
                ],
                axis=1,
            )
            failures += [
                f"{('e_in', 'e_out')[column]}({index + 1}) at {params}"
                for index, column in np.argwhere(failed).tolist()
            ]
    return _result("single-phase degeneracy at sigma=1", failures)


def spectrum_monotonicity() -> CheckResult:
    """6. e_out, and e_in for sigma != 1, strictly decrease in the degree."""
    failures = []
    for params in grid_params():
        table = spectrum_table(params, SPECTRUM_KMAX)
        failed = np.stack(
            [
                ~(table.e_out[1:] < table.e_out[:-1]),
                ~(table.e_in[1:] < table.e_in[:-1]) & (params.sigma != 1.0),
            ],
            axis=1,
        )
        failures += [
            f"{('e_out', 'e_in')[column]}({index + 2}) at {params}"
            for index, column in np.argwhere(failed).tolist()
        ]
    return _result(
        "assembled e_out (and e_in for sigma != 1) strictly decreasing, "
        f"k=1..{SPECTRUM_KMAX}",
        failures,
    )


def proof_function_negativity() -> CheckResult:
    """7. The proof functions a, b, c are strictly negative on a log grid."""
    combos = [(dim, float(radius)) for dim in PROOF_DIMS for radius in PROOF_RADII]
    failures = []
    for dim, radius in combos:
        a, b, c = monotonicity_functions(ProblemParams(dim, radius, 1.0), PROOF_POINTS)
        failures += [
            f"N={dim}, R={radius:.3f}, x={PROOF_POINTS[i]:.4g}: "
            f"({a[i]:.3e},{b[i]:.3e},{c[i]:.3e})"
            for i in np.flatnonzero(~((a < 0.0) & (b < 0.0) & (c < 0.0))).tolist()
        ]
    return _result(
        f"a, b, c strictly negative on {len(combos)} (N,R) combinations "
        f"x {len(PROOF_POINTS)} points",
        failures,
    )


def resonance_structure() -> CheckResult:
    """8. For sigma > 1: delta(1) = 0 and Q(1) = 0 for the combined degree-1
    mode; delta <= 0 and Q(t) < 0 at every sampled ratio for k >= 2."""
    combined = PerturbationSpec({ModeIndex(1, 1): (1.0, 1.0)})
    failures = []
    for dim in GRID_DIMS:
        for radius in GRID_RADII:
            for sigma in RESONANCE_SIGMAS:
                params = ProblemParams(dim, radius, sigma)
                table = spectrum_table(params, SPECTRUM_KMAX)
                delta = discriminant(table.e_in, table.e_out, table.e_res)
                values = table.row(1)
                scale = max(values.e_res**2, abs(4.0 * values.e_in * values.e_out))
                if abs(delta[0]) > RESONANCE_TOL * scale:
                    failures.append(f"delta(1) at {params}")
                total = total_second_variation(combined, table)
                if abs(total) > RESONANCE_TOL * (abs(values.e_in) + abs(values.e_out)):
                    failures.append(f"Q(1) != 0 at k=1, {params}")
                # Q(t) = e_in t^2 + e_res t + e_out on the (degree, ratio) grid
                q_values = (
                    table.e_in[1:, np.newaxis] * RESONANCE_RATIOS * RESONANCE_RATIOS
                    + table.e_res[1:, np.newaxis] * RESONANCE_RATIOS
                    + table.e_out[1:, np.newaxis]
                )
                failed = np.stack([delta[1:] > 0.0, ~(q_values < 0.0).all(axis=1)], axis=1)
                labels = ("delta({}) > 0 at {}", "Q(t) >= 0 at k={}, {}")
                failures += [
                    labels[column].format(index + 2, params)
                    for index, column in np.argwhere(failed).tolist()
                ]
    return _result(
        "resonance: delta <= 0, delta(1) = 0, Q < 0 for k >= 2 (sigma > 1)", failures
    )


@dataclass(frozen=True)
class OracleRuns:
    """The finite-difference work behind criteria 9-12 on one grid.

    baseline maps each of BASELINE_PARAMS to its unperturbed energies on the
    full and the half radial grid; harder maps (degree, channel) to the run
    at HARDER_CORE, with harder_seconds the time those runs took; saddle is
    the classifier's verdict at SOFTER_CORE, and witnesses maps "positive"
    and "negative" to the runs on its two witnesses.
    """

    baseline: dict[ProblemParams, tuple[float, float]]
    harder: dict[tuple[int, str], OracleRun]
    harder_seconds: float
    saddle: StabilityVerdict
    witnesses: dict[str, OracleRun]


@functools.cache
def oracle_runs() -> OracleRuns:
    """The oracle runs of criteria 9-12 on the default grid, computed once."""

    def run(params: ProblemParams, spec: PerturbationSpec) -> OracleRun:
        return differentiate_energy(PerturbedDomainFamily.from_spec(params, spec))

    baseline = {}
    for params in BASELINE_PARAMS:
        family = PerturbedDomainFamily.from_spec(params, PerturbationSpec({}))
        baseline[params] = (
            solve_energy(family),
            solve_energy(family, DEFAULT_RADIAL_POINTS // 2),
        )

    start = time.perf_counter()
    harder = {
        (degree, channel): run(
            HARDER_CORE, PerturbationSpec({ModeIndex(degree, 1): alpha})
        )
        for degree in FIRST_VARIATION_DEGREES
        for channel, alpha in _CHANNELS
    }
    harder[CROSS_DEGREE, "coupled"] = run(
        HARDER_CORE, PerturbationSpec({ModeIndex(CROSS_DEGREE, 1): (1.0, 1.0)})
    )
    harder_seconds = time.perf_counter() - start

    saddle = classify(SOFTER_CORE, CLASSIFY_KMAX)
    witnesses = {
        label: run(SOFTER_CORE, witness)
        for label, witness in (
            ("positive", saddle.witness_positive),
            ("negative", saddle.witness_negative),
        )
        if witness is not None
    }
    return OracleRuns(baseline, harder, harder_seconds, saddle, witnesses)


def pde_baseline() -> CheckResult:
    """9. The unperturbed energy matches the closed form, with second-order
    convergence between the half and the full radial grid."""
    runs = oracle_runs()
    low, high = ORDER_RANGE
    failures, orders = [], []
    for params, (fine, coarse) in runs.baseline.items():
        exact = baseline_energy(params)
        fine_error = abs(fine - exact) / abs(exact)
        order = math.log2(abs(coarse - exact) / abs(fine - exact))
        orders.append(order)
        if fine_error > BASELINE_TOL:
            failures.append(f"sigma={params.sigma:g}: rel error {fine_error:.3e}")
        if not low <= order <= high:
            failures.append(f"sigma={params.sigma:g}: observed order {order:.2f}")
    return _result(
        f"unperturbed energy matches the closed form to {BASELINE_TOL:g} "
        f"with convergence order in [{low:g}, {high:g}]",
        failures,
        f"orders {', '.join(f'{order:.2f}' for order in orders)}",
    )


def first_variation_vanishes() -> CheckResult:
    """10. Fitted first derivatives vanish for volume-preserving families."""
    runs = oracle_runs()
    failures = []
    for degree in FIRST_VARIATION_DEGREES:
        for channel, _ in _CHANNELS:
            run = runs.harder[degree, channel]
            bound = FIRST_VARIATION_TOL * abs(run.energy_at(0.0))
            if not abs(run.d1) < bound:
                failures.append(
                    f"k={degree} {channel}: |d1|={abs(run.d1):.3e} vs bound {bound:.3e}"
                )
    return _result(
        "first variation vanishes for volume-preserving families", failures
    )


def second_variation_match() -> CheckResult:
    """11. Fitted second derivatives match the assembled spectrum, and the
    coupled run recovers the cross term."""
    runs = oracle_runs().harder
    values = spectrum_table(HARDER_CORE, CLASSIFY_KMAX).row(CROSS_DEGREE)
    failures = []
    for channel, analytic in (("inner", values.e_in), ("outer", values.e_out)):
        deviation = abs(runs[CROSS_DEGREE, channel].d2 - analytic) / abs(analytic)
        if deviation > DIRECT_TOL:
            failures.append(f"{channel} k={CROSS_DEGREE}: deviation {deviation:.3e}")
    cross = (
        runs[CROSS_DEGREE, "coupled"].d2
        - runs[CROSS_DEGREE, "inner"].d2
        - runs[CROSS_DEGREE, "outer"].d2
    )
    cross_deviation = abs(cross - values.e_res) / abs(values.e_res)
    if cross_deviation > CROSS_TOL:
        failures.append(f"resonance recovery: deviation {cross_deviation:.3e}")
    return _result(
        "second differences match the assembled spectrum "
        f"({DIRECT_TOL:.0%} direct, {CROSS_TOL:.0%} cross)",
        failures,
    )


def classifier_reproduction() -> CheckResult:
    """12. LocalMaximum for the harder core; Saddle for the softer core, with
    both witnesses confirmed in sign and size by the oracle."""
    runs = oracle_runs()
    failures = []
    harder = classify(HARDER_CORE, CLASSIFY_KMAX).classification
    if harder is not Classification.LOCAL_MAXIMUM:
        failures.append(f"sigma={HARDER_CORE.sigma:g}: {harder.value}")
    verdict = runs.saddle
    if verdict.classification is not Classification.SADDLE:
        failures.append(f"sigma={SOFTER_CORE.sigma:g}: {verdict.classification.value}")
    table = spectrum_table(SOFTER_CORE, CLASSIFY_KMAX)
    for label, witness, sign in (
        ("positive", verdict.witness_positive, 1.0),
        ("negative", verdict.witness_negative, -1.0),
    ):
        if witness is None:
            failures.append(f"no {label} witness")
            continue
        analytic = total_second_variation(witness, table)
        d2 = runs.witnesses[label].d2
        deviation = abs(d2 - analytic) / abs(analytic)
        if not sign * analytic > 0.0:
            failures.append(f"{label} witness: assembled value {analytic:.3e}")
        elif not d2 * analytic > 0.0:
            failures.append(f"{label} witness: sign disagreement")
        elif deviation > WITNESS_TOL:
            failures.append(f"{label} witness: deviation {deviation:.3e}")
    return _result(
        f"classifier: LocalMaximum at sigma={HARDER_CORE.sigma:g}, Saddle at "
        f"sigma={SOFTER_CORE.sigma:g} with oracle-confirmed witnesses "
        f"({WITNESS_TOL:.0%})",
        failures,
    )


CRITERIA: dict[int, Callable[[], CheckResult]] = {
    1: transmission_residuals,
    2: denominator_positivity,
    3: closed_form_fidelity,
    4: translation_invariance,
    5: single_phase_degeneracy,
    6: spectrum_monotonicity,
    7: proof_function_negativity,
    8: resonance_structure,
    9: pde_baseline,
    10: first_variation_vanishes,
    11: second_variation_match,
    12: classifier_reproduction,
}

SUITE_CRITERIA: dict[str, tuple[int, ...]] = {
    "coefficients": (1, 2, 3),
    "secondvar": (4, 5, 6, 8),
    "monotonicity": (7,),
    "pde": (9, 10, 11, 12),
}


def _run_suite(suite: str) -> list[CheckResult]:
    return [CRITERIA[number]() for number in SUITE_CRITERIA[suite]]


def run_coefficients_suite() -> list[CheckResult]:
    """Criteria 1-3: transmission residuals, F positivity, C/D fidelity."""
    return _run_suite("coefficients")


def run_secondvar_suite() -> list[CheckResult]:
    """Criteria 4, 5, 6, 8: spectrum identities, monotonicity, resonance."""
    return _run_suite("secondvar")


def run_monotonicity_suite() -> list[CheckResult]:
    """Criterion 7: negativity of the proof functions a, b, c."""
    return _run_suite("monotonicity")


def run_pde_suite() -> list[CheckResult]:
    """Criteria 9-12, from the shared oracle runs."""
    return _run_suite("pde")


SUITES: dict[str, Callable[[], list[CheckResult]]] = {
    "coefficients": run_coefficients_suite,
    "secondvar": run_secondvar_suite,
    "monotonicity": run_monotonicity_suite,
    "pde": run_pde_suite,
}
