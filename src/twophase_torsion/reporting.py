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

Grids.  The report and criteria 1-6 read GRID_POINTS, criterion 8 reads
RESONANCE_POINTS, at degrees up to GRID_KMAX or SPECTRUM_KMAX.  All of them
read their rows off one mode solve, spectrum_grid(CRITERIA_POINTS,
SPECTRUM_KMAX), which criterion 1 checks whole, and the printed tables of
GRID_POINTS at GRID_KMAX are built once and shared likewise.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from .exact_state import baseline_energy
from .params import ModeIndex, PerturbationSpec, ProblemParams
from .second_variation import (
    KINDS,
    RESIDUAL_TOL,
    SpectrumGrid,
    SpectrumPath,
    TransmissionSolveError,
    _denominator,
    closed_form_modes,
    denom_F,
    discriminant,
    mode_coefficients,
    monotonicity_functions,
    printed_spectrum,
    spectrum_grid,
    total_second_variation,
)
from .stability import Classification, classify

if TYPE_CHECKING:
    from .pde_oracle import OracleRun

GRID_DIMS = (2, 3, 4)
GRID_SIGMAS = (0.1, 0.5, 1.0, 2.0, 10.0)
GRID_RADII = (0.2, 0.5, 0.8)
GRID_DEGREES = tuple(range(1, 21))
GRID_KMAX = GRID_DEGREES[-1]
GRID_POINTS = tuple(
    ProblemParams(dim, radius, sigma)
    for dim in GRID_DIMS
    for sigma in GRID_SIGMAS
    for radius in GRID_RADII
)
SPECTRUM_KMAX = 50  # criteria 1, 4, 5, 6, 8
RESONANCE_SIGMAS = (1.5, 2.0, 10.0)  # criterion 8
RESONANCE_POINTS = tuple(
    ProblemParams(dim, radius, sigma)
    for dim in GRID_DIMS
    for radius in GRID_RADII
    for sigma in RESONANCE_SIGMAS
)
# The one grid that every analytic criterion and the fidelity report read:
# GRID_POINTS, then the points of criterion 8 that it lacks.
CRITERIA_POINTS = GRID_POINTS + tuple(
    params for params in RESONANCE_POINTS if params not in GRID_POINTS
)
_CRITERIA_ROWS = {params: row for row, params in enumerate(CRITERIA_POINTS)}


def _criteria_spectra(points: tuple[ProblemParams, ...], kmax: int) -> SpectrumGrid:
    """spectrum_grid(points, kmax), for points among CRITERIA_POINTS and
    kmax <= SPECTRUM_KMAX, read off the one cached spectrum_grid of
    CRITERIA_POINTS at SPECTRUM_KMAX: its rows of the points and their
    degrees 1..kmax, bit for bit, since a row depends neither on kmax nor
    on the other points."""
    grid = spectrum_grid(CRITERIA_POINTS, SPECTRUM_KMAX)
    rows = [_CRITERIA_ROWS[params] for params in points]
    if rows == list(range(len(rows))):
        rows = slice(len(rows))  # leading rows, as GRID_POINTS are: views, not copies
    arrays = (
        grid.unknowns[rows, :, :kmax],
        grid.powers[:, rows, :kmax],
        *(column[rows, :kmax] for column in (grid.e_in, grid.e_out, grid.e_res)),
    )
    for array in arrays:
        array.flags.writeable = False
    return SpectrumGrid(points, *arrays)


def _values(grid: tuple) -> str:
    """The grid's values as {a,b,...}, each formatted with :g."""
    return "{" + ",".join(f"{value:g}" for value in grid) + "}"


GRID_DESCRIPTION = (
    f"N in {_values(GRID_DIMS)} x sigma in {_values(GRID_SIGMAS)} x "
    f"R in {_values(GRID_RADII)} x k in {GRID_DEGREES[0]}..{GRID_DEGREES[-1]}"
)

# Printed-vs-independent comparisons: relative tolerance REL_TOL, with the
# fidelity report's absolute floor ABS_FLOOR.
REL_TOL = 1e-10
ABS_FLOOR = 1e-14


def _rel_deviation(a, b, floor):
    """Relative deviation |a-b| / max(|a|, |b|, floor), elementwise."""
    return np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)


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


def build_fidelity_report() -> dict:
    """The fidelity document that `fidelity` prints: the grid, and per formula
    the printed and the assembled value at the worst point of the grid (the
    last one among ties), their relative deviation, the verdict Match or
    Mismatch against REL_TOL, and the note that explains a mismatch."""
    grid = GRID_POINTS
    spectra = _criteria_spectra(grid, GRID_KMAX)
    # [point, kind, degree - 1, column] and [point, entry, degree - 1]
    solved = mode_coefficients(spectra)
    printed_modes = closed_form_modes(grid, GRID_KMAX)
    assembled = np.stack((spectra.e_in, spectra.e_out, spectra.e_res), axis=1)
    printed = np.stack(printed_spectrum(grid, GRID_KMAX), axis=1)

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
            {
                "formula": formula,
                "printed_value": float(printed_values[worst]),
                "assembled_value": float(reference[worst]),
                "relative_deviation": deviation,
                "verdict": "Match" if matched else "Mismatch",
                "worst_point": (
                    f"N={params.dim}, sigma={params.sigma:g}, "
                    f"R={params.core_radius:g}, k={worst[1] + 1}"
                ),
                "note": "" if matched else _MISMATCH_NOTE,
            }
        )
    return {"grid": GRID_DESCRIPTION, "entries": entries}


_CSV_ROW = "%d,%.17g,%.17g,%.17g,%.17g\n"


def emit_spectrum_csv(params: ProblemParams, kmax: int, path: SpectrumPath) -> str:
    """CSV rows k, e_in, e_out, e_res, delta with 17 significant digits."""
    if path is SpectrumPath.ASSEMBLED:
        table = spectrum_grid((params,), kmax)
        columns = (table.e_in, table.e_out, table.e_res)
    else:
        columns = printed_spectrum((params,), kmax)
    columns = tuple(column[0] for column in columns)
    columns = (*columns, discriminant(*columns))
    rows = zip(range(1, kmax + 1), *(column.tolist() for column in columns))
    return "k,e_in,e_out,e_res,delta\n" + "".join(map(_CSV_ROW.__mod__, rows))


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
# and 8 draw on the grids above; the other grids and every tolerance are
# named here.

RANDOM_SEED = 12345  # criterion 2
RANDOM_SAMPLES = 1000
PROOF_DIMS = range(2, 7)  # criterion 7
PROOF_RADII = np.linspace(0.05, 0.95, 21)
PROOF_POINTS = np.geomspace(1e-3, 50.0, 40)
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


def _worst(deviations: np.ndarray) -> tuple[float, tuple[int, ...]]:
    """The largest deviation and the index of its first occurrence."""
    index = np.unravel_index(np.argmax(deviations), deviations.shape)
    return float(deviations[index]), tuple(int(i) for i in index)


def transmission_residuals() -> CheckResult:
    """1. Every mode solve the criteria make, on CRITERIA_POINTS at degrees
    1..SPECTRUM_KMAX, meets the residual contract; the solver raises when it
    does not, naming the first point that fails, so completing the stacked
    solve is the check."""
    failures = []
    try:
        spectrum_grid(CRITERIA_POINTS, SPECTRUM_KMAX)
    except (TransmissionSolveError, ValueError) as exc:
        failures.append(str(exc))
    solves = len(CRITERIA_POINTS) * SPECTRUM_KMAX * len(KINDS)
    return _result(
        f"transmission residuals < {RESIDUAL_TOL:g} across grid",
        failures,
        f"{solves} solves",
    )


def denominator_positivity() -> CheckResult:
    """2. F > 0 on the grid and on random parameter samples."""
    grid = GRID_POINTS
    failures = [
        f"{grid[point]}, k={index + 1}"
        for point, index in np.argwhere(~(denom_F(grid, GRID_KMAX) > 0.0)).tolist()
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
    grid = GRID_POINTS
    solved = mode_coefficients(_criteria_spectra(grid, GRID_KMAX))[:, 0, :, 1:]
    printed = closed_form_modes(grid, GRID_KMAX)[:, 0, :, 1:]
    worst, (point, index, column) = _worst(_rel_deviation(printed, solved, _NO_FLOOR))
    field = ("outer_sing", "outer_reg")[column]
    where = f"{field} at {grid[point]}, k={index + 1}" if worst > 0.0 else ""
    return CheckResult(
        f"printed C_in and D_in match the transmission solve to {REL_TOL:g}",
        worst <= REL_TOL,
        f"max deviation {worst:.3e} ({where})",
    )


def translation_invariance() -> CheckResult:
    """4. e_in(1) = e_out(1) on the grid."""
    grid, spectra = GRID_POINTS, _criteria_spectra(GRID_POINTS, SPECTRUM_KMAX)
    worst, (point,) = _worst(_rel_deviation(spectra.e_in[:, 0], spectra.e_out[:, 0], _NO_FLOOR))
    return CheckResult(
        f"translation invariance e_in(1) = e_out(1) to {TRANSLATION_TOL:g}",
        worst <= TRANSLATION_TOL,
        f"max deviation {worst:.3e} ({grid[point] if worst > 0.0 else ''})",
    )


def single_phase_degeneracy() -> CheckResult:
    """5. At sigma = 1: e_in = 0, e_out(1) = 0, e_out(k >= 2) < 0, on the
    grid's points with sigma = 1."""
    grid, spectra = GRID_POINTS, _criteria_spectra(GRID_POINTS, SPECTRUM_KMAX)
    points = [point for point, params in enumerate(grid) if params.sigma == 1.0]
    e_in, e_out = spectra.e_in[points], spectra.e_out[points]
    failed = np.stack(
        [
            np.abs(e_in) > SINGLE_PHASE_TOL,
            np.concatenate(
                [np.abs(e_out[:, :1]) > SINGLE_PHASE_TOL, ~(e_out[:, 1:] < 0.0)], axis=1
            ),
        ],
        axis=2,
    )
    failures = [
        f"{('e_in', 'e_out')[column]}({index + 1}) at {grid[points[point]]}"
        for point, index, column in np.argwhere(failed).tolist()
    ]
    return _result("single-phase degeneracy at sigma=1", failures)


def spectrum_monotonicity() -> CheckResult:
    """6. e_out, and e_in for sigma != 1, strictly decrease in the degree."""
    grid, spectra = GRID_POINTS, _criteria_spectra(GRID_POINTS, SPECTRUM_KMAX)
    e_in, e_out = spectra.e_in, spectra.e_out
    two_phase = np.array([params.sigma != 1.0 for params in grid])[:, np.newaxis]
    failed = np.stack(
        [~(e_out[:, 1:] < e_out[:, :-1]), ~(e_in[:, 1:] < e_in[:, :-1]) & two_phase],
        axis=2,
    )
    failures = [
        f"{('e_out', 'e_in')[column]}({index + 2}) at {grid[point]}"
        for point, index, column in np.argwhere(failed).tolist()
    ]
    return _result(
        "assembled e_out (and e_in for sigma != 1) strictly decreasing, "
        f"k=1..{SPECTRUM_KMAX}",
        failures,
    )


def proof_function_negativity() -> CheckResult:
    """7. The proof functions a, b, c are strictly negative on a log grid."""
    points = tuple(
        ProblemParams(dim, float(radius), 1.0) for dim in PROOF_DIMS for radius in PROOF_RADII
    )
    a, b, c = monotonicity_functions(points, PROOF_POINTS)
    failures = [
        f"N={points[p].dim}, R={points[p].core_radius:.3f}, x={PROOF_POINTS[i]:.4g}: "
        f"({a[p, i]:.3e},{b[p, i]:.3e},{c[p, i]:.3e})"
        for p, i in np.argwhere(~((a < 0.0) & (b < 0.0) & (c < 0.0))).tolist()
    ]
    return _result(
        f"a, b, c strictly negative on {len(points)} (N,R) combinations "
        f"x {len(PROOF_POINTS)} points",
        failures,
    )


def resonance_structure() -> CheckResult:
    """8. For sigma > 1: delta(1) = 0 and Q(1) = 0 for the combined degree-1
    mode; delta <= 0 and Q(t) < 0 at every sampled ratio for k >= 2."""
    points = RESONANCE_POINTS
    spectra = _criteria_spectra(points, SPECTRUM_KMAX)
    e_in, e_out, e_res = spectra.e_in, spectra.e_out, spectra.e_res
    delta = discriminant(e_in, e_out, e_res)
    # degree 1: delta(1) against its scale, and E''(Phi) of the combined mode
    # alpha_in = alpha_out = 1, which is Q(1)
    scale = np.maximum(e_res[:, 0] ** 2, np.abs(4.0 * e_in[:, 0] * e_out[:, 0]))
    combined = e_in[:, 0] + e_out[:, 0] + e_res[:, 0]
    first = np.stack(
        [
            np.abs(delta[:, 0]) > RESONANCE_TOL * scale,
            np.abs(combined) > RESONANCE_TOL * (np.abs(e_in[:, 0]) + np.abs(e_out[:, 0])),
        ],
        axis=1,
    )
    # Q(t) = e_in t^2 + e_res t + e_out < 0 at every sampled ratio, on
    # [degree, ratio] one point at a time, so no [point, degree, ratio] array
    # is held
    t = RESONANCE_RATIOS
    negative = np.array([
        ((row_in[:, np.newaxis] * t) * t + row_res[:, np.newaxis] * t + row_out[:, np.newaxis]
         < 0.0).all(axis=1)
        for row_in, row_out, row_res in zip(e_in[:, 1:], e_out[:, 1:], e_res[:, 1:])
    ])
    later = np.stack([delta[:, 1:] > 0.0, ~negative], axis=2)
    # [point, degree - 1, check], in the order the checks are listed above
    failed = np.concatenate([first[:, np.newaxis], later], axis=1)
    labels = (
        ("delta(1) at {1}", "Q(1) != 0 at k=1, {1}"),
        ("delta({0}) > 0 at {1}", "Q(t) >= 0 at k={0}, {1}"),
    )
    failures = [
        labels[index > 0][column].format(index + 1, points[point])
        for point, index, column in np.argwhere(failed).tolist()
    ]
    return _result(
        "resonance: delta <= 0, delta(1) = 0, Q < 0 for k >= 2 (sigma > 1)", failures
    )


@functools.cache
def _oracle_run(params: ProblemParams, modes: tuple) -> OracleRun:
    """The oracle run on the default grid at params, perturbed by the modes
    tuple(spec.sorted_items()) of a spec; computed once, so that criteria 10
    and 11 share theirs.  The oracle, and scipy with it, is imported here and
    by criterion 9 only, on first use."""
    from .pde_oracle import PerturbedDomainFamily, differentiate_energy

    return differentiate_energy(PerturbedDomainFamily(params, PerturbationSpec(dict(modes))))


def _harder_run(degree: int, alpha: tuple[float, float]) -> OracleRun:
    """The run at HARDER_CORE on the order-1 mode of the degree."""
    return _oracle_run(HARDER_CORE, ((ModeIndex(degree, 1), alpha),))


def pde_baseline() -> CheckResult:
    """9. The unperturbed energy matches the closed form, with second-order
    convergence between the half and the full radial grid."""
    from .pde_oracle import DEFAULT_RADIAL_POINTS, PerturbedDomainFamily, differentiate_energy

    low, high = ORDER_RANGE
    failures, orders = [], []
    for params in BASELINE_PARAMS:
        family = PerturbedDomainFamily(params, PerturbationSpec({}))
        fine = differentiate_energy(family).energy
        coarse = differentiate_energy(family, DEFAULT_RADIAL_POINTS // 2).energy
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
    """10. First derivatives at t = 0 vanish for volume-preserving families."""
    failures = []
    for degree in FIRST_VARIATION_DEGREES:
        for channel, alpha in _CHANNELS:
            run = _harder_run(degree, alpha)
            bound = FIRST_VARIATION_TOL * abs(run.energy)
            if not abs(run.d1) < bound:
                failures.append(
                    f"k={degree} {channel}: |d1|={abs(run.d1):.3e} vs bound {bound:.3e}"
                )
    return _result(
        "first variation vanishes for volume-preserving families", failures
    )


def second_variation_match() -> CheckResult:
    """11. Second derivatives at t = 0 match the assembled spectrum, and the
    coupled run recovers the cross term."""
    runs = {
        channel: _harder_run(CROSS_DEGREE, alpha)
        for channel, alpha in (*_CHANNELS, ("coupled", (1.0, 1.0)))
    }
    table = spectrum_grid((HARDER_CORE,), CLASSIFY_KMAX)
    index = CROSS_DEGREE - 1
    e_in, e_out, e_res = table.e_in[0, index], table.e_out[0, index], table.e_res[0, index]
    failures = []
    for channel, analytic in (("inner", e_in), ("outer", e_out)):
        deviation = abs(runs[channel].d2 - analytic) / abs(analytic)
        if deviation > DIRECT_TOL:
            failures.append(f"{channel} k={CROSS_DEGREE}: deviation {deviation:.3e}")
    cross = runs["coupled"].d2 - runs["inner"].d2 - runs["outer"].d2
    cross_deviation = abs(cross - e_res) / abs(e_res)
    if cross_deviation > CROSS_TOL:
        failures.append(f"resonance recovery: deviation {cross_deviation:.3e}")
    return _result(
        "second derivatives match the assembled spectrum "
        f"({DIRECT_TOL:.0%} direct, {CROSS_TOL:.0%} cross)",
        failures,
    )


def classifier_reproduction() -> CheckResult:
    """12. LocalMaximum for the harder core; Saddle for the softer core, with
    both witnesses confirmed in sign and size by the oracle."""
    failures = []
    harder = classify(HARDER_CORE, CLASSIFY_KMAX).classification
    if harder is not Classification.LOCAL_MAXIMUM:
        failures.append(f"sigma={HARDER_CORE.sigma:g}: {harder.value}")
    verdict = classify(SOFTER_CORE, CLASSIFY_KMAX)
    if verdict.classification is not Classification.SADDLE:
        failures.append(f"sigma={SOFTER_CORE.sigma:g}: {verdict.classification.value}")
    table = spectrum_grid((SOFTER_CORE,), CLASSIFY_KMAX)
    for label, witness, sign in (
        ("positive", verdict.witness_positive, 1.0),
        ("negative", verdict.witness_negative, -1.0),
    ):
        if witness is None:
            failures.append(f"no {label} witness")
            continue
        analytic = total_second_variation(witness, table)
        d2 = _oracle_run(SOFTER_CORE, tuple(witness.sorted_items())).d2
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
    """Criteria 9-12: the FD oracle against the closed-form energy, the
    assembled spectrum and the classifier."""
    return _run_suite("pde")


SUITES: dict[str, Callable[[], list[CheckResult]]] = {
    "coefficients": run_coefficients_suite,
    "secondvar": run_secondvar_suite,
    "monotonicity": run_monotonicity_suite,
    "pde": run_pde_suite,
}
