"""Checks of the program's outputs against `reference` and against properties
the method must have.  Each checker returns a list of problems; empty means
the output is correct.  None of them calls the program."""

from __future__ import annotations

import re

import reference

SPECTRUM_TOL = 1e-9  # share of the row scale max(|e_in|, |e_out|, |e_res|)
ENERGY_TOL = 1e-5  # relative error of E(0) against the baseline energy
D1_TOL = 1e-4  # |d1| bound as a share of E(0)
D2_TOL = 1e-3  # d2 error as a share of max(|e_in|, |e_out|, |e_res|) ...
# ... plus this absolute floor.  The spectrum of degree 1 vanishes as sigma -> 1
# while the grid's own error does not: at sigma = 1.002, k = 1, d2 was off by
# 3.9e-6 against a scale of 3.3e-4.  The largest d2 error over 96 random
# families at 256x32 was 2.1e-5.
D2_FLOOR = 1e-4
ORACLE_GRID = (256, 32)
EXPECTED_MISMATCHES = {"B_in", "E_in", "E_out"}


def _row_problems(label: str, got: tuple[float, ...], ref: tuple[float, float, float]) -> list[str]:
    """got is (e_in, e_out, e_res, delta); delta is judged on the squared scale."""
    scale = max(abs(value) for value in ref)
    e_in, e_out, e_res = ref
    expected = (e_in, e_out, e_res, e_res * e_res - 4.0 * e_in * e_out)
    names = ("e_in", "e_out", "e_res", "delta")
    problems = []
    for name, value, want in zip(names, got, expected):
        tol = SPECTRUM_TOL * (scale * scale if name == "delta" else scale)
        if not abs(value - want) <= tol:
            problems.append(f"{label} {name}={value!r}, reference {want!r}")
    return problems


def check_classify(document: dict, point: tuple[int, float, float], kmax: int, ref_rows: list) -> list[str]:
    """Verdict is LocalMaximum iff sigma > 1 and Saddle iff sigma < 1; every
    mode-table row matches the reference."""
    _, _, sigma = point
    want = "LocalMaximum" if sigma > 1.0 else "Saddle"
    problems = []
    if document.get("classification") != want:
        problems.append(f"classify {point}: verdict {document.get('classification')!r}, expected {want!r}")
    table = document.get("mode_table", [])
    if [row.get("degree") for row in table] != list(range(1, kmax + 1)):
        return problems + [f"classify {point}: mode table does not cover degrees 1..{kmax}"]
    for row, ref in zip(table, ref_rows):
        got = (row["e_in"], row["e_out"], row["e_res"], row["delta"])
        problems += _row_problems(f"classify {point} k={row['degree']}", got, ref)
    return problems


def check_spectrum_csv(text: str, point: tuple[int, float, float], kmax: int, ref_rows: list) -> list[str]:
    lines = text.splitlines()
    if not lines or lines[0] != "k,e_in,e_out,e_res,delta":
        return [f"spectrum {point}: bad CSV header"]
    rows = [line.split(",") for line in lines[1:]]
    if [int(row[0]) for row in rows] != list(range(1, kmax + 1)):
        return [f"spectrum {point}: CSV does not cover degrees 1..{kmax}"]
    problems = []
    for row, ref in zip(rows, ref_rows):
        problems += _row_problems(f"spectrum {point} k={row[0]}", tuple(map(float, row[1:])), ref)
    return problems


def check_oracle(document: dict, config: dict) -> list[str]:
    """E(0) against the baseline energy, d1 near zero, d2 against the
    second variation of the family's single mode."""
    dim, radius, sigma = config["dim"], config["radius"], config["sigma"]
    (mode,) = config["modes"]
    label = f"oracle R={radius!r} sigma={sigma!r} k={mode['degree']} alpha=({mode['alpha_in']},{mode['alpha_out']})"
    if (document.get("radial_points"), document.get("angular_modes")) != ORACLE_GRID:
        return [f"{label}: grid {document.get('radial_points')}x{document.get('angular_modes')}, expected {ORACLE_GRID}"]
    problems = []
    energy0 = document["energies"][document["t_samples"].index(0.0)]
    baseline = reference.baseline_energy(dim, radius, sigma)
    if not abs(energy0 - baseline) <= ENERGY_TOL * baseline:
        problems.append(f"{label}: E(0)={energy0!r}, baseline {baseline!r}")
    if not abs(document["d1"]) <= D1_TOL * abs(energy0):
        problems.append(f"{label}: |d1|={abs(document['d1']):.3e} above {D1_TOL:g} E(0)")
    e_in, e_out, e_res = reference.spectrum(dim, radius, sigma, mode["degree"])[-1]
    a_in, a_out = mode["alpha_in"], mode["alpha_out"]
    want = a_in * a_in * e_in + a_out * a_out * e_out + a_in * a_out * e_res
    scale = max(abs(e_in), abs(e_out), abs(e_res))
    if not abs(document["d2"] - want) <= D2_TOL * scale + D2_FLOOR:
        problems.append(f"{label}: d2={document['d2']!r}, second variation {want!r}")
    return problems


def check_verify(text: str, suite: str, code: int) -> list[str]:
    *checks, summary = text.splitlines() or [""]
    problems = [f"verify {suite}: {line}" for line in checks if not line.startswith("PASS: ")]
    if not checks or summary != f"{suite}: {len(checks)} passed, 0 failed":
        problems.append(f"verify {suite}: summary {summary!r}")
    if code != 0:
        problems.append(f"verify {suite}: exit code {code}")
    return problems


_POINT = re.compile(r"N=(\d+), sigma=([^,]+), R=([^,]+), k=(\d+)$")
_SPECTRUM_ENTRY = {"E_in": 0, "E_out": 1, "E_res": 2}


def check_fidelity(document: dict) -> list[str]:
    """Exactly B_in, E_in and E_out are Mismatch, and every spectrum entry's
    assembled value matches the reference at its worst point."""
    entries = {entry["formula"]: entry for entry in document.get("entries", [])}
    mismatched = {name for name, entry in entries.items() if entry["verdict"] == "Mismatch"}
    problems = []
    if mismatched != EXPECTED_MISMATCHES:
        problems.append(f"fidelity: Mismatch on {sorted(mismatched)}, expected {sorted(EXPECTED_MISMATCHES)}")
    for name in (*_SPECTRUM_ENTRY, "E_res_k1_perfect_square"):
        entry = entries.get(name)
        match = _POINT.match(entry["worst_point"]) if entry else None
        if match is None:
            problems.append(f"fidelity: no worst point for {name}")
            continue
        dim, sigma, radius, degree = int(match[1]), float(match[2]), float(match[3]), int(match[4])
        row = reference.spectrum(dim, radius, sigma, degree)[-1]
        want = -2.0 * row[0] if name == "E_res_k1_perfect_square" else row[_SPECTRUM_ENTRY[name]]
        scale = max(abs(value) for value in row)
        if not abs(entry["assembled_value"] - want) <= SPECTRUM_TOL * scale:
            problems.append(f"fidelity {name} at {entry['worst_point']}: {entry['assembled_value']!r}, reference {want!r}")
    return problems
