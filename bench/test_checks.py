"""The benchmark's checks accept the program's outputs and reject known-wrong ones.

    python3 -m pytest bench/test_checks.py
"""

from __future__ import annotations

import json
import math
import random
import sys
from pathlib import Path

import checks
import reference
import run
import spans

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from twophase_torsion import ProblemParams, assemble_spectrum, baseline_energy, cli  # noqa: E402

POINT = (3, 0.4, 2.5)
KMAX = 50


def _args(point, kmax=KMAX):
    dim, radius, sigma = point
    return ["--dim", str(dim), "--radius", repr(radius), "--sigma", repr(sigma), "--kmax", str(kmax)]


def test_reference_agrees_with_the_assembled_path():
    rng = random.Random(0)
    for _ in range(2000):
        dim, radius = rng.choice((2, 3, 4)), rng.uniform(0.2, 0.8)
        sigma, degree = math.exp(rng.uniform(-2.3, 2.3)), rng.randint(1, KMAX)
        want = reference.spectrum(dim, radius, sigma, degree)[-1]
        got = assemble_spectrum(ProblemParams(dim, radius, sigma), degree)
        scale = max(abs(value) for value in want)
        assert max(abs(a - b) for a, b in zip(want, (got.e_in, got.e_out, got.e_res))) <= 2e-12 * scale
        energy = baseline_energy(ProblemParams(dim, radius, sigma))
        assert abs(energy - reference.baseline_energy(dim, radius, sigma)) <= 1e-14 * energy


def test_spectrum_check_rejects_the_printed_path(tmp_path):
    ref_rows = reference.spectrum(*POINT, KMAX)
    for path, problems_expected in (("assembled", False), ("printed", True)):
        out = tmp_path / f"{path}.csv"
        assert cli.main(["spectrum", *_args(POINT), "--path", path, "--out", str(out)]) == 0
        problems = checks.check_spectrum_csv(out.read_text(), POINT, KMAX, ref_rows)
        assert bool(problems) is problems_expected, problems[:3]
    assert any("e_in" in p for p in problems) and any("e_out" in p for p in problems)


def test_classify_check_rejects_a_flipped_verdict(tmp_path):
    ref_rows = reference.spectrum(*POINT, KMAX)
    out = tmp_path / "classify.json"
    assert cli.main(["classify", *_args(POINT), "--out", str(out)]) == 0
    document = json.loads(out.read_text())
    assert checks.check_classify(document, POINT, KMAX, ref_rows) == []
    document["classification"] = "Saddle"
    assert checks.check_classify(document, POINT, KMAX, ref_rows)


def test_oracle_check_rejects_d2_off_by_one_percent(tmp_path):
    config = {
        "dim": 2, "radius": 0.5, "sigma": 2.0,
        "modes": [{"degree": 2, "order": 1, "alpha_in": 1.0, "alpha_out": 0.0}],
        "exact_area": True, "t0": 0.01, "levels": 2, "radial_points": 256, "angular_modes": 32,
    }
    config_file, out = tmp_path / "config.json", tmp_path / "oracle.json"
    config_file.write_text(json.dumps(config))
    assert cli.main(["oracle", "--config", str(config_file), "--out", str(out)]) == 0
    document = json.loads(out.read_text())
    assert checks.check_oracle(document, config) == []
    document["d2"] *= 1.01
    assert checks.check_oracle(document, config)


def test_criteria_checks_reject_a_failed_check_and_a_wrong_value(tmp_path):
    verify = "PASS: one\nPASS: two\nsecondvar: 2 passed, 0 failed\n"
    assert checks.check_verify(verify, "secondvar", 0) == []
    assert checks.check_verify(verify.replace("PASS: two", "FAIL: two"), "secondvar", 1)

    out = tmp_path / "fidelity.json"
    assert cli.main(["fidelity", "--out", str(out)]) == 0
    document = json.loads(out.read_text())
    assert checks.check_fidelity(document) == []
    entry = next(e for e in document["entries"] if e["formula"] == "E_res")
    entry["assembled_value"] *= 1.0 + 1e-6
    assert checks.check_fidelity(document)


def test_benchmark_json_lists_the_metrics_the_benchmark_prints():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    end_to_end = [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
    assert end_to_end == list(run.END_TO_END)
    per_layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert per_layer == [m[:3] for m in spans.LAYER_METRICS] + [spans.DISTINCT_SHARE, spans.RSS_GROWTH]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
