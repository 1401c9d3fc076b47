"""Command-line surface: arguments, validation, output formats, exit codes."""

import json

import pytest

from twophase_torsion.cli import main


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_prints_a_verdict_document(capsys):
    code, out, err = run_cli(
        capsys,
        ["classify", "--dim", "2", "--radius", "0.5", "--sigma", "2", "--kmax", "10"],
    )
    assert code == 0
    assert err == ""
    document = json.loads(out)
    assert document["classification"] == "LocalMaximum"
    assert document["scanned_degrees"] == [1, 10]


def test_classify_saddle_has_witnesses(capsys):
    code, out, _ = run_cli(
        capsys,
        ["classify", "--dim", "2", "--radius", "0.5", "--sigma", "0.5", "--kmax", "10"],
    )
    assert code == 0
    document = json.loads(out)
    assert document["classification"] == "Saddle"
    assert document["witness_positive"] is not None
    assert document["witness_negative"] is not None


def test_classify_rejects_out_of_range_radius(capsys):
    code, out, err = run_cli(
        capsys, ["classify", "--dim", "2", "--radius", "1.5", "--sigma", "2"]
    )
    assert code != 0
    assert out == ""
    assert err == "radius must lie in (0,1)\n"


def test_parameter_diagnostics_are_single_line(capsys):
    cases = [
        (["classify", "--dim", "1", "--radius", "0.5", "--sigma", "2"],
         "dim must be an integer >= 2"),
        (["classify", "--dim", "2", "--radius", "0.5", "--sigma", "0"],
         "sigma must be positive"),
        (["classify", "--dim", "2", "--radius", "0.5", "--sigma", "2", "--kmax", "1"],
         "kmax must be >= 2"),
        (["spectrum", "--dim", "2", "--radius", "0.5", "--sigma", "2", "--kmax", "0"],
         "kmax must be >= 1"),
    ]
    for argv, message in cases:
        code, _, err = run_cli(capsys, argv)
        assert code != 0
        assert err == message + "\n"


def test_missing_subcommand_fails_with_one_line(capsys):
    code, _, err = run_cli(capsys, [])
    assert code != 0
    assert err.strip()
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "argv, degree",
    [
        (["spectrum", "--dim", "2", "--radius", "0.5", "--sigma", "2", "--kmax", "3000"], 1019),
        (
            ["spectrum", "--dim", "2", "--radius", "0.5", "--sigma", "2", "--kmax", "3000",
             "--path", "printed"],
            503,
        ),
        (["classify", "--dim", "4", "--radius", "0.05", "--sigma", "2", "--kmax", "300"], 234),
        (["classify", "--dim", "2", "--radius", "0.2", "--sigma", "2", "--kmax", "500"], 440),
    ],
)
def test_degrees_past_float_range_are_diagnosed(capsys, argv, degree):
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert err == f"degree {degree} leaves float range for these parameters\n"


def test_spectrum_csv_output(capsys):
    code, out, _ = run_cli(
        capsys,
        ["spectrum", "--dim", "2", "--radius", "0.5", "--sigma", "1", "--kmax", "5"],
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "k,e_in,e_out,e_res,delta"
    assert len(lines) == 6
    # sigma = 1: the interface column vanishes identically
    for line in lines[1:]:
        assert float(line.split(",")[1]) == 0.0


def test_spectrum_paths_differ(capsys):
    argv = ["spectrum", "--dim", "2", "--radius", "0.5", "--sigma", "2", "--kmax", "3"]
    _, assembled, _ = run_cli(capsys, argv)
    _, printed, _ = run_cli(capsys, argv + ["--path", "printed"])
    assert assembled != printed
    _, assembled_again, _ = run_cli(capsys, argv + ["--path", "assembled"])
    assert assembled_again == assembled


def test_spectrum_out_flag_writes_a_file(tmp_path, capsys):
    target = tmp_path / "spectrum.csv"
    code, out, _ = run_cli(
        capsys,
        [
            "spectrum", "--dim", "3", "--radius", "0.2", "--sigma", "10",
            "--kmax", "4", "--out", str(target),
        ],
    )
    assert code == 0
    assert out == ""
    content = target.read_text(encoding="utf-8")
    assert content.startswith("k,e_in,e_out,e_res,delta\n")
    assert len(content.strip().split("\n")) == 5


def test_verify_fast_suites_pass(capsys):
    for suite in ("coefficients", "secondvar", "monotonicity"):
        code, out, _ = run_cli(capsys, ["verify", suite])
        assert code == 0, out
        assert "FAIL" not in out
        assert out.strip().endswith("0 failed")


def test_verify_pde_suite_passes(capsys):
    # reuses the oracle runs of the acceptance tests when they ran first
    code, out, _ = run_cli(capsys, ["verify", "pde"])
    assert code == 0, out
    assert out.strip().endswith("pde: 4 passed, 0 failed")


def test_verify_rejects_unknown_suite(capsys):
    code, _, err = run_cli(capsys, ["verify", "everything"])
    assert code != 0
    assert len(err.strip().splitlines()) == 1


def test_fidelity_document(capsys):
    code, out, _ = run_cli(capsys, ["fidelity"])
    assert code == 0
    document = json.loads(out)
    entries = {entry["formula"]: entry for entry in document["entries"]}
    assert entries["B_in"]["verdict"] == "Mismatch"
    assert entries["C_in"]["verdict"] == "Match"
    assert entries["E_res"]["verdict"] == "Match"
    assert len(entries) == 10


def test_oracle_runs_from_a_config_file(tmp_path, capsys):
    config = {
        "dim": 2,
        "radius": 0.5,
        "sigma": 2.0,
        "modes": [{"degree": 2, "order": 1, "alpha_in": 1.0, "alpha_out": 0.0}],
        "t0": 0.02,
        "levels": 1,
        "radial_points": 64,
        "angular_modes": 8,
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    code, out, _ = run_cli(capsys, ["oracle", "--config", str(path)])
    assert code == 0
    document = json.loads(out)
    assert document["radial_points"] == 64
    assert len(document["energies"]) == 5
    assert "d1" in document and "d2" in document


def test_oracle_document_is_strict_json(tmp_path, capsys):
    # one level observes no convergence rate; the document says null, not NaN
    config = {"radius": 0.5, "sigma": 2.0, "levels": 1, "radial_points": 16, "angular_modes": 8}
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    code, out, _ = run_cli(capsys, ["oracle", "--config", str(path)])
    assert code == 0

    def reject(constant):
        raise ValueError(f"non-finite constant {constant} in the document")

    document = json.loads(out, parse_constant=reject)
    assert document["convergence_rate"] is None


def test_oracle_accepts_presets(tmp_path, capsys):
    config = {
        "preset": "case-iii",
        "dim": 2,
        "radius": 0.5,
        "sigma": 2.0,
        "t0": 0.02,
        "levels": 1,
        "radial_points": 64,
        "angular_modes": 16,
    }
    path = tmp_path / "preset.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    code, out, _ = run_cli(capsys, ["oracle", "--config", str(path)])
    assert code == 0
    document = json.loads(out)
    assert document["inner_shape"] == [[5, 1, 1.0]]
    assert document["outer_shape"] == [[5, 1, 1.0]]


def test_oracle_rejects_unknown_preset(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"preset": "case-vi", "radius": 0.5, "sigma": 1.0}))
    code, _, err = run_cli(capsys, ["oracle", "--config", str(path)])
    assert code != 0
    assert "unknown preset" in err
    assert len(err.strip().splitlines()) == 1


def test_oracle_reports_unreadable_config(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, ["oracle", "--config", str(tmp_path / "missing.json")]
    )
    assert code != 0
    assert "cannot read config" in err

    bad = tmp_path / "bad_syntax.json"
    bad.write_text("{not json", encoding="utf-8")
    code, _, err = run_cli(capsys, ["oracle", "--config", str(bad)])
    assert code != 0
    assert "not valid JSON" in err


def test_oracle_names_a_missing_key(tmp_path, capsys):
    path = tmp_path / "no-radius.json"
    path.write_text(json.dumps({"sigma": 2.0}), encoding="utf-8")
    code, out, err = run_cli(capsys, ["oracle", "--config", str(path)])
    assert code == 2
    assert out == ""
    assert err == "invalid oracle config: missing required key 'radius'\n"


def test_output_is_deterministic(capsys):
    argv = ["classify", "--dim", "3", "--radius", "0.8", "--sigma", "10", "--kmax", "6"]
    _, first, _ = run_cli(capsys, argv)
    _, second, _ = run_cli(capsys, argv)
    assert first == second


def test_non_finite_parameters_are_rejected(tmp_path, capsys):
    code, out, err = run_cli(
        capsys, ["classify", "--dim", "2", "--radius", "0.5", "--sigma", "inf"]
    )
    assert code == 2
    assert out == ""
    assert err == "sigma must be finite\n"

    path = tmp_path / "infinite.json"
    for entries, message in (
        ('"sigma": Infinity', "sigma must be finite"),
        ('"sigma": 2.0, "t0": Infinity', "t0 must be finite"),
        ('"sigma": 2.0, "t0": NaN', "t0 must be finite"),
    ):
        path.write_text(f'{{"radius": 0.5, {entries}}}', encoding="utf-8")
        code, _, err = run_cli(capsys, ["oracle", "--config", str(path)])
        assert code == 2
        assert err == f"invalid oracle config: {message}\n"


@pytest.mark.parametrize(
    "overrides, message",
    [
        # InterfaceOrderingError: the outer boundary dips inside the core
        (
            {"t0": 0.9, "modes": [{"degree": 2, "alpha_out": 1.0}]},
            "interface ordering 0 < rho_D < rho_Omega violated",
        ),
        # SolveError: the stiffness overflows
        (
            {"sigma": 1e300, "modes": [{"degree": 2, "alpha_in": 1.0}]},
            "block factorization failed",
        ),
    ],
)
def test_oracle_reports_solver_failures(tmp_path, capsys, overrides, message):
    config = {"radius": 0.5, "sigma": 2.0, "radial_points": 16, "angular_modes": 8}
    path = tmp_path / "failing.json"
    path.write_text(json.dumps({**config, **overrides}), encoding="utf-8")
    code, out, err = run_cli(capsys, ["oracle", "--config", str(path)])
    assert code == 2
    assert out == ""
    assert err == f"oracle failed: {message}\n"


@pytest.mark.parametrize(
    "config, message",
    [
        ({"radial_point": 64}, "unknown config key 'radial_point'"),
        ({"modes": [{"degree": 2, "alpha": 1.0}]}, "unknown mode key 'alpha'"),
        ({"modes": [{"degree": 2.7, "alpha_in": 1.0}]}, "degree must be a JSON integer"),
        ({"modes": [{"degree": 2, "order": True}]}, "order must be a JSON integer"),
        ({"radial_points": 32.9}, "radial_points must be a JSON integer"),
        ({"levels": "2"}, "levels must be a JSON integer"),
        ({"radius": "0.5"}, "radius must be a JSON number"),
        ({"modes": [{"degree": 2, "alpha_in": False}]}, "alpha_in must be a JSON number"),
        ({"exact_area": "false"}, "exact_area must be a JSON boolean"),
        ({"allow_mean": "no"}, "allow_mean must be a JSON boolean"),
        ({"modes": {"degree": 2}}, "modes must be a JSON list"),
        ({"modes": [2]}, "mode must be a JSON object"),
        ({"preset": ["case-i"]}, "preset must be a JSON string"),
        (
            {"preset": "case-iii", "modes": [{"degree": 2, "alpha_in": 1.0}]},
            "give either preset or modes, not both",
        ),
        ([0.5, 2.0], "config must be a JSON object"),
    ],
)
def test_oracle_rejects_malformed_configs(tmp_path, capsys, config, message):
    base = {"radius": 0.5, "sigma": 2.0, "radial_points": 16, "angular_modes": 8}
    if isinstance(config, dict):
        config = {**base, **config}
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    code, out, err = run_cli(capsys, ["oracle", "--config", str(path)])
    assert code == 2
    assert out == ""
    assert err == f"invalid oracle config: {message}\n"
