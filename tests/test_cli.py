"""Command-line surface: arguments, validation, output formats, exit codes."""

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
import warnings
from itertools import chain
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import twophase_torsion
from twophase_torsion import pde_oracle, reporting
from twophase_torsion.cli import _json_text, main
from twophase_torsion.stability import StabilityVerdict


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


# each point with the verdict of classify, or the degree refused at kmax 3,
# None for degree 1: the entry that decides the verdict, e_in(1) for
# sigma != 1 and e_out(2) for sigma = 1, reads 0 and has lost its sign
UNDERFLOWED_DEGREE_ONE = pytest.mark.parametrize(
    "dim, radius, sigma, expected",
    [
        # e_in(1) = e_out(1) = O(R^N) read 0.0
        (2, "1e-200", "0.5", None),
        (40, "1e-10", "0.5", None),
        (2, "1e-200", "2", None),
        # e_in(1) reads 0.0 and e_out(1) 5e-324, but outer degree 1 is a
        # translation, excluded, so no sign decides the verdict
        (3, "2.594786310652217e-108", "0.5", None),
        # e_in(1) = 3.3e-321 is subnormal, not zero, and keeps its sign
        (2, "1e-160", "0.5", "Saddle"),
        # e_out(1) reads 0.0, but e_in(1) = 4.9e-324 keeps its sign
        (4, "3.734002155702594e-81", "0.9", "Saddle"),
        # e_in is +0.0 at sigma = 1, and e_out(2) = -2/N^2 keeps its sign
        (2, "1e-200", "1", "NeutralSinglePhase"),
        # -2/N^2 underflows once N > 1.34e154
        pytest.param(10**160, "0.5", "1", 2, id="1e160-0.5-1-2"),
    ],
)


@UNDERFLOWED_DEGREE_ONE
def test_classify_refuses_an_underflowed_degree_one(capsys, dim, radius, sigma, expected):
    argv = ["classify", "--dim", str(dim), "--radius", radius, "--sigma", sigma, "--kmax", "3"]
    code, out, err = run_cli(capsys, argv)
    if not isinstance(expected, str):
        assert (code, out) == (2, "")
        assert err == f"degree {expected or 1} leaves float range for these parameters\n"
    else:
        assert code == 0
        assert json.loads(out)["classification"] == expected


@UNDERFLOWED_DEGREE_ONE
def test_spectrum_refuses_an_underflowed_degree_one(capsys, dim, radius, sigma, expected):
    argv = ["spectrum", "--dim", str(dim), "--radius", radius, "--sigma", sigma, "--kmax", "3"]
    code, out, err = run_cli(capsys, argv)
    if not isinstance(expected, str):
        message = f"degree {expected or 1} leaves float range for these parameters\n"
        assert (code, out, err) == (2, "", message)
        if expected is not None:
            # below the refused degree nothing decides a verdict
            code, out, err = run_cli(capsys, argv[:-1] + [str(expected - 1)])
            assert (code, err) == (0, "")
            assert document_degrees(argv, out) == list(range(1, expected))
        return
    assert (code, err) == (0, "")
    assert document_degrees(argv, out) == [1, 2, 3]
    e_in = float(out.splitlines()[1].split(",")[1])
    if sigma == "1":
        assert e_in == 0.0
    else:
        assert 0.0 < e_in < sys.float_info.min


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
        (["spectrum", "--dim", "2", "--radius", "0.5", "--sigma", "2", "--path", "bogus"],
         "argument --path: invalid choice: 'bogus' (choose from 'assembled', 'printed')"),
    ]
    for argv, message in cases:
        code, _, err = run_cli(capsys, argv)
        assert code != 0
        assert err == message + "\n"


@pytest.mark.parametrize(
    "command, flags, message",
    [
        ("classify", ["--radius", "-1e-05", "--sigma", "2"], "radius must lie in (0,1)"),
        ("classify", ["--radius", "0.5", "--sigma", "-inf"], "sigma must be finite"),
        ("spectrum", ["--radius", "0.5", "--sigma", "-1E+300"], "sigma must be positive"),
        ("spectrum", ["--radius", "-NaN", "--sigma", "2"], "radius must be finite"),
    ],
)
def test_a_negative_value_with_an_exponent_or_an_infinity_is_a_value(
    capsys, command, flags, message
):
    # argparse's own negative-number pattern read these as option strings
    code, out, err = run_cli(capsys, [command, "--dim", "2", *flags])
    assert (code, out, err) == (2, "", message + "\n")


def test_calls_in_one_process_match_fresh_processes(tmp_path, capsys):
    # main shares its command table and caches between calls: failed calls,
    # in parsing and after it, must leave nothing behind for the calls that
    # follow
    config = tmp_path / "run.json"
    config.write_text(
        json.dumps({"radius": 0.5, "sigma": 2.0, "levels": 1,
                    "modes": [{"degree": 5, "alpha_in": 1.0, "alpha_out": 1.0}],
                    "radial_points": 16, "angular_modes": 16}),
        encoding="utf-8",
    )
    point = ["--dim", "2", "--radius", "0.5", "--sigma", "0.5", "--kmax", "6"]
    calls = [
        ["classify", "--dim", "1", "--radius", "0.5", "--sigma", "2"],
        ["classify", "--dim", "2", "--radius", "0.5"],
        ["classify", *point],
        ["spectrum", *point],
        ["fidelity"],
        ["oracle", "--config", str(config)],
    ]
    in_process = [run_cli(capsys, argv) for argv in calls]
    paths = [str(Path(twophase_torsion.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    processes = [
        subprocess.Popen(
            [sys.executable, "-m", "twophase_torsion.cli", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        )
        for argv in calls
    ]
    fresh = []
    for process in processes:
        out, err = process.communicate(timeout=120)
        fresh.append((process.returncode, out, err))
    assert [code for code, _, _ in in_process] == [2, 2, 0, 0, 0, 0]
    assert in_process == fresh


_IMPORT_SLICE = """
import contextlib, io, json, sys
import twophase_torsion
from twophase_torsion import cli

def loaded():
    return [name for name in ("scipy", "twophase_torsion.pde_oracle") if name in sys.modules]

point = ["--dim", "2", "--radius", "0.5", "--sigma", "0.5", "--kmax", "6"]
analytic = [
    ["classify", *point],
    ["spectrum", *point],
    ["spectrum", *point, "--path", "printed"],
    ["verify", "coefficients"],
    ["verify", "secondvar"],
    ["verify", "monotonicity"],
    ["fidelity"],
]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in analytic]
    analytic_loaded = loaded()
    codes.append(cli.main(["oracle", "--config", sys.argv[1]]))
print(json.dumps({"codes": codes, "analytic": analytic_loaded, "oracle": loaded()}))
"""


def test_only_the_oracle_imports_scipy(tmp_path):
    # the analytic commands run on numpy alone; the FD oracle, and scipy
    # with it, is imported when the oracle first runs
    config = tmp_path / "run.json"
    config.write_text(
        json.dumps({"radius": 0.5, "sigma": 2.0, "levels": 1,
                    "modes": [{"degree": 5, "alpha_in": 1.0, "alpha_out": 1.0}],
                    "radial_points": 16, "angular_modes": 16}),
        encoding="utf-8",
    )
    paths = [str(Path(twophase_torsion.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    result = subprocess.run(
        [sys.executable, "-c", _IMPORT_SLICE, str(config)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == {
        "codes": [0] * 8,
        "analytic": [],
        "oracle": ["scipy", "twophase_torsion.pde_oracle"],
    }


def test_missing_subcommand_fails_with_one_line(capsys):
    code, _, err = run_cli(capsys, [])
    assert code != 0
    assert err.strip()
    assert len(err.strip().splitlines()) == 1


def document_degrees(argv: list[str], out: str) -> list[int]:
    """The degrees a spectrum CSV or a classify document lists, in order."""
    if argv[0] == "spectrum":
        return [int(line.split(",")[0]) for line in out.splitlines()[1:]]
    return [row["degree"] for row in json.loads(out)["mode_table"]]


# degree is the first degree the command names as past the float range, or
# None where it computes every degree: the assembled spectrum forms no
# negative power of R, so only the printed path still leaves the float range
@pytest.mark.parametrize(
    "argv, degree",
    [
        (["spectrum", "--dim", "2", "--radius", "0.5", "--sigma", "2", "--kmax", "3000"], None),
        (
            ["spectrum", "--dim", "2", "--radius", "0.5", "--sigma", "2", "--kmax", "3000",
             "--path", "printed"],
            503,
        ),
        (["classify", "--dim", "4", "--radius", "0.05", "--sigma", "2", "--kmax", "300"], None),
        (["classify", "--dim", "2", "--radius", "0.2", "--sigma", "2", "--kmax", "500"], None),
    ],
)
def test_degrees_past_float_range_are_diagnosed(capsys, argv, degree):
    code, out, err = run_cli(capsys, argv)
    if degree is None:
        assert (code, err) == (0, "")
        assert document_degrees(argv, out) == list(range(1, int(argv[-1]) + 1))
    else:
        assert code == 2
        assert out == ""
        assert err == f"degree {degree} leaves float range for these parameters\n"


def test_a_tiny_core_meets_the_residual_contract(capsys):
    # the Outer system's right-hand side was R^k/N, subnormal here, and its
    # degree-26 row missed the 1e-12 contract; divided by R^k it is 1/N
    argv = ["spectrum", "--dim", "2", "--radius", "1e-12", "--sigma", "552", "--kmax", "26"]
    code, out, err = run_cli(capsys, argv)
    assert (code, err) == (0, "")
    assert document_degrees(argv, out) == list(range(1, 27))


@pytest.mark.parametrize("dim", [2**63 - 1, 10**20, 10**400])
@pytest.mark.parametrize("command", [["classify"], ["spectrum"], ["spectrum", "--path", "printed"]])
def test_a_huge_dimension_is_answered_at_once(command, dim):
    # past int64 the exponents of R must stay exact, and the printed powers,
    # R^{2-N-2k}, must cost O(kmax), not O(N)
    argv = [*command, "--dim", str(dim), "--radius", "0.5", "--sigma", "2", "--kmax", "5"]
    start = time.perf_counter()
    _answered(argv)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("command", [["classify"], ["spectrum"], ["spectrum", "--path", "printed"]])
def test_a_dimension_past_float_range_is_named(capsys, command):
    argv = [*command, "--dim", str(10**400), "--radius", "0.5", "--sigma", "2"]
    assert run_cli(capsys, argv) == (2, "", "dim leaves float range\n")


@pytest.mark.parametrize("command", [["classify"], ["spectrum", "--path", "printed"], ["spectrum"]])
def test_a_dimension_in_float_range_names_the_degree_past_it(capsys, command):
    # R^N underflows at degree 1 for the assembled spectrum, and R^{2-N-2k}
    # overflows for the printed path
    argv = [*command, "--dim", str(10**20), "--radius", "0.5", "--sigma", "2"]
    message = "degree 1 leaves float range for these parameters\n"
    assert run_cli(capsys, argv) == (2, "", message)


def test_an_oracle_config_with_a_dimension_past_float_range_is_named(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(f'{{"dim": {10**400}, "radius": 0.5, "sigma": 2.0}}', encoding="utf-8")
    code, out, err = run_cli(capsys, ["oracle", "--config", str(path)])
    assert (code, out, err) == (2, "", "invalid oracle config: dim leaves float range\n")


def test_a_billion_dimensions_keep_their_degree_one_row(capsys):
    argv = ["spectrum", "--dim", "1000000000", "--radius", "0.999999999", "--sigma", "2",
            "--kmax", "3"]
    code, out, err = run_cli(capsys, argv)
    assert (code, err) == (0, "")
    # e_in(1) = e_out(1), the translation identity, far from underflow
    assert out.splitlines()[1].startswith("1,-7.3575890231859954e-19,-7.3575890231859954e-19,")


@pytest.mark.parametrize("command", ["classify", "spectrum"])
def test_mode_solve_failures_are_diagnosed(capsys, command):
    # the degree-1 Inner unknown B R^k, about R/(N sigma k), is subnormal
    # here, and its mode system misses the residual contract
    argv = [command, "--dim", "2", "--radius", "1e-12", "--sigma", "1e300", "--kmax", "2"]
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("mode system residual")


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


# any float the columns can hold: discriminant gives inf where a product
# overflows, and the CSV prints it
_CSV_FLOAT = st.sampled_from(
    [-0.0, 5e-324, 2.225073858507201e-308, math.inf, -math.inf, math.nan]
) | st.floats()


@settings(max_examples=50, deadline=None)
@given(degree=st.integers(1, 10**4), values=st.tuples(*[_CSV_FLOAT] * 4))
def test_a_spectrum_row_is_the_17_digit_form(degree, values):
    e_in, e_out, e_res, delta = values
    assert reporting._CSV_ROW % (degree, *values) == (
        f"{degree},{e_in:.17g},{e_out:.17g},{e_res:.17g},{delta:.17g}\n"
    )


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


# sha256 of the stdout of the report commands; a change that alters these
# bytes must say why.  Solving the mode systems by eliminating the boundary
# row moved, each by an ulp or two: the worst deviation of one `verify
# coefficients` and one `verify secondvar` line, six of the fidelity
# report's Match deviations, and e_in, e_res and delta on some rows of the
# two two-phase `classify` documents and of the assembled `spectrum`.  No
# moved entry is farther from the exact reference than before (0.81 and 0.50
# ulp of the row scale at most).  Reading e_in through the value-jump
# condition below sigma = 1/2 moved criterion 4's worst deviation in `verify
# secondvar` from 1.142e-15 at (3, 0.2, 0.1) to 2.612e-16 at (4, 0.8, 0.1),
# and the fidelity report's E_res_k1_perfect_square from 1.33e-15 to
# 3.81e-16.  `verify pde` moved when criterion 11's line came to read
# "second derivatives" for "second differences", as its d2 are exact ones.
PINNED_STDOUT = {
    ("verify", "coefficients"): "e7391afa28efc87ae3576f6f9fbeaae5301e07429fc09f3032ea94fed1c5c190",
    ("verify", "secondvar"): "39de8a81607cf5ae3b1acfd6c4bc7a3d2d8d950e8342e298a3680a7ed4e7d56e",
    ("verify", "monotonicity"): "a77897d84503e4da0212ec7accdfd4a67728f56fe7e7deefd295b1c4af281cd5",
    ("verify", "pde"): "3e401d0dfcb872e5b0da21a54b97f6821867e33334c794914a4dfb056b9af386",
    ("fidelity",): "97d9a138c7944787db26b402f200036fda531390599fefdc89da4cefed450c3a",
    ("classify", "--dim", "3", "--radius", "0.4", "--sigma", "2.5", "--kmax", "50"):
        "e3b70accd9b6c786808712a7cac020db3a2259d9200a33cf52323382e76638da",
    # a saddle, with witnesses
    ("classify", "--dim", "2", "--radius", "0.5", "--sigma", "0.5", "--kmax", "30"):
        "20d2bb04aa5aca31d2eb1c67ac305f4d7ae60b7bd9c68a0c8526fb6ecb9ebab0",
    # the single-phase verdict: no positive mode, no positive witness, a note
    ("classify", "--dim", "3", "--radius", "0.5", "--sigma", "1", "--kmax", "8"):
        "c7d9449ecbc30f5a317c302e4f83dd596fe4c29755ce2b58a01a94e46a936caf",
    ("spectrum", "--dim", "3", "--radius", "0.4", "--sigma", "2.5", "--kmax", "50"):
        "d5870cca24f0918ea78fa013cf3825c01d7e88a25867dc9d5a59e41ad7331703",
    ("spectrum", "--dim", "3", "--radius", "0.4", "--sigma", "2.5", "--kmax", "50",
     "--path", "printed"):
        "c0f03fc2ddd1cdba2a3732732089e99b5034071e05581aa60a9abf070a767f11",
}


@pytest.mark.parametrize("argv", PINNED_STDOUT, ids=" ".join)
def test_report_stdout_is_pinned(capsys, argv):
    code, out, _ = run_cli(capsys, list(argv))
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == PINNED_STDOUT[argv]


# sha256 of `oracle`'s stdout at the benchmark's 256x32 shape, one run per
# boundary channel: (alpha_in, alpha_out, degree, order, radius, sigma).
# Re-pinned when the oracle began to solve on half a sector (E
# moved by at most 2.3e-15 relative, and d2 by 1.5e-8 (inner), 2.9e-10
# (outer) and 1.2e-10 (coupled) relative), and again when a run's samples
# began to share the t = 0 solve's preconditioner (E by at most 1.2e-15,
# d2 by 1.5e-10, 1.7e-10 and 5.7e-11), and again when d1 and d2 became the
# exact derivatives at t = 0, in place of Richardson-extrapolated second
# differences (E by 2.9e-13, 3.8e-13 and 3.1e-13 relative, and d2 by
# 1.7e-10, 9.2e-11 and 4.2e-11 absolute); and the inner run again when the
# radii's Taylor coefficients took their closed form (E unchanged, d1 from
# -2.05e-17 to -1.56e-17, d2 by 1.1e-16 absolute); and all three again when
# the run began to solve for the radial u on its first chain and to read the
# t^2 terms' angle sums (E by 2.9e-14, 1.4e-14 and 6.7e-14 relative, d2 by
# 3.2e-14, 3.8e-15 and 5.4e-14 absolute); and all three again when the run
# took u from its flux and one chain per degree (E by 2.6e-13, 3.9e-13 and
# 2.5e-13 relative, d1 from rounding, at most 2.2e-16, to exactly 0, d2 by
# 1.6e-14, 8.0e-13 and 1.9e-13 absolute)
PINNED_ORACLE = {
    "inner": ((1.0, 0.0, 2, 1, 0.4, 0.5),
              "6ab39d7697834b3bd1b4f11c8d3710b5cd6522474c096215a7212b6950b124e8"),
    "outer": ((0.0, 1.0, 3, 2, 0.6, 3.0),
              "63144d8f9dec8ce6c80418629964c824c5d7fd904927e73cc51e0d2c32f761b0"),
    "coupled": ((1.0, 1.0, 2, 1, 0.5, 2.0),
                "9a7b9dc71e591017dd0b3e4996e91fd8440f1dacc02a042647f5ca812176f315"),
}
# families with no mirror axis on their grid, pinned while runs still solved
# on the angles: (radius, sigma, modes, angular_modes) at 256 radial
# points.  No grid angle is an axis of both cos 2 theta and sin 2 theta, and
# sin theta's axes pi/2 and 3 pi/2 are no grid angles of 30.  Re-pinned when
# a run's samples began to share the t = 0 solve's preconditioner: E moved
# by at most 1.3e-15 relative, and d2 by 7.6e-12 relative and by 2.0e-10
# where it is -1.4e-6 (sin theta on both boundaries, nearly a translation);
# and again for the exact derivatives: E by 2.5e-13 and 2.9e-13 relative,
# d2 by 4.4e-11 and 1.3e-10 absolute; and sin theta's again for the closed
# form of the radii's Taylor coefficients: E unchanged, d1 from 6.62e-17 to
# 5.58e-17, d2 by 6.9e-18 absolute; and both again for the radial u on the
# first chain: E by 1.8e-16 and 4.9e-13 relative, d2 by 1.1e-16 and
# 3.7e-14 absolute; and both again for u from its flux and one chain per
# degree, which no longer reads the angles (E by 2.5e-13 and 1.9e-13
# relative, d1 from 2.1e-17 and 7.4e-17 to exactly 0, d2 by 3.3e-13 and
# 2.3e-14 absolute)
PINNED_UNMIRRORED_ORACLE = {
    "cos 2 inner, sin 2 outer": (
        (0.5, 2.0, [{"degree": 2, "order": 1, "alpha_in": 1.0, "alpha_out": 0.0},
                    {"degree": 2, "order": 2, "alpha_in": 0.0, "alpha_out": 1.0}], 32),
        "94f31f80e9882131824eae3ae0cc5ed10eb4408043d3f6ecf1a79c032d027215"),
    "sin 1 on 30 angles": (
        (0.45, 1.5, [{"degree": 1, "order": 2, "alpha_in": 1.0, "alpha_out": 1.0}], 30),
        "62df3a99eafd762c349b533aa49ba95dc6c412a6a74b74d4bfe72c13fd62e83c"),
}


def _oracle_digest(tmp_path, capsys, radius, sigma, modes, angular_modes):
    config = {
        "dim": 2, "radius": radius, "sigma": sigma, "modes": modes,
        "exact_area": True, "t0": 0.01, "levels": 2, "radial_points": 256,
        "angular_modes": angular_modes,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    code, out, _ = run_cli(capsys, ["oracle", "--config", str(path)])
    assert code == 0
    return hashlib.sha256(out.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("channel", PINNED_ORACLE)
def test_oracle_stdout_is_pinned(tmp_path, capsys, channel):
    (alpha_in, alpha_out, degree, order, radius, sigma), digest = PINNED_ORACLE[channel]
    modes = [{"degree": degree, "order": order, "alpha_in": alpha_in, "alpha_out": alpha_out}]
    assert _oracle_digest(tmp_path, capsys, radius, sigma, modes, 32) == digest


@pytest.mark.parametrize("family", PINNED_UNMIRRORED_ORACLE)
def test_an_unmirrored_oracle_stdout_is_pinned(tmp_path, capsys, family):
    arguments, digest = PINNED_UNMIRRORED_ORACLE[family]
    assert _oracle_digest(tmp_path, capsys, *arguments) == digest


# the encoder's separators and escapes, the record template's %, ASCII
# controls, and characters from Latin-1, the BMP and beyond it (a surrogate
# pair under ensure_ascii)
_TEXT = st.text(',\n{}[]":%\\\t\x00\x7f a\xe9\u20ac\U0001f600', max_size=4)
_LEAVES = (
    st.none() | st.booleans() | st.integers() | _TEXT
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([-0.0, 5e-324, 1e308])
)
# json.dumps writes int, float, bool and None keys as strings
_KEYS = _TEXT | st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False)


# the values of a numeric record: the extremes json.dumps writes as int and
# float reprs, and a bool, which it writes as true or false
_NUMBERS = (
    st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([-0.0, 5e-324, 1e308, 2**63, -(2**63), 10**400, True])
)


def _numeric_records(keys):
    """Lists of numeric records that share the key order `keys`, the shape
    of `mode_table`."""
    return st.lists(st.fixed_dictionaries(dict.fromkeys(keys, _NUMBERS)), min_size=1, max_size=3)


def _containers(children):
    return (
        st.lists(children, max_size=3)
        | st.lists(children, max_size=3).map(tuple)
        | st.dictionaries(_KEYS, children, max_size=3)
        # a list of flat records, as positive_modes
        | st.lists(st.dictionaries(_KEYS, _LEAVES, min_size=1, max_size=3), min_size=1, max_size=3)
        | st.lists(_KEYS, min_size=1, max_size=3, unique=True).flatmap(_numeric_records)
    )


_DOCUMENTS = st.dictionaries(_KEYS, st.recursive(_LEAVES, _containers, max_leaves=8), max_size=3)


@settings(max_examples=150, deadline=None)
@given(document=_DOCUMENTS)
def test_json_text_is_json_dumps_with_indent_2(document):
    assert _json_text(document) == json.dumps(document, indent=2, allow_nan=False) + "\n"


@st.composite
def _planted(draw, bad):
    """A document that holds `bad` at a drawn depth and place, and the path
    of that place."""
    value, path = bad, ""
    if draw(st.booleans()):  # a field of a numeric record list
        keys = draw(st.lists(_TEXT, min_size=1, max_size=3, unique=True))
        records = draw(_numeric_records(keys))
        at, key = draw(st.integers(0, len(records) - 1)), draw(st.sampled_from(keys))
        records[at][key] = value
        value, path = records, f"[{at}].{key}"
    for _ in range(draw(st.integers(1, 4))):
        siblings = draw(st.lists(_LEAVES | _containers(_LEAVES), max_size=3))
        at = draw(st.integers(0, len(siblings)))
        items = [*siblings[:at], value, *siblings[at:]]
        kind = draw(st.sampled_from([list, tuple, dict]))
        if kind is dict:
            keys = draw(st.lists(_TEXT, min_size=len(items), max_size=len(items), unique=True))
            value, path = dict(zip(keys, items)), f".{keys[at]}{path}"
        else:
            value, path = kind(items), f"[{at}]{path}"
    return {"document": value}, f"document{path}"


@settings(max_examples=30, deadline=None)
@given(data=st.data(), bad=st.sampled_from([math.nan, math.inf, -math.inf, {1}]))
def test_json_text_refuses_what_json_dumps_refuses(data, bad):
    document, path = data.draw(_planted(bad))
    error = TypeError if isinstance(bad, set) else ValueError
    with pytest.raises(error):
        json.dumps(document, indent=2, allow_nan=False)
    with pytest.raises(error) as excinfo:
        _json_text(document)
    if error is ValueError:  # the refusal names the non-finite value's field
        assert str(excinfo.value) == f"document value {path} is not finite"


@pytest.mark.parametrize("out", [False, True], ids=["stdout", "out"])
def test_a_non_finite_document_value_is_refused(tmp_path, capsys, monkeypatch, out):
    to_document = StabilityVerdict.to_document

    def overflowed(verdict):
        document = to_document(verdict)
        document["mode_table"][-1]["delta"] = math.inf
        return document

    monkeypatch.setattr(StabilityVerdict, "to_document", overflowed)
    target = tmp_path / "verdict.json"
    argv = ["classify", "--dim", "2", "--radius", "0.5", "--sigma", "2", "--kmax", "6"]
    argv += ["--out", str(target)] if out else []
    code, stdout, err = run_cli(capsys, argv)
    assert (code, stdout) == (2, "")
    assert err == "document value mode_table[5].delta is not finite\n"
    assert not target.exists()


def _reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def _answered(argv) -> tuple[int, str]:
    """The exit code and stdout of main(argv), run in-process with warnings
    as errors: exit 0 with an empty stderr, or exit 2 with one line on
    stderr and an empty stdout; never a traceback or a warning."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 2), (code, err)
    if code == 2:
        assert out == ""
        assert err.endswith("\n") and err.count("\n") == 1, err
    else:
        assert err == ""
    return code, out


# any float; the strategies below also draw from the valid ranges, so that
# about one example in ten reaches exit 0
_ANY_FLOAT = st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308]) | st.floats()


@settings(max_examples=500, deadline=None)
@given(
    command=st.sampled_from(["classify", "spectrum"]),
    dim=st.integers(2, 8) | st.integers(-(2**64 + 1), 2**64 + 1),
    radius=st.floats(0.0, 1.0) | _ANY_FLOAT,
    sigma=st.floats(0.0, 1e6) | _ANY_FLOAT,
    kmax=st.integers(-1, 3000),
    path=st.sampled_from([None, "assembled", "printed", "exact"]),
)
# negatives that argparse's own pattern took for option strings
@example(command="classify", dim=2, radius=-1e-05, sigma=2.0, kmax=30, path=None)
@example(command="classify", dim=2, radius=0.5, sigma=-math.inf, kmax=30, path=None)
def test_every_classify_and_spectrum_argv_is_answered(command, dim, radius, sigma, kmax, path):
    argv = [command, "--dim", str(dim), "--radius", repr(radius), "--sigma", repr(sigma),
            "--kmax", str(kmax)]
    if command == "spectrum" and path is not None:
        argv += ["--path", path]
    code, out = _answered(argv)
    if code == 2:
        return
    if command == "classify":
        json.loads(out, parse_constant=_reject_constant)
        return
    header, *rows = out.splitlines()
    assert header == "k,e_in,e_out,e_res,delta"
    assert len(rows) == kmax
    for degree, row in enumerate(rows, 1):
        k, *values = row.split(",")
        assert int(k) == degree and len(values) == 4, row
        assert all(math.isfinite(float(value)) for value in values), row


# any JSON value: a scalar, with the extreme integers, or a list or an
# object of them
_JSON_SCALAR = (
    st.none() | st.booleans() | st.integers() | _ANY_FLOAT | st.text(max_size=6)
    | st.sampled_from([2**63, -2**63 - 1, 10**400, -10**400])
)
_JSON = (
    _JSON_SCALAR
    | st.lists(_JSON_SCALAR, max_size=3)
    | st.dictionaries(st.text(max_size=6), _JSON_SCALAR, max_size=3)
)
# the integer grid values are capped, so that no config allocates more than
# a few MB
_GRID_CAPS = {"radial_points": 32, "angular_modes": 16, "levels": 3}


def _unknown_keys(keys):
    return st.dictionaries(
        st.text(max_size=8).filter(lambda key: key not in keys), _JSON, min_size=1, max_size=2
    )


_ANY_MODE = st.builds(
    lambda record, unknown: {**record, **unknown},
    st.fixed_dictionaries({}, optional=dict.fromkeys(sorted(pde_oracle._MODE_KEYS), _JSON)),
    st.just({}) | _unknown_keys(pde_oracle._MODE_KEYS),
)
_RUNNABLE_MODE = st.fixed_dictionaries(
    {"degree": st.integers(1, 4)},
    optional={
        "order": st.integers(1, 2),
        "alpha_in": st.floats(-0.5, 0.5),
        "alpha_out": st.floats(-0.5, 0.5),
    },
)
_RUNNABLE_CONFIG = st.fixed_dictionaries(
    {
        "radius": st.floats(0.2, 0.8),
        "sigma": st.floats(0.1, 10.0),
        "radial_points": st.integers(4, _GRID_CAPS["radial_points"]),
        "angular_modes": st.sampled_from([4, 8, 12, 16]),
    },
    optional={
        "dim": st.just(2),
        "modes": st.lists(
            _RUNNABLE_MODE,
            max_size=2,
            unique_by=lambda mode: (mode["degree"], mode.get("order", 1)),
        ),
        "t0": st.floats(1e-3, 0.1),
        "levels": st.integers(1, _GRID_CAPS["levels"]),
    },
)
# any JSON value for any schema key, an integer grid value under its cap
_NOT_AN_INTEGER = _JSON.filter(lambda value: type(value) is not int)
_ANY_VALUES = st.fixed_dictionaries(
    {},
    optional={
        **dict.fromkeys(sorted(pde_oracle._CONFIG_KEYS), _JSON),
        **{key: st.integers(max_value=cap) | _NOT_AN_INTEGER for key, cap in _GRID_CAPS.items()},
        "modes": st.lists(_ANY_MODE | _JSON, max_size=3) | _JSON,
    },
)


def _config(runnable, values, dropped, unknown):
    """A runnable config with any JSON values in place of some of its keys,
    its required radius or sigma dropped, and unknown keys added; the grid
    keys stay, so that no config runs on the default 512x64 grid."""
    config = {**runnable, **values, **unknown}
    return {key: value for key, value in config.items() if key not in dropped}


# about a third of the examples reach exit 0
_ORACLE_CONFIG = st.builds(
    _config,
    _RUNNABLE_CONFIG,
    st.just({}) | _ANY_VALUES,
    st.just(frozenset()) | st.frozensets(st.sampled_from(["radius", "sigma"]), min_size=1),
    st.just({}) | _unknown_keys(pde_oracle._CONFIG_KEYS),
)


@settings(max_examples=500, deadline=None)
@given(config=_ORACLE_CONFIG)
# an integer radius past the float range raised OverflowError
@example(config={"radius": 10**400, "sigma": 2.0, "radial_points": 16, "angular_modes": 8})
def test_every_oracle_config_is_answered(tmp_path_factory, config):
    # json.dumps writes NaN and Infinity literals, which json.load reads
    path = tmp_path_factory.getbasetemp() / "any-oracle-config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    code, out = _answered(["oracle", "--config", str(path)])
    if code == 0:
        json.loads(out, parse_constant=_reject_constant)


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
    assert document["t_samples"] == [0.0] and len(document["energies"]) == 1
    assert "d1" in document and "d2" in document


def test_oracle_document_is_strict_json(tmp_path, capsys):
    config = {"radius": 0.5, "sigma": 2.0, "levels": 1, "radial_points": 16, "angular_modes": 8}
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    code, out, _ = run_cli(capsys, ["oracle", "--config", str(path)])
    assert code == 0

    def reject(constant):
        raise ValueError(f"non-finite constant {constant} in the document")

    document = json.loads(out, parse_constant=reject)
    assert set(document) == {
        "params", "modes", "exact_area", "radial_points", "angular_modes",
        "t_samples", "energies", "d1", "d2",
    }


@pytest.mark.parametrize("radius, sigma", [(0.5, 0.5), (0.3, 0.2)])
def test_classify_witnesses_run_as_oracle_configs(tmp_path, capsys, radius, sigma):
    # a witness document is an oracle modes list; d2 takes the witness's sign
    code, out, _ = run_cli(
        capsys,
        ["classify", "--dim", "2", "--radius", str(radius), "--sigma", str(sigma), "--kmax", "10"],
    )
    assert code == 0
    document = json.loads(out)
    for label, sign in (("witness_positive", 1.0), ("witness_negative", -1.0)):
        config = {
            "radius": radius,
            "sigma": sigma,
            "radial_points": 64,
            "angular_modes": 16,
            **document[label],
        }
        path = tmp_path / f"{label}.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        code, out, err = run_cli(capsys, ["oracle", "--config", str(path)])
        assert (code, err) == (0, ""), label
        assert sign * json.loads(out)["d2"] > 0.0, label


def test_oracle_skips_modes_with_zero_coefficients(tmp_path, capsys):
    # a degree-40 record with both coefficients zero moves neither boundary,
    # so 16 angular modes, which resolve degrees below 8 only, suffice
    config = {
        "radius": 0.5,
        "sigma": 2.0,
        "modes": [{"degree": 40, "alpha_in": 0.0, "alpha_out": 0.0}],
        "levels": 1,
        "radial_points": 32,
        "angular_modes": 16,
    }
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    code, out, _ = run_cli(capsys, ["oracle", "--config", str(path)])
    assert code == 0
    document = json.loads(out)
    assert document["modes"] == [
        {"degree": 40, "order": 1, "alpha_in": 0.0, "alpha_out": 0.0}
    ]
    assert len(set(document["energies"])) == 1


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
        ('"sigma": 2.0, "modes": [{"degree": 2, "alpha_in": NaN}]', "alpha_in must be finite"),
        (
            '"sigma": 2.0, "modes": [{"degree": 2, "alpha_out": Infinity}]',
            "alpha_out must be finite",
        ),
    ):
        path.write_text(f'{{"radius": 0.5, {entries}}}', encoding="utf-8")
        code, _, err = run_cli(capsys, ["oracle", "--config", str(path)])
        assert code == 2
        assert err == f"invalid oracle config: {message}\n"


@pytest.mark.parametrize(
    "overrides, message",
    [
        # SolveError: a chain solve that returns NaN, so d2 is not finite;
        # a run solves one chain per moving degree, here degree 2
        (
            {"cho_solve": lambda d, e, b, **_: (b * math.nan, 0),
             "modes": [{"degree": 2, "alpha_in": 1.0}]},
            "energy is not finite",
        ),
        # SolveError: LAPACK reports that a degree's chain factorization
        # failed, which the scan behind SIGMA_CEILING saw only above it
        (
            {"cho_factor": lambda d, e, **_: (d, e, 1), "modes": [{"degree": 2, "alpha_in": 1.0}]},
            "block factorization failed",
        ),
        # SolveError: the square of the outer radius' t-coefficient, 4e199,
        # overflows in the second-order terms
        (
            {"modes": [{"degree": 0, "alpha_out": 1e200}], "exact_area": False},
            "energy is not finite",
        ),
        # InterfaceOrderingError: g^2 overflows, and the NaN radii it makes
        # passed the ordering checks to end in a non-finite energy
        ({"modes": [{"degree": 1, "alpha_in": 1e200}]}, "perturbed radius is not finite"),
        # and the linear radii's g overflows to inf, so 0 g is NaN even at t = 0
        (
            {
                "modes": [{"degree": k, "alpha_out": 1.79e308} for k in (0, 1, 2)],
                "exact_area": False,
            },
            "perturbed radius is not finite",
        ),
    ],
)
def test_oracle_reports_solver_failures(tmp_path, capsys, monkeypatch, overrides, message):
    config = {"radius": 0.5, "sigma": 2.0, "radial_points": 16, "angular_modes": 8}
    for key, value in overrides.items():
        if callable(value):  # a pde_oracle function replaced by a failing one
            monkeypatch.setattr(pde_oracle, key, value)
        else:
            config[key] = value
    path = tmp_path / "failing.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    code, out, err = run_cli(capsys, ["oracle", "--config", str(path)])
    assert code == 2
    assert out == ""
    assert err == f"oracle failed: {message}\n"


def test_an_outer_speed_of_1e100_is_answered(tmp_path, capsys):
    # the energy of this outer circle at t = 0.01, of order rho^4 = 1e388,
    # overflows, but its derivatives at t = 0 are 1e100 and 1e200 times
    # those of unit speed, as the radius is 1 + t alpha_out/sqrt(2 pi)
    documents = []
    for alpha in (1.0, 1e100):
        config = {
            "radius": 0.5, "sigma": 2.0, "modes": [{"degree": 0, "alpha_out": alpha}],
            "exact_area": False, "radial_points": 16, "angular_modes": 8,
        }
        path = tmp_path / "fast.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        code, out, _ = run_cli(capsys, ["oracle", "--config", str(path)])
        assert code == 0
        documents.append(json.loads(out))
    unit, fast = documents
    assert fast["energies"] == unit["energies"]
    assert fast["d1"] == pytest.approx(1e100 * unit["d1"], rel=1e-14)
    assert fast["d2"] == pytest.approx(1e200 * unit["d2"], rel=1e-14)


def test_oracle_refuses_sigma_above_its_ceiling(tmp_path, capsys):
    # before sigma had a ceiling this run exited 0 with E(0) = 0.119 for
    # 0.390, and d2 = +0.035 where e_out(2) = -0.516
    config = {
        "radius": 0.3,
        "sigma": 3.2e59,
        "modes": [{"degree": 2, "alpha_out": 1.0}],
        "radial_points": 256,
        "angular_modes": 32,
    }
    path = tmp_path / "stiff.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    code, out, err = run_cli(capsys, ["oracle", "--config", str(path)])
    assert code == 2
    assert out == ""
    assert err == "invalid oracle config: sigma = 3.2e+59 exceeds the oracle's ceiling 1e+12\n"


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
        # exact_area alone decides whether a degree-0 mode is allowed
        ({"allow_mean": True}, "unknown config key 'allow_mean'"),
        ({"modes": {"degree": 2}}, "modes must be a JSON list"),
        ({"modes": [2]}, "mode must be a JSON object"),
        # a perturbation is a modes list alone
        ({"preset": "case-iii"}, "unknown config key 'preset'"),
        (
            {"preset": "case-iii", "modes": [{"degree": 2, "alpha_in": 1.0}]},
            "unknown config key 'preset'",
        ),
        ([0.5, 2.0], "config must be a JSON object"),
        (
            {"modes": [{"degree": 2, "alpha_in": 1.0}, {"degree": 2, "order": 1}]},
            "duplicate mode (degree 2, order 1)",
        ),
        # the area-preserving family holds for mean-free normal speeds only
        (
            {"modes": [{"degree": 0, "alpha_in": 1.0}]},
            "exact_area needs modes of degree >= 1; "
            "set exact_area to false for degree-0 modes",
        ),
        # raw text: json.load keeps the last of two equal keys, and this ran
        # at R = 0.7, sigma = 3 and alpha_in = 5; the mode record closes, and
        # is refused, before the config does
        (
            '{"radius": 0.5, "radius": 0.7, "sigma": 2.0, "sigma": 3.0, '
            '"modes": [{"degree": 2, "alpha_in": 1.0, "alpha_in": 5.0}], '
            '"levels": 1, "radial_points": 16, "angular_modes": 8}',
            "duplicate key 'alpha_in'",
        ),
        (
            '{"radius": 0.5, "radius": 0.7, "sigma": 2.0, "radial_points": 16, "angular_modes": 8}',
            "duplicate key 'radius'",
        ),
    ],
)
def test_oracle_rejects_malformed_configs(tmp_path, capsys, config, message):
    base = {"radius": 0.5, "sigma": 2.0, "radial_points": 16, "angular_modes": 8}
    if isinstance(config, dict):
        config = {**base, **config}
    path = tmp_path / "malformed.json"
    # a string is the config's raw text
    path.write_text(config if isinstance(config, str) else json.dumps(config), encoding="utf-8")
    code, out, err = run_cli(capsys, ["oracle", "--config", str(path)])
    assert code == 2
    assert out == ""
    assert err == f"invalid oracle config: {message}\n"


POINT = ["--dim", "2", "--radius", "0.5", "--sigma", "2"]


COMMANDS = ("classify", "spectrum", "verify", "fidelity", "oracle")


@pytest.mark.parametrize(
    "argv, message",
    [
        ([], "the following arguments are required: command"),
        (
            ["bogus"],
            "argument command: invalid choice: 'bogus' "
            "(choose from 'classify', 'spectrum', 'verify', 'fidelity', 'oracle')",
        ),
        (["classify"], "the following arguments are required: --dim, --radius, --sigma"),
        (["spectrum", "--radius", "0.5"], "the following arguments are required: --dim, --sigma"),
        (["oracle"], "the following arguments are required: --config"),
        (["verify"], "the following arguments are required: suite"),
        (["classify", *POINT, "--kmax"], "argument --kmax: expected one argument"),
        (["verify", "pde", "--out"], "argument --out: expected one argument"),
        (["classify", "--dim", "x", "--radius", "0.5", "--sigma", "2"],
         "argument --dim: invalid int value: 'x'"),
        (["classify", *POINT, "--kmax", "2.5"], "argument --kmax: invalid int value: '2.5'"),
        (["spectrum", "--dim", "2", "--radius", "x", "--sigma", "2"],
         "argument --radius: invalid float value: 'x'"),
        (["spectrum", *POINT, "--path", "bogus"],
         "argument --path: invalid choice: 'bogus' (choose from 'assembled', 'printed')"),
        (
            ["verify", "everything"],
            "argument suite: invalid choice: 'everything' "
            "(choose from 'coefficients', 'monotonicity', 'pde', 'secondvar')",
        ),
        (["classify", *POINT, "--foo"], "unrecognized arguments: --foo"),
        (["classify", *POINT, "--foo", "1"], "unrecognized arguments: --foo 1"),
        (["fidelity", "x"], "unrecognized arguments: x"),
        (["verify", "pde", "pde"], "unrecognized arguments: pde"),
        # a missing flag is named before an unknown one
        (["oracle", "--foo"], "the following arguments are required: --config"),
    ],
)
def test_an_argument_error_is_one_line_in_argparse_wording(capsys, argv, message):
    assert run_cli(capsys, argv) == (2, "", message + "\n")


def _exit_status(capsys, argv) -> tuple[int, str, str]:
    """The status the console script exits with, whether main returns it or
    raises SystemExit, and stdout and stderr."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "argv",
    [[flag] for flag in ("-h", "--help")]
    + [[command, flag] for command in COMMANDS for flag in ("-h", "--help")]
    + [["classify", "--dim", "2", "--help"], ["verify", "pde", "-h"]],
    ids=" ".join,
)
def test_help_exits_0_with_usage_on_stdout(capsys, argv):
    code, out, err = _exit_status(capsys, argv)
    assert (code, err) == (0, "")
    command = argv[0] if argv[0] in COMMANDS else ""
    assert out.startswith(f"usage: twophase-torsion {command}".rstrip() + " ")
    # every flag the command takes is listed
    for flag in {
        "classify": ["--dim", "--radius", "--sigma", "--kmax", "--out"],
        "spectrum": ["--dim", "--radius", "--sigma", "--kmax", "--path", "--out"],
        "verify": ["--out"],
        "fidelity": ["--out"],
        "oracle": ["--config", "--out"],
        "": list(COMMANDS),
    }[command]:
        assert flag in out


_SMALL_ORACLE = {"radius": 0.5, "sigma": 2.0, "radial_points": 16, "angular_modes": 8,
                 "modes": [{"degree": 2, "alpha_in": 1.0}]}


def _spelled(draw, head, flags, decoys):
    """`head` and `flags` in a drawn order: some flags as --flag=value, some
    given first with their decoy value, and a positional anywhere."""
    positional = [] if len(head) == 1 else head[1:]
    argv = []
    for name, value in draw(st.permutations(list(flags.items()))):
        if name in decoys and draw(st.booleans()):  # a repeated flag: the last one wins
            argv += [name, decoys[name]]
        argv += [f"{name}={value}"] if draw(st.booleans()) else [name, value]
    at = draw(st.integers(0, len(argv))) if positional else 0
    while at < len(argv) and argv[at - 1:at] and argv[at - 1] in flags:
        at += 1  # not between a flag and its value
    return [head[0], *argv[:at], *positional, *argv[at:]]


@settings(max_examples=60, deadline=None)
@given(data=st.data(), command=st.sampled_from(COMMANDS), radius=st.sampled_from(["0.5", "1.5"]))
def test_every_spelling_of_an_argv_has_its_output(tmp_path_factory, data, command, radius):
    work = tmp_path_factory.getbasetemp()
    config = work / "spelled-oracle.json"
    config.write_text(json.dumps({**_SMALL_ORACLE, "radius": float(radius)}), encoding="utf-8")
    decoys = {"--dim": "3", "--radius": "0.25", "--sigma": "0.5", "--kmax": "3",
              "--path": "printed", "--out": str(work / "decoy.txt"),
              "--config": str(work / "missing.json")}
    head, flags = {
        "classify": (["classify"], {"--dim": "2", "--radius": radius, "--sigma": "2",
                                    "--kmax": "6"}),
        "spectrum": (["spectrum"], {"--dim": "3", "--radius": radius, "--sigma": "0.5",
                                    "--kmax": "5", "--path": "assembled"}),
        "verify": (["verify", "monotonicity"], {"--out": str(work / "spelled.txt")}),
        "fidelity": (["fidelity"], {}),
        "oracle": (["oracle"], {"--config": str(config)}),
    }[command]
    canonical = [*head, *chain.from_iterable(flags.items())]
    argv = _spelled(data.draw, head, flags, decoys)
    assert _answered(argv) == _answered(canonical)


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", *POINT],
        ["spectrum", *POINT],
        ["fidelity"],
        ["verify", "monotonicity"],
        ["oracle"],
    ],
    ids=["classify", "spectrum", "fidelity", "verify", "oracle"],
)
def test_unwritable_output_is_diagnosed(tmp_path, capsys, argv):
    if argv == ["oracle"]:
        config = tmp_path / "run.json"
        config.write_text(
            json.dumps({"radius": 0.5, "sigma": 2.0, "levels": 1,
                        "radial_points": 16, "angular_modes": 8}),
            encoding="utf-8",
        )
        argv = ["oracle", "--config", str(config)]
    target = tmp_path / "missing" / "out.txt"
    code, out, err = run_cli(capsys, [*argv, "--out", str(target)])
    assert code == 2
    assert out == ""
    assert err.startswith("cannot write output: ")
    assert len(err.splitlines()) == 1
    assert not target.exists()


@pytest.mark.parametrize(
    "argv",
    [["classify", *POINT], ["spectrum", *POINT], ["fidelity"], ["verify", "monotonicity"],
     ["oracle"]],
    ids=["classify", "spectrum", "fidelity", "verify", "oracle"],
)
def test_a_short_write_still_writes_the_whole_output(tmp_path, capsys, monkeypatch, argv):
    if argv == ["oracle"]:
        config = tmp_path / "run.json"
        config.write_text(json.dumps(_SMALL_ORACLE), encoding="utf-8")
        argv = ["oracle", "--config", str(config)]
    code, out, err = run_cli(capsys, argv)
    assert (code, err) == (0, "")
    write = os.write
    # a file system that takes at most 7 bytes per call
    monkeypatch.setattr(os, "write", lambda fd, data: write(fd, bytes(data[:7])))
    target = tmp_path / "out.txt"
    code, printed, err = run_cli(capsys, [*argv, "--out", str(target)])
    assert (code, err) == (0, "")
    assert printed == (out if argv[0] == "verify" else "")
    assert target.read_bytes() == out.encode("utf-8")


# runs the command line in a process whose address space is capped at 4 GiB
CAPPED_CLI = (
    "import resource, runpy, sys; "
    "resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30)); "
    "sys.argv[0] = 'twophase-torsion'; "
    "runpy.run_module('twophase_torsion.cli', run_name='__main__')"
)


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", *POINT, "--kmax", "1000000000000000"],
        ["spectrum", *POINT, "--kmax", "1000000000000000", "--path", "printed"],
        ["oracle"],
    ],
    ids=["classify", "spectrum-printed", "oracle"],
)
def test_infeasible_sizes_are_diagnosed(tmp_path, argv):
    if argv == ["oracle"]:
        config = tmp_path / "huge.json"
        config.write_text(
            json.dumps({"radius": 0.5, "sigma": 2.0, "radial_points": 10**15}),
            encoding="utf-8",
        )
        argv = ["oracle", "--config", str(config)]
    paths = [str(Path(twophase_torsion.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    process = subprocess.run(
        [sys.executable, "-c", CAPPED_CLI, *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert process.returncode == 2
    assert process.stdout == ""
    assert process.stderr.startswith("out of memory")
    assert len(process.stderr.splitlines()) == 1
