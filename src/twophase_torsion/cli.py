"""Command-line surface.

Commands:
  classify   print the stability verdict document for (dim, radius, sigma)
  spectrum   print the per-degree quadratic-form coefficients as CSV
  verify     run one property suite and report pass/fail per check
  fidelity   print the printed-vs-independent formula comparison report
  oracle     run the finite-difference energy oracle from a JSON config

Every error path exits nonzero with a single-line diagnostic on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from .params import ProblemParams
from .pde_oracle import InterfaceOrderingError, SolveError, run_from_config
from .reporting import SUITES, build_fidelity_report, emit_spectrum_csv
from .second_variation import SpectrumPath
from .stability import classify


class CliError(Exception):
    """Raised for any argument or input problem; message is the diagnostic."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # single-line diagnostics
        raise CliError(message)


def _write_output(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)


def _json_text(document: dict) -> str:
    return json.dumps(document, indent=2, allow_nan=False) + "\n"


def _add_param_flags(parser: argparse.ArgumentParser, kmax_default: int) -> None:
    parser.add_argument("--dim", type=int, required=True, help="space dimension N >= 2")
    parser.add_argument("--radius", type=float, required=True, help="core radius R in (0,1)")
    parser.add_argument("--sigma", type=float, required=True, help="core conductivity, positive")
    parser.add_argument("--kmax", type=int, default=kmax_default, help="largest harmonic degree")
    parser.add_argument("--out", help="write output to this file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="twophase-torsion")
    commands = parser.add_subparsers(dest="command", required=True)

    classify_parser = commands.add_parser(
        "classify", help="classify the radial configuration"
    )
    _add_param_flags(classify_parser, kmax_default=30)

    spectrum_parser = commands.add_parser(
        "spectrum", help="emit per-degree quadratic-form coefficients as CSV"
    )
    _add_param_flags(spectrum_parser, kmax_default=50)
    spectrum_parser.add_argument(
        "--path",
        choices=("assembled", "printed"),
        default="assembled",
        help="computation path for the coefficients",
    )

    verify_parser = commands.add_parser("verify", help="run one property suite")
    verify_parser.add_argument(
        "suite", choices=sorted(SUITES), help="which property suite to run"
    )
    verify_parser.add_argument("--out", help="write the report to this file as well")

    fidelity_parser = commands.add_parser(
        "fidelity", help="compare printed formulas against independent computation"
    )
    fidelity_parser.add_argument("--out", help="write output to this file instead of stdout")

    oracle_parser = commands.add_parser(
        "oracle", help="run the finite-difference energy oracle from a config file"
    )
    oracle_parser.add_argument("--config", required=True, help="JSON configuration file")
    oracle_parser.add_argument("--out", help="write output to this file instead of stdout")

    return parser


def _cmd_classify(args: argparse.Namespace) -> int:
    params = ProblemParams(args.dim, args.radius, args.sigma)
    verdict = classify(params, args.kmax)
    _write_output(_json_text(verdict.to_document()), args.out)
    return 0


def _cmd_spectrum(args: argparse.Namespace) -> int:
    params = ProblemParams(args.dim, args.radius, args.sigma)
    path = SpectrumPath.ASSEMBLED if args.path == "assembled" else SpectrumPath.PRINTED
    _write_output(emit_spectrum_csv(params, args.kmax, path), args.out)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    checks = SUITES[args.suite]()
    lines = []
    for check in checks:
        status = "PASS" if check.passed else "FAIL"
        suffix = f" ({check.detail})" if check.detail else ""
        lines.append(f"{status}: {check.name}{suffix}")
    failed = sum(1 for check in checks if not check.passed)
    lines.append(f"{args.suite}: {len(checks) - failed} passed, {failed} failed")
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    return 0 if failed == 0 else 1


def _cmd_fidelity(args: argparse.Namespace) -> int:
    report = build_fidelity_report()
    _write_output(_json_text(report.to_document()), args.out)
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    try:
        with open(args.config, "r", encoding="utf-8") as handle:
            config = json.load(handle)
    except OSError as exc:
        raise CliError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliError(f"config is not valid JSON: {exc}") from exc
    try:
        run = run_from_config(config)
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(f"invalid oracle config: {exc}") from exc
    except (InterfaceOrderingError, SolveError) as exc:
        raise CliError(f"oracle failed: {exc}") from exc
    _write_output(_json_text(run.to_document()), args.out)
    return 0


_DISPATCH = {
    "classify": _cmd_classify,
    "spectrum": _cmd_spectrum,
    "verify": _cmd_verify,
    "fidelity": _cmd_fidelity,
    "oracle": _cmd_oracle,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _DISPATCH[args.command](args)
    except (CliError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
