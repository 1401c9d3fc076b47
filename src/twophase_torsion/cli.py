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
import functools
import json
import math
import re
import sys
from itertools import chain, repeat
from typing import Optional, Sequence

from .params import ProblemParams
from .reporting import SUITES, build_fidelity_report, emit_spectrum_csv
from .second_variation import SpectrumPath, TransmissionSolveError
from .stability import classify


class CliError(Exception):
    """Raised for any argument or input problem; message is the diagnostic."""


class _Parser(argparse.ArgumentParser):
    # every negative float literal is a value, not an option string:
    # argparse's own pattern misses -1e-05 and -inf, so --radius -1e-05 got
    # "expected one argument" in place of the radius's own diagnostic
    _NEGATIVE_NUMBER = re.compile(
        r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-(inf|infinity|nan)$", re.IGNORECASE
    )

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = self._NEGATIVE_NUMBER  # subparsers share the class

    def error(self, message: str) -> None:  # single-line diagnostics
        raise CliError(message)


def _write_file(text: str, path: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise CliError(f"cannot write output: {exc}") from exc


def _write_output(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        _write_file(text, out)


_INDENT = "  "


@functools.cache  # one per depth, and depth is bounded by the recursion limit
def _encoder(depth: int) -> json.JSONEncoder:
    """The C encoder, writing each item on its own line at `depth` indents."""
    return json.JSONEncoder(allow_nan=False, separators=(",\n" + _INDENT * depth, ": "))


_CONTAINERS = (dict, list, tuple)


def _any_container(values) -> bool:
    return any(map(isinstance, values, repeat(_CONTAINERS)))


def _are_records(items) -> bool:
    """Whether every item is a non-empty dict of scalars, as in `mode_table`."""
    return (
        all(map(isinstance, items, repeat(dict)))
        and all(items)
        and not _any_container(chain.from_iterable(map(dict.values, items)))
    )


def _key(key) -> str:
    if isinstance(key, str):
        return _encoder(0).encode(key)
    # json.dumps's rules for int, float, bool and None keys, and its refusals
    return _encoder(0).encode({key: None})[1:-7]


def _json_value(value, depth: int) -> str:
    if not isinstance(value, _CONTAINERS):
        return _encoder(depth).encode(value)
    if not value:
        return "{}" if isinstance(value, dict) else "[]"
    pad, inner = _INDENT * depth, _INDENT * (depth + 1)
    is_dict = isinstance(value, dict)
    if not _any_container(value.values() if is_dict else value):
        text = _encoder(depth + 1).encode(value)
        return f"{text[0]}\n{inner}{text[1:-1]}\n{pad}{text[-1]}"
    if is_dict:
        items = (f"{_key(key)}: {_json_value(item, depth + 1)}" for key, item in value.items())
        return f"{{\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}}}"
    if _are_records(value):
        # A raw newline is only ever a separator (ensure_ascii escapes it in
        # strings), and a flat record closes only where the next one opens.
        record = _INDENT * (depth + 2)
        text = _encoder(depth + 2).encode(value)[2:-2].replace(
            f"}},\n{record}{{", f"\n{inner}}},\n{inner}{{\n{record}"
        )
        return f"[\n{inner}{{\n{record}{text}\n{inner}}}\n{pad}]"
    items = (_json_value(item, depth + 1) for item in value)
    return f"[\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}]"


def _json_text(document: dict) -> str:
    """`json.dumps(document, indent=2, allow_nan=False)` and a newline.

    With an `indent`, CPython's `json.dumps` leaves its C encoder for a
    pure-Python one (`Lib/json/encoder.py`) that costs more than building
    the document.  Here Python walks only the containers: each run of
    scalars, and each list of flat records such as `mode_table`, is one
    call of the C encoder, whose item separator carries the indentation.
    A non-finite float is refused with a ValueError that names its field.
    """
    try:
        return _json_value(document, 0) + "\n"
    except ValueError as exc:
        field = _non_finite_field(document)
        if field is None:
            raise
        raise ValueError(f"document value {field} is not finite") from exc


def _non_finite_field(value, path: str = "") -> Optional[str]:
    """The path, such as `mode_table[5].delta`, of the first non-finite float
    in document order, or None."""
    if isinstance(value, float):
        return None if math.isfinite(value) else path
    if isinstance(value, dict):
        items = ((f"{path}.{key}" if path else str(key), item) for key, item in value.items())
    elif isinstance(value, (list, tuple)):
        items = ((f"{path}[{index}]", item) for index, item in enumerate(value))
    else:
        return None
    return next(filter(None, (_non_finite_field(item, field) for field, item in items)), None)


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
        choices=[path.value for path in SpectrumPath],
        default=SpectrumPath.ASSEMBLED.value,
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


_PARSER = build_parser()  # built once: parsing leaves it unchanged


def _cmd_classify(args: argparse.Namespace) -> int:
    params = ProblemParams(args.dim, args.radius, args.sigma)
    verdict = classify(params, args.kmax)
    _write_output(_json_text(verdict.to_document()), args.out)
    return 0


def _cmd_spectrum(args: argparse.Namespace) -> int:
    params = ProblemParams(args.dim, args.radius, args.sigma)
    _write_output(emit_spectrum_csv(params, args.kmax, SpectrumPath(args.path)), args.out)
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
    if args.out is not None:
        _write_file(text, args.out)
    sys.stdout.write(text)
    return 0 if failed == 0 else 1


def _cmd_fidelity(args: argparse.Namespace) -> int:
    _write_output(_json_text(build_fidelity_report()), args.out)
    return 0


def _unique_keys(pairs: list) -> dict:
    """The object of pairs, as json.load's object_pairs_hook, refusing a
    repeated key: json.load alone keeps the last of them without a word."""
    record = {}
    for key, value in pairs:
        if key in record:
            raise CliError(f"invalid oracle config: duplicate key {key!r}")
        record[key] = value
    return record


def _cmd_oracle(args: argparse.Namespace) -> int:
    from .pde_oracle import InterfaceOrderingError, SolveError, run_from_config
    try:
        with open(args.config, "r", encoding="utf-8") as handle:
            config = json.load(handle, object_pairs_hook=_unique_keys)
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
    try:
        args = _PARSER.parse_args(argv)
        return _DISPATCH[args.command](args)
    # OverflowError: an integer past float range, which Python's int carries
    except (CliError, ValueError, OverflowError, TransmissionSolveError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"out of memory: {exc}" if str(exc) else "out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
