"""Command-line surface.

Commands:
  classify   print the stability verdict document for (dim, radius, sigma)
  spectrum   print the per-degree quadratic-form coefficients as CSV
  verify     run one property suite and report pass/fail per check
  fidelity   print the printed-vs-independent formula comparison report
  oracle     run the finite-difference energy oracle from a JSON config

Each command takes the arguments of its row in `_COMMANDS`.  A flag is
given by its exact name, as `--flag value` or `--flag=value`, in any order;
the token after a flag is always its value, so `--radius -1e-05` is a
radius, and a repeated flag keeps its last value.  `-h` or `--help`, alone
or after a command, prints usage on stdout and exits 0.  Every error path
exits 2 with a single-line diagnostic on stderr; argument errors read as
argparse's do, such as `argument --dim: invalid int value: 'x'`.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
from itertools import chain, repeat
from typing import Callable, NamedTuple, Optional, Sequence

from .params import ProblemParams
from .reporting import SUITES, build_fidelity_report, emit_spectrum_csv
from .second_variation import SpectrumPath, TransmissionSolveError
from .stability import classify


class CliError(Exception):
    """Raised for any argument or input problem; message is the diagnostic."""


def _write_file(text: str, path: str) -> None:
    data = memoryview(text.encode("utf-8"))
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
        try:
            while data:  # a write may take fewer bytes than it is given
                data = data[os.write(fd, data):]
        finally:
            os.close(fd)
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


# exactly these: json.dumps writes a bool as true or false, and an int or a
# float subclass through its own int or float repr
_NUMBER_TYPES = frozenset((int, float))


def _number_rows(items) -> Optional[tuple]:
    """The values of `items` in order, where every item is a dict with the
    first one's keys in the same order and every value a finite float or an
    int in float range; else None."""
    if set(map(type, items)) != {dict} or len(set(map(tuple, items))) != 1:
        return None
    values = tuple(chain.from_iterable(map(dict.values, items)))
    if not values or not set(map(type, values)) <= _NUMBER_TYPES:
        return None
    try:
        return values if all(map(math.isfinite, values)) else None
    except OverflowError:  # an int past float range
        return None


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
    values = _number_rows(value)
    if values is not None:
        # one template for the list: %r is the repr json.dumps writes
        record = _INDENT * (depth + 2)
        fields = f",\n{record}".join(_key(key).replace("%", "%%") + ": %r" for key in value[0])
        rows = f",\n{inner}".join(repeat(f"{{\n{record}{fields}\n{inner}}}", len(value)))
        return f"[\n{inner}{rows % values}\n{pad}]"
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
    scalars, and each list of flat records, is one call of the C encoder,
    whose item separator carries the indentation; a list of numeric records
    with one key order, such as `mode_table`, is one `%` template.
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


def _cmd_classify(dim: int, radius: float, sigma: float, kmax: int, out: Optional[str]) -> int:
    verdict = classify(ProblemParams(dim, radius, sigma), kmax)
    _write_output(_json_text(verdict.to_document()), out)
    return 0


def _cmd_spectrum(
    dim: int, radius: float, sigma: float, kmax: int, out: Optional[str], path: str
) -> int:
    params = ProblemParams(dim, radius, sigma)
    _write_output(emit_spectrum_csv(params, kmax, SpectrumPath(path)), out)
    return 0


def _cmd_verify(suite: str, out: Optional[str]) -> int:
    checks = SUITES[suite]()
    lines = []
    for check in checks:
        status = "PASS" if check.passed else "FAIL"
        suffix = f" ({check.detail})" if check.detail else ""
        lines.append(f"{status}: {check.name}{suffix}")
    failed = sum(1 for check in checks if not check.passed)
    lines.append(f"{suite}: {len(checks) - failed} passed, {failed} failed")
    text = "\n".join(lines) + "\n"
    if out is not None:
        _write_file(text, out)
    sys.stdout.write(text)
    return 0 if failed == 0 else 1


def _cmd_fidelity(out: Optional[str]) -> int:
    _write_output(_json_text(build_fidelity_report()), out)
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


def _cmd_oracle(config: str, out: Optional[str]) -> int:
    from .pde_oracle import InterfaceOrderingError, SolveError, run_from_config
    try:
        with open(config, "r", encoding="utf-8") as handle:
            document = json.load(handle, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise CliError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliError(f"config is not valid JSON: {exc}") from exc
    try:
        run = run_from_config(document)
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(f"invalid oracle config: {exc}") from exc
    except (InterfaceOrderingError, SolveError) as exc:
        raise CliError(f"oracle failed: {exc}") from exc
    _write_output(_json_text(run.to_document()), out)
    return 0


class _Arg(NamedTuple):
    """One argument of a command: `--name` is a flag that takes a value, and
    a name without dashes is the command's one positional argument."""

    help: str
    type: Callable[[str], object] = str
    default: object = None
    required: bool = False
    choices: tuple = ()


class _Command(NamedTuple):
    help: str
    run: Callable[..., int]  # called with each argument by its name without dashes
    args: dict[str, _Arg]


_OUT = _Arg("write output to this file instead of stdout")


def _point_args(kmax: int) -> dict[str, _Arg]:
    return {
        "--dim": _Arg("space dimension N >= 2", int, required=True),
        "--radius": _Arg("core radius R in (0,1)", float, required=True),
        "--sigma": _Arg("core conductivity, positive", float, required=True),
        "--kmax": _Arg("largest harmonic degree", int, kmax),
        "--out": _OUT,
    }


_COMMANDS = {
    "classify": _Command("classify the radial configuration", _cmd_classify, _point_args(30)),
    "spectrum": _Command(
        "emit per-degree quadratic-form coefficients as CSV",
        _cmd_spectrum,
        {
            **_point_args(50),
            "--path": _Arg(
                "computation path for the coefficients",
                default=SpectrumPath.ASSEMBLED.value,
                choices=tuple(path.value for path in SpectrumPath),
            ),
        },
    ),
    "verify": _Command(
        "run one property suite",
        _cmd_verify,
        {
            "suite": _Arg(
                "which property suite to run", required=True, choices=tuple(sorted(SUITES))
            ),
            "--out": _Arg("write the report to this file as well"),
        },
    ),
    "fidelity": _Command(
        "compare printed formulas against independent computation", _cmd_fidelity, {"--out": _OUT}
    ),
    "oracle": _Command(
        "run the finite-difference energy oracle from a config file",
        _cmd_oracle,
        {"--config": _Arg("JSON configuration file", required=True), "--out": _OUT},
    ),
}
_PROG = "twophase-torsion"
_HELP = ("-h", "--help")


def _invalid_choice(name: str, text: str, choices) -> CliError:
    listed = ", ".join(map(repr, choices))
    return CliError(f"argument {name}: invalid choice: {text!r} (choose from {listed})")


def _value(name: str, arg: _Arg, text: str):
    try:
        value = arg.type(text)
    except ValueError:
        raise CliError(f"argument {name}: invalid {arg.type.__name__} value: {text!r}") from None
    if arg.choices and value not in arg.choices:
        raise _invalid_choice(name, text, arg.choices)
    return value


def _parse(argv: Sequence[str]) -> tuple[str, Optional[dict]]:
    """The command and its arguments by name, each parsed, or None for the
    arguments where argv asks for the command's help."""
    if not argv:
        raise CliError("the following arguments are required: command")
    command, *tokens = argv
    if command in _HELP:
        return "", None
    if command not in _COMMANDS:
        raise _invalid_choice("command", command, _COMMANDS)
    specs = _COMMANDS[command].args
    positional = next((name for name in specs if not name.startswith("-")), None)
    given, unrecognized = {}, []
    tokens = iter(tokens)
    for token in tokens:
        if token in _HELP:
            return command, None
        name, equals, text = token.partition("=")
        if name.startswith("--") and name in specs:
            if not equals:
                text = next(tokens, None)
                if text is None:
                    raise CliError(f"argument {name}: expected one argument")
        elif token.startswith("-") or positional is None or positional in given:
            unrecognized.append(token)
            continue
        else:
            name, text = positional, token
        given[name] = _value(name, specs[name], text)
    missing = [name for name, arg in specs.items() if arg.required and name not in given]
    if missing:
        raise CliError(f"the following arguments are required: {', '.join(missing)}")
    if unrecognized:
        raise CliError(f"unrecognized arguments: {' '.join(unrecognized)}")
    return command, {name.lstrip("-"): given.get(name, arg.default) for name, arg in specs.items()}


def _usage(command: str) -> str:
    """The help text of a command, or of the program for ''."""
    if not command:
        rows = {name: spec.help for name, spec in _COMMANDS.items()}
        head = f"usage: {_PROG} {{{','.join(_COMMANDS)}}} ...\n\ncommands:\n"
        tail = f"\nEach command takes {' or '.join(_HELP)} for its own arguments.\n"
    else:
        spec, rows, usage = _COMMANDS[command], {}, []
        for name, arg in spec.args.items():
            value = f"{{{','.join(arg.choices)}}}" if arg.choices else name.lstrip("-").upper()
            form = f"{name} {value}" if name.startswith("-") else value
            usage.append(form if arg.required else f"[{form}]")
            rows[form] = arg.help if arg.default is None else f"{arg.help} (default {arg.default})"
        head = f"usage: {_PROG} {command} {' '.join(usage)}\n\n{spec.help}\n\narguments:\n"
        tail = ""
    width = max(map(len, rows))
    return head + "".join(f"  {name:<{width}}  {text}\n" for name, text in rows.items()) + tail


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        command, args = _parse(sys.argv[1:] if argv is None else argv)
        if args is None:
            sys.stdout.write(_usage(command))
            return 0
        return _COMMANDS[command].run(**args)
    # OverflowError: an integer past float range, which Python's int carries
    except (CliError, ValueError, OverflowError, TransmissionSolveError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"out of memory: {exc}" if str(exc) else "out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
