"""Spans around the program's public functions, installed from outside it.

`install` replaces every public function of every `twophase_torsion` module,
and the scipy `cho_factor`/`cho_solve` that `pde_oracle` imports, by a
wrapper that counts its calls and records a span (name, start, end, parent)
in memory.  The small helpers in COUNTED_ONLY are called up to 12000
times per operation; they are counted but get no span, so their time is part
of their caller's self time.  Every reference the package holds is replaced:
module globals, names imported into other modules, and dict values such as
`reporting.SUITES`.  Each benchmark operation is a root span `bench.op`.
`save` writes the spans when the run ends; `layer_metrics` turns them into
per-operation means.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import pkgutil
import time
from array import array

import numpy as np

PACKAGE = "twophase_torsion"
OP = "bench.op"
# The function whose distinct arguments per operation give transmission.distinct_share.
KEYED = "transmission.solve_mode_oracle"
COUNTED_ONLY = frozenset(
    {
        "exact_state.sphere_area",
        "exact_state.traces",
        "params.multiplicity",
        "params.validate",
        "second_variation.factored_discriminant",
        "second_variation.g_factor",
        "second_variation.spectrum",
        "tolerances.close",
        "tolerances.rel_deviation",
        "transmission.denom_F",
    }
)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.calls: list[int] = []  # per name id, spanned or not
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.shares = array("d")  # distinct/calls of KEYED, one per op that called it
        self._stack = [-1]
        self._keyed_args: set = set()
        self._keyed_calls = 0

    def _id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
            self.calls.append(0)
        return self.names.index(name)

    def wrap(self, name: str, func):
        name_id, parent, start, end, stack = self.name_id, self.parent, self.start, self.end, self._stack
        nid, clock, keyed, calls = self._id(name), time.perf_counter, name == KEYED, self.calls

        if name in COUNTED_ONLY:

            @functools.wraps(func)
            def counted(*args, **kwargs):
                calls[nid] += 1
                return func(*args, **kwargs)

            return counted

        @functools.wraps(func)
        def traced(*args, **kwargs):
            calls[nid] += 1
            index = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            if keyed:
                self._keyed_args.add(args + tuple(sorted(kwargs.items())))
                self._keyed_calls += 1
            stack.append(index)
            start.append(clock())
            try:
                return func(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()

        return traced

    @contextlib.contextmanager
    def op(self):
        """Root span of one benchmark operation."""
        self._keyed_args, self._keyed_calls = set(), 0
        index = len(self.start)
        self.name_id.append(self._id(OP))
        self.calls[self.name_id[-1]] += 1
        self.parent.append(-1)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        try:
            yield
        finally:
            self.end[index] = time.perf_counter()
            self._stack.pop()
            if self._keyed_calls:
                self.shares.append(len(self._keyed_args) / self._keyed_calls)

    def clear(self) -> None:
        """Drop the recorded spans; the wrappers keep recording into the same buffers."""
        for buf in (self.name_id, self.parent, self.start, self.end, self.shares):
            del buf[:]
        self.calls[:] = [0] * len(self.calls)

    def nbytes(self) -> int:
        return sum(buf.itemsize * buf.buffer_info()[1] for buf in (self.name_id, self.parent, self.start, self.end))

    def save(self, path, compressed: bool = True) -> None:
        (np.savez_compressed if compressed else np.savez)(
            path,
            names=np.array(self.names),
            calls=np.array(self.calls, dtype=np.int64),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            shares=np.frombuffer(self.shares),
        )

    def merge(self, path) -> None:
        """Append the spans another process saved (a forked operation)."""
        with np.load(path) as data:
            offset = len(self.start)
            remap = [self._id(str(name)) for name in data["names"]]
            for nid, count in zip(remap, data["calls"]):
                self.calls[nid] += int(count)
            self.name_id.extend(int(remap[i]) for i in data["name_id"])
            self.parent.extend(int(p) + offset if p >= 0 else -1 for p in data["parent"])
            self.start.extend(data["start"].tolist())
            self.end.extend(data["end"].tolist())
            self.shares.extend(data["shares"].tolist())


def install(tracer: Tracer) -> None:
    package = importlib.import_module(PACKAGE)
    modules = [package] + [
        importlib.import_module(f"{PACKAGE}.{info.name}") for info in pkgutil.iter_modules(package.__path__)
    ]
    wrappers = {}
    for module in modules:
        short = module.__name__.rpartition(".")[2]
        for attr, obj in vars(module).items():
            defined_here = getattr(obj, "__module__", None) == module.__name__
            if defined_here and callable(obj) and not isinstance(obj, type) and not attr.startswith("_"):
                wrappers[id(obj)] = (obj, tracer.wrap(f"{short}.{attr}", obj))
    oracle = importlib.import_module(f"{PACKAGE}.pde_oracle")
    for attr in ("cho_factor", "cho_solve"):
        obj = getattr(oracle, attr)
        wrappers[id(obj)] = (obj, tracer.wrap(f"pde_oracle.{attr}", obj))

    def replacement(obj):
        found = wrappers.get(id(obj))
        return found[1] if found is not None and found[0] is obj else None

    for module in modules:
        for attr, obj in list(vars(module).items()):
            if replacement(obj) is not None:
                setattr(module, attr, replacement(obj))
            elif isinstance(obj, dict):
                for key, value in list(obj.items()):
                    if replacement(value) is not None:
                        obj[key] = replacement(value)


# (metric, unit, better, how, span): how is "total" (inclusive time), "self"
# (time minus wrapped callees), "calls", or "module_self" (self time of every
# span whose name starts with the given module).  All are per-operation means.
LAYER_METRICS = (
    ("cli.self_ms", "ms", "lower", "self", "cli.main"),
    ("stability.classify_ms", "ms", "lower", "total", "stability.classify"),
    ("stability.self_ms", "ms", "lower", "module_self", "stability."),
    ("second_variation.assemble_spectrum_calls", "count", "lower", "calls", "second_variation.assemble_spectrum"),
    ("second_variation.assemble_spectrum_ms", "ms", "lower", "total", "second_variation.assemble_spectrum"),
    ("second_variation.resonance_analysis_calls", "count", "lower", "calls", "second_variation.resonance_analysis"),
    ("second_variation.resonance_analysis_ms", "ms", "lower", "total", "second_variation.resonance_analysis"),
    ("second_variation.monotonicity_functions_ms", "ms", "lower", "total", "second_variation.monotonicity_functions"),
    ("transmission.solve_mode_oracle_calls", "count", "lower", "calls", KEYED),
    ("transmission.solve_mode_oracle_ms", "ms", "lower", "total", KEYED),
    ("transmission.closed_form_mode_ms", "ms", "lower", "total", "transmission.closed_form_mode"),
    ("exact_state.traces_calls", "count", "lower", "calls", "exact_state.traces"),
    ("pde_oracle.differentiate_energy_ms", "ms", "lower", "total", "pde_oracle.differentiate_energy"),
    ("pde_oracle.solve_energy_calls", "count", "lower", "calls", "pde_oracle.solve_energy"),
    ("pde_oracle.solve_energy_ms", "ms", "lower", "total", "pde_oracle.solve_energy"),
    ("pde_oracle.assembly_ms", "ms", "lower", "self", "pde_oracle.solve_energy"),
    ("pde_oracle.cho_factor_calls", "count", "lower", "calls", "pde_oracle.cho_factor"),
    ("pde_oracle.cho_factor_ms", "ms", "lower", "total", "pde_oracle.cho_factor"),
    ("pde_oracle.cho_solve_calls", "count", "lower", "calls", "pde_oracle.cho_solve"),
    ("pde_oracle.cho_solve_ms", "ms", "lower", "total", "pde_oracle.cho_solve"),
    ("reporting.run_coefficients_suite_ms", "ms", "lower", "total", "reporting.run_coefficients_suite"),
    ("reporting.run_secondvar_suite_ms", "ms", "lower", "total", "reporting.run_secondvar_suite"),
    ("reporting.run_monotonicity_suite_ms", "ms", "lower", "total", "reporting.run_monotonicity_suite"),
    ("reporting.build_fidelity_report_ms", "ms", "lower", "total", "reporting.build_fidelity_report"),
    ("reporting.emit_spectrum_csv_ms", "ms", "lower", "total", "reporting.emit_spectrum_csv"),
)
DISTINCT_SHARE = ("transmission.distinct_share", "ratio", "higher")
RSS_GROWTH = ("rss_growth_kb_per_op", "KB", "lower")


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, float]:
    """Per-operation means of the LAYER_METRICS and the distinct share."""
    names = tracer.names
    name_id = np.frombuffer(tracer.name_id, dtype=np.int32)
    parent = np.frombuffer(tracer.parent, dtype=np.int64)
    duration = np.frombuffer(tracer.end) - np.frombuffer(tracer.start)
    nested = parent >= 0
    callee_time = np.bincount(parent[nested], weights=duration[nested], minlength=len(duration))
    sums = {
        "total": np.bincount(name_id, weights=duration, minlength=len(names)),
        "self": np.bincount(name_id, weights=duration - callee_time, minlength=len(names)),
        "calls": np.array(tracer.calls, dtype=float),
    }
    values = {}
    for metric, unit, _, how, span in LAYER_METRICS:
        if how == "module_self":
            value = sum(sums["self"][i] for i, name in enumerate(names) if name.startswith(span))
        else:
            value = sums[how][names.index(span)] if span in names else 0.0
        values[metric] = float(value) * (1e3 if unit == "ms" else 1.0) / ops
    shares = np.frombuffer(tracer.shares)
    values[DISTINCT_SHARE[0]] = float(shares.mean()) if shares.size else 0.0
    return values
