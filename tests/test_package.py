"""The public surface: the package's exports, the README's library example
and its description of the oracle config."""

import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import twophase_torsion
from twophase_torsion import pde_oracle

README = Path(__file__).resolve().parents[1] / "README.md"
BENCH_SPANS = README.parent / "bench" / "spans.py"


def test_every_export_resolves():
    assert len(twophase_torsion.__all__) == 42
    for name in twophase_torsion.__all__:
        assert hasattr(twophase_torsion, name), name
    for name in (
        "spectrum",
        "positive_mode_set",
        "AngularProfile",
        "u_value",
        "first_variation",
        "factored_discriminant",
        "Constraint",
        "ValidationVerdict",
        "SpectrumTable",
        "FidelityEntry",
        "FidelityReport",
        "FidelityVerdict",
        "spectrum_table",
        "ModeTable",
        "solve_modes",
        "StateTraces",
        "ModeKind",
        "presets",
    ):
        assert name not in twophase_torsion.__all__
        assert not hasattr(twophase_torsion, name)


_LAZY_EXPORTS = """
import sys
import twophase_torsion

assert "twophase_torsion.pde_oracle" not in sys.modules
assert set(twophase_torsion.__all__) <= set(dir(twophase_torsion))
names = {}
exec("from twophase_torsion import *", names)
assert set(twophase_torsion.__all__) <= set(names)
from twophase_torsion import pde_oracle
oracle_exports = [name for name in names if getattr(names[name], "__module__", None) == pde_oracle.__name__]
assert len(oracle_exports) == 8, oracle_exports
for name in oracle_exports:
    assert names[name] is getattr(pde_oracle, name), name
    assert getattr(twophase_torsion, name) is getattr(pde_oracle, name), name
try:
    twophase_torsion.solve_energie
except AttributeError as exc:
    assert str(exc) == "module 'twophase_torsion' has no attribute 'solve_energie'", exc
else:
    raise AssertionError("a misspelled export resolved")
"""


def test_oracle_exports_resolve_on_first_access():
    # the FD oracle's exports load pde_oracle, and scipy with it, only when
    # first read; a star import reads them all
    paths = [str(Path(twophase_torsion.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    result = subprocess.run(
        [sys.executable, "-c", _LAZY_EXPORTS], capture_output=True, text=True, env=env, timeout=60
    )
    assert result.returncode == 0, result.stderr


def test_readme_library_example_runs_as_written():
    section = README.read_text(encoding="utf-8").split("## Library entry points", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert block is not None
    exec(compile(block.group(1), "README.md", "exec"), {})


def test_readme_oracle_schema_lists_the_parsed_keys():
    text = README.read_text(encoding="utf-8")
    schema = text.split("## Oracle config schema", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)`", schema, re.MULTILINE)
    assert sorted(rows) == sorted(pde_oracle._CONFIG_KEYS)
    section = text.split("## Perturbation format", 1)[1].split("\n## ", 1)[0]
    record = re.search(r"```json\n(.*?)```", section, re.DOTALL)
    assert record is not None
    assert set(json.loads(record.group(1))) == pde_oracle._MODE_KEYS


# The spans that feed the benchmark's per-layer metrics.  A workload reaches
# each but pde_oracle.solve_energy, whose metrics read 0 on every workload;
# it stays listed because its rows must still name a live function.
LIVE_SPANS = (
    "cli.main",
    "stability.classify",
    "exact_state.traces",
    "second_variation.monotonicity_functions",
    "reporting.emit_spectrum_csv",
    "reporting.build_fidelity_report",
    "reporting.run_coefficients_suite",
    "reporting.run_secondvar_suite",
    "reporting.run_monotonicity_suite",
    "pde_oracle.differentiate_energy",
    "pde_oracle.solve_energy",
    "pde_oracle.cho_factor",
    "pde_oracle.cho_solve",
)


def test_the_benchmark_spans_name_live_functions():
    # a deleted or renamed function would read 0 in its metric, not fail
    spec = importlib.util.spec_from_file_location("bench_spans", BENCH_SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    metric_spans = {span for *_, span in spans.LAYER_METRICS}
    for name in LIVE_SPANS:
        assert name in metric_spans, name
        module, attr = name.split(".")
        target = getattr(importlib.import_module(f"{spans.PACKAGE}.{module}"), attr, None)
        assert callable(target), name
