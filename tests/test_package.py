"""The public surface: the package's exports and the README's library example."""

import re
from pathlib import Path

import twophase_torsion

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_export_resolves():
    assert len(twophase_torsion.__all__) == 48
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
    ):
        assert name not in twophase_torsion.__all__
        assert not hasattr(twophase_torsion, name)


def test_readme_library_example_runs_as_written():
    section = README.read_text(encoding="utf-8").split("## Library entry points", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert block is not None
    exec(compile(block.group(1), "README.md", "exec"), {})
