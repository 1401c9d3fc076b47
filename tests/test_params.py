"""Parameter containers, harmonic bookkeeping, and constraint validation."""

import pytest

from twophase_torsion.params import (
    Constraint,
    ModeIndex,
    PerturbationSpec,
    ProblemParams,
    multiplicity,
    validate,
)


def test_problem_params_accepts_valid_triples():
    params = ProblemParams(dim=3, core_radius=0.5, sigma=2.0)
    assert params.dim == 3
    assert params.core_radius == 0.5
    assert params.sigma == 2.0


def test_problem_params_rejects_bad_dim():
    with pytest.raises(ValueError, match="dim must be an integer >= 2"):
        ProblemParams(dim=1, core_radius=0.5, sigma=1.0)
    with pytest.raises(ValueError, match="dim must be an integer >= 2"):
        ProblemParams(dim=2.0, core_radius=0.5, sigma=1.0)


def test_problem_params_rejects_bad_radius():
    for radius in (0.0, 1.0, 1.5, -0.1):
        with pytest.raises(ValueError, match=r"^radius must lie in \(0,1\)$"):
            ProblemParams(dim=2, core_radius=radius, sigma=1.0)


def test_problem_params_rejects_bad_sigma():
    for sigma in (0.0, -2.0):
        with pytest.raises(ValueError, match="^sigma must be positive$"):
            ProblemParams(dim=2, core_radius=0.5, sigma=sigma)


def test_problem_params_rejects_non_finite_values():
    for sigma in (float("inf"), float("-inf"), float("nan")):
        with pytest.raises(ValueError, match="^sigma must be finite$"):
            ProblemParams(dim=2, core_radius=0.5, sigma=sigma)
    for radius in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="^radius must be finite$"):
            ProblemParams(dim=2, core_radius=radius, sigma=1.0)


def test_multiplicity_values():
    # circle: 1 constant, then cos/sin pairs
    assert multiplicity(2, 0) == 1
    assert [multiplicity(2, k) for k in (1, 2, 7)] == [2, 2, 2]
    # sphere: 2k+1
    assert [multiplicity(3, k) for k in (0, 1, 2, 5)] == [1, 3, 5, 11]
    assert multiplicity(4, 2) == 9


def test_mode_index_validation_and_ordering():
    with pytest.raises(ValueError):
        ModeIndex(-1, 1)
    with pytest.raises(ValueError):
        ModeIndex(2, 0)
    assert ModeIndex(1, 2) < ModeIndex(2, 1)
    assert sorted([ModeIndex(2, 1), ModeIndex(1, 2), ModeIndex(1, 1)]) == [
        ModeIndex(1, 1),
        ModeIndex(1, 2),
        ModeIndex(2, 1),
    ]


def test_mode_index_check_order():
    ModeIndex(1, 2).check_order(2)
    ModeIndex(2, 5).check_order(3)
    with pytest.raises(ValueError, match="exceeds multiplicity"):
        ModeIndex(1, 3).check_order(2)
    with pytest.raises(ValueError, match="exceeds multiplicity"):
        ModeIndex(2, 6).check_order(3)


def test_spec_rejects_mean_modes_by_default():
    with pytest.raises(ValueError, match="volume preservation"):
        PerturbationSpec({ModeIndex(0, 1): (1.0, 0.0)})
    spec = PerturbationSpec({ModeIndex(0, 1): (1.0, 0.0)}, allow_mean=True)
    assert spec.coefficients(ModeIndex(0, 1)) == (1.0, 0.0)


def test_spec_coerces_tuple_keys_and_defaults_to_zero():
    spec = PerturbationSpec({(2, 1): (1.5, -0.5)})
    assert spec.coefficients(ModeIndex(2, 1)) == (1.5, -0.5)
    assert spec.coefficients(ModeIndex(3, 1)) == (0.0, 0.0)


def test_barycenter_admissibility():
    def admissible(spec):
        return validate(spec, Constraint.VOLUME_AND_BARYCENTER).ok

    assert admissible(PerturbationSpec({ModeIndex(1, 1): (1.0, 0.0)}))
    assert not admissible(PerturbationSpec({ModeIndex(1, 1): (0.0, 1.0)}))
    # degree >= 2 outer coefficients are unconstrained
    assert admissible(PerturbationSpec({ModeIndex(2, 1): (0.0, 1.0)}))


def test_validate_volume_only():
    spec = PerturbationSpec({ModeIndex(0, 1): (1.0, 0.0)}, allow_mean=True)
    verdict = validate(spec, Constraint.VOLUME_ONLY)
    assert not verdict.ok
    assert verdict.violations[0][0] == ModeIndex(0, 1)

    clean = PerturbationSpec({ModeIndex(1, 1): (0.0, 1.0)})
    assert validate(clean, Constraint.VOLUME_ONLY).ok


def test_validate_volume_and_barycenter():
    spec = PerturbationSpec({ModeIndex(1, 1): (0.0, 1.0), ModeIndex(2, 1): (0.0, 1.0)})
    verdict = validate(spec, Constraint.VOLUME_AND_BARYCENTER)
    assert not verdict.ok
    assert [index for index, _ in verdict.violations] == [ModeIndex(1, 1)]

    admissible = PerturbationSpec({ModeIndex(1, 1): (1.0, 0.0)})
    assert validate(admissible, Constraint.VOLUME_AND_BARYCENTER).ok
