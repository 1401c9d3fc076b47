"""Parameter containers, harmonic bookkeeping, and constraint validation."""

import json
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from twophase_torsion.params import (
    ModeIndex,
    PerturbationSpec,
    ProblemParams,
    multiplicity,
    validate,
)
from twophase_torsion.pde_oracle import family_from_config
from twophase_torsion.second_variation import spectrum_grid


def test_problem_params_accepts_valid_triples():
    params = ProblemParams(dim=3, core_radius=0.5, sigma=2.0)
    assert params.dim == 3
    assert params.core_radius == 0.5
    assert params.sigma == 2.0
    # any real number but a bool is stored as a float
    reals = ((Fraction(1, 2), 2), (Decimal("0.5"), np.int64(2)), (np.float32(0.5), 2.0))
    for radius, sigma in reals:
        params = ProblemParams(dim=3, core_radius=radius, sigma=sigma)
        assert (type(params.core_radius), type(params.sigma)) == (float, float)
        assert params == ProblemParams(3, 0.5, 2.0)


def test_problem_params_rejects_bad_dim():
    with pytest.raises(ValueError, match="dim must be an integer >= 2"):
        ProblemParams(dim=1, core_radius=0.5, sigma=1.0)
    with pytest.raises(ValueError, match="dim must be an integer >= 2"):
        ProblemParams(dim=2.0, core_radius=0.5, sigma=1.0)
    with pytest.raises(ValueError, match="^dim must be >= 2$"):
        multiplicity(1, 0)


def test_problem_params_takes_any_integer_dim_but_a_bool():
    for dim in (True, np.bool_(True), 2.5, np.float64(3.0), "3", None):
        with pytest.raises(ValueError, match="^dim must be an integer >= 2$"):
            ProblemParams(dim=dim, core_radius=0.5, sigma=1.0)
    params = ProblemParams(np.int64(3), 0.5, 2.0)
    assert type(params.dim) is int
    assert params == ProblemParams(3, 0.5, 2.0)
    assert hash(params) == hash(ProblemParams(3, 0.5, 2.0))
    # so both are one key of the spectrum's cache
    assert spectrum_grid((params,), 5) is spectrum_grid((ProblemParams(3, 0.5, 2.0),), 5)


def test_mode_index_takes_any_integer_but_a_bool():
    for degree in (2.5, 2.0, True, False, np.bool_(False), "2", None):
        with pytest.raises(ValueError, match="^degree must be an integer$"):
            ModeIndex(degree, 1)
    for order in (1.5, 1.0, True, np.bool_(True), "1"):
        with pytest.raises(ValueError, match="^order must be an integer$"):
            ModeIndex(2, order)
    index = ModeIndex(np.int64(3), np.int32(2))
    assert (type(index.degree), type(index.order)) == (int, int)
    assert index == ModeIndex(3, 2) and hash(index) == hash(ModeIndex(3, 2))


def test_a_spec_of_numpy_indices_writes_a_config_that_runs():
    spec = PerturbationSpec({ModeIndex(np.int64(2), np.uint8(1)): (1.0, 0.0)})
    document = spec.to_document()
    assert json.dumps(document) == (
        '{"modes": [{"degree": 2, "order": 1, "alpha_in": 1.0, "alpha_out": 0.0}]}'
    )
    family = family_from_config({"radius": 0.5, "sigma": 2.0, **document})
    assert family.spec == spec


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
    # a bool is no number: sigma = True read as 1, the neutral point
    for value in (True, np.bool_(False), "0.5", None, 0.5j):
        with pytest.raises(ValueError, match="^sigma must be a real number$"):
            ProblemParams(dim=2, core_radius=0.5, sigma=value)
        with pytest.raises(ValueError, match="^radius must be a real number$"):
            ProblemParams(dim=2, core_radius=value, sigma=1.0)


def test_multiplicity_values():
    # circle: 1 constant, then cos/sin pairs
    assert multiplicity(2, 0) == 1
    assert [multiplicity(2, k) for k in (1, 2, 7)] == [2, 2, 2]
    # sphere: 2k+1
    assert [multiplicity(3, k) for k in (0, 1, 2, 5)] == [1, 3, 5, 11]
    assert multiplicity(4, 2) == 9


def test_mode_index_validation_and_ordering():
    with pytest.raises(ValueError, match="^degree must be nonnegative$"):
        ModeIndex(-1, 1)
    with pytest.raises(ValueError, match="^degree must be nonnegative$"):
        multiplicity(2, -1)
    with pytest.raises(ValueError, match="^order must be >= 1$"):
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


def test_spec_represents_mean_modes_and_validate_names_them():
    spec = PerturbationSpec({ModeIndex(0, 1): (1.0, 0.0)})
    assert spec.coefficients(ModeIndex(0, 1)) == (1.0, 0.0)
    assert [index for index, _ in validate(spec)] == [ModeIndex(0, 1)]


def test_spec_rejects_non_finite_coefficients():
    for value in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="^alpha_in must be finite$"):
            PerturbationSpec({ModeIndex(2, 1): (value, 0.0)})
        with pytest.raises(ValueError, match="^alpha_out must be finite$"):
            PerturbationSpec({ModeIndex(2, 1): (1.0, value)})
    for value in (True, np.bool_(True), "1.5", None):
        with pytest.raises(ValueError, match="^alpha_in must be a real number$"):
            PerturbationSpec({ModeIndex(2, 1): (value, 0.0)})
        with pytest.raises(ValueError, match="^alpha_out must be a real number$"):
            PerturbationSpec({ModeIndex(2, 1): (1.0, value)})


def test_spec_refuses_tuple_keys_and_defaults_to_zero():
    with pytest.raises(TypeError, match="^mode keys must be ModeIndex, not tuple$"):
        PerturbationSpec({(2, 1): (1.5, -0.5)})
    spec = PerturbationSpec({ModeIndex(2, 1): (1.5, -0.5)})
    assert spec.coefficients(ModeIndex(2, 1)) == (1.5, -0.5)
    assert spec.coefficients(ModeIndex(3, 1)) == (0.0, 0.0)


def test_barycenter_admissibility():
    def admissible(spec):
        return not validate(spec)

    assert admissible(PerturbationSpec({ModeIndex(1, 1): (1.0, 0.0)}))
    assert not admissible(PerturbationSpec({ModeIndex(1, 1): (0.0, 1.0)}))
    # degree >= 2 outer coefficients are unconstrained
    assert admissible(PerturbationSpec({ModeIndex(2, 1): (0.0, 1.0)}))


def test_validate_volume_and_barycenter():
    spec = PerturbationSpec({ModeIndex(1, 1): (0.0, 1.0), ModeIndex(2, 1): (0.0, 1.0)})
    assert [index for index, _ in validate(spec)] == [ModeIndex(1, 1)]

    mean = PerturbationSpec({ModeIndex(0, 1): (1.0, 0.0), ModeIndex(1, 1): (0.0, 1.0)})
    violations = validate(mean)
    assert [index for index, _ in violations] == [ModeIndex(0, 1), ModeIndex(1, 1)]
    assert "volume preservation" in violations[0][1]

    admissible = PerturbationSpec({ModeIndex(1, 1): (1.0, 0.0)})
    assert validate(admissible) == ()
