"""Classification of the concentric configuration from the spectrum."""

import pytest

from twophase_torsion.params import (
    Constraint,
    ModeIndex,
    PerturbationSpec,
    ProblemParams,
    validate,
)
from twophase_torsion.second_variation import (
    SpectrumPath,
    spectrum_table,
    total_second_variation,
)
from twophase_torsion.stability import (
    Channel,
    Classification,
    classify,
    positive_mode_set,
)


def test_harder_core_is_a_local_maximum():
    params = ProblemParams(2, 0.5, 2.0)
    verdict = classify(params, k_max=30)
    assert verdict.classification is Classification.LOCAL_MAXIMUM
    assert verdict.positive_modes == ()
    assert verdict.witness_positive is None
    assert verdict.witness_negative is not None
    total = total_second_variation(
        verdict.witness_negative, params, SpectrumPath.ASSEMBLED
    )
    assert total < 0.0


def test_softer_core_is_a_saddle():
    params = ProblemParams(2, 0.5, 0.5)
    verdict = classify(params, k_max=30)
    assert verdict.classification is Classification.SADDLE
    assert (1, Channel.INNER_ALONE) in verdict.positive_modes
    assert verdict.witness_positive is not None
    assert verdict.witness_negative is not None
    positive = total_second_variation(
        verdict.witness_positive, params, SpectrumPath.ASSEMBLED
    )
    negative = total_second_variation(
        verdict.witness_negative, params, SpectrumPath.ASSEMBLED
    )
    assert positive > 0.0
    assert negative < 0.0


def test_saddle_witnesses_are_admissible():
    params = ProblemParams(3, 0.5, 0.5)
    verdict = classify(params, k_max=20)
    for witness in (verdict.witness_positive, verdict.witness_negative):
        assert witness is not None
        assert validate(witness, Constraint.VOLUME_AND_BARYCENTER).ok


def test_single_phase_is_neutral():
    verdict = classify(ProblemParams(2, 0.5, 1.0), k_max=10)
    assert verdict.classification is Classification.NEUTRAL_SINGLE_PHASE
    assert verdict.witness_positive is None
    assert "neutral" in verdict.note
    # the negative witness is an outer mode of degree >= 2
    modes = verdict.witness_negative.sorted_items()
    assert modes == [(ModeIndex(2, 1), (0.0, 1.0))]


def test_positive_modes_respect_the_barycenter_constraint():
    params = ProblemParams(2, 0.5, 0.5)
    positive = positive_mode_set(params, 10)
    # degree 1: only the inner channel may appear even though the outer
    # diagonal entry is positive there, because outer degree-1 modes are
    # translations excluded by the barycenter constraint
    degree_one = [channel for degree, channel in positive if degree == 1]
    assert degree_one == [Channel.INNER_ALONE]
    assert (2, Channel.INNER_ALONE) in positive
    assert (2, Channel.COUPLED) in positive


def test_local_maximum_has_no_positive_modes_over_a_long_scan():
    for params in (ProblemParams(2, 0.5, 2.0), ProblemParams(3, 0.8, 10.0)):
        assert positive_mode_set(params, 50) == []


def test_classify_rejects_short_scans():
    with pytest.raises(ValueError):
        classify(ProblemParams(2, 0.5, 2.0), k_max=1)
    with pytest.raises(ValueError):
        positive_mode_set(ProblemParams(2, 0.5, 2.0), 0)


def test_verdict_document_shape():
    verdict = classify(ProblemParams(2, 0.5, 0.5), k_max=5)
    document = verdict.to_document()
    assert document["classification"] == "Saddle"
    assert document["scanned_degrees"] == [1, 5]
    assert len(document["mode_table"]) == 5
    assert {"degree", "e_in", "e_out", "e_res", "delta"} <= set(
        document["mode_table"][0]
    )
    assert document["witness_positive"]["modes"][0]["degree"] == 1
    assert document["positive_modes"][0] == {"degree": 1, "channel": "InnerAlone"}


def test_mode_table_matches_the_scan_length():
    verdict = classify(ProblemParams(4, 0.2, 2.0), k_max=12)
    assert verdict.k_max == 12
    assert len(verdict.mode_table) == 12
    degrees = [row[0] for row in verdict.mode_table]
    assert degrees == list(range(1, 13))


def test_verdict_next_to_single_phase():
    # e_in(1) is O(|1 - sigma|): 1.25e-16 and 1.39e-17 at the two sigmas
    # below 1, where the softer core is a saddle
    for sigma in (1.0 - 1e-15, 0.9999999999999999):
        verdict = classify(ProblemParams(2, 0.5, sigma), k_max=30)
        assert verdict.classification is Classification.SADDLE, sigma
    verdict = classify(ProblemParams(2, 0.5, 1.0 + 1e-15), k_max=30)
    assert verdict.classification is Classification.LOCAL_MAXIMUM
    verdict = classify(ProblemParams(2, 0.5, 1.0), k_max=30)
    assert verdict.classification is Classification.NEUTRAL_SINGLE_PHASE


def test_caches_stay_bounded():
    before = spectrum_table.cache_info()
    count = before.maxsize + 100  # one table per classification
    for i in range(count):
        classify(ProblemParams(2, 0.3 + 0.4 * i / count, 3.0), k_max=30)
    info = spectrum_table.cache_info()
    assert info.misses - before.misses > info.maxsize
    assert info.currsize <= info.maxsize
