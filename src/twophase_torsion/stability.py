"""Stability classification of the concentric configuration.

The classification scans the assembled second-variation spectrum over
degrees 1..k_max under the volume and barycenter constraints (outer degree-1
modes excluded) and reports:

    LocalMaximum        every admissible direction strictly negative,
    Saddle              strictly positive and strictly negative directions,
    NeutralSinglePhase  sigma = 1: the inner spectrum vanishes identically,
                        so inner directions are second-order neutral.

A LocalMaximum verdict is a finite certificate: degrees 1..k_max checked
directly, degrees beyond covered by the strict decrease of the spectrum in
the degree.  The verdict records k_max for that reason.

Signs are judged per degree against a rounding floor relative to that
degree's row scale max(|e_in|, |e_out|, |e_res|), not against an absolute
threshold: e_in is O(|1 - sigma|), so any fixed floor misjudges it near
sigma = 1.
"""

from __future__ import annotations

import enum
import sys
from dataclasses import dataclass
from typing import Optional

from .params import (
    Constraint,
    ModeIndex,
    PerturbationSpec,
    ProblemParams,
    validate,
)
from .second_variation import (
    SecondVariationSpectrum,
    SpectrumPath,
    spectrum_table,
    total_second_variation,
)

# Rounding floor of a spectrum entry, in units of its row scale.
SIGN_FLOOR = 8.0 * sys.float_info.epsilon


class Channel(enum.Enum):
    INNER_ALONE = "InnerAlone"
    OUTER_ALONE = "OuterAlone"
    COUPLED = "Coupled"


class Classification(enum.Enum):
    LOCAL_MAXIMUM = "LocalMaximum"
    SADDLE = "Saddle"
    NEUTRAL_SINGLE_PHASE = "NeutralSinglePhase"


@dataclass(frozen=True)
class StabilityVerdict:
    """Classification plus the evidence: positive modes, witnesses, spectrum."""

    classification: Classification
    k_max: int
    positive_modes: tuple[tuple[int, Channel], ...]
    witness_positive: Optional[PerturbationSpec]
    witness_negative: Optional[PerturbationSpec]
    mode_table: tuple[tuple[int, float, float, float, float], ...]
    note: str = ""

    def to_document(self) -> dict:
        """JSON-style document: classification, scanned range, witnesses,
        per-mode table."""

        def spec_doc(spec: Optional[PerturbationSpec]):
            if spec is None:
                return None
            return {
                "allow_mean": spec.allow_mean,
                "modes": [
                    {
                        "degree": index.degree,
                        "order": index.order,
                        "alpha_in": alpha_in,
                        "alpha_out": alpha_out,
                    }
                    for index, (alpha_in, alpha_out) in spec.sorted_items()
                ],
            }

        return {
            "classification": self.classification.value,
            "scanned_degrees": [1, self.k_max],
            "positive_modes": [
                {"degree": degree, "channel": channel.value}
                for degree, channel in self.positive_modes
            ],
            "witness_positive": spec_doc(self.witness_positive),
            "witness_negative": spec_doc(self.witness_negative),
            "mode_table": [
                {
                    "degree": degree,
                    "e_in": e_in,
                    "e_out": e_out,
                    "e_res": e_res,
                    "delta": delta,
                }
                for degree, e_in, e_out, e_res, delta in self.mode_table
            ],
            "note": self.note,
        }


def _row_scale(values: SecondVariationSpectrum) -> float:
    return max(abs(values.e_in), abs(values.e_out), abs(values.e_res))


def _coupled_supremum_positive(values: SecondVariationSpectrum) -> bool:
    """Whether Q(t) = e_in t^2 + e_res t + e_out attains positive values.

    With e_in <= 0 that happens iff e_out > 0 or the discriminant is
    positive (a positive vertex value, or a nonconstant linear Q).
    """
    scale = _row_scale(values)
    if values.e_in > SIGN_FLOOR * scale or values.e_out > SIGN_FLOOR * scale:
        return True
    return values.discriminant > SIGN_FLOOR * scale * scale


def _positive_modes(
    rows: list[SecondVariationSpectrum],
) -> list[tuple[int, Channel]]:
    positive: list[tuple[int, Channel]] = []
    for values in rows:
        degree = values.degree
        floor = SIGN_FLOOR * _row_scale(values)
        if values.e_in > floor:
            positive.append((degree, Channel.INNER_ALONE))
        if degree >= 2:
            if values.e_out > floor:
                positive.append((degree, Channel.OUTER_ALONE))
            if _coupled_supremum_positive(values):
                positive.append((degree, Channel.COUPLED))
    return positive


def positive_mode_set(
    params: ProblemParams, k_max: int
) -> list[tuple[int, Channel]]:
    """All (degree, channel) with strictly positive assembled second variation,
    restricted to barycenter-admissible channels (no outer degree-1)."""
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    return _positive_modes(spectrum_table(params, k_max).rows())


def _unit_spec(degree: int, channel: Channel) -> PerturbationSpec:
    alpha = {
        Channel.INNER_ALONE: (1.0, 0.0),
        Channel.OUTER_ALONE: (0.0, 1.0),
        Channel.COUPLED: (1.0, 1.0),
    }[channel]
    return PerturbationSpec(modes={ModeIndex(degree, 1): alpha})


def _negative_witness(
    rows: list[SecondVariationSpectrum],
) -> Optional[PerturbationSpec]:
    """Smallest degree with a strictly negative channel, preferring inner."""
    for values in rows:
        degree = values.degree
        floor = SIGN_FLOOR * _row_scale(values)
        if values.e_in < -floor:
            return _unit_spec(degree, Channel.INNER_ALONE)
        if degree >= 2 and values.e_out < -floor:
            return _unit_spec(degree, Channel.OUTER_ALONE)
    return None


def classify(params: ProblemParams, k_max: int) -> StabilityVerdict:
    """Classify the concentric configuration from the assembled spectrum.

    The verdict is derived from the computed spectrum, not from the sign of
    sigma - 1: for sigma > 1 the per-mode negativity (including coupled modes
    via the resonance discriminant) is checked degree by degree, and for
    sigma < 1 the degree-1 inner channel supplies the positive witness.
    """
    if k_max < 2:
        raise ValueError("kmax must be >= 2")

    rows = spectrum_table(params, k_max).rows()
    mode_table = tuple(
        (values.degree, values.e_in, values.e_out, values.e_res, values.discriminant)
        for values in rows
    )
    positive = tuple(_positive_modes(rows))
    witness_negative = _negative_witness(rows)
    note = ""

    if params.sigma == 1.0:
        classification = Classification.NEUTRAL_SINGLE_PHASE
        witness_positive = None
        if witness_negative is None:
            witness_negative = _unit_spec(2, Channel.OUTER_ALONE)
        note = (
            "single-phase case: the inner spectrum vanishes identically, so "
            "inner perturbations are second-order neutral; outer modes of "
            "degree >= 2 are strictly negative"
        )
    elif positive:
        classification = Classification.SADDLE
        degree, channel = positive[0]
        witness_positive = _unit_spec(degree, channel)
    else:
        classification = Classification.LOCAL_MAXIMUM
        witness_positive = None

    for witness in (witness_positive, witness_negative):
        if witness is not None:
            verdict = validate(witness, Constraint.VOLUME_AND_BARYCENTER)
            if not verdict.ok:
                raise AssertionError("witness must satisfy both constraints")

    if classification is Classification.SADDLE:
        positive_value = total_second_variation(
            witness_positive, params, SpectrumPath.ASSEMBLED
        )
        negative_value = total_second_variation(
            witness_negative, params, SpectrumPath.ASSEMBLED
        )
        if not (positive_value > 0.0 and negative_value < 0.0):
            raise AssertionError("saddle witnesses must have opposite signs")

    return StabilityVerdict(
        classification=classification,
        k_max=k_max,
        positive_modes=positive,
        witness_positive=witness_positive,
        witness_negative=witness_negative,
        mode_table=tuple(mode_table),
        note=note,
    )
