"""Stability classification of the concentric configuration.

The classification scans the assembled second-variation spectrum over
degrees 1..k_max under the volume and barycenter constraints (outer degree-1
modes excluded) and reports:

    LocalMaximum        every admissible direction strictly negative,
    Saddle              strictly positive and strictly negative directions,
    NeutralSinglePhase  sigma = 1: the inner spectrum vanishes identically,
                        so inner directions are second-order neutral.

The scan checks degrees 1..k_max, which the verdict records; past k_max,
tests/test_certificates.py proves from the mode conditions, in exact
arithmetic, that every admissible degree is negative definite for sigma > 1
and that e_in(1) > 0 for sigma < 1, at every N and R.

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

import numpy as np

from .params import ModeIndex, PerturbationSpec, ProblemParams, validate
from .second_variation import discriminant, spectrum_grid, total_second_variation

# Rounding floor of a spectrum entry, in units of its row scale.
SIGN_FLOOR = 8.0 * sys.float_info.epsilon


class Channel(enum.Enum):
    INNER_ALONE = "InnerAlone"
    OUTER_ALONE = "OuterAlone"
    COUPLED = "Coupled"


CHANNELS = tuple(Channel)  # the columns of the classifier's sign masks


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
        """JSON-style document: classification, scanned range, witnesses
        (each a PerturbationSpec document, or null), per-mode table."""

        def spec_doc(spec: Optional[PerturbationSpec]):
            return None if spec is None else spec.to_document()

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


def _unit_spec(degree: int, channel: Channel) -> PerturbationSpec:
    alpha = {
        Channel.INNER_ALONE: (1.0, 0.0),
        Channel.OUTER_ALONE: (0.0, 1.0),
        Channel.COUPLED: (1.0, 1.0),
    }[channel]
    return PerturbationSpec(modes={ModeIndex(degree, 1): alpha})


def classify(params: ProblemParams, k_max: int) -> StabilityVerdict:
    """Classify the concentric configuration from the assembled spectrum.

    The verdict is derived from the computed spectrum, not from the sign of
    sigma - 1: for sigma > 1 the per-mode negativity (including coupled modes
    via the resonance discriminant) is checked degree by degree, and for
    sigma < 1 the degree-1 inner channel supplies the positive witness; the
    proof the module docstring cites covers the degrees past k_max.  Each
    witness is the first degree and channel of its sign in the scan: where
    the entry that decides the verdict, e_in(1) for sigma != 1 and e_out(2)
    for sigma = 1, reads 0, spectrum_grid raises instead.
    """
    if k_max < 2:
        raise ValueError("kmax must be >= 2")

    table = spectrum_grid((params,), k_max)
    e_in, e_out, e_res = table.e_in[0], table.e_out[0], table.e_res[0]
    delta = discriminant(e_in, e_out, e_res)
    mode_table = tuple(
        zip(range(1, k_max + 1), e_in.tolist(), e_out.tolist(), e_res.tolist(), delta.tolist())
    )
    scale = np.maximum(np.maximum(np.abs(e_in), np.abs(e_out)), np.abs(e_res))
    floor = SIGN_FLOOR * scale
    # delta is quadratic in the entries, so its floor is too; inf where the
    # square of the row scale leaves the float range
    with np.errstate(over="ignore"):
        delta_floor = floor * scale
    # outer degree-1 modes are translations, excluded by the barycenter constraint
    outer_admissible = np.arange(1, k_max + 1) >= 2
    # Q(t) = e_in t^2 + e_res t + e_out attains positive values iff e_in or
    # e_out is positive or the discriminant is (a positive vertex value, or a
    # nonconstant linear Q)
    positive_mask = np.stack(
        [
            e_in > floor,
            outer_admissible & (e_out > floor),
            outer_admissible & ((e_in > floor) | (e_out > floor) | (delta > delta_floor)),
        ],
        axis=1,
    )
    positive = tuple(
        (index + 1, CHANNELS[channel])
        for index, channel in np.argwhere(positive_mask).tolist()
    )
    # the smallest degree with a strictly negative channel, inner preferred
    negative_mask = np.stack([e_in < -floor, outer_admissible & (e_out < -floor)], axis=1)
    negative = np.argwhere(negative_mask).tolist()
    witness_positive = _unit_spec(*positive[0]) if positive else None
    witness_negative = (
        _unit_spec(negative[0][0] + 1, CHANNELS[negative[0][1]]) if negative else None
    )

    if params.sigma == 1.0:
        classification = Classification.NEUTRAL_SINGLE_PHASE
        note = (
            "single-phase case: the inner spectrum vanishes identically, so "
            "inner perturbations are second-order neutral; outer modes of "
            "degree >= 2 are strictly negative"
        )
    else:
        classification = Classification.SADDLE if positive else Classification.LOCAL_MAXIMUM
        note = ""

    for witness in (witness_positive, witness_negative):
        if witness is not None and validate(witness):
            raise AssertionError("witness must satisfy both constraints")

    if classification is Classification.SADDLE:
        positive_value = total_second_variation(witness_positive, table)
        negative_value = total_second_variation(witness_negative, table)
        if not (positive_value > 0.0 and negative_value < 0.0):
            raise AssertionError("saddle witnesses must have opposite signs")

    return StabilityVerdict(
        classification=classification,
        k_max=k_max,
        positive_modes=positive,
        witness_positive=witness_positive,
        witness_negative=witness_negative,
        mode_table=mode_table,
        note=note,
    )
