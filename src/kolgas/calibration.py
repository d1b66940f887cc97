"""Versioned estimator calibration.

The randomness-deficiency tests are computable substitutes for an ideal,
uncomputable quantity; the substitution constants (estimator overhead,
deficiency threshold, trace-classification slopes) are fixed here, and
every artifact's manifest records their ``version``.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Calibration:
    version: str
    estimator_id_bits: int
    deficiency_slope: float
    deficiency_offset_bits: float
    gap_slope_structured: float
    gap_slope_random: float
    plateau_floor_fraction: float
    plateau_stability_fraction: float

    def deficiency_threshold(self, l_bits: float) -> float:
        """Largest deficiency still classed as random-like for a list of
        ``l_bits`` literal bits."""
        return self.deficiency_slope * l_bits + self.deficiency_offset_bits


_CALIBRATION = Calibration(
    version="1",
    estimator_id_bits=8,
    deficiency_slope=0.01,
    deficiency_offset_bits=64.0,
    gap_slope_structured=0.10,
    gap_slope_random=0.02,
    plateau_floor_fraction=0.25,
    plateau_stability_fraction=0.10,
)


def load_calibration() -> Calibration:
    """The calibration every estimator, classifier and manifest uses."""
    return _CALIBRATION
