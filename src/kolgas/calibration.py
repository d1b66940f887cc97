"""Versioned estimator calibration.

The randomness-deficiency tests are computable substitutes for an ideal,
uncomputable quantity; the substitution constants (estimator overhead,
deficiency threshold, trace-classification slopes) live in a small JSON
file so they are versioned with the package and reproducible.

The bundled file can be overridden with the ``QKM_CALIBRATION``
environment variable (a path to an alternative JSON file).
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass
from importlib import resources

from .errors import FormatError

ENV_VAR = "QKM_CALIBRATION"

_REQUIRED = (
    "version",
    "estimator_id_bits",
    "deficiency_slope",
    "deficiency_offset_bits",
    "gap_slope_structured",
    "gap_slope_random",
    "plateau_floor_fraction",
    "plateau_stability_fraction",
)


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


def _parse(text: str, origin: str) -> Calibration:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"calibration file {origin}: invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise FormatError(f"calibration file {origin}: not a JSON object")
    missing = [k for k in _REQUIRED if k not in raw]
    if missing:
        raise FormatError(
            f"calibration file {origin}: missing keys {', '.join(missing)}"
        )
    return Calibration(**{k: raw[k] for k in _REQUIRED})


_cache: dict[str, Calibration] = {}


def load_calibration() -> Calibration:
    """Load the calibration, honouring the ``QKM_CALIBRATION`` override.

    Parsed files are memoised per path, so repeated calls are cheap; the
    environment variable is re-read on every call.
    """
    override = os.environ.get(ENV_VAR)
    key = override or ""
    if key in _cache:
        return _cache[key]
    if override:
        try:
            with open(override, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise FormatError(f"calibration file {override}: {exc}") from exc
        calib = _parse(text, override)
    else:
        text = resources.files(__package__).joinpath("calibration.json").read_text()
        calib = _parse(text, "bundled calibration.json")
    _cache[key] = calib
    return calib
