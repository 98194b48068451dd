"""Report and configuration records shared by the CLI and the suites.

Exact rationals are always serialized as numerator/denominator strings plus
an integer power of pi; floats carry explicit error bars where available.
Suite reports omit wall-clock timestamps so that identical (command, config,
seed) produce byte-identical streams.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

from .exactnum import PiScaledRational, check_weight

__all__ = ["Report", "SuiteConfig", "ConfigError", "exact_json",
           "PROJECTION_CONVENTION", "REMAINDER_CONVENTION"]


class ConfigError(ValueError):
    pass


def exact_json(value) -> dict:
    """Lossless serialization of an exact rational, with pi power 0."""
    return PiScaledRational(check_weight("value", value)).to_json()


@dataclass(frozen=True)
class Report:
    command: str
    inputs: dict
    outputs: dict
    verdict: str  # PASS | FAIL
    seed: Optional[int] = None

    def __post_init__(self):
        if self.verdict not in ("PASS", "FAIL"):
            raise ValueError(f"bad verdict {self.verdict!r}")

    def to_json(self) -> str:
        return json.dumps(vars(self), sort_keys=True)  # the five fields


# The disc's names for each convention: the Q_k normalization
# (disc.ProjectionSpec) and the improved-inequality remainder constant.
PROJECTION_CONVENTION = {"paper": "paper_plus_one",
                         "corrected": "corrected_minus_one"}
REMAINDER_CONVENTION = {"paper": "paper", "corrected": "sharp"}


@dataclass(frozen=True)
class SuiteConfig:
    seed: int = 0
    convention: str = "corrected"

    def __post_init__(self):
        if self.convention not in PROJECTION_CONVENTION:
            raise ConfigError("convention must be 'paper' or 'corrected'")
