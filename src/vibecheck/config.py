"""Run configuration with layered precedence.

Values resolve as: command-line flags > config file (``--config FILE``,
falling back to the ``VCP_CONFIG`` environment variable) > built-in
defaults.  Config files are flat JSON objects; unknown keys are rejected so
typos fail loudly.  Every report embeds the fully resolved configuration.
Each setting's default and allowed values are declared here once; a library
function taking a setting defaults to the ``RunConfig`` attribute of its name.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from typing import Any, Optional

from vibecheck.errors import ValidationError
from vibecheck.io import as_bool, as_finite, as_int, as_str, fields, read_json

ENV_CONFIG = "VCP_CONFIG"
CORRECTIONS = ("half-count", "none")
VELOCITY_UNITS = ("volume", "loc")


@dataclass(frozen=True)
class RunConfig:
    # signal detection
    k: float = 1.5
    delta: float = 1.0
    correction: str = "half-count"
    # retention
    idle_gap: float = 120.0
    velocity_unit: str = "volume"
    allow_uncalibrated: bool = False
    # explainability
    epsilon: float = 1e-9
    # composite
    w1: float = 1.0 / 3.0
    w2: float = 1.0 / 3.0
    w3: float = 1.0 / 3.0
    gamma: float = 0.0
    m_csr_threshold: float = 0.8
    e_gap_threshold: float = 0.3
    m_ht_cutoff: float = 0.5
    # traps
    trap_fraction: float = 0.5
    # stats
    replicates: int = 20_000
    cohort_rounding: bool = False
    # run plumbing
    seed: int = 0

    def validate(self) -> None:
        if self.correction not in CORRECTIONS:
            raise ValidationError(f"unknown correction {self.correction!r}")
        if self.velocity_unit not in VELOCITY_UNITS:
            raise ValidationError(f"unknown velocity unit {self.velocity_unit!r}")
        if self.idle_gap <= 0:
            raise ValidationError("idle_gap must be positive")
        if self.epsilon <= 0:
            raise ValidationError("epsilon must be positive")
        if not (0.0 <= self.trap_fraction <= 1.0):
            raise ValidationError("trap_fraction must lie in [0, 1]")
        if self.seed < 0:
            raise ValidationError(f"seed must be a non-negative integer, got {self.seed}")

    __post_init__ = validate

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


# Each field of a config file is read by the ``io`` field reader for its
# annotation (a string under ``from __future__ import annotations``).
_CAST_BY_TYPE = {"float": as_finite, "int": as_int, "bool": as_bool, "str": as_str}
_FIELDS = {f.name: _CAST_BY_TYPE[f.type] for f in dataclasses.fields(RunConfig)}


def resolve_config(
    config_path: Optional[str], overrides: dict[str, Any]
) -> RunConfig:
    """Layer defaults, an optional config file, and explicit overrides."""
    layered: dict[str, Any] = {}
    path = config_path or os.environ.get(ENV_CONFIG)
    if path:
        layered.update(read_json(path, lambda d: fields(d, _FIELDS, _FIELDS), "config file"))
    for key, value in overrides.items():
        if value is not None:
            if key not in _FIELDS:
                raise ValidationError(f"unknown config override {key!r}")
            layered[key] = value
    return RunConfig(**layered)
