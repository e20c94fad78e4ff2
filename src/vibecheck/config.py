"""Run configuration with layered precedence.

Values resolve as: command-line flags > config file (``--config FILE``,
falling back to the ``VCP_CONFIG`` environment variable) > built-in
defaults.  Config files are flat JSON objects; unknown keys are rejected so
typos fail loudly.  Every report embeds the fully resolved configuration.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

from vibecheck.errors import ValidationError

ENV_CONFIG = "VCP_CONFIG"


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

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


_FIELDS = {f.name: f.type for f in dataclasses.fields(RunConfig)}


def _as_bool(value: Any) -> bool:
    """A JSON boolean only: ``"false"``, 0 and null are not coerced."""
    if not isinstance(value, bool):
        raise TypeError(f"expected true or false, got {value!r}")
    return value


def _as_int(value: Any) -> int:
    """An integral JSON number (``3`` or ``3.0``); booleans, strings and
    fractions are refused rather than truncated."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected an integer, got {value!r}")
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


_CASTS = {
    "k": float, "delta": float, "idle_gap": float, "epsilon": float,
    "w1": float, "w2": float, "w3": float, "gamma": float,
    "m_csr_threshold": float, "e_gap_threshold": float, "m_ht_cutoff": float,
    "trap_fraction": float, "replicates": _as_int, "seed": _as_int,
    "correction": str, "velocity_unit": str,
    "allow_uncalibrated": _as_bool, "cohort_rounding": _as_bool,
}


def _load_file(path: Path) -> dict[str, Any]:
    try:
        data = json.loads(path.read_text())
    except OSError as exc:
        raise ValidationError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: config file is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValidationError(f"{path}: config file must hold a JSON object")
    unknown = sorted(set(data) - set(_FIELDS))
    if unknown:
        raise ValidationError(
            f"{path}: unknown config keys: {', '.join(unknown)}; known keys: "
            + ", ".join(sorted(_FIELDS))
        )
    out: dict[str, Any] = {}
    for key, value in data.items():
        try:
            out[key] = _CASTS[key](value)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"{path}: bad value for {key!r}: {exc}") from exc
    return out


def resolve_config(
    config_path: Optional[str], overrides: dict[str, Any]
) -> RunConfig:
    """Layer defaults, an optional config file, and explicit overrides."""
    layered: dict[str, Any] = {}
    path = config_path or os.environ.get(ENV_CONFIG)
    if path:
        layered.update(_load_file(Path(path)))
    for key, value in overrides.items():
        if value is not None:
            if key not in _FIELDS:
                raise ValidationError(f"unknown config override {key!r}")
            layered[key] = value
    config = RunConfig(**layered)
    _validate(config)
    return config


def _validate(config: RunConfig) -> None:
    if config.correction not in ("half-count", "none"):
        raise ValidationError(f"unknown correction {config.correction!r}")
    if config.velocity_unit not in ("volume", "loc"):
        raise ValidationError(f"unknown velocity unit {config.velocity_unit!r}")
    if config.idle_gap <= 0:
        raise ValidationError("idle_gap must be positive")
    if config.epsilon <= 0:
        raise ValidationError("epsilon must be positive")
    if not (0.0 <= config.trap_fraction <= 1.0):
        raise ValidationError("trap_fraction must lie in [0, 1]")
