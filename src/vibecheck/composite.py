"""Composite utility, break-even analysis, and learning-zone placement.

Per-student utility combines the three protocol metrics and a time cost:

    U = w1 * m_csr + w2 * m_ht + w3 * (1 - e_gap) - gamma * t_dev

with non-negative weights summing to 1 (default: equal thirds) and
``gamma`` the cost per development hour (default 0, which makes U a pure
quality score).  ``t_dev`` is absolute hours spent, not a difference.

The break-even horizon between a vibe-coding and a traditional record is
the extra development time that exactly cancels the metric advantage.

Zones partition students for monitoring: retention below threshold is
foundational regardless of anything else; above it, the explanation gap
separates architectural work from professional efficiency, which also
requires a trap-detection score at or above its cutoff.  The combination
"retains but cannot explain" is placed architectural with an explicit
foundational-review flag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from vibecheck.errors import ComputationError, ValidationError
from vibecheck.io import as_finite, read_jsonl

WEIGHT_TOLERANCE = 1e-9

ZONE_FOUNDATIONAL = "foundational"
ZONE_ARCHITECTURAL = "architectural"
ZONE_PROFESSIONAL = "professional"

_CONTROL_METRICS = {
    ZONE_FOUNDATIONAL: "m_csr",
    ZONE_ARCHITECTURAL: "e_gap",
    ZONE_PROFESSIONAL: "m_ht",
}

FLAG_FOUNDATIONAL_REVIEW = "foundational-review"


@dataclass(frozen=True)
class StudentRecord:
    student: str
    m_csr: float
    m_ht: float
    e_gap: float
    t_dev: float  # hours
    condition: Optional[str] = None

    def validate(self) -> None:
        if not (self.m_csr >= 0.0) or math.isnan(self.m_csr):
            raise ValidationError(f"m_csr must be >= 0, got {self.m_csr!r}")
        if not (0.0 < self.m_ht < 1.0):
            raise ValidationError(f"m_ht must lie in (0, 1), got {self.m_ht!r}")
        if not (0.0 <= self.e_gap <= 1.0):
            raise ValidationError(f"e_gap must lie in [0, 1], got {self.e_gap!r}")
        if not (self.t_dev >= 0.0) or math.isnan(self.t_dev):
            raise ValidationError(f"t_dev must be >= 0, got {self.t_dev!r}")


@dataclass(frozen=True)
class UtilityWeights:
    w1: float = 1.0 / 3.0
    w2: float = 1.0 / 3.0
    w3: float = 1.0 / 3.0
    gamma: float = 0.0

    def validate(self) -> None:
        for name, value in (("w1", self.w1), ("w2", self.w2), ("w3", self.w3)):
            if value < 0.0 or math.isnan(value):
                raise ValidationError(f"{name} must be >= 0, got {value!r}")
        if self.gamma < 0.0 or math.isnan(self.gamma):
            raise ValidationError(f"gamma must be >= 0, got {self.gamma!r}")
        total = self.w1 + self.w2 + self.w3
        if abs(total - 1.0) > WEIGHT_TOLERANCE:
            raise ValidationError(
                f"metric weights must sum to 1 within {WEIGHT_TOLERANCE}, got {total!r}"
            )


@dataclass(frozen=True)
class ZoneThresholds:
    m_csr: float = 0.8
    e_gap: float = 0.3
    m_ht: float = 0.5


@dataclass(frozen=True)
class ZoneResult:
    zone: str
    control_metric: str
    flags: tuple[str, ...]


def utility(record: StudentRecord, weights: UtilityWeights) -> float:
    """Composite utility of one student record under the given weights."""
    record.validate()
    weights.validate()
    return (
        weights.w1 * record.m_csr
        + weights.w2 * record.m_ht
        + weights.w3 * (1.0 - record.e_gap)
        - weights.gamma * record.t_dev
    )


def break_even(
    vibe: StudentRecord, trad: StudentRecord, weights: UtilityWeights
) -> float:
    """Time saving (hours) at which the two records' utilities tie.

    Returns the minimum ``t_dev_trad - t_dev_vibe`` making ``U_vibe >=
    U_trad``: the traditional record's weighted metric advantage divided by
    ``gamma``.  Substituting the returned difference makes the utilities
    exactly equal; a negative value means the vibe record dominates even
    with zero time saved.  Undefined when ``gamma`` is 0.
    """
    vibe.validate()
    trad.validate()
    weights.validate()
    if weights.gamma == 0.0:
        raise ComputationError(
            "break-even is undefined with gamma = 0: development time has no "
            "cost, so no time difference can offset a metric advantage"
        )
    trad_advantage = (
        weights.w1 * (trad.m_csr - vibe.m_csr)
        + weights.w2 * (trad.m_ht - vibe.m_ht)
        + weights.w3 * (vibe.e_gap - trad.e_gap)
    )
    return trad_advantage / weights.gamma


def classify_zone(
    record: StudentRecord, thresholds: ZoneThresholds = ZoneThresholds()
) -> ZoneResult:
    """Zone placement with its control metric and any review flags."""
    record.validate()
    if record.m_csr <= thresholds.m_csr:
        return ZoneResult(ZONE_FOUNDATIONAL, _CONTROL_METRICS[ZONE_FOUNDATIONAL], ())
    if record.e_gap > thresholds.e_gap:
        return ZoneResult(
            ZONE_ARCHITECTURAL,
            _CONTROL_METRICS[ZONE_ARCHITECTURAL],
            (FLAG_FOUNDATIONAL_REVIEW,),
        )
    if record.m_ht >= thresholds.m_ht:
        return ZoneResult(ZONE_PROFESSIONAL, _CONTROL_METRICS[ZONE_PROFESSIONAL], ())
    return ZoneResult(ZONE_ARCHITECTURAL, _CONTROL_METRICS[ZONE_ARCHITECTURAL], ())


def _student_record(rec: dict) -> StudentRecord:
    return StudentRecord(
        student=str(rec["student"]),
        m_csr=as_finite(rec["m_csr"]),
        m_ht=as_finite(rec["m_ht"]),
        e_gap=as_finite(rec["e_gap"]),
        t_dev=as_finite(rec["t_dev"]),
        condition=str(rec["condition"]) if "condition" in rec else None,
    )


def read_student_records(path: Union[str, Path]) -> list[StudentRecord]:
    """JSONL of ``{"student", "m_csr", "m_ht", "e_gap", "t_dev", "condition"?}``."""
    students = read_jsonl(path, _student_record, "student record")
    if not students:
        raise ValidationError(f"{path}: no student records")
    return students
