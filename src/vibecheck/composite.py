"""Composite utility, break-even analysis, cohort summaries and learning zones.

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

from vibecheck.config import RunConfig
from vibecheck.errors import ComputationError, ValidationError
from vibecheck.io import as_finite, as_str, fields, read_jsonl

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

    __post_init__ = validate


@dataclass(frozen=True)
class UtilityWeights:
    w1: float = RunConfig.w1
    w2: float = RunConfig.w2
    w3: float = RunConfig.w3
    gamma: float = RunConfig.gamma

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

    __post_init__ = validate


@dataclass(frozen=True)
class ZoneResult:
    zone: str
    control_metric: str
    flags: tuple[str, ...]


def utility(record: StudentRecord, weights: UtilityWeights) -> float:
    """Composite utility of one student record under the given weights."""
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


SUMMARY_FIELDS = ("m_csr", "m_ht", "e_gap", "t_dev", "utility")
COHORT_SUMMARY_COLUMNS = (
    "condition", "n", *(f"{stat}_{f}" for f in SUMMARY_FIELDS for stat in ("mean", "sd"))
)


def sample_sd(values: list[float]) -> float:
    """Sample standard deviation from the exact rational sum of squares, so
    the last digit does not depend on the Python version (0.0 below n = 2)."""
    from fractions import Fraction

    if len(values) < 2:
        return 0.0
    exact = [Fraction(v) for v in values]
    mean = sum(exact) / len(exact)
    return math.sqrt(float(sum((x - mean) ** 2 for x in exact) / (len(exact) - 1)))


def condition_summary(records: list[dict]) -> list[dict]:
    """One row per condition, sorted, of ``n`` and the mean and sample sd of
    each of ``SUMMARY_FIELDS`` over scored records; records without a
    condition are summarised under ``"all"``."""
    import statistics

    by_condition: dict[str, list[dict]] = {}
    for rec in records:
        by_condition.setdefault(rec["condition"] or "all", []).append(rec)
    rows = []
    for condition in sorted(by_condition):
        group = by_condition[condition]
        row: dict = {"condition": condition, "n": len(group)}
        for field in SUMMARY_FIELDS:
            values = [g[field] for g in group]
            row[f"mean_{field}"] = statistics.fmean(values)
            row[f"sd_{field}"] = sample_sd(values)
        rows.append(row)
    return rows


def break_even_between_conditions(
    records: list[dict], summary: list[dict], weights: UtilityWeights
) -> Optional[float]:
    """``break_even`` of the mean vibe record against the mean trad record,
    the means taken from the ``condition_summary`` rows of ``records``.
    None when ``gamma`` is 0 or the records name conditions other than
    exactly ``trad`` and ``vibe`` (records without a condition aside)."""
    if weights.gamma == 0.0:
        return None
    if {rec["condition"] for rec in records if rec["condition"]} != {"trad", "vibe"}:
        return None
    rows = {row["condition"]: row for row in summary}

    def mean_record(condition: str) -> StudentRecord:
        means = (rows[condition][f"mean_{f}"] for f in ("m_csr", "m_ht", "e_gap", "t_dev"))
        return StudentRecord(f"mean[{condition}]", *means, condition=condition)

    return break_even(mean_record("vibe"), mean_record("trad"), weights)


def classify_zone(
    record: StudentRecord,
    m_csr_threshold: float = RunConfig.m_csr_threshold,
    e_gap_threshold: float = RunConfig.e_gap_threshold,
    m_ht_cutoff: float = RunConfig.m_ht_cutoff,
) -> ZoneResult:
    """Zone placement with its control metric and any review flags."""
    if record.m_csr <= m_csr_threshold:
        return ZoneResult(ZONE_FOUNDATIONAL, _CONTROL_METRICS[ZONE_FOUNDATIONAL], ())
    if record.e_gap > e_gap_threshold:
        return ZoneResult(
            ZONE_ARCHITECTURAL,
            _CONTROL_METRICS[ZONE_ARCHITECTURAL],
            (FLAG_FOUNDATIONAL_REVIEW,),
        )
    if record.m_ht >= m_ht_cutoff:
        return ZoneResult(ZONE_PROFESSIONAL, _CONTROL_METRICS[ZONE_PROFESSIONAL], ())
    return ZoneResult(ZONE_ARCHITECTURAL, _CONTROL_METRICS[ZONE_ARCHITECTURAL], ())


_STUDENT_FIELDS = {
    "student": as_str, "m_csr": as_finite, "m_ht": as_finite, "e_gap": as_finite,
    "t_dev": as_finite, "condition": as_str,
}


def read_student_records(path: Union[str, Path]) -> list[StudentRecord]:
    """JSONL of ``{"student", "m_csr", "m_ht", "e_gap", "t_dev", "condition"?}``."""
    students = read_jsonl(
        path,
        lambda rec: StudentRecord(**fields(rec, _STUDENT_FIELDS, optional=("condition",))),
        "student record",
    )
    if not students:
        raise ValidationError(f"{path}: no student records")
    return students
