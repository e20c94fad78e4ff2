"""Monte-Carlo power analysis for two-sided t-tests.

``required_n`` finds the smallest per-group (or per-subject) n whose
simulated power reaches the target, by bracketing plus integer bisection
over seeded Monte-Carlo estimates; each candidate n is simulated once with
a stream derived from ``(seed, n)`` so re-evaluations are identical.  The
closed-form normal-approximation n is always computed alongside as a
cross-check and reported next to the Monte-Carlo answer.

Designs: ``two_sample`` (equal-variance pooled t over two groups of n) and
``paired`` (one-sample t over n differences, effect size in units of the
difference SD).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from vibecheck.errors import SearchError, ValidationError
from vibecheck.rng import make_rng
from vibecheck.sdt import inverse_normal_cdf
from vibecheck.stats import tdist

DESIGNS = ("two_sample", "paired")

_MAX_N = 1_000_000


@dataclass(frozen=True)
class PowerSpec:
    effect_size_d: float
    alpha: float = 0.05
    target_power: float = 0.8
    design: str = "two_sample"
    replicates: int = 20_000
    seed: int = 0

    def validate(self) -> None:
        if self.effect_size_d <= 0.0:
            raise ValidationError(f"effect size must be > 0, got {self.effect_size_d!r}")
        if not (0.0 < self.alpha < 1.0):
            raise ValidationError(f"alpha must lie in (0, 1), got {self.alpha!r}")
        if not (0.0 < self.target_power < 1.0):
            raise ValidationError(
                f"target power must lie in (0, 1), got {self.target_power!r}"
            )
        if self.design not in DESIGNS:
            raise ValidationError(
                f"unknown design {self.design!r}; known designs: {', '.join(DESIGNS)}"
            )
        if self.replicates < 1000:
            raise ValidationError("Monte-Carlo power needs at least 1000 replicates")


@dataclass(frozen=True)
class PowerResult:
    n_required: int
    n_analytic: int
    power_at_n: float
    evaluations: tuple[tuple[int, float], ...]
    spec: PowerSpec


@dataclass(frozen=True)
class AttritionTarget:
    n_required: int
    attrition_rate: float
    raw_target: int
    rounded_target: int
    rounding: bool


def analytic_n(spec: PowerSpec) -> int:
    """Normal-approximation sample size (the closed-form cross-check)."""
    spec.validate()
    z = inverse_normal_cdf(1.0 - spec.alpha / 2.0) + inverse_normal_cdf(spec.target_power)
    per_group = (z / spec.effect_size_d) ** 2
    if spec.design == "two_sample":
        per_group *= 2.0
    return max(2, math.ceil(per_group - 1e-12))


def mc_power(n: int, spec: PowerSpec) -> float:
    """Simulated rejection rate at per-group size ``n`` (seeded by (seed, n))."""
    spec.validate()
    if n < 2:
        raise ValidationError(f"per-group n must be >= 2, got {n}")
    rng = make_rng(spec.seed, n)
    d = spec.effect_size_d
    reps = spec.replicates
    if spec.design == "paired":
        diffs = rng.normal(d, 1.0, size=(reps, n))
        means = diffs.mean(axis=1)
        sds = diffs.std(axis=1, ddof=1)
        t = means / (sds / math.sqrt(n))
        crit = tdist.ppf(1.0 - spec.alpha / 2.0, n - 1)
    else:
        x = rng.normal(0.0, 1.0, size=(reps, n))
        y = rng.normal(d, 1.0, size=(reps, n))
        pooled = (x.var(axis=1, ddof=1) + y.var(axis=1, ddof=1)) / 2.0
        t = (y.mean(axis=1) - x.mean(axis=1)) / np.sqrt(pooled * 2.0 / n)
        crit = tdist.ppf(1.0 - spec.alpha / 2.0, 2 * n - 2)
    return float(np.mean(np.abs(t) > crit))


def required_n(spec: PowerSpec) -> PowerResult:
    """Smallest n whose Monte-Carlo power reaches the target."""
    spec.validate()
    cache: dict[int, float] = {}

    def power(n: int) -> float:
        if n not in cache:
            cache[n] = mc_power(n, spec)
        return cache[n]

    # Bracket outward from the analytic start: find a passing upper bound,
    # then halve down to the last passing candidate.
    hi = max(2, analytic_n(spec))
    while power(hi) < spec.target_power:
        if hi >= _MAX_N:
            raise SearchError(
                f"no n <= {_MAX_N} reaches power {spec.target_power} for d = "
                f"{spec.effect_size_d}"
            )
        hi = min(_MAX_N, hi * 2)
    while hi > 2:
        candidate = max(2, hi // 2)
        if power(candidate) >= spec.target_power:
            hi = candidate
        else:
            break
    if hi == 2:
        answer = 2
    else:
        # Invariant: power(hi // 2) < target <= power(hi); bisect the gap.
        low, high = max(2, hi // 2), hi
        while high - low > 1:
            mid = (low + high) // 2
            if power(mid) >= spec.target_power:
                high = mid
            else:
                low = mid
        answer = high
    evaluations = tuple(sorted(cache.items()))
    return PowerResult(
        n_required=answer,
        n_analytic=analytic_n(spec),
        power_at_n=cache[answer],
        evaluations=evaluations,
        spec=spec,
    )


def attrition_target(
    n_required: int, attrition_rate: float, rounding: bool = False
) -> AttritionTarget:
    """Recruitment target inflating ``n_required`` for expected attrition.

    ``raw_target = ceil(n / (1 - rate))``; with ``rounding`` the target is
    additionally rounded up to the next multiple of 10.
    """
    if n_required < 1:
        raise ValidationError(f"n_required must be >= 1, got {n_required}")
    if not (0.0 <= attrition_rate < 1.0):
        raise ValidationError(
            f"attrition rate must lie in [0, 1), got {attrition_rate!r}"
        )
    raw = math.ceil(n_required / (1.0 - attrition_rate) - 1e-12)
    rounded = math.ceil(raw / 10.0) * 10 if rounding else raw
    return AttritionTarget(
        n_required=n_required,
        attrition_rate=attrition_rate,
        raw_target=raw,
        rounded_target=rounded,
        rounding=rounding,
    )


def stated_target_exceeds(target: AttritionTarget, stated: int) -> bool:
    """True when a stated recruitment figure pads beyond the formula."""
    return stated > target.rounded_target
