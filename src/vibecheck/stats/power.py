"""Monte-Carlo power analysis for two-sided t-tests.

``mc_power`` simulates the t statistic from its sufficient statistics: for
normal data it depends only on the mean difference and the pooled variance,
so each replicate draws one standard normal and one chi-square on the
test's degrees of freedom instead of 2n (or n) raw observations.  The cost
per candidate is independent of n, and the draws follow the noncentral-t
distribution exactly.

``required_n`` finds the smallest per-group (or per-subject) n whose
simulated power reaches the target.  It starts at the closed-form
normal-approximation n, steps outward by 1, 2, 4, ... (up while the
candidate fails, down while it passes) until a failing and a passing n
bracket the answer, then bisects the gap.  Each candidate n is simulated
once with a stream derived from ``(seed, n)``, so re-evaluations are
identical.  The analytic n is reported next to the Monte-Carlo answer as a
cross-check, and a search whose analytic n exceeds ``_MAX_N`` is refused
before anything is simulated.

Designs: ``two_sample`` (equal-variance pooled t over two groups of n) and
``paired`` (one-sample t over n differences, effect size in units of the
difference SD).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from vibecheck.config import RunConfig
from vibecheck.errors import SearchError, ValidationError
from vibecheck.rng import make_rng
from vibecheck.sdt import inverse_normal_cdf
from vibecheck.stats import tdist

DESIGNS = ("two_sample", "paired")

_MAX_N = 1_000_000
_MAX_REPLICATES = 10_000_000


@dataclass(frozen=True)
class PowerSpec:
    effect_size_d: float
    alpha: float = 0.05
    target_power: float = 0.8
    design: str = "two_sample"
    replicates: int = RunConfig.replicates
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
        if self.replicates > _MAX_REPLICATES:
            raise ValidationError(
                f"Monte-Carlo power takes at most {_MAX_REPLICATES} replicates, "
                f"got {self.replicates}"
            )

    __post_init__ = validate


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
    z = inverse_normal_cdf(1.0 - spec.alpha / 2.0) + inverse_normal_cdf(spec.target_power)
    per_group = (z / spec.effect_size_d) ** 2
    if spec.design == "two_sample":
        per_group *= 2.0
    return max(2, math.ceil(per_group - 1e-12))


def mc_power(n: int, spec: PowerSpec) -> float:
    """Simulated rejection rate at per-group size ``n`` (seeded by (seed, n)).

    ``t = (z + shift) / sqrt(v / df)`` with ``z`` standard normal and ``v``
    chi-square on ``df``: exactly the noncentral t of the test.
    """
    if n < 2:
        raise ValidationError(f"per-group n must be >= 2, got {n}")
    d = spec.effect_size_d
    if spec.design == "paired":
        df, shift = n - 1, d * math.sqrt(n)
    else:
        df, shift = 2 * n - 2, d * math.sqrt(n / 2.0)
    rng = make_rng(spec.seed, n)
    z = rng.standard_normal(spec.replicates)
    v = rng.chisquare(df, spec.replicates)
    # t = |z + shift| / sqrt(v / df), formed in place in z: the same operations
    # in the same order, without a temporary array per step.
    v /= df
    np.sqrt(v, out=v)
    z += shift
    z /= v
    t = np.abs(z, out=z)
    crit = tdist.ppf(1.0 - spec.alpha / 2.0, df)
    return float(np.mean(t > crit))


def required_n(spec: PowerSpec) -> PowerResult:
    """Smallest n whose Monte-Carlo power reaches the target."""
    start = analytic_n(spec)
    if start > _MAX_N:
        raise SearchError(
            f"the analytic n for d = {spec.effect_size_d} is {start}, past the "
            f"search limit of {_MAX_N}"
        )
    cache: dict[int, float] = {}

    def passes(n: int) -> bool:
        if n not in cache:
            cache[n] = mc_power(n, spec)
        return cache[n] >= spec.target_power

    # Step outward from the analytic n by 1, 2, 4, ... until ``lo`` fails and
    # ``hi`` passes; n = 1 lies below the domain and counts as failing.
    step = 1
    if passes(start):
        lo, hi = 1, start
        while hi > 2:
            n = max(2, hi - step)
            if not passes(n):
                lo = n
                break
            hi, step = n, step * 2
    else:
        lo = start
        while True:
            if lo >= _MAX_N:
                raise SearchError(
                    f"no n <= {_MAX_N} reaches power {spec.target_power} for d = "
                    f"{spec.effect_size_d}"
                )
            n = min(_MAX_N, lo + step)
            if passes(n):
                hi = n
                break
            lo, step = n, step * 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if passes(mid):
            hi = mid
        else:
            lo = mid
    return PowerResult(
        n_required=hi,
        n_analytic=start,
        power_at_n=cache[hi],
        evaluations=tuple(sorted(cache.items())),
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
