"""Power analysis: analytic cross-check, Monte-Carlo search, attrition."""

import math

import numpy as np
import pytest
import scipy.stats

from vibecheck.errors import DomainError, SearchError, ValidationError
from vibecheck.rng import make_rng
from vibecheck.stats import power, tdist
from vibecheck.stats.power import (
    AttritionTarget,
    PowerSpec,
    analytic_n,
    attrition_target,
    mc_power,
    required_n,
    stated_target_exceeds,
)

TWO_SAMPLE = PowerSpec(effect_size_d=0.5)
PAIRED = PowerSpec(effect_size_d=0.5, design="paired")


def _exact_power(n, spec):
    """Noncentral-t rejection probability, the closed-form reference."""
    if spec.design == "paired":
        df, nc = n - 1, spec.effect_size_d * math.sqrt(n)
    else:
        df, nc = 2 * n - 2, spec.effect_size_d * math.sqrt(n / 2.0)
    crit = scipy.stats.t.ppf(1.0 - spec.alpha / 2.0, df)
    dist = scipy.stats.nct(df, nc)
    return float(1.0 - dist.cdf(crit) + dist.cdf(-crit))


def test_analytic_n_two_sample():
    assert analytic_n(TWO_SAMPLE) == 63


def test_analytic_n_paired():
    assert analytic_n(PAIRED) == 32


def test_analytic_n_refuses_an_alpha_whose_quantile_rounds_to_one():
    # statistics.NormalDist().inv_cdf(1.0) raises a StatisticsError, not a DomainError.
    with pytest.raises(DomainError, match="1 - alpha/2 rounds to 1"):
        analytic_n(PowerSpec(effect_size_d=0.5, alpha=1e-17))


def test_exact_power_reference_values():
    # Pin the oracle itself so a scipy regression cannot silently move it.
    assert _exact_power(64, TWO_SAMPLE) == pytest.approx(0.801460, abs=1e-5)
    assert _exact_power(63, TWO_SAMPLE) == pytest.approx(0.795168, abs=1e-5)
    assert _exact_power(34, PAIRED) == pytest.approx(0.807778, abs=1e-5)
    assert _exact_power(33, PAIRED) == pytest.approx(0.795366, abs=1e-5)


@pytest.mark.parametrize("n", [62, 64])
def test_mc_power_tracks_noncentral_t_two_sample(n):
    assert mc_power(n, TWO_SAMPLE) == pytest.approx(_exact_power(n, TWO_SAMPLE), abs=0.012)


@pytest.mark.parametrize("n", [32, 35])
def test_mc_power_tracks_noncentral_t_paired(n):
    assert mc_power(n, PAIRED) == pytest.approx(_exact_power(n, PAIRED), abs=0.012)


@pytest.mark.parametrize("design", ["two_sample", "paired"])
@pytest.mark.parametrize("n", [2, 3, 5, 10, 20, 33, 64, 100, 150])
def test_mc_power_within_five_standard_errors_of_noncentral_t(design, n):
    spec = PowerSpec(effect_size_d=0.5, design=design, replicates=100_000)
    exact = _exact_power(n, spec)
    se = math.sqrt(exact * (1.0 - exact) / spec.replicates)
    assert abs(mc_power(n, spec) - exact) <= 5.0 * se


@pytest.mark.parametrize("design", ["two_sample", "paired"])
@pytest.mark.parametrize("n", [2, 33, 64, 1000])
def test_mc_power_in_place_equals_the_expression(design, n):
    # The draws of mc_power formed as one out-of-place expression.
    spec = PowerSpec(effect_size_d=0.5, design=design, seed=3)
    df = n - 1 if design == "paired" else 2 * n - 2
    shift = 0.5 * math.sqrt(n if design == "paired" else n / 2.0)
    rng = make_rng(spec.seed, n)
    z = rng.standard_normal(spec.replicates)
    v = rng.chisquare(df, spec.replicates)
    t = (z + shift) / np.sqrt(v / df)
    crit = tdist.ppf(1.0 - spec.alpha / 2.0, df)
    assert mc_power(n, spec) == float(np.mean(np.abs(t) > crit))


def test_mc_power_deterministic():
    assert mc_power(40, TWO_SAMPLE) == mc_power(40, TWO_SAMPLE)


def test_mc_power_increases_with_n():
    assert mc_power(80, TWO_SAMPLE) > mc_power(20, TWO_SAMPLE)


def test_required_n_two_sample_near_exact_answer():
    # Exact noncentral-t power crosses 0.8 between n=63 and n=64; at 63 the
    # true power is 0.7952, close enough that 20k replicates can land either
    # side of the threshold, so the search runs with 100k.
    result = required_n(PowerSpec(effect_size_d=0.5, replicates=100_000))
    assert result.n_required in (63, 64)
    assert result.n_analytic == 63
    assert result.power_at_n >= 0.8
    assert dict(result.evaluations)[result.n_required] == result.power_at_n
    below = dict(result.evaluations).get(result.n_required - 1)
    if below is not None:
        assert below < 0.8


def test_required_n_paired_near_exact_answer():
    result = required_n(
        PowerSpec(effect_size_d=0.5, design="paired", replicates=100_000)
    )
    assert result.n_required in (33, 34, 35)
    assert result.n_analytic == 32
    assert result.power_at_n >= 0.8


def test_required_n_two_sample_needs_at_most_three_candidates():
    result = required_n(PowerSpec(effect_size_d=0.5, replicates=100_000))
    assert len(result.evaluations) <= 3


def test_required_n_steps_down_when_the_analytic_n_passes():
    # At this seed the simulated power at the analytic n (193) is just above
    # the 0.5 target, so the search must look below it.
    spec = PowerSpec(effect_size_d=0.2, target_power=0.5, seed=6)
    result = required_n(spec)
    evaluated = dict(result.evaluations)
    assert result.n_analytic == 193
    assert evaluated[193] >= 0.5
    assert min(evaluated) < 193
    assert evaluated[result.n_required - 1] < 0.5


@pytest.mark.parametrize("design", ["two_sample", "paired"])
@pytest.mark.parametrize("d", [0.3, 0.5, 0.8, 1.0, 2.0])
def test_one_below_the_answer_is_evaluated_and_fails(design, d):
    result = required_n(PowerSpec(effect_size_d=d, design=design))
    evaluated = dict(result.evaluations)
    assert result.power_at_n >= 0.8
    if result.n_required > 2:
        assert evaluated[result.n_required - 1] < 0.8


def _threshold_power(monkeypatch, passing_from):
    """Replace the simulation with a step at ``passing_from``; log the calls."""
    calls = []

    def fake(n, spec):
        calls.append(n)
        return 1.0 if n >= passing_from else 0.0

    monkeypatch.setattr(power, "mc_power", fake)
    return calls


@pytest.mark.parametrize("offset", [-61, -40, -5, -1, 0, 1, 2, 9, 300, 5000])
def test_search_brackets_and_bisects_to_the_threshold(monkeypatch, offset):
    spec = PowerSpec(effect_size_d=0.5)
    start = analytic_n(spec)
    threshold = start + offset
    calls = _threshold_power(monkeypatch, threshold)
    result = required_n(spec)
    assert result.n_required == max(2, threshold)
    assert calls[0] == start
    assert len(calls) == len(set(calls))
    assert len(calls) <= 2 * math.log2(abs(offset) + 1) + 3


def test_search_stops_at_the_n_limit(monkeypatch):
    calls = _threshold_power(monkeypatch, power._MAX_N + 1)
    with pytest.raises(SearchError, match="no n <= 1000000"):
        required_n(PowerSpec(effect_size_d=0.5))
    assert max(calls) == power._MAX_N
    assert len(calls) <= 25


def test_analytic_n_past_the_limit_is_refused_before_simulating(monkeypatch):
    calls = _threshold_power(monkeypatch, 2)
    spec = PowerSpec(effect_size_d=0.0001)
    assert analytic_n(spec) == 1_569_775_947
    with pytest.raises(SearchError, match="1569775947"):
        required_n(spec)
    assert calls == []


def test_required_n_deterministic():
    assert required_n(TWO_SAMPLE) == required_n(TWO_SAMPLE)


def test_huge_effect_needs_tiny_groups():
    result = required_n(PowerSpec(effect_size_d=3.0))
    assert result.n_required <= 5


def test_evaluations_are_sorted_by_n():
    result = required_n(PowerSpec(effect_size_d=1.0))
    ns = [n for n, _ in result.evaluations]
    assert ns == sorted(ns)


def test_spec_validation():
    with pytest.raises(ValidationError):
        analytic_n(PowerSpec(effect_size_d=0.0))
    with pytest.raises(ValidationError):
        analytic_n(PowerSpec(effect_size_d=0.5, alpha=1.5))
    with pytest.raises(ValidationError):
        analytic_n(PowerSpec(effect_size_d=0.5, target_power=1.0))
    with pytest.raises(ValidationError, match="known designs"):
        analytic_n(PowerSpec(effect_size_d=0.5, design="crossover"))
    with pytest.raises(ValidationError):
        mc_power(40, PowerSpec(effect_size_d=0.5, replicates=100))
    with pytest.raises(ValidationError):
        mc_power(1, TWO_SAMPLE)


# --- attrition ----------------------------------------------------------------


def test_attrition_worked_example():
    target = attrition_target(64, 0.2)
    assert target == AttritionTarget(
        n_required=64, attrition_rate=0.2, raw_target=80, rounded_target=80,
        rounding=False,
    )


def test_attrition_rounding_to_tens():
    target = attrition_target(33, 0.1, rounding=True)
    assert target.raw_target == 37
    assert target.rounded_target == 40


def test_attrition_zero_rate_is_identity():
    assert attrition_target(50, 0.0).rounded_target == 50


def test_attrition_exact_division_not_inflated():
    # 80 * 0.8 = 64 exactly; the ceiling must not jump to 81.
    assert attrition_target(64, 0.2).raw_target == 80
    assert attrition_target(45, 0.1).raw_target == 50


def test_attrition_validation():
    with pytest.raises(ValidationError):
        attrition_target(0, 0.2)
    with pytest.raises(ValidationError):
        attrition_target(10, 1.0)
    with pytest.raises(ValidationError):
        attrition_target(10, -0.1)


def test_stated_target_flagging():
    target = attrition_target(64, 0.2)
    assert stated_target_exceeds(target, 90) is True
    assert stated_target_exceeds(target, 80) is False
    assert stated_target_exceeds(target, 70) is False
