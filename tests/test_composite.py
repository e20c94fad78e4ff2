"""Composite utility, break-even time saving, and zone classification."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vibecheck.composite import (
    FLAG_FOUNDATIONAL_REVIEW,
    StudentRecord,
    UtilityWeights,
    ZoneResult,
    break_even,
    classify_zone,
    utility,
)
from vibecheck.errors import ComputationError, ValidationError

THIRDS = UtilityWeights()


def _record(m_csr=0.9, m_ht=0.6, e_gap=0.3, t_dev=2.0, student="s", condition=None):
    return StudentRecord(
        student=student, m_csr=m_csr, m_ht=m_ht, e_gap=e_gap, t_dev=t_dev,
        condition=condition,
    )


# --- utility ------------------------------------------------------------------


def test_utility_worked_example():
    weights = UtilityWeights(gamma=0.05)
    value = utility(_record(0.9, 0.6, 0.3, 2.0), weights)
    assert value == pytest.approx((0.9 + 0.6 + 0.7) / 3.0 - 0.1, abs=1e-12)
    assert value == pytest.approx(0.6333333333, abs=1e-9)


def test_utility_rewards_low_gap():
    low = utility(_record(e_gap=0.1), THIRDS)
    high = utility(_record(e_gap=0.9), THIRDS)
    assert low > high


def test_gamma_zero_ignores_development_time():
    fast = utility(_record(t_dev=0.5), THIRDS)
    slow = utility(_record(t_dev=50.0), THIRDS)
    assert fast == slow


def test_default_weights_are_thirds_with_zero_gamma():
    assert THIRDS.w1 == THIRDS.w2 == THIRDS.w3 == pytest.approx(1.0 / 3.0)
    assert THIRDS.gamma == 0.0
    THIRDS.validate()


def test_weights_must_sum_to_one():
    with pytest.raises(ValidationError, match="sum to 1"):
        utility(_record(), UtilityWeights(w1=0.5, w2=0.5, w3=0.5))


def test_negative_weight_rejected():
    with pytest.raises(ValidationError):
        UtilityWeights(w1=-0.2, w2=0.6, w3=0.6).validate()


def test_record_validation_bounds():
    with pytest.raises(ValidationError):
        utility(_record(m_ht=0.0), THIRDS)
    with pytest.raises(ValidationError):
        utility(_record(m_ht=1.0), THIRDS)
    with pytest.raises(ValidationError):
        utility(_record(e_gap=1.2), THIRDS)
    with pytest.raises(ValidationError):
        utility(_record(m_csr=-0.1), THIRDS)
    with pytest.raises(ValidationError):
        utility(_record(t_dev=-1.0), THIRDS)


def test_m_csr_above_one_is_allowed():
    # Retention beyond the expert baseline is possible and must not error.
    assert utility(_record(m_csr=1.4), THIRDS) > utility(_record(m_csr=0.9), THIRDS)


@settings(max_examples=80, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=2.0),
    st.floats(min_value=0.001, max_value=0.999),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_utility_is_monotone_in_each_metric(m_csr, m_ht, e_gap):
    base = utility(_record(m_csr, m_ht, e_gap), THIRDS)
    assert utility(_record(m_csr + 0.1, m_ht, e_gap), THIRDS) > base
    assert utility(_record(m_csr, m_ht, min(1.0, e_gap + 0.1)), THIRDS) <= base


# --- break-even ----------------------------------------------------------------


def test_break_even_worked_example():
    weights = UtilityWeights(gamma=0.05)
    vibe = _record(m_csr=0.7, m_ht=0.6, e_gap=0.3, t_dev=2.0, condition="vibe")
    trad = _record(m_csr=0.8, m_ht=0.6, e_gap=0.3, t_dev=8.0, condition="trad")
    # trad is better by 0.1 in m_csr only: (0.1 / 3) / 0.05 hours.
    assert break_even(vibe, trad, weights) == pytest.approx(0.6666666667, abs=1e-9)


def test_break_even_negative_when_vibe_dominates():
    weights = UtilityWeights(gamma=0.05)
    vibe = _record(m_csr=0.9, m_ht=0.7, e_gap=0.1)
    trad = _record(m_csr=0.8, m_ht=0.6, e_gap=0.2)
    assert break_even(vibe, trad, weights) < 0.0


def test_break_even_substitution_equalizes_utilities():
    weights = UtilityWeights(w1=0.5, w2=0.3, w3=0.2, gamma=0.07)
    vibe = _record(m_csr=0.72, m_ht=0.55, e_gap=0.4, t_dev=2.0)
    trad = _record(m_csr=0.9, m_ht=0.62, e_gap=0.15, t_dev=0.0)
    delta = break_even(vibe, trad, weights)
    shifted_trad = _record(m_csr=0.9, m_ht=0.62, e_gap=0.15, t_dev=delta)
    u_vibe = utility(_record(m_csr=0.72, m_ht=0.55, e_gap=0.4, t_dev=0.0), weights)
    assert u_vibe == pytest.approx(utility(shifted_trad, weights), abs=1e-12)


def test_break_even_undefined_at_gamma_zero():
    with pytest.raises(ComputationError, match="gamma"):
        break_even(_record(), _record(), THIRDS)


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=1.5),
    st.floats(min_value=0.0, max_value=1.5),
    st.floats(min_value=0.01, max_value=1.0),
)
def test_break_even_antisymmetric_between_conditions(a, b, gamma):
    weights = UtilityWeights(gamma=gamma)
    one = _record(m_csr=a)
    two = _record(m_csr=b)
    assert break_even(one, two, weights) == pytest.approx(
        -break_even(two, one, weights), abs=1e-9
    )


# --- zones --------------------------------------------------------------------


def test_low_retention_is_foundational_regardless_of_rest():
    result = classify_zone(_record(m_csr=0.8, m_ht=0.9, e_gap=0.05))
    assert result == ZoneResult("foundational", "m_csr", ())


def test_high_gap_is_architectural_with_review_flag():
    result = classify_zone(_record(m_csr=0.95, m_ht=0.9, e_gap=0.35))
    assert result.zone == "architectural"
    assert result.control_metric == "e_gap"
    assert result.flags == (FLAG_FOUNDATIONAL_REVIEW,)


def test_good_metrics_are_professional():
    result = classify_zone(_record(m_csr=0.95, m_ht=0.75, e_gap=0.1))
    assert result == ZoneResult("professional", "m_ht", ())


def test_weak_detection_is_architectural_without_flag():
    result = classify_zone(_record(m_csr=0.95, m_ht=0.4, e_gap=0.1))
    assert result.zone == "architectural"
    assert result.flags == ()


def test_retention_check_precedes_gap_check():
    # Both m_csr and e_gap are bad; the retention rule wins the ordering.
    result = classify_zone(_record(m_csr=0.3, m_ht=0.9, e_gap=0.9))
    assert result.zone == "foundational"
    assert result.flags == ()


def test_custom_thresholds():
    result = classify_zone(
        _record(m_csr=0.6, m_ht=0.91, e_gap=0.2),
        m_csr_threshold=0.5, e_gap_threshold=0.5, m_ht_cutoff=0.9,
    )
    assert result.zone == "professional"


def test_boundary_fixture_records(fixtures):
    expected = {
        "z1": ("foundational", ()),
        "z2": ("professional", ()),
        "z3": ("architectural", (FLAG_FOUNDATIONAL_REVIEW,)),
        "z4": ("architectural", ()),
        "z5": ("foundational", ()),
        "z6": ("professional", ()),
        "z7": ("architectural", ()),
    }
    path = fixtures / "zones" / "boundary_records.jsonl"
    seen = {}
    for line in path.read_text().splitlines():
        rec = json.loads(line)
        record = StudentRecord(
            student=rec["student"],
            m_csr=rec["m_csr"],
            m_ht=rec["m_ht"],
            e_gap=rec["e_gap"],
            t_dev=rec["t_dev"],
            condition=rec["condition"],
        )
        result = classify_zone(record)
        seen[rec["student"]] = (result.zone, result.flags)
    assert seen == expected


@settings(max_examples=100, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=1.5),
    st.floats(min_value=0.001, max_value=0.999),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_every_record_lands_in_exactly_one_zone(m_csr, m_ht, e_gap):
    result = classify_zone(_record(m_csr, m_ht, e_gap))
    assert result.zone in ("foundational", "architectural", "professional")
    control = {"foundational": "m_csr", "architectural": "e_gap", "professional": "m_ht"}
    assert result.control_metric == control[result.zone]
    if result.flags:
        assert result.zone == "architectural"
        assert e_gap > 0.3
