"""Signal-detection scoring: quantile accuracy, rates, d', and the logistic map."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vibecheck.errors import DomainError, ValidationError
from vibecheck.sdt import (
    DEFAULT_DELTA,
    DEFAULT_K,
    TrapResponse,
    d_prime,
    inverse_normal_cdf,
    load_responses,
    m_ht,
    normal_cdf,
    rates,
    score_responses,
    simulate_reviewer,
)

# Frozen from a bisection oracle on the erfc-based CDF (interval width 1e-15).
Z_0975 = 1.959963984540053
Z_084 = 0.994457883209753
Z_095 = 1.644853626951472
Z_08 = 0.841621233572914
D_84_16 = 1.988915766419506   # Z(0.84) - Z(0.16)
D_95_05 = 3.289707253902944   # Z(0.95) - Z(0.05)
M_HT_29891 = 0.951829998772381  # logistic at k=1.5, delta=1, d'=2.9891


def _responses(hits, misses, fas, rejects):
    out = []
    out += [TrapResponse(f"t{i}", "trap", True) for i in range(hits)]
    out += [TrapResponse(f"m{i}", "trap", False) for i in range(misses)]
    out += [TrapResponse(f"f{i}", "clean", True) for i in range(fas)]
    out += [TrapResponse(f"c{i}", "clean", False) for i in range(rejects)]
    return out


# --- normal CDF and quantile ------------------------------------------------


def test_cdf_fixed_points():
    assert normal_cdf(0.0) == 0.5
    assert normal_cdf(Z_0975) == pytest.approx(0.975, abs=1e-12)
    assert normal_cdf(-Z_0975) == pytest.approx(0.025, abs=1e-12)


def test_quantile_frozen_values():
    assert inverse_normal_cdf(0.975) == pytest.approx(Z_0975, abs=1e-12)
    assert inverse_normal_cdf(0.84) == pytest.approx(Z_084, abs=1e-12)
    assert inverse_normal_cdf(0.95) == pytest.approx(Z_095, abs=1e-12)
    assert inverse_normal_cdf(0.8) == pytest.approx(Z_08, abs=1e-12)
    assert inverse_normal_cdf(0.5) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.1, float("nan")])
def test_quantile_rejects_out_of_domain(p):
    with pytest.raises(DomainError):
        inverse_normal_cdf(p)


@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=1e-10, max_value=1.0 - 1e-10))
def test_quantile_inverts_cdf_to_1e12(p):
    x = inverse_normal_cdf(p)
    assert abs(normal_cdf(x) - p) <= 1e-12


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=0.001, max_value=0.999))
def test_quantile_is_antisymmetric(p):
    assert inverse_normal_cdf(1.0 - p) == pytest.approx(
        -inverse_normal_cdf(p), abs=2e-12
    )


# --- rates and the half-count correction ------------------------------------


def test_interior_rates_pass_through():
    r = rates(_responses(hits=10, misses=10, fas=5, rejects=15))
    assert (r.hit_rate, r.fa_rate) == (0.5, 0.25)
    assert (r.hit_rate_corrected, r.fa_rate_corrected) == (0.5, 0.25)
    assert (r.n_trap, r.n_clean) == (20, 20)
    assert not r.correction_applied


def test_extreme_rates_get_half_count():
    r = rates(_responses(hits=10, misses=0, fas=0, rejects=10))
    assert (r.hit_rate, r.fa_rate) == (1.0, 0.0)
    assert r.hit_rate_corrected == pytest.approx(0.95)   # 1 - 1/(2*10)
    assert r.fa_rate_corrected == pytest.approx(0.05)    # 1/(2*10)
    assert r.correction_applied


def test_half_count_at_five_items():
    r = rates(_responses(hits=0, misses=5, fas=1, rejects=4))
    assert r.hit_rate_corrected == pytest.approx(0.1)    # 1/(2*5)
    assert r.fa_rate_corrected == pytest.approx(0.2)     # interior, untouched
    assert r.correction_applied


def test_correction_none_leaves_extremes():
    r = rates(_responses(hits=5, misses=0, fas=0, rejects=5), correction="none")
    assert (r.hit_rate_corrected, r.fa_rate_corrected) == (1.0, 0.0)
    assert not r.correction_applied


def test_rates_need_both_classes():
    with pytest.raises(ValidationError):
        rates([TrapResponse("a", "trap", True)])
    with pytest.raises(ValidationError):
        rates([TrapResponse("a", "clean", False)])


def test_rates_reject_duplicate_item_ids():
    duped = [TrapResponse("a", "trap", True), TrapResponse("a", "trap", False),
             TrapResponse("c", "clean", False)]
    with pytest.raises(ValidationError):
        rates(duped)


def test_rates_reject_unknown_ground_truth():
    with pytest.raises(ValidationError):
        rates([TrapResponse("a", "buggy", True), TrapResponse("b", "clean", False)])


def test_rates_reject_unknown_correction():
    with pytest.raises(ValidationError):
        rates(_responses(1, 1, 1, 1), correction="loglinear")


# --- d' ----------------------------------------------------------------------


def test_d_prime_frozen_values():
    assert d_prime(0.84, 0.16) == pytest.approx(D_84_16, abs=1e-9)
    assert d_prime(0.95, 0.05) == pytest.approx(D_95_05, abs=1e-9)


def test_d_prime_equal_rates_is_exactly_zero():
    assert d_prime(0.3, 0.3) == 0.0
    assert d_prime(0.735, 0.735) == 0.0


def test_d_prime_rejects_boundary_rates():
    with pytest.raises(DomainError, match="correction"):
        d_prime(1.0, 0.2)
    with pytest.raises(DomainError):
        d_prime(0.8, 0.0)


@settings(max_examples=100, deadline=None)
@given(
    st.floats(min_value=0.01, max_value=0.99),
    st.floats(min_value=0.01, max_value=0.99),
)
def test_d_prime_antisymmetric_in_its_arguments(h, f):
    assert d_prime(h, f) == -d_prime(f, h)


@settings(max_examples=100, deadline=None)
@given(
    st.floats(min_value=0.02, max_value=0.97),
    st.floats(min_value=0.01, max_value=0.98),
)
def test_d_prime_increases_with_hit_rate(h, f):
    assert d_prime(h + 0.01, f) > d_prime(h, f)


# --- the logistic trap-detection score ---------------------------------------


def test_m_ht_is_half_at_delta():
    assert m_ht(DEFAULT_DELTA) == 0.5
    assert m_ht(2.5, k=2.0, delta=2.5) == 0.5


def test_m_ht_frozen_value():
    assert m_ht(2.9891) == pytest.approx(M_HT_29891, abs=1e-12)


def test_m_ht_zero_slope_is_flat():
    for d in (-5.0, 0.0, 1.0, 9.0):
        assert m_ht(d, k=0.0) == 0.5


def test_m_ht_rejects_negative_slope():
    with pytest.raises(ValidationError):
        m_ht(1.0, k=-0.5)


def test_m_ht_extreme_arguments_stay_finite():
    assert m_ht(-1e6) == 0.0
    assert m_ht(1e6) == 1.0
    assert 0.0 <= m_ht(-745.0) <= 1.0


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=-50, max_value=50), st.floats(min_value=-50, max_value=50))
def test_m_ht_monotone_and_bounded(a, b):
    lo, hi = sorted((a, b))
    assert 0.0 <= m_ht(lo) <= m_ht(hi) <= 1.0


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=-8, max_value=8))
def test_m_ht_translation_symmetry(d):
    # Around the midpoint the logistic is odd: s(delta+x) + s(delta-x) = 1.
    total = m_ht(DEFAULT_DELTA + d) + m_ht(DEFAULT_DELTA - d)
    assert total == pytest.approx(1.0, abs=1e-12)


# --- full scoring pipeline ----------------------------------------------------


def test_score_responses_keeps_raw_and_corrected_rates():
    result = score_responses("rev", _responses(hits=10, misses=0, fas=0, rejects=10))
    assert result.reviewer == "rev"
    assert (result.hit_rate, result.fa_rate) == (1.0, 0.0)
    assert result.hit_rate_corrected == pytest.approx(0.95)
    assert result.fa_rate_corrected == pytest.approx(0.05)
    assert result.correction_applied
    assert result.d_prime == pytest.approx(D_95_05, abs=1e-9)
    assert (result.k, result.delta) == (DEFAULT_K, DEFAULT_DELTA)
    assert result.criterion_c == pytest.approx(0.0, abs=1e-12)


def test_score_responses_echoes_overridden_parameters():
    result = score_responses(
        "rev", _responses(5, 5, 5, 5), k=2.0, delta=0.5, correction="none"
    )
    assert (result.k, result.delta) == (2.0, 0.5)
    assert result.d_prime == 0.0
    assert result.m_ht == pytest.approx(1.0 / (1.0 + math.exp(1.0)), abs=1e-12)


def test_simulated_reviewer_recovers_its_sensitivity():
    truths = (["trap"] * 50_000) + (["clean"] * 50_000)
    flags = simulate_reviewer(truths, 2.0, seed=11)
    responses = [
        TrapResponse(f"i{i:06d}", t, f) for i, (t, f) in enumerate(zip(truths, flags))
    ]
    result = score_responses("sim", responses)
    assert result.d_prime == pytest.approx(2.0, abs=0.02)


def test_guessing_reviewer_scores_near_zero():
    truths = (["trap"] * 50_000) + (["clean"] * 50_000)
    flags = simulate_reviewer(truths, 0.0, seed=12)
    responses = [
        TrapResponse(f"i{i:06d}", t, f) for i, (t, f) in enumerate(zip(truths, flags))
    ]
    result = score_responses("sim", responses)
    assert abs(result.d_prime) < 0.05


def test_simulate_reviewer_is_deterministic():
    truths = ["trap", "clean"] * 50
    assert simulate_reviewer(truths, 1.5, seed=3) == simulate_reviewer(truths, 1.5, seed=3)
    assert simulate_reviewer(truths, 1.5, seed=3) != simulate_reviewer(truths, 1.5, seed=4)


# --- response files -----------------------------------------------------------


def test_load_responses_groups_by_reviewer(tmp_path):
    path = tmp_path / "responses.jsonl"
    path.write_text(
        '{"reviewer": "a", "item_id": "i1", "ground_truth": "trap", "flagged": true}\n'
        '{"reviewer": "b", "item_id": "i1", "ground_truth": "trap", "flagged": false}\n'
        '{"reviewer": "a", "item_id": "i2", "ground_truth": "clean", "flagged": false}\n'
    )
    loaded = load_responses(path)
    assert sorted(loaded) == ["a", "b"]
    assert len(loaded["a"]) == 2
    assert loaded["a"][0] == TrapResponse("i1", "trap", True)


def test_load_responses_reports_bad_line(tmp_path):
    path = tmp_path / "responses.jsonl"
    path.write_text(
        '{"reviewer": "a", "item_id": "i1", "ground_truth": "trap", "flagged": true}\n'
        '{"reviewer": "a", "item_id": "i2"}\n'
    )
    with pytest.raises(ValidationError, match=":2:"):
        load_responses(path)


@pytest.mark.parametrize("flagged", ['"false"', '"true"', "0", "1", "null"])
def test_load_responses_accepts_only_json_booleans(tmp_path, flagged):
    path = tmp_path / "responses.jsonl"
    path.write_text(
        '{"reviewer": "a", "item_id": "i1", "ground_truth": "trap", "flagged": true}\n'
        '{"reviewer": "a", "item_id": "i2", "ground_truth": "clean", '
        f'"flagged": {flagged}}}\n'
    )
    with pytest.raises(ValidationError, match=r"responses\.jsonl:2: .*'flagged'"):
        load_responses(path)


def test_load_responses_rejects_empty_file(tmp_path):
    path = tmp_path / "responses.jsonl"
    path.write_text("\n")
    with pytest.raises(ValidationError):
        load_responses(path)
