"""Rank correlation and inter-rater agreement."""

import csv
import math

import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from vibecheck.errors import (
    ConstantInputError,
    DegenerateAgreementError,
    ValidationError,
)
from vibecheck.rng import make_rng
from vibecheck.stats.kappa import cohens_kappa, pair_counts
from vibecheck.stats.spearman import rank_average, spearman

# Sum of squared rank differences in the quiz fixture is 558, so
# rho = 1 - 6*558 / (20 * 399) exactly.
FIXTURE_RHO = 1.0 - (6.0 * 558.0) / (20.0 * 399.0)


def _load_quiz(fixtures):
    xs, ys = [], []
    with open(fixtures / "spearman" / "quiz_scores.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            xs.append(float(row["x"]))
            ys.append(float(row["y"]))
    return xs, ys


# --- spearman -----------------------------------------------------------------


def test_rank_average_handles_ties():
    assert list(rank_average([10.0, 20.0, 20.0, 30.0])) == [1.0, 2.5, 2.5, 4.0]


def test_fixture_rho_is_exact(fixtures):
    xs, ys = _load_quiz(fixtures)
    result = spearman(xs, ys)
    assert result.rho == pytest.approx(FIXTURE_RHO, abs=1e-12)
    assert result.rho == pytest.approx(0.5804511278, abs=1e-9)
    assert result.n == 20


def test_fixture_p_value_band(fixtures):
    xs, ys = _load_quiz(fixtures)
    result = spearman(xs, ys)
    assert 0.006 <= result.p_two_sided <= 0.010


def test_matches_scipy_t_approximation(fixtures):
    xs, ys = _load_quiz(fixtures)
    result = spearman(xs, ys)
    rho_ref, p_ref = scipy.stats.spearmanr(xs, ys)
    assert result.rho == pytest.approx(rho_ref, abs=1e-12)
    assert result.p_two_sided == pytest.approx(p_ref, abs=1e-9)


@pytest.mark.parametrize("seed", [0, 7])
def test_scipy_agreement_on_random_data(seed):
    rng = make_rng(seed)
    xs = rng.normal(size=15).tolist()
    ys = rng.normal(size=15).tolist()
    result = spearman(xs, ys)
    rho_ref, p_ref = scipy.stats.spearmanr(xs, ys)
    assert result.rho == pytest.approx(rho_ref, abs=1e-12)
    assert result.p_two_sided == pytest.approx(p_ref, abs=1e-9)


def test_perfect_correlation_has_zero_p():
    result = spearman([1, 2, 3, 4, 5], [10, 20, 30, 40, 50])
    assert result.rho == 1.0
    assert result.p_two_sided == 0.0
    inverse = spearman([1, 2, 3, 4, 5], [50, 40, 30, 20, 10])
    assert inverse.rho == -1.0
    assert inverse.p_two_sided == 0.0


def test_monotone_transform_leaves_rho_unchanged(fixtures):
    xs, ys = _load_quiz(fixtures)
    warped = [math.exp(0.3 * y) for y in ys]
    assert spearman(xs, warped).rho == pytest.approx(FIXTURE_RHO, abs=1e-12)


def test_permutation_p_close_to_t_approximation(fixtures):
    xs, ys = _load_quiz(fixtures)
    result = spearman(xs, ys, permutations=100_000, seed=2026)
    assert result.p_permutation is not None
    assert result.p_permutation == pytest.approx(result.p_two_sided, abs=0.002)
    assert result.permutations == 100_000
    assert result.seed == 2026


def test_permutation_p_is_deterministic(fixtures):
    xs, ys = _load_quiz(fixtures)
    a = spearman(xs, ys, permutations=20_000, seed=5)
    b = spearman(xs, ys, permutations=20_000, seed=5)
    assert a.p_permutation == b.p_permutation


def test_permutation_p_never_zero():
    # Add-one smoothing keeps even a perfect correlation away from p = 0.
    result = spearman([1, 2, 3, 4, 5], [1, 2, 3, 4, 5], permutations=1000, seed=1)
    assert result.p_permutation > 0.0


def test_permutations_require_a_seed(fixtures):
    xs, ys = _load_quiz(fixtures)
    with pytest.raises(ValidationError, match="seed"):
        spearman(xs, ys, permutations=100)


def test_constant_input_rejected():
    with pytest.raises(ConstantInputError):
        spearman([3, 3, 3, 3], [1, 2, 3, 4])
    with pytest.raises(ConstantInputError):
        spearman([1, 2, 3, 4], [7, 7, 7, 7])


def test_small_samples_rejected():
    with pytest.raises(ValidationError):
        spearman([1, 2, 3], [4, 5, 6])
    with pytest.raises(ValidationError):
        spearman([1, 2, 3, 4], [4, 5, 6])


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_rho_bounded_on_random_data(seed):
    rng = make_rng(seed)
    xs = rng.normal(size=8).tolist()
    ys = rng.normal(size=8).tolist()
    result = spearman(xs, ys)
    assert -1.0 <= result.rho <= 1.0
    assert 0.0 <= result.p_two_sided <= 1.0


# --- kappa --------------------------------------------------------------------


def test_kappa_worked_example():
    # 45 agreements on each category, 5 disagreements each way:
    # p_o = 0.9, p_e = 0.5, kappa = 0.8.
    a = ["trap"] * 50 + ["clean"] * 50
    b = ["trap"] * 45 + ["clean"] * 5 + ["trap"] * 5 + ["clean"] * 45
    assert cohens_kappa(pair_counts(a, b)) == pytest.approx(0.8, abs=1e-15)


def test_kappa_perfect_agreement():
    labels = ["a", "b", "a", "c", "b", "a"]
    assert cohens_kappa(pair_counts(labels, labels)) == 1.0


def test_kappa_relabel_invariance():
    a = ["trap", "clean", "trap", "clean", "trap", "trap"]
    b = ["trap", "trap", "trap", "clean", "clean", "trap"]
    mapping = {"trap": 1, "clean": 0}
    relabelled = pair_counts([mapping[v] for v in a], [mapping[v] for v in b])
    assert cohens_kappa(pair_counts(a, b)) == pytest.approx(cohens_kappa(relabelled), abs=1e-15)


def test_kappa_null_distribution_centers_near_zero():
    rng = make_rng(99)
    total = 0.0
    trials = 2000
    for _ in range(trials):
        a = rng.integers(0, 2, size=100)
        b = rng.integers(0, 2, size=100)
        total += cohens_kappa(pair_counts(a.tolist(), b.tolist()))
    assert abs(total / trials) < 0.01


def test_kappa_degenerate_single_category():
    with pytest.raises(DegenerateAgreementError):
        cohens_kappa(pair_counts(["x", "x", "x"], ["x", "x", "x"]))


def test_kappa_length_mismatch():
    with pytest.raises(ValidationError, match="length"):
        cohens_kappa(pair_counts([1, 2], [1, 2, 3]))


def test_kappa_empty_rejected():
    with pytest.raises(ValidationError):
        cohens_kappa(pair_counts([], []))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_kappa_never_exceeds_one(seed):
    rng = make_rng(seed)
    a = rng.integers(0, 3, size=30).tolist()
    b = rng.integers(0, 3, size=30).tolist()
    try:
        value = cohens_kappa(pair_counts(a, b))
    except DegenerateAgreementError:
        return
    assert value <= 1.0 + 1e-12
