"""Cohort simulator and random-intercept REML fit."""

import numpy as np
import pytest

from vibecheck.errors import FitError, ValidationError
from vibecheck.stats.mixed import (
    CohortDataset,
    GeneratingParams,
    fit_mixed,
    read_cohort,
    simulate_cohort,
    write_cohort,
)

PARAMS = GeneratingParams(beta0=1.0, beta1=0.4, beta2=0.2, sigma_u=0.5, sigma_e=0.5)

# 4 students x 2 occasions with no student-level variance component; the
# REML profile bottoms out at theta = 0 where GLS reduces to plain OLS.
_TINY_ROWS = [
    (0, 0, "trad", 0.0, 1.0), (0, 1, "trad", 1.0, 1.4),
    (1, 0, "trad", 0.0, 0.9), (1, 1, "trad", 1.0, 1.5),
    (2, 0, "vibe", 0.0, 1.6), (2, 1, "vibe", 1.0, 2.1),
    (3, 0, "vibe", 0.0, 1.5), (3, 1, "vibe", 1.0, 2.2),
]


def _dataset(rows):
    return CohortDataset(
        students=np.array([r[0] for r in rows]),
        occasions=np.array([r[1] for r in rows]),
        conditions=np.array([r[2] for r in rows]),
        times=np.array([r[3] for r in rows], dtype=float),
        y=np.array([r[4] for r in rows], dtype=float),
    )


# --- simulator ----------------------------------------------------------------


def test_simulated_cohort_shape():
    data = simulate_cohort(PARAMS, n_per_condition=6, occasions=4, seed=0)
    assert len(data) == 48
    assert sorted(set(data.conditions.tolist())) == ["trad", "vibe"]
    assert set(data.occasions.tolist()) == {0, 1, 2, 3}
    assert len(set(data.students.tolist())) == 12
    assert data.truth == PARAMS
    data.validate()


def test_simulated_cohort_is_balanced():
    data = simulate_cohort(PARAMS, n_per_condition=5, occasions=3, seed=0)
    per_condition = {"trad": set(), "vibe": set()}
    for student, cond in zip(data.students.tolist(), data.conditions.tolist()):
        per_condition[cond].add(student)
    assert len(per_condition["trad"]) == len(per_condition["vibe"]) == 5


def test_simulator_deterministic_per_seed():
    a = simulate_cohort(PARAMS, 6, 4, seed=42)
    b = simulate_cohort(PARAMS, 6, 4, seed=42)
    c = simulate_cohort(PARAMS, 6, 4, seed=43)
    assert np.array_equal(a.y, b.y)
    assert not np.array_equal(a.y, c.y)


def test_noiseless_simulation_is_pure_fixed_effects():
    quiet = GeneratingParams(beta0=1.0, beta1=0.4, beta2=0.2, sigma_u=0.0, sigma_e=0.0)
    data = simulate_cohort(quiet, 3, 3, seed=0)
    for rec in data.records():
        expected = 1.0 + 0.4 * (rec["condition"] == "vibe") + 0.2 * rec["time"]
        assert rec["y"] == pytest.approx(expected, abs=1e-12)


def test_simulator_validation():
    with pytest.raises(ValidationError):
        simulate_cohort(PARAMS, 0, 4, seed=0)
    with pytest.raises(ValidationError):
        simulate_cohort(PARAMS, 5, 0, seed=0)
    with pytest.raises(ValidationError):
        simulate_cohort(
            GeneratingParams(1.0, 0.4, 0.2, sigma_u=-1.0, sigma_e=0.5), 5, 4, seed=0
        )


# --- fit ----------------------------------------------------------------------


def test_fit_recovers_noiseless_coefficients_exactly():
    quiet = GeneratingParams(beta0=1.0, beta1=0.4, beta2=0.2, sigma_u=0.0, sigma_e=0.0)
    fit = fit_mixed(simulate_cohort(quiet, 5, 3, seed=0))
    assert fit.beta0 == pytest.approx(1.0, abs=1e-8)
    assert fit.beta1 == pytest.approx(0.4, abs=1e-8)
    assert fit.beta2 == pytest.approx(0.2, abs=1e-8)


def test_theta_zero_reduces_to_ols():
    fit = fit_mixed(_dataset(_TINY_ROWS))
    X = np.column_stack([
        np.ones(8),
        [0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0],
        [r[3] for r in _TINY_ROWS],
    ])
    beta_ols = np.linalg.lstsq(X, np.array([r[4] for r in _TINY_ROWS]), rcond=None)[0]
    assert fit.theta == 0.0
    assert fit.beta0 == pytest.approx(beta_ols[0], abs=1e-6)
    assert fit.beta1 == pytest.approx(beta_ols[1], abs=1e-6)
    assert fit.beta2 == pytest.approx(beta_ols[2], abs=1e-6)
    assert fit.beta1 == pytest.approx(0.65, abs=1e-9)
    assert fit.sigma_u == 0.0


def test_fit_estimates_are_in_range():
    fit = fit_mixed(simulate_cohort(PARAMS, 40, 4, seed=7))
    assert fit.n_obs == 320
    assert fit.n_students == 80
    assert abs(fit.beta1 - 0.4) < 3.5 * fit.se_beta1
    assert 0.3 < fit.sigma_u < 0.7
    assert 0.3 < fit.sigma_e < 0.7
    # Per-student mean variance 0.5^2 + 0.5^2/4 over 40 students per arm.
    assert fit.se_beta1 == pytest.approx(np.sqrt(2.0 * 0.3125 / 40.0), rel=0.3)


def test_confidence_interval_is_symmetric_about_estimate():
    fit = fit_mixed(simulate_cohort(PARAMS, 20, 4, seed=9))
    lo, hi = fit.ci95_beta1
    assert lo < fit.beta1 < hi
    assert (fit.beta1 - lo) == pytest.approx(hi - fit.beta1, abs=1e-12)
    assert (hi - lo) == pytest.approx(2.0 * 1.959963984540053 * fit.se_beta1, abs=1e-9)


def test_fit_deterministic():
    data = simulate_cohort(PARAMS, 15, 4, seed=21)
    assert fit_mixed(data) == fit_mixed(data)


def test_large_student_variance_detected():
    loud = GeneratingParams(beta0=1.0, beta1=0.4, beta2=0.2, sigma_u=1.0, sigma_e=0.5)
    fit = fit_mixed(simulate_cohort(loud, 40, 4, seed=5))
    assert fit.sigma_u > fit.sigma_e
    assert fit.theta > 1.0


def test_zero_student_variance_hits_boundary():
    flat = GeneratingParams(beta0=1.0, beta1=0.4, beta2=0.2, sigma_u=0.0, sigma_e=0.5)
    fit = fit_mixed(simulate_cohort(flat, 40, 4, seed=3))
    assert fit.theta == 0.0
    assert fit.sigma_u == 0.0
    assert 0.4 < fit.sigma_e < 0.6


def test_fit_of_constant_outcome_is_a_fit_error():
    # sigma_e = 0 exactly; log(2 pi sigma^2) used to raise a math domain error.
    flat = [(s, o, c, t, 3.0) for s, o, c, t, _ in _TINY_ROWS]
    with pytest.raises(FitError, match="residual variance is zero"):
        fit_mixed(_dataset(flat))


def test_fit_requires_replication():
    rows = [r for r in _TINY_ROWS if r[0] in (0, 2)]
    with pytest.raises(ValidationError, match="two students"):
        fit_mixed(_dataset(rows))
    single_occasion = [r for r in _TINY_ROWS if r[1] == 0]
    with pytest.raises(ValidationError, match="occasions"):
        fit_mixed(_dataset(single_occasion))


def test_dataset_validation():
    doubled = _TINY_ROWS + [_TINY_ROWS[0]]
    with pytest.raises(ValidationError, match="duplicate"):
        _dataset(doubled).validate()
    crossed = list(_TINY_ROWS)
    crossed[1] = (0, 1, "vibe", 1.0, 1.4)
    with pytest.raises(ValidationError, match="multiple conditions"):
        _dataset(crossed).validate()
    renamed = list(_TINY_ROWS)
    renamed[0] = (0, 0, "control", 0.0, 1.0)
    with pytest.raises(ValidationError, match="condition"):
        _dataset(renamed).validate()
    with pytest.raises(ValidationError, match="empty"):
        _dataset([]).validate()


# --- cohort files -------------------------------------------------------------


def test_cohort_round_trip(tmp_path):
    data = simulate_cohort(PARAMS, 8, 4, seed=13)
    path = tmp_path / "cohort.jsonl"
    write_cohort(data, path)
    loaded = read_cohort(path)
    assert np.array_equal(loaded.students, data.students)
    assert np.array_equal(loaded.occasions, data.occasions)
    assert loaded.conditions.tolist() == data.conditions.tolist()
    assert np.array_equal(loaded.times, data.times)
    assert np.array_equal(loaded.y, data.y)
    assert loaded.truth is None
    assert fit_mixed(loaded) == fit_mixed(data)


def test_read_cohort_reports_bad_line(tmp_path):
    path = tmp_path / "cohort.jsonl"
    good = '{"student": 0, "occasion": 0, "condition": "trad", "time": 0.0, "y": 1.0}'
    path.write_text(good + "\n" + "{not json}\n")
    with pytest.raises(ValidationError, match=r":2:"):
        read_cohort(path)


def test_read_cohort_missing_field(tmp_path):
    path = tmp_path / "cohort.jsonl"
    path.write_text('{"student": 0, "occasion": 0, "condition": "trad", "time": 0.0}\n')
    with pytest.raises(ValidationError, match=r":1:"):
        read_cohort(path)
