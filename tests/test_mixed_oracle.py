"""The float REML fit against the numpy reference it replaced.

``tests/reference_mixed.py`` holds the fit as it stood before the criterion
moved to plain float arithmetic.  The criterion itself agrees to rounding.
The fixed effects and the log-likelihood agree to 1e-9.  theta and the
values derived from it may move by the search's tolerance, because the
criterion is flat near its minimum and last-bit differences flip
golden-section comparisons.  The criterion value at the new theta must
then be as good as at the old one.

``CohortDataset.validate`` is checked against the set-and-dict version that
the reference keeps: the same cohorts pass, and the others fail with the same
message.  ``CohortDataset`` runs ``validate`` when it is built, so the harness
builds one from a dict of tuple columns and hands numpy copies of the same
columns to the reference, which reads them with ``tolist``.
"""

import types
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_mixed as ref
from vibecheck.cli import run
from vibecheck.errors import FitError, ValidationError
from vibecheck.stats import mixed
from vibecheck.stats.mixed import CohortDataset, GeneratingParams, simulate_cohort

PARAMS = GeneratingParams(beta0=1.0, beta1=0.4, beta2=0.2, sigma_u=0.5, sigma_e=0.5)
THETAS = (0.0, 1e-8, 1e-3, 0.1, 1.0, 10.0, 1e3, 1e6)


def _arrays(data: CohortDataset) -> CohortDataset:
    """The same cohort with numpy columns, as the reference reads it."""
    return CohortDataset(*map(np.asarray, _columns(data).values()))


def _subset(data: CohortDataset, keep: list[bool]) -> CohortDataset:
    return CohortDataset(
        *(tuple(v for v, k in zip(column, keep) if k) for column in _columns(data).values())
    )


def _balanced() -> CohortDataset:
    return simulate_cohort(PARAMS, 10, 4, seed=11)


def _unbalanced() -> CohortDataset:
    # Students with 2, 3 and 4 observations in both conditions, missing
    # different occasions, so that time is not balanced across conditions
    # and no entry of the factorisation vanishes.
    data = simulate_cohort(PARAMS, 6, 4, seed=12)
    kept = {0: {0, 1}, 1: {0, 1, 2}, 7: {1, 2, 3}, 8: {2, 3}}
    keep = [o in kept.get(s, {0, 1, 2, 3}) for s, o in zip(data.students, data.occasions)]
    subset = _subset(data, keep)
    assert sorted(set(Counter(subset.students).values())) == [2, 3, 4]
    return subset


def _constant_time(value: float) -> CohortDataset:
    data = simulate_cohort(PARAMS, 3, 3, seed=13)
    return CohortDataset(
        students=data.students,
        occasions=data.occasions,
        conditions=data.conditions,
        times=(value,) * len(data),
        y=data.y,
    )


@pytest.mark.parametrize("make", [_balanced, _unbalanced], ids=["balanced", "unbalanced"])
@pytest.mark.parametrize("theta", THETAS)
def test_criterion_matches_reference(make, theta):
    data = make()
    new = mixed._reml_criterion(mixed._prepare(data), theta)
    old = ref._reml_criterion(ref._prepare(_arrays(data)), theta)
    assert new == pytest.approx(old, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("make", [_balanced, _unbalanced], ids=["balanced", "unbalanced"])
def test_gls_pieces_match_reference(make):
    data = make()
    stats, ref_stats = mixed._prepare(data), ref._prepare(_arrays(data))
    for theta in THETAS:
        beta, sigma2, logdet_w, logdet_a, ainv11 = mixed._gls(stats, theta)
        ref_beta, ref_sigma2, ref_a, ref_logdet_w, ref_logdet_a = ref._gls(ref_stats, theta)
        # A's condition number grows like theta: as theta grows the
        # student-level columns are identified by fewer and fewer digits.
        assert beta == pytest.approx(ref_beta.tolist(), rel=1e-12 * (1.0 + theta))
        assert sigma2 == pytest.approx(ref_sigma2, rel=1e-10)
        assert logdet_w == pytest.approx(ref_logdet_w, rel=1e-12)
        assert logdet_a == pytest.approx(ref_logdet_a, rel=1e-10)
        assert ainv11 == pytest.approx(np.linalg.inv(ref_a)[1, 1], rel=1e-10)


def test_fits_match_reference_over_seeds():
    for seed in range(100):
        data = simulate_cohort(PARAMS, 40, 4, seed=seed)
        new, old = mixed.fit_mixed(data), ref.fit_mixed(_arrays(data))
        for field in ("beta0", "beta1", "beta2", "reml_loglik"):
            assert getattr(new, field) == pytest.approx(getattr(old, field), rel=1e-9), (
                seed, field)
        for field in ("theta", "sigma_u", "sigma_e", "se_beta1"):
            assert getattr(new, field) == pytest.approx(getattr(old, field), rel=1e-6), (
                seed, field)
        assert (new.n_obs, new.n_students) == (old.n_obs, old.n_students)
        # Where theta moved, it moved along the flat bottom of the criterion.
        ref_stats = ref._prepare(_arrays(data))
        at_new = ref._reml_criterion(ref_stats, new.theta)
        at_old = ref._reml_criterion(ref_stats, old.theta)
        assert at_new == pytest.approx(at_old, rel=1e-10), seed


@pytest.mark.parametrize("value", [0.0, 1.0])
def test_constant_time_is_a_fit_error_on_both_paths(value, tmp_path, capsys):
    data = _constant_time(value)
    with pytest.raises(FitError, match="time is constant within each condition"):
        mixed.fit_mixed(data)
    with pytest.raises(FitError):
        ref.fit_mixed(_arrays(data))
    # The factorisation refuses the singular system on its own, too.
    with pytest.raises(FitError, match="not positive definite"):
        mixed._gls(mixed._prepare(data), 0.5)
    path = tmp_path / "cohort.jsonl"
    mixed.write_cohort(data, path)
    assert run(["fit", "--data", str(path)]) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("vcp: computation error: singular fixed-effect design")


def test_time_confounded_with_condition_is_refused_where_rounding_hides_it():
    # At these values the last pivot can round to a hair above zero.
    for value in (0.3, 7.1):
        with pytest.raises(FitError, match="time is constant within each condition"):
            mixed.fit_mixed(_constant_time(value))
    data = _constant_time(0.0)
    per_condition = tuple(2.5 if c == "vibe" else 0.5 for c in data.conditions)
    confounded = CohortDataset(
        data.students, data.occasions, data.conditions, per_condition, data.y
    )
    with pytest.raises(FitError, match="time is constant within each condition"):
        mixed.fit_mixed(confounded)


# --- validate ----------------------------------------------------------------


def _new(columns: dict) -> None:
    CohortDataset(**columns)


def _ref(columns: dict, conditions_dtype=None) -> None:
    arrays = {name: np.asarray(column) for name, column in columns.items()}
    arrays["conditions"] = np.asarray(columns["conditions"], dtype=conditions_dtype)
    ref.validate(types.SimpleNamespace(**arrays))


def _verdict(check, columns: dict, *args):
    try:
        check(columns, *args)
    except ValidationError as exc:
        return str(exc)
    return None


def _columns(data: CohortDataset) -> dict:
    names = ("students", "occasions", "conditions", "times", "y")
    return {name: getattr(data, name) for name in names}


def _cohort(rows) -> dict:
    n = len(rows)
    return dict(
        students=tuple(r[0] for r in rows),
        occasions=tuple(r[1] for r in rows),
        conditions=tuple(r[2] for r in rows),
        times=tuple(float(i) for i in range(n)),
        y=(0.0,) * n,
    )


def test_validate_passes_what_the_reference_passes(tmp_path):
    for seed in range(20):
        columns = _columns(simulate_cohort(PARAMS, 1 + seed % 7, 1 + seed % 5, seed=seed))
        assert _verdict(_new, columns) is None
        assert _verdict(_ref, columns) is None
    path = tmp_path / "cohort.jsonl"
    mixed.write_cohort(_unbalanced(), path)
    assert _verdict(_ref, _columns(mixed.read_cohort(path))) is None


# Each case fails the reference; the comment names what it probes.
_INVALID = {
    # The crossed student listed first is not the lowest id.
    "first_crossed_by_row": [(5, 0, "trad"), (2, 0, "trad"), (2, 1, "vibe"), (5, 1, "vibe")],
    # Student 5's first row is not its lowest occasion.
    "first_row_not_first_occasion": [(5, 1, "trad"), (2, 0, "trad"), (2, 1, "vibe"),
                                     (5, 0, "vibe")],
    "crossed_late_row": [(3, 0, "trad"), (1, 0, "vibe"), (1, 1, "vibe"), (3, 1, "trad"),
                         (1, 2, "trad")],
    "unknown_beats_crossed": [(0, 0, "trad"), (0, 1, "vibe"), (1, 0, "control")],
    "first_unknown_by_row": [(0, 0, "trad"), (1, 0, "placebo"), (2, 0, "Vibe")],
    "duplicate_beats_unknown": [(0, 0, "control"), (1, 0, "trad"), (1, 0, "trad")],
    "duplicate_apart": [(4, 2, "vibe"), (0, 0, "trad"), (4, 1, "vibe"), (4, 2, "vibe")],
    "negative_ids": [(-3, 0, "trad"), (7, 0, "vibe"), (-3, 1, "vibe")],
    "float_ids": [(1.5, 0.0, "trad"), (1.5, 1.0, "vibe")],
    "empty_condition": [(0, 0, "")],
}


@pytest.mark.parametrize("rows", _INVALID.values(), ids=_INVALID.keys())
@pytest.mark.parametrize("conditions_dtype", [None, object], ids=["str", "object"])
def test_validate_refuses_what_the_reference_refuses(rows, conditions_dtype):
    # The reference's verdict must not depend on the dtype of its numpy copy.
    columns = _cohort(rows)
    expected = _verdict(_ref, columns, conditions_dtype)
    assert expected is not None
    assert _verdict(_new, columns) == expected


def test_validate_refuses_short_columns_and_empty_cohorts():
    good = _columns(simulate_cohort(PARAMS, 2, 2, seed=0))
    for name in ("students", "occasions", "conditions", "times"):
        short = {**good, name: good[name][:-1]}
        assert _verdict(_new, short) == _verdict(_ref, short)
        assert name in _verdict(_new, short)
    empty = _cohort([])
    assert _verdict(_new, empty) == _verdict(_ref, empty)


_ROW = st.tuples(
    st.integers(-2, 5),
    st.integers(0, 3),
    st.sampled_from(["trad", "vibe", "trad", "vibe", "control"]),
)
# Half the draws repeat no (student, occasion) pair, so they reach the
# condition checks.
_ROWS = st.one_of(
    st.lists(_ROW, min_size=1, max_size=24),
    st.lists(_ROW, min_size=1, max_size=24, unique_by=lambda r: r[:2]),
)


@settings(max_examples=400, deadline=None)
@given(_ROWS)
def test_validate_agrees_with_reference_on_random_cohorts(rows):
    columns = _cohort(rows)
    assert _verdict(_new, columns) == _verdict(_ref, columns)
