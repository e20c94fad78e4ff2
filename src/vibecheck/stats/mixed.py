"""Random-intercept mixed model: cohort simulator and REML fit.

The generating model for repeated measures of student j at occasion i is

    y_ij = beta0 + beta1 * condition_j + beta2 * time_i + u_j + eps_ij

with ``u_j ~ N(0, sigma_u^2)`` drawn once per student and independent
``eps_ij ~ N(0, sigma_e^2)``.  Condition is coded 0 (trad) / 1 (vibe) and
time is the occasion index.

The fit profiles the variance ratio ``theta = sigma_u^2 / sigma_e^2``:
for fixed theta the per-student covariance is ``sigma_e^2 (I + theta J)``,
whose inverse and determinant are closed-form (Sherman-Morrison), so the
REML criterion

    (n - p) log(sigma_e^2(theta)) + log|W(theta)| + log|X' W(theta)^-1 X|

reduces to sums of per-student sufficient statistics over the students of
each group size.  The rows are put in (student, occasion) order and every
sum is added up one float at a time in that order, so the fit does not
depend on the row order of the cohort or on a BLAS kernel.  The criterion
is evaluated in plain float arithmetic: each theta forms the 3x3 system and
factors it with an unrolled L D L'.  It is minimized over theta by bracketed
golden-section search to 1e-8.  The fixed effects and the standard error of
beta1 come from the same factorisation at the optimum; at theta = 0 the fit
coincides with ordinary least squares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter
from pathlib import Path
from statistics import NormalDist
from typing import Optional, Union

from vibecheck.errors import FitError, ValidationError
from vibecheck.io import as_finite, as_int, as_str, fields, read_jsonl
from vibecheck.reporting import write_jsonl
from vibecheck.rng import make_rng

CONDITION_CODES = {"trad": 0.0, "vibe": 1.0}

_GOLDEN_TOL = 1e-8
_THETA_MAX = 1e6
_MAX_OBS = 1_000_000
_SINGULAR = "singular fixed-effect design: X' W^-1 X is not positive definite"


@dataclass(frozen=True)
class GeneratingParams:
    beta0: float
    beta1: float
    beta2: float
    sigma_u: float
    sigma_e: float

    def validate(self) -> None:
        if self.sigma_u < 0.0 or self.sigma_e < 0.0:
            raise ValidationError("standard deviations must be >= 0")

    __post_init__ = validate


@dataclass(frozen=True)
class CohortDataset:
    students: tuple[int, ...]  # student id per observation
    occasions: tuple[int, ...]  # occasion index per observation
    conditions: tuple[str, ...]  # "trad" | "vibe" per observation
    times: tuple[float, ...]  # time value per observation
    y: tuple[float, ...]
    truth: Optional[GeneratingParams] = None

    def __len__(self) -> int:
        return len(self.y)

    def validate(self) -> None:
        n = len(self.y)
        for name in ("students", "occasions", "conditions", "times"):
            if len(getattr(self, name)) != n:
                raise ValidationError(f"column {name!r} has wrong length")
        if n == 0:
            raise ValidationError("empty cohort dataset")
        if len(set(zip(self.students, self.occasions))) != n:
            raise ValidationError("duplicate (student, occasion) observation")
        arm: dict = {}  # each student's first condition, in order of first row
        crossed = set()
        for student, condition in zip(self.students, self.conditions):
            if condition not in CONDITION_CODES:
                raise ValidationError(f"unknown condition {condition!r}")
            if arm.setdefault(student, condition) != condition:
                crossed.add(student)
        if crossed:
            first = next(student for student in arm if student in crossed)
            raise ValidationError(f"student {first} appears under multiple conditions")

    __post_init__ = validate

    def rows(self):
        """(student, occasion, condition, time, y) per observation."""
        return zip(self.students, self.occasions, self.conditions, self.times, self.y)

    def records(self) -> list[dict]:
        names = ("student", "occasion", "condition", "time", "y")
        return [dict(zip(names, row)) for row in self.rows()]


@dataclass(frozen=True)
class MixedModelFit:
    beta0: float
    beta1: float
    beta2: float
    sigma_u: float
    sigma_e: float
    se_beta1: float
    ci95_beta1: tuple[float, float]
    theta: float
    reml_loglik: float
    n_obs: int
    n_students: int


def simulate_cohort(
    params: GeneratingParams,
    n_per_condition: int,
    occasions: int,
    seed: int,
) -> CohortDataset:
    """Balanced two-condition cohort, deterministic for a given seed."""
    if n_per_condition < 1:
        raise ValidationError("need at least one student per condition")
    if occasions < 1:
        raise ValidationError("need at least one occasion")
    n_students = 2 * n_per_condition
    if n_students * occasions > _MAX_OBS:
        raise ValidationError(
            f"a simulated cohort holds at most {_MAX_OBS} observations, got "
            f"{n_students * occasions} ({n_students} students x {occasions} occasions)"
        )
    import numpy as np

    rng = make_rng(seed)
    condition_codes = np.repeat([0.0, 1.0], n_per_condition)
    u = rng.normal(0.0, params.sigma_u, size=n_students)
    eps = rng.normal(0.0, params.sigma_e, size=(n_students, occasions))
    time = np.arange(occasions, dtype=float)
    outcome = (
        params.beta0
        + params.beta1 * condition_codes[:, None]
        + params.beta2 * time[None, :]
        + u[:, None]
        + eps
    )
    return CohortDataset(
        students=tuple(s for s in range(n_students) for _ in range(occasions)),
        occasions=tuple(range(occasions)) * n_students,
        conditions=("trad",) * (n_per_condition * occasions)
        + ("vibe",) * (n_per_condition * occasions),
        times=tuple(time.tolist()) * n_students,
        y=tuple(outcome.ravel().tolist()),
        truth=params,
    )


# --- REML fit --------------------------------------------------------------


@dataclass(frozen=True)
class _Sufficient:
    """The fit's sufficient statistics, as Python floats.

    A statistic tuple holds the six distinct entries (00, 01, 02, 11, 12, 22)
    of a symmetric 3x3 matrix built from X, the three entries of a matching
    vector built from X and y, and one scalar built from y.
    """

    total: tuple[float, ...]  # X'X, X'y, y'y
    # Per distinct group size T: (T, number of students with that size,
    # sum_j (X_j' 1)(X_j' 1)', sum_j (X_j' 1)(1' y_j), sum_j (1' y_j)^2).
    groups: tuple[tuple[float, float, tuple[float, ...]], ...]
    dof: int  # observations minus the three fixed effects


def _moments(rows) -> tuple[float, ...]:
    """The six entries of sum a a', the three of sum a v and sum v v over rows
    (a0, a1, a2, v), each added left to right."""
    s00 = s01 = s02 = s11 = s12 = s22 = s0 = s1 = s2 = ss = 0.0
    for a0, a1, a2, v in rows:
        s00 += a0 * a0
        s01 += a0 * a1
        s02 += a0 * a2
        s11 += a1 * a1
        s12 += a1 * a2
        s22 += a2 * a2
        s0 += a0 * v
        s1 += a1 * v
        s2 += a2 * v
        ss += v * v
    return (s00, s01, s02, s11, s12, s22, s0, s1, s2, ss)


def _prepare(data: CohortDataset) -> _Sufficient:
    # Rows (student, occasion, 1, condition, time, y) in (student, occasion) order.
    rows = sorted((s, o, 1.0, CONDITION_CODES[c], t, v) for s, o, c, t, v in data.rows())
    # Per group size T: X_j' 1 and 1' y_j of each student j with T rows.
    by_size: dict[int, list[tuple[float, ...]]] = {}
    for _, run in groupby(rows, key=itemgetter(0)):
        size, t0, t1, t2, tv = 0, 0.0, 0.0, 0.0, 0.0
        for _, _, a0, a1, a2, v in run:
            size, t0, t1, t2, tv = size + 1, t0 + a0, t1 + a1, t2 + a2, tv + v
        by_size.setdefault(size, []).append((t0, t1, t2, tv))
    groups = tuple(
        (float(size), float(len(sums)), _moments(sums)) for size, sums in sorted(by_size.items())
    )
    total = _moments(row[2:] for row in rows)
    if not all(math.isfinite(v) for sums in (total, *(g[2] for g in groups)) for v in sums):
        raise FitError(
            "the cohort's sums of squares overflow a float: y spans "
            f"[{min(data.y):.6g}, {max(data.y):.6g}] and time "
            f"[{min(data.times):.6g}, {max(data.times):.6g}]"
        )
    return _Sufficient(total=total, groups=groups, dof=len(rows) - 3)


def _gls(stats: _Sufficient, theta: float):
    """GLS pieces at a variance ratio theta (error variance profiled out).

    Forms A = X' W^-1 X, b = X' W^-1 y and q = y' W^-1 y (times sigma_e^2)
    and factors A = L D L' with unit lower-triangular L.  Returns beta,
    sigma_e^2, log|W|, log|A| and (A^-1)_11.
    """
    # Sum c_T times each size's statistics first, then subtract from the
    # totals: at large theta the difference cancels most of the digits.
    s00 = s01 = s02 = s11 = s12 = s22 = s0 = s1 = s2 = ss = logdet_w = 0.0
    for size, count, (o00, o01, o02, o11, o12, o22, c0, c1, c2, cs) in stats.groups:
        shrink = theta / (1.0 + size * theta)  # c_T
        s00 += shrink * o00
        s01 += shrink * o01
        s02 += shrink * o02
        s11 += shrink * o11
        s12 += shrink * o12
        s22 += shrink * o22
        s0 += shrink * c0
        s1 += shrink * c1
        s2 += shrink * c2
        ss += shrink * cs
        logdet_w += count * math.log1p(size * theta)
    t00, t01, t02, t11, t12, t22, t0, t1, t2, ts = stats.total
    a00, a01, a02 = t00 - s00, t01 - s01, t02 - s02
    a11, a12, a22 = t11 - s11, t12 - s12, t22 - s22
    b0, b1, b2, q = t0 - s0, t1 - s1, t2 - s2, ts - ss
    # An unrolled L D L' factorisation; `not d > 0` also refuses a NaN pivot.
    if not a00 > 0.0:
        raise FitError(_SINGULAR)
    l10, l20 = a01 / a00, a02 / a00
    d1 = a11 - l10 * a01
    if not d1 > 0.0:
        raise FitError(_SINGULAR)
    l21 = (a12 - l20 * a01) / d1
    d2 = a22 - l20 * a02 - l21 * l21 * d1
    if not d2 > 0.0:
        raise FitError(_SINGULAR)
    z1 = b1 - l10 * b0
    beta2 = (b2 - l20 * b0 - l21 * z1) / d2
    beta1 = z1 / d1 - l21 * beta2
    beta0 = b0 / a00 - l10 * beta1 - l20 * beta2
    rss = max(q - (beta0 * b0 + beta1 * b1 + beta2 * b2), 0.0)
    return (
        (beta0, beta1, beta2),
        rss / stats.dof,
        logdet_w,
        math.log(a00 * d1 * d2),
        1.0 / d1 + l21 * l21 / d2,
    )


def _reml_criterion(stats: _Sufficient, theta: float) -> float:
    _, sigma2, logdet_w, logdet_a, _ = _gls(stats, theta)
    if sigma2 <= 0.0:
        # A perfect fit makes the criterion unbounded below; treat as -inf.
        return -math.inf
    return stats.dof * math.log(sigma2) + logdet_w + logdet_a


def _golden_section(f, lo: float, hi: float, tol: float) -> float:
    """Minimize a unimodal function on [lo, hi] to interval width tol."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    return (a + b) / 2.0


def fit_mixed(data: CohortDataset) -> MixedModelFit:
    """REML fit of the random-intercept model to a cohort dataset."""
    stats = _prepare(data)
    students = {"trad": set(), "vibe": set()}
    times = {"trad": set(), "vibe": set()}
    for student, _, condition, time, _ in data.rows():
        students[condition].add(student)
        times[condition].add(time)
    if min(len(arm) for arm in students.values()) < 2:
        raise ValidationError("need at least two students per condition")
    if len(set(data.occasions)) < 2:
        raise ValidationError("need at least two occasions")
    # X = [1, condition, time] loses rank exactly when time is constant within
    # each condition.  Rounding can leave the last pivot of such a design a
    # hair above zero, so the data are tested, not the pivot.
    if all(len(arm) == 1 for arm in times.values()):
        raise FitError(
            "singular fixed-effect design: time is constant within each condition"
        )

    def criterion(theta: float) -> float:
        return _reml_criterion(stats, theta)

    # Expand an upper bracket until the criterion stops improving.
    hi = 1.0
    best = min(criterion(0.0), criterion(hi))
    while hi < _THETA_MAX:
        trial = criterion(hi * 4.0)
        if trial >= best:
            break
        best = trial
        hi *= 4.0
    theta = _golden_section(criterion, 0.0, hi * 4.0 if hi * 4.0 <= _THETA_MAX else hi, _GOLDEN_TOL)
    # The boundary theta = 0 (no student variance) is a valid optimum; take
    # it when it beats the interior point found by the search.
    if criterion(0.0) <= criterion(theta):
        theta = 0.0
    (beta0, beta1, beta2), sigma2, logdet_w, logdet_a, ainv11 = _gls(stats, theta)
    if sigma2 <= 0.0:
        raise FitError(
            "residual variance is zero: the fixed effects fit every observation exactly"
        )
    se1 = math.sqrt(sigma2 * ainv11)
    z975 = NormalDist().inv_cdf(0.975)
    reml_loglik = -0.5 * (
        stats.dof * math.log(2.0 * math.pi * sigma2) + logdet_w + logdet_a + stats.dof
    )
    return MixedModelFit(
        beta0=beta0,
        beta1=beta1,
        beta2=beta2,
        sigma_u=math.sqrt(theta * sigma2),
        sigma_e=math.sqrt(sigma2),
        se_beta1=se1,
        ci95_beta1=(beta1 - z975 * se1, beta1 + z975 * se1),
        theta=float(theta),
        reml_loglik=reml_loglik,
        n_obs=len(data),
        n_students=len(students["trad"]) + len(students["vibe"]),
    )


# --- cohort files ----------------------------------------------------------


def write_cohort(data: CohortDataset, path: Union[str, Path]) -> None:
    """One observation record per line."""
    write_jsonl(path, data.records())


_OBSERVATION_FIELDS = {
    "student": as_int, "occasion": as_int, "condition": as_str, "time": as_finite, "y": as_finite,
}


def read_cohort(path: Union[str, Path]) -> CohortDataset:
    rows = read_jsonl(
        path, lambda rec: tuple(fields(rec, _OBSERVATION_FIELDS).values()), "observation"
    )
    columns = zip(*rows) if rows else ((),) * 5
    try:
        return CohortDataset(*columns)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc
