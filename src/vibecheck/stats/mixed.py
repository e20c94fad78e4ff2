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
each group size, kept as Python floats.  The criterion is evaluated in plain
float arithmetic: each theta forms the 3x3 system and factors it with an
unrolled L D L', since a numpy call would cost more in dispatch than the
few dozen flops of the work.  It is minimized over theta by bracketed
golden-section search to 1e-8.  The fixed effects and the standard error of
beta1 come from the same factorisation at the optimum; at theta = 0 the fit
coincides with ordinary least squares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from vibecheck.errors import FitError, ValidationError
from vibecheck.io import as_finite, as_int, as_str, read_jsonl
from vibecheck.reporting import write_jsonl
from vibecheck.rng import make_rng
from vibecheck.sdt import inverse_normal_cdf

CONDITION_CODES = {"trad": 0.0, "vibe": 1.0}

_GOLDEN_TOL = 1e-8
_THETA_MAX = 1e6
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
    students: np.ndarray  # int student id per observation
    occasions: np.ndarray  # int occasion index per observation
    conditions: np.ndarray  # "trad" | "vibe" per observation
    times: np.ndarray  # float time value per observation
    y: np.ndarray
    truth: Optional[GeneratingParams] = None

    def __len__(self) -> int:
        return len(self.y)

    def validate(self) -> None:
        n = len(self.y)
        for name, column in (
            ("students", self.students),
            ("occasions", self.occasions),
            ("conditions", self.conditions),
            ("times", self.times),
        ):
            if len(column) != n:
                raise ValidationError(f"column {name!r} has wrong length")
        if n == 0:
            raise ValidationError("empty cohort dataset")
        # Sorted by (student, occasion), a repeated pair sits next to its twin
        # and each student's rows form one run.
        order = np.lexsort((self.occasions, self.students))
        students, occasions = self.students[order], self.occasions[order]
        same_student = students[1:] == students[:-1]
        if np.any(same_student & (occasions[1:] == occasions[:-1])):
            raise ValidationError("duplicate (student, occasion) observation")
        vibe = self.conditions == "vibe"
        unknown = np.flatnonzero(~vibe & (self.conditions != "trad"))
        if unknown.size:
            condition = self.conditions.tolist()[unknown[0]]
            raise ValidationError(f"unknown condition {condition!r}")
        vibe = vibe[order]
        crossed = same_student & (vibe[1:] != vibe[:-1])
        if np.any(crossed):
            # Name the crossed student whose first row comes first.
            run_starts = np.flatnonzero(np.concatenate(([True], ~same_student)))
            first_rows = np.minimum.reduceat(order, run_starts)
            run_of = np.cumsum(~same_student)  # run of sorted row k + 1
            first = first_rows[run_of[crossed]].min()
            raise ValidationError(
                f"student {self.students.tolist()[first]} appears under multiple conditions"
            )

    __post_init__ = validate

    def records(self) -> list[dict]:
        return [
            {
                "student": int(s),
                "occasion": int(o),
                "condition": str(c),
                "time": float(t),
                "y": float(v),
            }
            for s, o, c, t, v in zip(
                self.students, self.occasions, self.conditions, self.times, self.y
            )
        ]


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
    rng = make_rng(seed)
    n_students = 2 * n_per_condition
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
    students = np.repeat(np.arange(n_students), occasions)
    occasion_col = np.tile(np.arange(occasions), n_students)
    labels = np.where(condition_codes == 1.0, "vibe", "trad")
    return CohortDataset(
        students=students,
        occasions=occasion_col,
        conditions=np.repeat(labels, occasions),
        times=occasion_col.astype(float),
        y=outcome.ravel(),
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
    n: int
    dof: int  # n minus the three fixed effects


def _prepare(data: CohortDataset) -> _Sufficient:
    cond = (data.conditions == "vibe").astype(float)  # as in CONDITION_CODES
    X = np.column_stack([np.ones(len(data)), cond, data.times])
    y = np.asarray(data.y, dtype=float)
    students = np.asarray(data.students)
    order = np.argsort(students, kind="stable")
    X, y, students = X[order], y[order], students[order]
    _, starts, counts_per_student = np.unique(
        students, return_index=True, return_counts=True
    )
    sums_x = np.add.reduceat(X, starts, axis=0)  # X_j' 1 per student
    sums_y = np.add.reduceat(y, starts)  # 1' y_j per student
    by_size: dict[int, list[int]] = {}
    for idx, size in enumerate(counts_per_student.tolist()):
        by_size.setdefault(size, []).append(idx)

    def pack(outer: np.ndarray, cross: np.ndarray, square: float) -> tuple[float, ...]:
        (o00, o01, o02), (_, o11, o12), (_, _, o22) = outer.tolist()
        return (o00, o01, o02, o11, o12, o22, *cross.tolist(), float(square))

    # Sums past the float range are refused below, not warned about.
    with np.errstate(over="ignore", invalid="ignore"):
        groups = []
        for size in sorted(by_size):
            gx, gy = sums_x[by_size[size]], sums_y[by_size[size]]
            sums = pack(np.einsum("jp,jq->pq", gx, gx), gx.T @ gy, np.sum(gy**2))
            groups.append((float(size), float(len(by_size[size])), sums))
        total = pack(X.T @ X, X.T @ y, y @ y)
    every_sum = [total, *(sums for _, _, sums in groups)]
    if not all(math.isfinite(v) for sums in every_sum for v in sums):
        raise FitError(
            "the cohort's sums of squares overflow a float: y spans "
            f"[{y.min():.6g}, {y.max():.6g}] and time [{X[:, 2].min():.6g}, {X[:, 2].max():.6g}]"
        )
    return _Sufficient(
        total=total,
        groups=tuple(groups),
        n=len(y),
        dof=len(y) - X.shape[1],
    )


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
    vibe = data.conditions == "vibe"
    arms = (~vibe, vibe)
    students = [set(data.students[arm].tolist()) for arm in arms]
    if min(len(group) for group in students) < 2:
        raise ValidationError("need at least two students per condition")
    if len(set(data.occasions.tolist())) < 2:
        raise ValidationError("need at least two occasions")
    # X = [1, condition, time] loses rank exactly when time is constant within
    # each condition.  Rounding can leave the last pivot of such a design a
    # hair above zero, so the data are tested, not the pivot.
    if all(np.ptp(data.times[arm]) == 0.0 for arm in arms):
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
    z975 = inverse_normal_cdf(0.975)
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
        n_obs=stats.n,
        n_students=len(students[0]) + len(students[1]),
    )


# --- cohort files ----------------------------------------------------------


def write_cohort(data: CohortDataset, path: Union[str, Path]) -> None:
    """One observation record per line."""
    write_jsonl(path, data.records())


def _observation(rec: dict) -> tuple[int, int, str, float, float]:
    return (
        as_int(rec["student"]),
        as_int(rec["occasion"]),
        as_str(rec["condition"]),
        as_finite(rec["time"]),
        as_finite(rec["y"]),
    )


def read_cohort(path: Union[str, Path]) -> CohortDataset:
    rows = read_jsonl(path, _observation, "observation")
    students, occasions, conditions, times, y = zip(*rows) if rows else ((),) * 5
    try:
        return CohortDataset(
            students=np.array(students, dtype=int),
            occasions=np.array(occasions, dtype=int),
            conditions=np.array(conditions),
            times=np.array(times, dtype=float),
            y=np.array(y, dtype=float),
        )
    except (OverflowError, ValidationError) as exc:  # OverflowError: an id past int64
        raise ValidationError(f"{path}: {exc}") from exc
