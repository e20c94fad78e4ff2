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

reduces to per-student sufficient statistics and is minimized over theta by
bracketed golden-section search to 1e-8.  Fixed effects and their standard
errors come from GLS at the optimum; at theta = 0 the fit coincides with
ordinary least squares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from vibecheck.errors import FitError, ValidationError
from vibecheck.io import as_finite, as_int, read_jsonl
from vibecheck.reporting import write_jsonl
from vibecheck.rng import make_rng
from vibecheck.sdt import inverse_normal_cdf

CONDITION_CODES = {"trad": 0.0, "vibe": 1.0}

_GOLDEN_TOL = 1e-8
_THETA_MAX = 1e6


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
        pairs = set(zip(self.students.tolist(), self.occasions.tolist()))
        if len(pairs) != n:
            raise ValidationError("duplicate (student, occasion) observation")
        per_student: dict[int, set[str]] = {}
        for student, condition in zip(self.students.tolist(), self.conditions.tolist()):
            if condition not in CONDITION_CODES:
                raise ValidationError(f"unknown condition {condition!r}")
            per_student.setdefault(student, set()).add(condition)
        for student, conds in per_student.items():
            if len(conds) != 1:
                raise ValidationError(
                    f"student {student} appears under multiple conditions"
                )

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
    params.validate()
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
    dataset = CohortDataset(
        students=students,
        occasions=occasion_col,
        conditions=np.repeat(labels, occasions),
        times=occasion_col.astype(float),
        y=outcome.ravel(),
        truth=params,
    )
    dataset.validate()
    return dataset


# --- REML fit --------------------------------------------------------------


@dataclass(frozen=True)
class _Sufficient:
    """Per-group-size aggregates of per-student sufficient statistics."""

    sizes: np.ndarray  # distinct group sizes T
    counts: np.ndarray  # number of students with each size
    sum_outer: np.ndarray  # per size: sum_j (X_j' 1)(X_j' 1)'   (shape k, p, p)
    sum_cross: np.ndarray  # per size: sum_j (X_j' 1)(1' y_j)    (shape k, p)
    sum_square: np.ndarray  # per size: sum_j (1' y_j)^2          (shape k,)
    xtx: np.ndarray
    xty: np.ndarray
    yty: float
    n: int
    p: int


def _prepare(data: CohortDataset) -> _Sufficient:
    data.validate()
    cond = np.array([CONDITION_CODES[c] for c in data.conditions.tolist()])
    X = np.column_stack([np.ones(len(data)), cond, data.times])
    y = np.asarray(data.y, dtype=float)
    students = np.asarray(data.students)
    order = np.argsort(students, kind="stable")
    X, y, students = X[order], y[order], students[order]
    _, starts, counts_per_student = np.unique(
        students, return_index=True, return_counts=True
    )
    p = X.shape[1]
    sums_x = np.add.reduceat(X, starts, axis=0)  # X_j' 1 per student
    sums_y = np.add.reduceat(y, starts)  # 1' y_j per student
    by_size: dict[int, list[int]] = {}
    for idx, size in enumerate(counts_per_student.tolist()):
        by_size.setdefault(size, []).append(idx)
    sizes = np.array(sorted(by_size), dtype=float)
    counts = np.array([len(by_size[int(t)]) for t in sizes], dtype=float)
    sum_outer = np.stack(
        [
            np.einsum("jp,jq->pq", sums_x[by_size[int(t)]], sums_x[by_size[int(t)]])
            for t in sizes
        ]
    )
    sum_cross = np.stack(
        [sums_x[by_size[int(t)]].T @ sums_y[by_size[int(t)]] for t in sizes]
    )
    sum_square = np.array(
        [float(np.sum(sums_y[by_size[int(t)]] ** 2)) for t in sizes]
    )
    return _Sufficient(
        sizes=sizes,
        counts=counts,
        sum_outer=sum_outer,
        sum_cross=sum_cross,
        sum_square=sum_square,
        xtx=X.T @ X,
        xty=X.T @ y,
        yty=float(y @ y),
        n=len(y),
        p=p,
    )


def _gls(stats: _Sufficient, theta: float):
    """GLS pieces at a variance ratio theta (error variance profiled out)."""
    shrink = theta / (1.0 + stats.sizes * theta)  # per size: c_T
    A = stats.xtx - np.einsum("k,kpq->pq", shrink, stats.sum_outer)
    b = stats.xty - shrink @ stats.sum_cross
    q = stats.yty - float(shrink @ stats.sum_square)
    try:
        beta = np.linalg.solve(A, b)
    except np.linalg.LinAlgError as exc:
        raise FitError(f"singular fixed-effect design: {exc}") from exc
    rss = max(q - float(beta @ b), 0.0)
    dof = stats.n - stats.p
    sigma2 = rss / dof
    logdet_w = float(stats.counts @ np.log1p(stats.sizes * theta))
    sign, logdet_a = np.linalg.slogdet(A)
    if sign <= 0:
        raise FitError("fixed-effect information matrix is not positive definite")
    return beta, sigma2, A, logdet_w, logdet_a


def _reml_criterion(stats: _Sufficient, theta: float) -> float:
    _, sigma2, _, logdet_w, logdet_a = _gls(stats, theta)
    if sigma2 <= 0.0:
        # A perfect fit makes the criterion unbounded below; treat as -inf.
        return -math.inf
    return (stats.n - stats.p) * math.log(sigma2) + logdet_w + logdet_a


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
    students = set(np.asarray(data.students).tolist())
    by_condition: dict[str, set[int]] = {"trad": set(), "vibe": set()}
    for student, cond in zip(data.students.tolist(), data.conditions.tolist()):
        by_condition[cond].add(student)
    if min(len(v) for v in by_condition.values()) < 2:
        raise ValidationError("need at least two students per condition")
    if len(set(data.occasions.tolist())) < 2:
        raise ValidationError("need at least two occasions")

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
    beta, sigma2, A, logdet_w, logdet_a = _gls(stats, theta)
    dof = stats.n - stats.p
    covariance = sigma2 * np.linalg.inv(A)
    se1 = float(math.sqrt(covariance[1, 1]))
    z975 = inverse_normal_cdf(0.975)
    reml_loglik = -0.5 * (
        dof * math.log(2.0 * math.pi * sigma2) + logdet_w + logdet_a + dof
    )
    return MixedModelFit(
        beta0=float(beta[0]),
        beta1=float(beta[1]),
        beta2=float(beta[2]),
        sigma_u=float(math.sqrt(theta * sigma2)),
        sigma_e=float(math.sqrt(sigma2)),
        se_beta1=se1,
        ci95_beta1=(float(beta[1] - z975 * se1), float(beta[1] + z975 * se1)),
        theta=float(theta),
        reml_loglik=float(reml_loglik),
        n_obs=stats.n,
        n_students=len(students),
    )


# --- cohort files ----------------------------------------------------------


def write_cohort(data: CohortDataset, path: Union[str, Path]) -> None:
    """One observation record per line."""
    write_jsonl(path, data.records())


def _observation(rec: dict) -> tuple[int, int, str, float, float]:
    return (
        as_int(rec["student"]),
        as_int(rec["occasion"]),
        str(rec["condition"]),
        as_finite(rec["time"]),
        as_finite(rec["y"]),
    )


def read_cohort(path: Union[str, Path]) -> CohortDataset:
    rows = read_jsonl(path, _observation, "observation")
    students, occasions, conditions, times, y = zip(*rows) if rows else ((),) * 5
    try:
        dataset = CohortDataset(
            students=np.array(students, dtype=int),
            occasions=np.array(occasions, dtype=int),
            conditions=np.array(conditions),
            times=np.array(times, dtype=float),
            y=np.array(y, dtype=float),
        )
    except OverflowError as exc:  # an id past the range of a machine integer
        raise ValidationError(f"{path}: {exc}") from exc
    dataset.validate()
    return dataset
