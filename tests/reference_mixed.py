"""The random-intercept REML fit as it stood before the float rewrite: numpy
sufficient statistics, GLS pieces from ``np.linalg.solve`` and
``np.linalg.slogdet`` at each theta, and the fixed-effect covariance from
``np.linalg.inv`` at the optimum.  Test-only reference:
``tests/test_mixed_oracle.py`` checks the production fit against it.  Kept
verbatim but for one line: z(0.975) comes from scipy, not from the toolkit,
so the oracle does not take the quantile from the code it checks.

``validate`` is ``CohortDataset.validate`` as it stood before it moved to
sorted array work: a set of (student, occasion) pairs and a dict of each
student's conditions.  ``tests/test_mixed_oracle.py`` checks that the
production method refuses the same cohorts with the same messages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.stats import norm

from vibecheck.errors import FitError, ValidationError
from vibecheck.stats.mixed import (
    CONDITION_CODES,
    CohortDataset,
    MixedModelFit,
    _GOLDEN_TOL,
    _THETA_MAX,
)


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
    z975 = float(norm.ppf(0.975))
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


def validate(self: CohortDataset) -> None:
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
