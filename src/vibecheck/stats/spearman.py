"""Spearman rank correlation with a t-approximation and permutation p.

rho is the Pearson correlation of the two rank vectors, with tied values
receiving the average of the ranks they span.  The analytic two-sided p
uses ``t = rho * sqrt((n - 2) / (1 - rho^2))`` on n - 2 degrees of
freedom.  An optional seeded Monte-Carlo permutation test (at least 1e5
permutations recommended) gives a distribution-free cross-check:
``p = (1 + #extreme) / (1 + B)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from vibecheck.errors import ConstantInputError, ValidationError
from vibecheck.rng import make_rng
from vibecheck.stats import tdist

_PERMUTATION_CHUNK = 100_000


@dataclass(frozen=True)
class SpearmanResult:
    rho: float
    p_two_sided: float
    n: int
    p_permutation: Optional[float]
    permutations: int
    seed: Optional[int]


def rank_average(values: Sequence[float]) -> np.ndarray:
    """1-based ranks; ties share the average of the ranks they occupy."""
    arr = np.asarray(values, dtype=float)
    order = np.argsort(arr, kind="stable")
    ranks = np.empty(len(arr), dtype=float)
    i = 0
    while i < len(arr):
        j = i
        while j + 1 < len(arr) and arr[order[j + 1]] == arr[order[i]]:
            j += 1
        # Ranks i+1 .. j+1 average to (i + j) / 2 + 1.
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def spearman(
    x: Sequence[float],
    y: Sequence[float],
    permutations: int = 0,
    seed: Optional[int] = None,
) -> SpearmanResult:
    """Spearman correlation of two equal-length samples (n >= 4)."""
    if len(x) != len(y):
        raise ValidationError(f"samples differ in length: {len(x)} vs {len(y)}")
    n = len(x)
    if n < 4:
        raise ValidationError(f"need at least 4 paired observations, got {n}")
    if permutations < 0:
        raise ValidationError("permutation count must be >= 0")
    if permutations and seed is None:
        raise ValidationError("a seed is required when permutations are requested")
    rx = rank_average(x)
    ry = rank_average(y)
    cx = rx - rx.mean()
    cy = ry - ry.mean()
    sxx = float(cx @ cx)
    syy = float(cy @ cy)
    if sxx == 0.0 or syy == 0.0:
        raise ConstantInputError(
            "correlation is undefined for a constant input vector"
        )
    rho = float((cx @ cy) / math.sqrt(sxx * syy))
    rho = max(-1.0, min(1.0, rho))
    if abs(rho) == 1.0:
        p = 0.0
    else:
        t = rho * math.sqrt((n - 2) / (1.0 - rho * rho))
        p = 2.0 * tdist.sf(abs(t), n - 2)
    p_perm = None
    if permutations:
        p_perm = _permutation_p(cx, cy, sxx, syy, abs(rho), permutations, seed)
    return SpearmanResult(
        rho=rho,
        p_two_sided=p,
        n=n,
        p_permutation=p_perm,
        permutations=permutations,
        seed=seed,
    )


def _permutation_p(
    cx: np.ndarray,
    cy: np.ndarray,
    sxx: float,
    syy: float,
    abs_rho: float,
    permutations: int,
    seed: int,
) -> float:
    """Two-sided permutation p with the add-one estimator, chunked."""
    denom = math.sqrt(sxx * syy)
    threshold = abs_rho - 1e-12  # count float-equal statistics as extreme
    extreme = 0
    done = 0
    chunk_index = 0
    while done < permutations:
        size = min(_PERMUTATION_CHUNK, permutations - done)
        rng = make_rng(seed, chunk_index)
        perms = rng.permuted(np.tile(cy, (size, 1)), axis=1)
        rhos = np.abs(perms @ cx) / denom
        extreme += int(np.count_nonzero(rhos >= threshold))
        done += size
        chunk_index += 1
    return (1 + extreme) / (1 + permutations)
