"""Spearman rank correlation with a t-approximation and permutation p.

rho is the Pearson correlation of the two rank vectors, with tied values
receiving the average of the ranks they span.  The analytic two-sided p
uses ``t = rho * sqrt((n - 2) / (1 - rho^2))`` on n - 2 degrees of
freedom.  An optional seeded Monte-Carlo permutation test (at least 1e5
permutations recommended) gives a distribution-free cross-check:
``p = (1 + #extreme) / (1 + B)``.  It takes at most 10,000,000
permutations, and samples of at most 200,000 pairs, the largest for which
its integer statistic stays exact.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from vibecheck.errors import ConstantInputError, ValidationError
from vibecheck.rng import make_rng
from vibecheck.stats import tdist

_PERMUTATION_CHUNK = 100_000  # permutations per seeded stream
_BLOCK_BYTES = 2 << 20  # size of one chunk's shuffle buffer, whatever n is
_MAX_PERMUTATIONS = 10_000_000
# Twice the centred ranks are integers of magnitude below n, so every
# permutation statistic is an integer sum bounded by n**3, exact in float64
# while n**3 < 2**53.
_MAX_PERMUTATION_N = 200_000


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
    if permutations > _MAX_PERMUTATIONS:
        raise ValidationError(
            f"the permutation test takes at most {_MAX_PERMUTATIONS} permutations, "
            f"got {permutations}"
        )
    if permutations and seed is None:
        raise ValidationError("a seed is required when permutations are requested")
    if permutations and n > _MAX_PERMUTATION_N:
        raise ValidationError(
            f"the permutation test takes at most {_MAX_PERMUTATION_N} paired "
            f"observations, got {n}"
        )
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
        p_perm = _permutation_p(2.0 * cx, 2.0 * cy, permutations, seed)
    return SpearmanResult(
        rho=rho,
        p_two_sided=p,
        n=n,
        p_permutation=p_perm,
        permutations=permutations,
        seed=seed,
    )


def _permutation_p(ix: np.ndarray, iy: np.ndarray, permutations: int, seed: int) -> float:
    """Two-sided permutation p with the add-one estimator.

    ``ix`` and ``iy`` are twice the centred ranks, so they hold integers
    and ``|perm(iy) @ ix| >= |iy @ ix|`` compares exact statistics.  Chunk k
    of 100k permutations draws from ``make_rng(seed, k)`` and shuffles one
    buffer of about 2 MB at a time; the generator consumes its draws row by
    row, so the rows are those of the whole chunk shuffled at once.  Chunks
    are counted on parallel threads and their integer counts summed, so p
    does not depend on the number of CPUs.
    """
    from concurrent.futures import ThreadPoolExecutor

    n = len(iy)
    observed = abs(float(iy @ ix))
    rows = max(1, _BLOCK_BYTES // (8 * n))

    def count(chunk_index: int) -> int:
        size = min(_PERMUTATION_CHUNK, permutations - chunk_index * _PERMUTATION_CHUNK)
        rng = make_rng(seed, chunk_index)
        buffer = np.empty((min(rows, size), n))
        extreme = 0
        for start in range(0, size, len(buffer)):
            block = buffer[: size - start]
            block[:] = iy
            rng.permuted(block, axis=1, out=block)
            extreme += int(np.count_nonzero(np.abs(block @ ix) >= observed))
        return extreme

    chunks = -(-permutations // _PERMUTATION_CHUNK)
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:  # macOS and Windows have no affinity call
        cpus = os.cpu_count() or 1
    with ThreadPoolExecutor(min(chunks, cpus)) as pool:
        extreme = sum(pool.map(count, range(chunks)))
    return (1 + extreme) / (1 + permutations)
