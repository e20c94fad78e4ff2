"""Spearman rank correlation with a t-approximation and permutation p.

rho is the Pearson correlation of the two rank vectors, with tied values
receiving the average of the ranks they span, from exact integer sums that
are rounded once, so it depends on neither the row order nor a BLAS kernel.
The analytic two-sided p uses ``t = rho * sqrt((n - 2) / (1 - rho^2))`` on
n - 2 degrees of freedom.  An optional seeded Monte-Carlo permutation test
(at least 1e5 permutations recommended, and the only user of numpy here)
gives ``p = (1 + #extreme) / (1 + B)``.  It takes at most 10,000,000
permutations, and samples of at most 200,000 pairs, the largest for which
its integer statistic stays exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby
from operator import mul
from typing import Optional, Sequence

from vibecheck.errors import ConstantInputError, ValidationError
from vibecheck.pool import available_cpus
from vibecheck.rng import make_rng
from vibecheck.stats import tdist

_PERMUTATION_CHUNK = 100_000  # permutations per seeded stream
_BLOCK_BYTES = 256 << 10  # size of one chunk's shuffle buffer, whatever n is
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


def centred_ranks(values: Sequence[float]) -> list[int]:
    """Twice the centred average rank of each value, ``2*rank - (n + 1)``.

    Tied values share the average of the 1-based ranks they span, so the
    result holds integers: ranks ``i+1 .. j`` average to ``(i + j + 1) / 2``.
    """
    n = len(values)
    ranks = [0] * n
    i = 0
    for _, tied in groupby(sorted(range(n), key=values.__getitem__), values.__getitem__):
        tied = list(tied)
        j = i + len(tied)
        for k in tied:
            ranks[k] = i + j - n
        i = j
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
    if not all(map(math.isfinite, x)) or not all(map(math.isfinite, y)):
        raise ValidationError("samples must hold finite numbers, not nan or inf")
    rx = centred_ranks(x)
    ry = centred_ranks(y)
    sxx = sum(map(mul, rx, rx))
    syy = sum(map(mul, ry, ry))
    if sxx == 0 or syy == 0:
        raise ConstantInputError("correlation is undefined for a constant input vector")
    sxy = sum(map(mul, rx, ry))
    # The one rounding: each sum, divided by 4 to the sum over the centred
    # ranks themselves, becomes the nearest float.
    rho = max(-1.0, min(1.0, (sxy / 4) / math.sqrt((sxx / 4) * (syy / 4))))
    if abs(rho) == 1.0:
        p = 0.0
    else:
        t = rho * math.sqrt((n - 2) / (1.0 - rho * rho))
        p = 2.0 * tdist.sf(abs(t), n - 2)
    p_perm = _permutation_p(rx, ry, abs(sxy), permutations, seed) if permutations else None
    return SpearmanResult(rho=rho, p_two_sided=p, n=n, p_permutation=p_perm,
                          permutations=permutations, seed=seed)


def _permutation_p(
    ix: Sequence[int], iy: Sequence[int], observed: int, permutations: int, seed: int
) -> float:
    """Two-sided permutation p with the add-one estimator.

    ``ix`` and ``iy`` are twice the centred ranks and ``observed`` is
    ``|iy @ ix|``, so ``|perm(iy) @ ix| >= observed`` compares exact
    statistics.  Chunk k of 100k permutations draws from
    ``make_rng(seed, k)`` and shuffles one ~256 KB buffer of rows at a time,
    as the generator would shuffle the whole chunk.  Chunks are counted on
    parallel threads and their integer counts summed, so p does not depend
    on the CPU count.
    """
    from concurrent.futures import ThreadPoolExecutor

    import numpy as np

    n = len(iy)
    ix, iy = np.array(ix, dtype=float), np.array(iy, dtype=float)
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
    with ThreadPoolExecutor(min(chunks, available_cpus())) as pool:
        extreme = sum(pool.map(count, range(chunks)))
    return (1 + extreme) / (1 + permutations)
