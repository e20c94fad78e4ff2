"""The Spearman permutation kernel as it stood before the bounded-block
rewrite: each 100k chunk tiles ``cy`` into a (size x n) array, shuffles the
whole tile at once and compares float correlations against ``|rho|`` less a
1e-12 slack.  Test-only reference: ``tests/test_spearman_oracle.py`` checks
the production kernel against it.  Kept verbatim; do not edit.
"""

from __future__ import annotations

import math

import numpy as np

from vibecheck.rng import make_rng

_PERMUTATION_CHUNK = 100_000


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
