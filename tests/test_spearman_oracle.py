"""The Spearman permutation kernel against ``reference_spearman``.

The reference is the kernel that the bounded-block one replaced: it tiles the
centred y ranks into one (100k x n) array per chunk, shuffles it at once and
compares float correlations with a 1e-12 slack.  The production kernel
shuffles about 2 MB of rows at a time on parallel threads and compares exact
integer statistics; its p must be the same float, bit for bit.
"""

import importlib
import math
import os
import random
import tracemalloc

import pytest

import reference_spearman as R
from vibecheck.errors import ValidationError
from vibecheck.io import read_csv
from vibecheck.stats.spearman import rank_average, spearman

S = importlib.import_module("vibecheck.stats.spearman")

# 1 and 4,999/5,001 fall inside and across the shuffle blocks of one chunk;
# 100,000/100,001/250,001 end on and just past 100k-chunk boundaries.
COUNTS = (1, 4_999, 5_001, 100_000, 100_001, 250_001)


def _reference_p(xs, ys, permutations, seed):
    """The p that ``spearman`` returned with the reference kernel."""
    rx = rank_average(xs)
    ry = rank_average(ys)
    cx = rx - rx.mean()
    cy = ry - ry.mean()
    sxx = float(cx @ cx)
    syy = float(cy @ cy)
    rho = max(-1.0, min(1.0, float((cx @ cy) / math.sqrt(sxx * syy))))
    return R._permutation_p(cx, cy, sxx, syy, abs(rho), permutations, seed)


def _sample(kind, n, seed):
    rng = random.Random(seed)
    if kind == "ties":  # four distinct values per column
        xs = [rng.randrange(4) for _ in range(n)]
        ys = [min(3, x // 2 + rng.randrange(3)) for x in xs]
    elif kind == "perfect":
        xs = [rng.random() for _ in range(n)]
        ys = [2.0 * x for x in xs]
    else:  # weakly correlated, rounded as the design workload's data is
        xs = [round(rng.gauss(0.0, 1.0), 2) for _ in range(n)]
        ys = [round(0.2 * x + rng.gauss(0.0, 1.0), 2) for x in xs]
    return xs, ys


@pytest.mark.parametrize(
    "kind, n, seed",
    [("weak", 4, 0), ("ties", 20, 1), ("weak", 20, 2), ("perfect", 20, 3),
     ("weak", 50, 4), ("ties", 50, 5)],
)
@pytest.mark.parametrize("count", COUNTS)
def test_p_is_bit_identical_to_the_reference(kind, n, seed, count):
    xs, ys = _sample(kind, n, seed)
    expected = _reference_p(xs, ys, count, seed)
    assert spearman(xs, ys, permutations=count, seed=seed).p_permutation == expected


@pytest.mark.parametrize("count", (1, 4_999, 5_001))
def test_p_is_bit_identical_at_n_300(count):
    # Shuffle blocks hold 873 rows at n = 300, so 5,001 spans six of them;
    # larger counts would make the reference tile 240 MB.
    xs, ys = _sample("weak", 300, 6)
    assert spearman(xs, ys, permutations=count, seed=7).p_permutation == _reference_p(
        xs, ys, count, 7
    )


def test_quiz_fixture_p_is_pinned(fixtures):
    data = read_csv(fixtures / "spearman" / "quiz_scores.csv", ("x", "y"), float)
    result = spearman(data["x"], data["y"], permutations=1_000_000, seed=0)
    assert result.p_permutation == 0.008244991755008245


@pytest.mark.parametrize("cpus", [{0}, set(range(8)), None],
                         ids=["one-cpu", "eight-cpus", "no-affinity-call"])
def test_p_does_not_depend_on_the_cpu_count(monkeypatch, cpus):
    xs, ys = _sample("weak", 20, 8)
    expected = spearman(xs, ys, permutations=250_001, seed=9).p_permutation
    if cpus is None:  # as on macOS and Windows
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    assert spearman(xs, ys, permutations=250_001, seed=9).p_permutation == expected


def test_permutation_memory_is_bounded():
    # The reference's 100k x 50 tile per chunk, its shuffled copy and their
    # product peak at about 116 MB here.
    xs, ys = _sample("weak", 50, 10)
    tracemalloc.start()
    try:
        spearman(xs, ys, permutations=300_000, seed=11)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_n_past_the_exact_bound_is_refused():
    n = S._MAX_PERMUTATION_N + 1
    xs = list(range(n))
    with pytest.raises(ValidationError, match=f"at most {S._MAX_PERMUTATION_N} paired"):
        spearman(xs, xs, permutations=1, seed=0)


def test_too_many_permutations_are_refused():
    xs = [1.0, 2.0, 3.0, 4.0]
    ys = [1.0, 3.0, 2.0, 4.0]
    with pytest.raises(ValidationError, match="at most 10000000 permutations"):
        spearman(xs, ys, permutations=S._MAX_PERMUTATIONS + 1, seed=0)
