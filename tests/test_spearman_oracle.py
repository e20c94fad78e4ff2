"""The Spearman permutation kernel against ``reference_spearman``, and rho
against the numpy formula it replaced.

The reference is the kernel that the bounded-block one replaced: it tiles the
centred y ranks into one (100k x n) array per chunk, shuffles it at once and
compares float correlations with a 1e-12 slack.  The production kernel
shuffles about 256 KB of rows at a time, counts its chunks on forked workers
from ``FORK_MIN_PERMUTATIONS`` on, and compares exact integer statistics; its
p must be the same float, bit for bit, on one CPU or two.

rho once came from BLAS sums over float ranks; it now comes from exact integer
sums, rounded once.  Below 200,000 rows the BLAS sums were exact too, so rho,
and the p values that follow from it, must be the same floats, bit for bit.
"""

import importlib
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc

import pytest
from scipy.stats import rankdata

import reference_spearman as R
from vibecheck.errors import ValidationError
from vibecheck.io import read_csv
from vibecheck.stats import tdist
from vibecheck.stats.spearman import spearman

S = importlib.import_module("vibecheck.stats.spearman")

# 1 and 4,999/5,001 fall inside and across the shuffle blocks of one chunk;
# 100,000/100,001/250,001 end on and just past 100k-chunk boundaries.
COUNTS = (1, 4_999, 5_001, 100_000, 100_001, 250_001)


def _numpy_path(xs, ys):
    """The centred ranks, their sums and rho as the numpy path computed them:
    BLAS sums over scipy's average ranks, centred by their mean."""
    rx, ry = rankdata(xs), rankdata(ys)
    cx, cy = rx - rx.mean(), ry - ry.mean()
    sxx, syy = float(cx @ cx), float(cy @ cy)
    return cx, cy, sxx, syy, max(-1.0, min(1.0, float((cx @ cy) / math.sqrt(sxx * syy))))


def _reference_p(xs, ys, permutations, seed):
    """The p that ``spearman`` returned with the reference kernel."""
    cx, cy, sxx, syy, rho = _numpy_path(xs, ys)
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


def _design_xy(seed):
    """The 50 (x, y) pairs the benchmark's design workload writes for ``seed``."""
    rng = random.Random(seed)
    xs = [round(rng.gauss(0.0, 1.0), 2) for _ in range(50)]
    return xs, [round(0.4 * x + rng.gauss(0.0, 1.0), 2) for x in xs]


def _assert_matches_the_numpy_path(xs, ys, permutations=0, seed=None):
    result = spearman(xs, ys, permutations=permutations, seed=seed)
    rho, n = _numpy_path(xs, ys)[-1], len(xs)
    assert result.rho == rho
    if abs(rho) == 1.0:
        assert result.p_two_sided == 0.0
    else:
        t = rho * math.sqrt((n - 2) / (1.0 - rho * rho))
        assert result.p_two_sided == 2.0 * tdist.sf(abs(t), n - 2)
    if permutations:
        assert result.p_permutation == _reference_p(xs, ys, permutations, seed)


def test_fixture_and_design_inputs_match_the_numpy_path(fixtures):
    data = read_csv(fixtures / "spearman" / "quiz_scores.csv", ("x", "y"), float)
    _assert_matches_the_numpy_path(data["x"], data["y"], 1_000, 0)
    for seed in (1, 2):
        _assert_matches_the_numpy_path(*_design_xy(seed), 1_000, seed)


def test_random_samples_match_the_numpy_path():
    rng = random.Random(21)
    for k in range(600):
        n = rng.randrange(4, 401)
        levels = rng.choice((2, 3, 5, 10, 50, 10**9))  # ties, from many to none
        xs = [rng.randrange(levels) for _ in range(n)]
        ys = [rng.randrange(levels) + x // 2 for x in xs]
        if len(set(xs)) > 1 and len(set(ys)) > 1:
            _assert_matches_the_numpy_path(xs, ys, 200 if k % 60 == 0 else 0, k)


@pytest.mark.parametrize("n, digits", [(150_000, 2), (199_998, 6)])
def test_large_samples_match_the_numpy_path(n, digits):
    # Even n: the centred ranks are half-integers, the harder case for floats.
    rng = random.Random(n)
    xs = [round(rng.gauss(0.0, 1.0), digits) for _ in range(n)]
    ys = [round(0.27 * x + rng.gauss(0.0, 1.0), digits) for x in xs]
    _assert_matches_the_numpy_path(xs, ys)


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


def test_permutation_memory_is_bounded(monkeypatch):
    # The reference's 100k x 50 tile per chunk, its shuffled copy and their
    # product peak at about 116 MB here.  One CPU, so that the chunks are
    # counted in this process, where tracemalloc sees their buffers.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    xs, ys = _sample("weak", 50, 10)
    tracemalloc.start()
    try:
        spearman(xs, ys, permutations=300_000, seed=11)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "GOTO_NUM_THREADS")
_ENVS = {  # the variables each child sets; every other BLAS variable is unset
    "one-blas-thread": {var: "1" for var in _BLAS_THREAD_VARS},
    "blas-thread-vars-unset": {},
    "prescott-kernel": {"OPENBLAS_CORETYPE": "Prescott"},
}
_FORK_CHILD = """
import json, os, sys
os.sched_setaffinity(0, json.loads(sys.argv[1]))
forks, real_fork = [], os.fork
os.fork = lambda: forks.append(1) or real_fork()
from vibecheck.stats.spearman import spearman
xs, ys = json.loads(sys.argv[2])
p = spearman(xs, ys, permutations=250_001, seed=9).p_permutation
print(json.dumps([p, len(forks) > 0]))
"""


@pytest.mark.skipif(len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2,
                    reason="needs two CPUs and the affinity call")
@pytest.mark.parametrize("env", list(_ENVS))
def test_forked_p_is_the_in_process_p_in_a_fresh_interpreter(repo_root, env):
    # numpy, and with it OpenBLAS's own threads, is loaded before the pool
    # forks; the pool's thread check does not see those native threads.
    xs, ys = _sample("weak", 20, 8)
    expected = _reference_p(xs, ys, 250_001, 9)
    child_env = {k: v for k, v in os.environ.items()
                 if k not in (*_BLAS_THREAD_VARS, "OPENBLAS_CORETYPE")}
    child_env.update(_ENVS[env], PYTHONPATH=str(repo_root / "src"))
    for cpus, forked in ((sorted(os.sched_getaffinity(0))[:1], False),
                         (sorted(os.sched_getaffinity(0))[:2], True)):
        proc = subprocess.run(
            [sys.executable, "-c", _FORK_CHILD, json.dumps(cpus), json.dumps([xs, ys])],
            capture_output=True, text=True, env=child_env, timeout=120, check=True,
        )
        assert json.loads(proc.stdout) == [expected, forked], (cpus, proc.stderr)


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
