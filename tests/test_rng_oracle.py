"""PhiloxStream against numpy's Generator, draw for draw.

numpy is the oracle here only: the trap forge draws from ``PhiloxStream``
without importing it.  The oracle generator is built here from numpy's
parts, and ``make_rng`` is checked to build the same one.  Every case also
checks one further ``integers(1000)`` so that a stream left in a different
state than numpy's fails too.
"""

import numpy as np
import pytest

from vibecheck.rng import PhiloxStream, make_rng


def _numpy(*key):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((len(key),) + key)))


KEYS = [
    (0,),
    (1,),
    (2026,),
    (1, 0),
    (0, 0),
    (7, 3),
    (3, 7),
    (2**32 - 1,),
    (2**32,),
    (2**32 + 1, 5),
    (2**64 + 3, 2**40),
    (1, 2, 3, 4, 5, 6),
]
INTEGER_BOUNDS = [1, 2, 3, 264, 2**31, 2**32 - 1, 2**32]
PATH_BOUNDARIES = [
    (10_000, 5_000),
    (10_001, 200),
    (10_001, 201),
    (20_000, 400),
    (20_000, 401),
    (12_000, 12_000),
]


def _same_state(ours: PhiloxStream, theirs) -> bool:
    return ours.integers(1000) == int(theirs.integers(1000))


@pytest.mark.parametrize("key", KEYS)
@pytest.mark.parametrize("n", INTEGER_BOUNDS)
def test_integers_match_numpy(key, n):
    ours, theirs = PhiloxStream(*key), _numpy(*key)
    assert [ours.integers(n) for _ in range(21)] == [int(theirs.integers(n)) for _ in range(21)]
    assert _same_state(ours, theirs)


@pytest.mark.parametrize("key", [(0,), (5,), (5, 0), (2**32 + 1, 5)])
def test_sample_matches_numpy_on_small_populations(key):
    for n in range(1, 401):
        for k in sorted({0, 1, n // 2, n}):
            ours, theirs = PhiloxStream(*key), _numpy(*key)
            assert ours.sample(n, k) == theirs.choice(n, size=k, replace=False).tolist(), (n, k)
            assert _same_state(ours, theirs), (n, k)


@pytest.mark.parametrize("key", [(0,), (1,), (9, 4)])
@pytest.mark.parametrize("n, k", PATH_BOUNDARIES)
def test_sample_matches_numpy_across_the_tail_shuffle_cutoff(key, n, k):
    ours, theirs = PhiloxStream(*key), _numpy(*key)
    assert ours.sample(n, k) == theirs.choice(n, size=k, replace=False).tolist()
    assert _same_state(ours, theirs)


def test_sample_of_nothing_draws_nothing():
    ours = PhiloxStream(3)
    assert ours.sample(0, 0) == []
    assert ours.sample(50, 0) == []
    assert _same_state(ours, _numpy(3))


@pytest.mark.parametrize("seed", [0, 1, 2, 41])
@pytest.mark.parametrize("n", [1, 2, 7, 264])
def test_interleaved_draws_as_generate_corpus_makes_them(seed, n):
    requested = (n + 1) // 2
    ours, theirs = PhiloxStream(seed), _numpy(seed)
    assert ours.sample(n, requested) == theirs.choice(n, size=requested, replace=False).tolist()
    for i in range(n - 1, 0, -1):
        assert ours.integers(i + 1) == int(theirs.integers(i + 1))
    assert _same_state(ours, theirs)
    for index in range(n):
        item, oracle = PhiloxStream(seed, index), _numpy(seed, index)
        for bound in (5, 3, 17):
            assert item.integers(bound) == int(oracle.integers(bound))


@pytest.mark.parametrize("key", KEYS)
def test_make_rng_is_the_oracle_generator(key):
    ours, theirs = make_rng(*key), _numpy(*key)
    assert ours.integers(2**63, size=9).tolist() == theirs.integers(2**63, size=9).tolist()


@pytest.mark.parametrize("key", [(-1,), (3, -1), (-(2**40),)])
def test_negative_key_component_is_refused_like_numpy(key):
    with pytest.raises(ValueError):
        make_rng(*key)
    with pytest.raises(ValueError, match="non-negative"):
        PhiloxStream(*key)


def test_empty_key_is_refused():
    with pytest.raises(ValueError, match="at least one"):
        PhiloxStream()


def test_bounds_past_32_bits_are_refused():
    stream = PhiloxStream(0)
    with pytest.raises(ValueError):
        stream.integers(2**32 + 1)
    with pytest.raises(ValueError):
        stream.sample(2**32 + 1, 1)
    with pytest.raises(ValueError):
        stream.integers(0)
    with pytest.raises(ValueError):
        stream.sample(5, 6)
    with pytest.raises(ValueError):
        stream.sample(5, -1)
    # Refused calls draw nothing.
    assert _same_state(stream, _numpy(0))
