"""PhiloxStream against numpy's Generator, draw for draw.

numpy is the oracle here only: the trap forge and the simulated reviewers
draw from ``PhiloxStream`` without importing it.  The oracle generator is
built here from numpy's parts, and ``make_rng`` is checked to build the same
one.  Every case also checks one further ``integers(1000)`` so that a stream
left in a different state than numpy's fails too.
"""

import random

import numpy as np
import pytest

from vibecheck import rng
from vibecheck.rng import PhiloxStream, make_rng
from vibecheck.sdt import simulate_reviewer


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


# --- standard_normal: numpy's ziggurat, draw for draw ----------------------------

_ONES = 2**64 - 1  # as a uniform draw, 1 - 2**-53


def _crafted(theirs, *words: int) -> tuple[float, int]:
    """numpy's next ``standard_normal()`` when the next raw words are ``words``
    (then zeros), and how many of them it took."""
    bitgen = theirs.bit_generator
    state = bitgen.state
    state["buffer"] = np.array(list(words) + [0] * (4 - len(words)), dtype=np.uint64)
    state["buffer_pos"] = 0
    bitgen.state = state
    z = theirs.standard_normal()
    return z, bitgen.state["buffer_pos"]


def _word(strip: int, magnitude: int) -> int:
    return magnitude << 9 | strip  # sign bit 0


def test_ziggurat_tables_are_numpys():
    # A magnitude of 1 returns wi itself: at once where ki > 1, and in strip 1
    # (ki = 0) through the wedge, which a uniform of 0 passes.  A magnitude
    # just below ki is returned from one word; at ki numpy takes more words,
    # for the wedge test or the tail.
    theirs = _numpy(0)
    for strip in range(256):
        z, taken = _crafted(theirs, _word(strip, 1), 0, _ONES, _word(128, 0))
        assert (z, taken) == (rng._WI[strip], 2 if strip == 1 else 1), strip
        if strip == 1:
            assert rng._KI[1] == 0
            continue
        after = (0, _ONES, _word(128, 0)) if strip == 0 else (_ONES, _word(128, 0), 0)
        z, taken = _crafted(theirs, _word(strip, rng._KI[strip] - 1), *after)
        assert taken == 1 and z == (rng._KI[strip] - 1) * rng._WI[strip], strip
        assert _crafted(theirs, _word(strip, rng._KI[strip]), *after)[1] > 1, strip


def _position(stream: PhiloxStream) -> int:
    """64-bit words the stream has served."""
    return 4 * stream._counter - len(stream._words)


@pytest.mark.parametrize("key", [(0,), (9000,), (1000, 5), (2**40, 7)])
def test_standard_normal_matches_numpy_over_a_million_draws(key):
    # 250,000 draws per key.  A draw that takes two words passed the wedge
    # test; one beyond r came from the tail of strip 0.
    ours, theirs = PhiloxStream(*key), _numpy(*key)
    draws, wedge, tail = [], 0, 0
    for _ in range(250_000):
        before = _position(ours)
        z = ours.standard_normal()
        wedge += _position(ours) - before == 2
        tail += abs(z) > rng._ZIGGURAT_R
        draws.append(z)
    assert draws == theirs.standard_normal(250_000).tolist()
    assert wedge > 500 and tail > 20, (wedge, tail)
    assert ours._next64() == int(theirs.bit_generator.random_raw())
    assert _same_state(ours, theirs)


@pytest.mark.parametrize("seed", [0, 3, 9005])
def test_mixed_draws_on_one_stream_match_numpy(seed):
    # An odd number of 32-bit draws leaves a high half cached across the
    # 64-bit draws of standard_normal, as numpy's Philox does.
    ours, theirs = PhiloxStream(seed), _numpy(seed)
    for bound in (7, 2**32, 3, 1, 264):
        assert ours.integers(bound) == int(theirs.integers(bound))
        assert ours.standard_normal() == theirs.standard_normal()
        assert ours.sample(20, 5) == theirs.choice(20, size=5, replace=False).tolist()
        assert [ours.standard_normal() for _ in range(3)] == theirs.standard_normal(3).tolist()
    assert ours.sample(20_000, 500) == theirs.choice(20_000, size=500, replace=False).tolist()
    assert ours.standard_normal() == theirs.standard_normal()
    assert _same_state(ours, theirs)
    assert ours._next64() == int(theirs.bit_generator.random_raw())


def test_simulated_flags_are_numpys_normal_draws():
    # simulate_reviewer's flags equal those of make_rng(seed).normal(mean, 1.0).
    pick = random.Random(30)
    for _ in range(300):
        seed, sensitivity = pick.randrange(2**32), pick.uniform(0.0, 4.0)
        truths = [pick.choice(("trap", "clean")) for _ in range(100)]
        criterion = pick.choice((None, pick.uniform(-1.0, 3.0)))
        theirs = make_rng(seed)
        cut = sensitivity / 2.0 if criterion is None else criterion
        expected = [
            bool(theirs.normal(sensitivity if t == "trap" else 0.0, 1.0) > cut) for t in truths
        ]
        assert simulate_reviewer(truths, sensitivity, criterion, seed) == expected
