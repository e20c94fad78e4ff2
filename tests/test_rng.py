"""Seeded stream independence and reproducibility."""

import numpy as np
import pytest

from vibecheck.rng import make_rng


def test_same_key_same_stream():
    a = make_rng(0).normal(size=10)
    b = make_rng(0).normal(size=10)
    assert np.array_equal(a, b)


def test_multi_component_keys_reproduce():
    a = make_rng(7, 3).integers(0, 1_000_000, size=8)
    b = make_rng(7, 3).integers(0, 1_000_000, size=8)
    assert np.array_equal(a, b)


def test_distinct_keys_give_distinct_streams():
    base = make_rng(0).normal(size=32)
    assert not np.array_equal(base, make_rng(1).normal(size=32))
    assert not np.array_equal(base, make_rng(0, 0).normal(size=32))
    assert not np.array_equal(
        make_rng(0, 1).normal(size=32), make_rng(1, 0).normal(size=32)
    )


def test_key_order_matters():
    assert not np.array_equal(
        make_rng(2, 5).normal(size=16), make_rng(5, 2).normal(size=16)
    )


def test_empty_key_rejected():
    with pytest.raises(ValueError, match="at least one"):
        make_rng()


def test_frozen_draws():
    # Pin the generator family itself: a silent change to the bit stream
    # would break every seeded fixture downstream.
    draws = make_rng(0).integers(0, 2**32, size=4)
    assert draws.tolist() == [1807797818, 286912445, 746180478, 339358175]
    assert float(make_rng(2026).uniform()) == 0.048181906614709336


def test_streams_are_statistically_disjoint():
    # Consecutive seeds must not produce overlapping draw sequences.
    a = set(make_rng(0).integers(0, 2**63, size=1000).tolist())
    b = set(make_rng(1).integers(0, 2**63, size=1000).tolist())
    assert not a & b
