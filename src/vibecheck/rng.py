"""Seeded random-number streams.

The toolkit's stochastic code draws from a counter-based Philox4x64-10
generator keyed by an explicit integer tuple.  Distinct key tuples give
independent streams, so replicate ``r`` of a study seeded with ``s`` can use
``make_rng(s, r)`` without coordinating with any other replicate.  There is
no module-level generator and no global state anywhere.  The one exception
is ``codemetrics.progen.random_program``, which draws from a
``random.Random(seed)`` of its own.  It stays on that stream because
``fixtures/origins`` and the benchmark's corpus pools are built from it.

There are two front doors onto one keyed stream:

- ``make_rng(*key)`` returns numpy's ``Generator`` over ``Philox``, for the
  vectorised normal, chi-square and permutation draws of the stats layer.
  numpy is imported on the first call, not with this module, and nothing
  outside the stats layer calls it.
- ``PhiloxStream(*key)`` is the same stream in plain Python, for the scalar
  draws of the trap forge and the simulated reviewers: ``integers(n)``,
  ``sample(n, k)`` and ``standard_normal()`` return what
  ``make_rng(*key).integers(n)``, ``make_rng(*key).choice(n, size=k,
  replace=False)`` and ``make_rng(*key).standard_normal()`` return, in any
  mix, and leave the stream where numpy leaves it.  The commands that only
  parse, score and forge traps therefore never load numpy, and neither the
  corpus nor the reviewer flags move if a numpy release changes
  ``Generator.choice`` or ``Generator.normal``.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

_MASK32 = 0xFFFF_FFFF
_MASK64 = 0xFFFF_FFFF_FFFF_FFFF
_MASK52 = 0x000F_FFFF_FFFF_FFFF


def _entropy(key: tuple[int, ...]) -> tuple[int, ...]:
    """The key prefixed with its own length.

    SeedSequence ignores trailing zero entropy words, so without the prefix
    ``(s,)`` and ``(s, 0)`` would collide on one stream.
    """
    if not key:
        raise ValueError("a random stream requires at least one integer key component")
    return (len(key),) + key


def make_rng(*key: int) -> "np.random.Generator":
    """Return numpy's Philox generator for the given integer key tuple."""
    import numpy as np

    return np.random.Generator(np.random.Philox(np.random.SeedSequence(_entropy(key))))


# --- numpy's SeedSequence, reduced to what Philox's key needs ----------------

_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4


def _uint32_words(entropy: tuple[int, ...]) -> list[int]:
    """Each component as little-endian 32-bit words (0 is one word)."""
    words = []
    for value in entropy:
        value = int(value)
        if value < 0:
            raise ValueError(f"expected non-negative integer key component, got {value}")
        words.append(value & _MASK32)
        value >>= 32
        while value:
            words.append(value & _MASK32)
            value >>= 32
    return words


def _philox_key(entropy: tuple[int, ...]) -> tuple[int, int]:
    """``SeedSequence(entropy).generate_state(2, np.uint64)``."""
    words = _uint32_words(entropy)
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = (value * hash_const) & _MASK32
        return value ^ (value >> 16)

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ (result >> 16)

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in words[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))

    state = []
    hash_const = _INIT_B
    for i in range(4):
        value = pool[i] ^ hash_const
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = (value * hash_const) & _MASK32
        state.append(value ^ (value >> 16))
    return state[0] | state[1] << 32, state[2] | state[3] << 32


# --- Philox4x64-10 -------------------------------------------------------------

_PHILOX_M0, _PHILOX_M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157
_PHILOX_W0, _PHILOX_W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B
_PHILOX_ROUNDS = 10


def _round_keys(k0: int, k1: int) -> tuple[tuple[int, int], ...]:
    keys = []
    for _ in range(_PHILOX_ROUNDS):
        keys.append((k0, k1))
        k0 = (k0 + _PHILOX_W0) & _MASK64
        k1 = (k1 + _PHILOX_W1) & _MASK64
    return tuple(keys)


# --- the ziggurat of numpy's standard normal ------------------------------------

# Marsaglia and Tsang's ziggurat (J. Stat. Softw. 5(8), 2000) with 256 strips
# over 52-bit magnitudes, from numpy's two constants: the x at which the tail
# begins, and the width of the base strip (its area over the density at r).
_ZIGGURAT_R = 3.654152885361009
_ZIGGURAT_BASE = 3.910757959524912


def _density(x: float) -> float:
    return math.exp(-0.5 * x * x)


def _ziggurat_tables() -> tuple[tuple[int, ...], tuple[float, ...], tuple[float, ...]]:
    """numpy's ``ki_double``, ``wi_double`` and ``fi_double``.

    Strip i > 0 spans [0, x_i) at height f(x_i), f the unnormalised density;
    x_255 = r, and each x_i comes from x_(i+1) by the float64 recursion that
    gives every strip the base strip's area.  wi scales a 52-bit magnitude to
    x; below the magnitude ki, x lies left of x_(i-1), under the density, and
    needs no wedge test; fi is f(x_i).  numpy's ``fi[38]`` is one ulp above
    the correctly rounded f(x_38), and x_37 is drawn from it.  With that ulp
    every entry equals numpy's, as long as the C library's ``exp`` and
    ``log`` round these arguments as glibc's do; ``tests/test_rng_oracle.py``
    compares them.
    """
    scale = 2.0**52
    area = _ZIGGURAT_BASE * _density(_ZIGGURAT_R)
    x = [0.0] * 255 + [_ZIGGURAT_R]
    fi = [1.0] * 255 + [_density(_ZIGGURAT_R)]
    for i in range(254, 0, -1):
        x[i] = math.sqrt(-2.0 * math.log(area / x[i + 1] + fi[i + 1]))
        fi[i] = _density(x[i])
        if i == 38:
            fi[i] = math.nextafter(fi[i], 1.0)
    wi = (_ZIGGURAT_BASE / scale,) + tuple(xi / scale for xi in x[1:])
    ki = (round(_ZIGGURAT_R / _ZIGGURAT_BASE * scale), 0) + tuple(
        round(x[i] / x[i + 1] * scale) for i in range(1, 255)
    )
    return ki, wi, tuple(fi)


_KI, _WI, _FI = _ziggurat_tables()


class PhiloxStream:
    """numpy's ``Generator(Philox(SeedSequence((len(key),) + key)))`` for
    scalar draws, in plain Python.

    numpy's Philox buffers one block of four 64-bit words; the first block is
    counter 1.  A 64-bit draw takes the next whole word.  A 32-bit draw
    returns the low half of the next word and keeps its high half for the
    next 32-bit draw, which any 64-bit draws in between leave in place.
    """

    __slots__ = ("_round_keys", "_counter", "_words", "_high_half")

    def __init__(self, *key: int):
        self._round_keys = _round_keys(*_philox_key(_entropy(key)))
        self._counter = 0
        self._words: list[int] = []
        self._high_half: int | None = None

    def _refill(self) -> None:
        self._counter += 1
        c = self._counter
        c0, c1, c2, c3 = c & _MASK64, (c >> 64) & _MASK64, (c >> 128) & _MASK64, c >> 192
        for k0, k1 in self._round_keys:
            p0 = _PHILOX_M0 * c0
            p1 = _PHILOX_M1 * c2
            c0, c1, c2, c3 = (p1 >> 64) ^ c1 ^ k0, p1 & _MASK64, (p0 >> 64) ^ c3 ^ k1, p0 & _MASK64
        self._words = [c3, c2, c1, c0]  # reversed, so that pop() serves word 0 first

    def _next64(self) -> int:
        if not self._words:
            self._refill()
        return self._words.pop()

    def _next32(self) -> int:
        half = self._high_half
        if half is not None:
            self._high_half = None
            return half
        word = self._next64()
        self._high_half = word >> 32
        return word & _MASK32

    def _next_double(self) -> float:
        """Uniform on [0, 1) in steps of 2**-53."""
        return (self._next64() >> 11) * (1.0 / 9007199254740992.0)

    def _bounded(self, high: int) -> int:
        """Uniform on [0, high] for high < 2**32, by Lemire's rejection method.

        high = 0 draws nothing; high = 2**32 - 1 returns one draw unchanged.
        """
        if high == 0:
            return 0
        span = high + 1
        m = self._next32() * span
        if (m & _MASK32) < span:
            threshold = (_MASK32 - high) % span
            while (m & _MASK32) < threshold:
                m = self._next32() * span
        return m >> 32

    def integers(self, n: int) -> int:
        """One draw uniform on [0, n), as ``Generator.integers(n)``."""
        if not 1 <= n <= 1 << 32:
            raise ValueError(f"integers(n) needs 1 <= n <= 2**32, got {n}")
        return self._bounded(n - 1)

    def sample(self, n: int, k: int) -> list[int]:
        """``k`` distinct draws from [0, n), as ``Generator.choice(n, size=k,
        replace=False)``."""
        if not 0 <= n <= 1 << 32:
            raise ValueError(f"sample(n, k) needs 0 <= n <= 2**32, got n = {n}")
        if not 0 <= k <= n:
            raise ValueError(f"sample(n, k) needs 0 <= k <= n, got k = {k}, n = {n}")
        if n > 10_000 and k > n // 50:
            # numpy's tail shuffle: Fisher-Yates over the last k places of
            # range(n), no final shuffle.  Only displaced places are stored.
            moved: dict[int, int] = {}
            for i in range(n - 1, n - k - 1, -1):
                j = self._bounded(i)
                moved[i], moved[j] = moved.get(j, j), moved.get(i, i)
            return [moved.get(i, i) for i in range(n - k, n)]
        # Floyd's algorithm, then a Fisher-Yates shuffle of the draws.
        out: list[int] = []
        seen: set[int] = set()
        for j in range(n - k, n):
            value = self._bounded(j)
            if value in seen:
                value = j
            seen.add(value)
            out.append(value)
        for i in range(k - 1, 0, -1):
            j = self._bounded(i)
            out[i], out[j] = out[j], out[i]
        return out

    def standard_normal(self) -> float:
        """One N(0, 1) draw, as ``Generator.standard_normal()``: numpy's
        ``random_standard_normal`` with the same tables and the same draws."""
        while True:
            word = self._next64()
            strip = word & 0xFF
            word >>= 8
            magnitude = (word >> 1) & _MASK52
            x = magnitude * _WI[strip]
            if word & 1:
                x = -x
            if magnitude < _KI[strip]:
                return x
            if strip == 0:  # the tail beyond r, by Marsaglia's exponential method
                while True:
                    xx = -(1.0 / _ZIGGURAT_R) * math.log1p(-self._next_double())
                    yy = -math.log1p(-self._next_double())
                    if yy + yy > xx * xx:
                        tail = _ZIGGURAT_R + xx
                        return -tail if (magnitude >> 8) & 1 else tail
            elif (_FI[strip - 1] - _FI[strip]) * self._next_double() + _FI[strip] < _density(x):
                return x
