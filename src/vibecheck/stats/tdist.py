"""Student's t distribution: upper tail and quantile, in pure Python.

For t > 0 the upper tail is ``sf(t, df) = I_x(df/2, 1/2) / 2`` with
``x = df / (df + t^2)`` and ``I`` the regularized incomplete beta function.
``I`` is evaluated by its continued fraction with the modified Lentz method
(Numerical Recipes, 3rd ed., section 6.4; DiDonato & Morris, ACM TOMS 708),
switching to ``I_x(a, b) = 1 - I_{1-x}(b, a)`` past the point where the
fraction stops converging quickly.  ``ppf`` bisects ``sf`` on a doubling
bracket down to adjacent doubles.  Any real df > 0 is accepted.
"""

from __future__ import annotations

import math
import sys

from vibecheck.errors import ComputationError, DomainError

_EPS = sys.float_info.epsilon
_TINY = 1e-300  # stands in for a zero Lentz denominator
_MAX_TERMS = 100_000

# Stirling-series coefficients B_2k / (2k (2k - 1)), k = 1..8.
_STIRLING = (1.0 / 12.0, -1.0 / 360.0, 1.0 / 1260.0, -1.0 / 1680.0,
             1.0 / 1188.0, -691.0 / 360360.0, 1.0 / 156.0, -3617.0 / 122400.0)


def sf(t: float, df: float) -> float:
    """Upper tail probability ``P(T > t)`` on ``df`` degrees of freedom."""
    _check_df(df)
    if math.isnan(t):
        raise DomainError("t must be a number, got nan")
    if t == 0.0:
        return 0.5
    if t < 0.0:
        return 1.0 - sf(-t, df)
    # log x and log(1 - x) via z = log(t^2 / df), so that no square overflows.
    z = 2.0 * math.log(t) - math.log(df)
    log_x = -_log1p_exp(z)
    log_y = -_log1p_exp(-z)
    a, b = 0.5 * df, 0.5
    front = math.exp(a * log_x + b * log_y - _log_beta(a, b))
    x = math.exp(log_x)
    if x < (a + 1.0) / (a + b + 2.0):
        return 0.5 * front * _beta_fraction(a, b, x) / a
    return 0.5 - 0.5 * front * _beta_fraction(b, a, math.exp(log_y)) / b


def ppf(p: float, df: float) -> float:
    """Quantile: the t with ``P(T <= t) = p``, for p strictly inside (0, 1)."""
    _check_df(df)
    if not (0.0 < p < 1.0):
        raise DomainError(f"quantile argument must lie strictly in (0, 1), got {p!r}")
    if p == 0.5:
        return 0.0
    # For p > 1/2, 1 - p is exact; either way the root of sf(t) = q is positive.
    q = min(p, 1.0 - p)
    lo, hi = 0.0, 1.0
    while sf(hi, df) > q:
        lo, hi = hi, 2.0 * hi
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if sf(mid, df) > q:
            lo = mid
        else:
            hi = mid
    return hi if p > 0.5 else -hi


def _check_df(df: float) -> None:
    if not (0.0 < df < math.inf):
        raise DomainError(f"degrees of freedom must be positive and finite, got {df!r}")


def _log1p_exp(z: float) -> float:
    """``log(1 + e^z)`` without overflow."""
    if z > 0.0:
        return z + math.log1p(math.exp(-z))
    return math.log1p(math.exp(z))


def _stirling_correction(x: float) -> float:
    """``lgamma(x) - ((x - 1/2) log x - x + log sqrt(2 pi))`` for x >= 10."""
    inv2 = 1.0 / (x * x)
    total = 0.0
    for coef in reversed(_STIRLING):
        total = total * inv2 + coef
    return total / x


def _log_beta(a: float, b: float) -> float:
    """``log B(a, b)``, free of the cancellation between large log-gammas.

    For ``q = max(a, b) >= 10``, ``lgamma(q) - lgamma(p + q)`` is expanded
    with Stirling's series so that only small terms are subtracted.
    """
    p, q = min(a, b), max(a, b)
    if q < 10.0:
        return math.lgamma(p) + math.lgamma(q) - math.lgamma(p + q)
    corr = _stirling_correction(q) - _stirling_correction(p + q)
    return (math.lgamma(p) + corr + p - p * math.log(p + q)
            + (q - 0.5) * math.log1p(-p / (p + q)))


def _beta_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction for ``I_x(a, b)``, modified Lentz method."""

    def nonzero(v: float) -> float:
        return v if abs(v) >= _TINY else _TINY

    c = 1.0
    d = 1.0 / nonzero(1.0 - (a + b) * x / (a + 1.0))
    h = d
    for m in range(1, _MAX_TERMS + 1):
        m2 = 2 * m
        # Even step, then odd step, of the fraction's recurrence.
        num = m * (b - m) * x / ((a - 1.0 + m2) * (a + m2))
        d = 1.0 / nonzero(1.0 + num * d)
        c = nonzero(1.0 + num / c)
        h *= d * c
        num = -(a + m) * (a + b + m) * x / ((a + m2) * (a + 1.0 + m2))
        d = 1.0 / nonzero(1.0 + num * d)
        c = nonzero(1.0 + num / c)
        delta = d * c
        h *= delta
        if abs(delta - 1.0) <= _EPS:
            return h
    raise ComputationError(
        f"incomplete beta continued fraction did not converge for a={a!r}, b={b!r}, x={x!r}"
    )
