"""Equal-variance signal-detection scoring of trap reviews.

A reviewer's flag decisions over a corpus of trap and clean items reduce to
a hit rate H (flagged traps / traps) and a false-alarm rate F (flagged
cleans / cleans).  Sensitivity is ``d' = Z(H) - Z(F)`` with Z the standard
normal quantile, and the bounded trap-detection score is the logistic map
``1 / (1 + exp(-k * (d' - delta)))``.

``k`` and ``delta`` are reported defaults of this toolkit's configuration,
chosen so that d' = 1 sits at score 0.5 with a moderate slope; they are not
empirical constants, and every scoring record echoes the values used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Sequence, Union

from vibecheck.errors import DomainError, ValidationError
from vibecheck.io import as_str, read_jsonl
from vibecheck.rng import make_rng

DEFAULT_K = 1.5
DEFAULT_DELTA = 1.0

_SQRT2 = math.sqrt(2.0)
_SQRT_TWO_PI = math.sqrt(2.0 * math.pi)

# Rational approximation coefficients from Acklam's inverse-normal algorithm.
_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
      1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
      6.680131188771972e+01, -1.328068155288572e+01)
_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
      -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
      3.754408661907416e+00)
_P_LOW = 0.02425


def normal_cdf(x: float) -> float:
    """Standard normal CDF via erfc (accurate in both tails)."""
    return 0.5 * math.erfc(-x / _SQRT2)


def _normal_pdf(x: float) -> float:
    return math.exp(-0.5 * x * x) / _SQRT_TWO_PI


def inverse_normal_cdf(p: float) -> float:
    """Standard normal quantile, |CDF(result) - p| <= 1e-12.

    Acklam's rational approximation gives ~1e-9 accuracy; two Newton
    corrections against the erfc-based CDF push the residual to machine
    precision wherever the density is representable.
    """
    if not (0.0 < p < 1.0) or math.isnan(p):
        raise DomainError(f"quantile argument must lie strictly in (0, 1), got {p!r}")
    if p < _P_LOW:
        q = math.sqrt(-2.0 * math.log(p))
        x = ((((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5])
             / ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0))
    elif p <= 1.0 - _P_LOW:
        q = p - 0.5
        r = q * q
        x = ((((((_A[0] * r + _A[1]) * r + _A[2]) * r + _A[3]) * r + _A[4]) * r + _A[5]) * q
             / (((((_B[0] * r + _B[1]) * r + _B[2]) * r + _B[3]) * r + _B[4]) * r + 1.0))
    else:
        q = math.sqrt(-2.0 * math.log(1.0 - p))
        x = -((((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5])
              / ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0))
    for _ in range(2):
        density = _normal_pdf(x)
        if density <= 0.0:
            break
        x -= (normal_cdf(x) - p) / density
    return x


# --- trap responses --------------------------------------------------------

GROUND_TRUTHS = ("trap", "clean")


@dataclass(frozen=True)
class TrapResponse:
    item_id: str
    ground_truth: str  # "trap" | "clean"
    flagged: bool


@dataclass(frozen=True)
class Rates:
    hit_rate: float
    fa_rate: float
    hit_rate_corrected: float
    fa_rate_corrected: float
    n_trap: int
    n_clean: int
    correction: str
    correction_applied: bool


@dataclass(frozen=True)
class SdtResult:
    reviewer: str
    hit_rate: float
    fa_rate: float
    hit_rate_corrected: float
    fa_rate_corrected: float
    d_prime: float
    m_ht: float
    n_trap: int
    n_clean: int
    correction_applied: bool
    k: float
    delta: float
    criterion_c: float  # optional diagnostic: -(Z(H) + Z(F)) / 2


def _validate_responses(responses: Sequence[TrapResponse]) -> None:
    seen: set[str] = set()
    for resp in responses:
        if resp.ground_truth not in GROUND_TRUTHS:
            raise ValidationError(
                f"ground_truth must be 'trap' or 'clean', got {resp.ground_truth!r}"
            )
        if resp.item_id in seen:
            raise ValidationError(f"duplicate item_id {resp.item_id!r} for one reviewer")
        seen.add(resp.item_id)


def rates(responses: Sequence[TrapResponse], correction: str = "half-count") -> Rates:
    """Hit and false-alarm rates, with the half-count extreme-rate correction.

    With correction ``"half-count"`` (the default), an observed rate of
    exactly 0 over n items becomes ``1/(2n)`` and an observed rate of
    exactly 1 becomes ``1 - 1/(2n)``; interior rates are untouched.
    """
    if correction not in ("half-count", "none"):
        raise ValidationError(f"unknown correction {correction!r}")
    _validate_responses(responses)
    n_trap = sum(1 for r in responses if r.ground_truth == "trap")
    n_clean = sum(1 for r in responses if r.ground_truth == "clean")
    if n_trap < 1 or n_clean < 1:
        raise ValidationError(
            f"need at least one trap and one clean item, got {n_trap} traps / {n_clean} clean"
        )
    hits = sum(1 for r in responses if r.ground_truth == "trap" and r.flagged)
    fas = sum(1 for r in responses if r.ground_truth == "clean" and r.flagged)
    hit_rate = hits / n_trap
    fa_rate = fas / n_clean
    corrected_h, corrected_f = hit_rate, fa_rate
    applied = False
    if correction == "half-count":
        if hit_rate == 0.0:
            corrected_h, applied = 1.0 / (2 * n_trap), True
        elif hit_rate == 1.0:
            corrected_h, applied = 1.0 - 1.0 / (2 * n_trap), True
        if fa_rate == 0.0:
            corrected_f, applied = 1.0 / (2 * n_clean), True
        elif fa_rate == 1.0:
            corrected_f, applied = 1.0 - 1.0 / (2 * n_clean), True
    return Rates(
        hit_rate=hit_rate,
        fa_rate=fa_rate,
        hit_rate_corrected=corrected_h,
        fa_rate_corrected=corrected_f,
        n_trap=n_trap,
        n_clean=n_clean,
        correction=correction,
        correction_applied=applied,
    )


def d_prime(hit_rate: float, fa_rate: float) -> float:
    """Sensitivity ``Z(H) - Z(F)``; identical rates give exactly 0.0."""
    for label, value in (("hit rate", hit_rate), ("false-alarm rate", fa_rate)):
        if not (0.0 < value < 1.0):
            raise DomainError(
                f"{label} {value!r} is outside (0, 1); apply the half-count "
                "extreme-rate correction before computing sensitivity"
            )
    if hit_rate == fa_rate:
        return 0.0
    return inverse_normal_cdf(hit_rate) - inverse_normal_cdf(fa_rate)


def m_ht(d_prime_value: float, k: float = DEFAULT_K, delta: float = DEFAULT_DELTA) -> float:
    """Logistic trap-detection score ``1 / (1 + exp(-k (d' - delta)))``."""
    if k < 0:
        raise ValidationError(f"logistic slope k must be >= 0, got {k!r}")
    t = k * (d_prime_value - delta)
    if t >= 0:
        return 1.0 / (1.0 + math.exp(-t))
    e = math.exp(t)
    return e / (1.0 + e)


def score_responses(
    reviewer: str,
    responses: Sequence[TrapResponse],
    k: float = DEFAULT_K,
    delta: float = DEFAULT_DELTA,
    correction: str = "half-count",
) -> SdtResult:
    """Full per-reviewer pipeline: rates -> correction -> d' -> score."""
    r = rates(responses, correction=correction)
    d = d_prime(r.hit_rate_corrected, r.fa_rate_corrected)
    z_h = inverse_normal_cdf(r.hit_rate_corrected)
    z_f = inverse_normal_cdf(r.fa_rate_corrected)
    return SdtResult(
        reviewer=reviewer,
        hit_rate=r.hit_rate,
        fa_rate=r.fa_rate,
        hit_rate_corrected=r.hit_rate_corrected,
        fa_rate_corrected=r.fa_rate_corrected,
        d_prime=d,
        m_ht=m_ht(d, k=k, delta=delta),
        n_trap=r.n_trap,
        n_clean=r.n_clean,
        correction_applied=r.correction_applied,
        k=k,
        delta=delta,
        criterion_c=-(z_h + z_f) / 2.0,
    )


def load_responses(path: Union[str, Path]) -> dict[str, list[TrapResponse]]:
    """Read a JSONL response file into per-reviewer response lists.

    One record per line: ``{"reviewer", "item_id", "ground_truth", "flagged"}``,
    where ``flagged`` is a JSON boolean (``"false"`` or ``0`` is rejected, not
    coerced by truthiness).
    """
    by_reviewer: dict[str, list[TrapResponse]] = {}
    for reviewer, resp in read_jsonl(path, _response, "response record"):
        by_reviewer.setdefault(reviewer, []).append(resp)
    if not by_reviewer:
        raise ValidationError(f"{path}: no response records")
    return by_reviewer


def _response(rec: dict) -> tuple[str, TrapResponse]:
    flagged = rec["flagged"]
    if not isinstance(flagged, bool):
        raise TypeError(f"'flagged' must be true or false, got {flagged!r}")
    resp = TrapResponse(
        item_id=as_str(rec["item_id"]), ground_truth=as_str(rec["ground_truth"]), flagged=flagged
    )
    return as_str(rec["reviewer"]), resp


def simulate_reviewer(
    ground_truth: Iterable[str],
    sensitivity: float,
    criterion: Optional[float] = None,
    seed: int = 0,
) -> list[bool]:
    """Flags from an equal-variance Gaussian observer with true d' = sensitivity.

    Evidence is N(0, 1) on clean items and N(sensitivity, 1) on traps; an
    item is flagged when evidence exceeds the criterion (default: midway,
    ``sensitivity / 2``).  Deterministic for a given seed.
    """
    if criterion is None:
        criterion = sensitivity / 2.0
    rng = make_rng(seed)
    flags = []
    for truth in ground_truth:
        mean = sensitivity if truth == "trap" else 0.0
        flags.append(bool(rng.normal(mean, 1.0) > criterion))
    return flags
