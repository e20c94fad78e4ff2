"""Equal-variance signal-detection scoring of trap reviews.

A reviewer's flag decisions over a corpus of trap and clean items reduce to
a hit rate H (flagged traps / traps) and a false-alarm rate F (flagged
cleans / cleans).  Sensitivity is ``d' = Z(H) - Z(F)`` with Z the standard
normal quantile, the standard library's ``statistics.NormalDist().inv_cdf``
(Wichura's AS241), and the bounded trap-detection score is the logistic map
``1 / (1 + exp(-k * (d' - delta)))``.

``k`` and ``delta`` are reported defaults of this toolkit's configuration,
chosen so that d' = 1 sits at score 0.5 with a moderate slope; they are not
empirical constants, and every scoring record echoes the values used.

Responses can be cross-checked against the answer key that the trap forge
wrote for the corpus.  ``simulate_reviewer`` plays an equal-variance Gaussian
observer for fixtures and benchmarks; it draws from ``rng.PhiloxStream``,
numpy's normal draws in plain Python, so this module never loads numpy.
"""

from __future__ import annotations

import math
from collections import Counter
from pathlib import Path
from typing import Iterable, Optional, Sequence, Union

from vibecheck.config import CORRECTIONS, RunConfig
from vibecheck.errors import DomainError, ValidationError
from vibecheck.io import as_bool, as_str, fields, read_jsonl
from vibecheck.record import Record
from vibecheck.rng import PhiloxStream

# --- trap responses --------------------------------------------------------

GROUND_TRUTHS = ("trap", "clean")


class TrapResponse(Record):
    item_id: str
    ground_truth: str  # "trap" | "clean"
    flagged: bool

    def validate(self) -> None:
        _check_ground_truth(self.ground_truth)


def _check_ground_truth(value: str) -> None:
    if value not in GROUND_TRUTHS:
        raise ValidationError(f"ground_truth must be 'trap' or 'clean', got {value!r}")


class Rates(Record):
    hit_rate: float
    fa_rate: float
    hit_rate_corrected: float
    fa_rate_corrected: float
    n_trap: int
    n_clean: int
    correction: str
    correction_applied: bool


class SdtResult(Record):
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


def rates(responses: Sequence[TrapResponse], correction: str = RunConfig.correction) -> Rates:
    """Hit and false-alarm rates, with the half-count extreme-rate correction.

    With correction ``"half-count"`` (the default), an observed rate of
    exactly 0 over n items becomes ``1/(2n)`` and an observed rate of
    exactly 1 becomes ``1 - 1/(2n)``; interior rates are untouched.
    """
    if correction not in CORRECTIONS:
        raise ValidationError(f"unknown correction {correction!r}")
    items, flags = Counter(), Counter()
    seen: set[str] = set()
    for resp in responses:
        if resp.item_id in seen:
            raise ValidationError(f"duplicate item_id {resp.item_id!r} for one reviewer")
        seen.add(resp.item_id)
        items[resp.ground_truth] += 1
        flags[resp.ground_truth] += bool(resp.flagged)
    n_trap, n_clean = items["trap"], items["clean"]
    if n_trap < 1 or n_clean < 1:
        raise ValidationError(
            f"need at least one trap and one clean item, got {n_trap} traps / {n_clean} clean"
        )
    hit_rate = flags["trap"] / n_trap
    fa_rate = flags["clean"] / n_clean
    corrected_h, corrected_f = hit_rate, fa_rate
    if correction == "half-count":
        corrected_h, corrected_f = _half_count(hit_rate, n_trap), _half_count(fa_rate, n_clean)
    applied = (corrected_h, corrected_f) != (hit_rate, fa_rate)
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


def _half_count(rate: float, n: int) -> float:
    """``1/(2n)`` for a rate of 0, ``1 - 1/(2n)`` for a rate of 1, else ``rate``."""
    return {0.0: 1.0 / (2 * n), 1.0: 1.0 - 1.0 / (2 * n)}.get(rate, rate)


def _z_rates(hit_rate: float, fa_rate: float) -> tuple[float, float]:
    """``(Z(H), Z(F))``, refusing a rate outside (0, 1) with the correction hint."""
    from statistics import NormalDist

    for label, value in (("hit rate", hit_rate), ("false-alarm rate", fa_rate)):
        if not (0.0 < value < 1.0):
            raise DomainError(
                f"{label} {value!r} is outside (0, 1); apply the half-count "
                "extreme-rate correction before computing sensitivity"
            )
    z = NormalDist().inv_cdf
    return z(hit_rate), z(fa_rate)


def d_prime(hit_rate: float, fa_rate: float) -> float:
    """Sensitivity ``Z(H) - Z(F)``; identical rates give exactly 0.0."""
    z_h, z_f = _z_rates(hit_rate, fa_rate)
    return z_h - z_f


def m_ht(d_prime_value: float, k: float = RunConfig.k, delta: float = RunConfig.delta) -> float:
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
    k: float = RunConfig.k,
    delta: float = RunConfig.delta,
    correction: str = RunConfig.correction,
) -> SdtResult:
    """Full per-reviewer pipeline: rates -> correction -> d' -> score."""
    r = rates(responses, correction=correction)
    z_h, z_f = _z_rates(r.hit_rate_corrected, r.fa_rate_corrected)
    d = z_h - z_f
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


def load_responses(
    path: Union[str, Path], answer_key: Union[str, Path, None] = None
) -> dict[str, list[TrapResponse]]:
    """Read a JSONL response file into per-reviewer response lists.

    One record per line: ``{"reviewer", "item_id", "ground_truth", "flagged"}``,
    where ``flagged`` is a JSON boolean (``"false"`` or ``0`` is rejected, not
    coerced by truthiness).  With an ``answer_key`` file, a response whose item
    the key lacks or whose ``ground_truth`` the key contradicts is refused
    naming its line, and a key item that no reviewer answered naming the key.
    """
    key = None
    if answer_key is not None:
        from vibecheck.trapforge import read_answer_key  # the front end loads only for a key

        key = read_answer_key(answer_key)

    def row(rec: dict) -> tuple[str, TrapResponse]:
        reviewer, response = _response(rec)
        if key is not None:
            truth = key.get(response.item_id)
            if truth is None:
                raise ValidationError(
                    f"item_id {response.item_id!r} is not in the answer key {answer_key}"
                )
            if truth != response.ground_truth:
                raise ValidationError(
                    f"ground_truth {response.ground_truth!r} of {response.item_id!r} "
                    f"disagrees with the answer key {answer_key}, which says {truth!r}"
                )
        return reviewer, response

    by_reviewer: dict[str, list[TrapResponse]] = {}
    for reviewer, response in read_jsonl(path, row, "response record"):
        by_reviewer.setdefault(reviewer, []).append(response)
    if not by_reviewer:
        raise ValidationError(f"{path}: no response records")
    if key is not None:
        answered = {r.item_id for responses in by_reviewer.values() for r in responses}
        unanswered = [item_id for item_id in key if item_id not in answered]
        if unanswered:
            raise ValidationError(
                f"{answer_key}: no reviewer in {path} answered {len(unanswered)} of its "
                f"items, the first {unanswered[0]!r}"
            )
    return by_reviewer


_RESPONSE_FIELDS = {
    "reviewer": as_str, "item_id": as_str, "ground_truth": as_str, "flagged": as_bool,
}


def _response(rec: dict) -> tuple[str, TrapResponse]:
    reviewer, *response = fields(rec, _RESPONSE_FIELDS).values()
    return reviewer, TrapResponse(*response)


def simulate_reviewer(
    ground_truth: Iterable[str],
    sensitivity: float,
    criterion: Optional[float] = None,
    seed: int = 0,
) -> list[bool]:
    """Flags from an equal-variance Gaussian observer with true d' = sensitivity.

    Evidence is N(0, 1) on clean items and N(sensitivity, 1) on traps; an
    item is flagged when evidence exceeds the criterion (default: midway,
    ``sensitivity / 2``).  The evidence is the mean plus one
    ``PhiloxStream(seed).standard_normal()`` draw per item, the float that
    ``make_rng(seed).normal(mean, 1.0)`` returns, so the flags are pinned by
    this code and not by the installed numpy.  A ground truth other than
    ``"trap"`` or ``"clean"`` and a sensitivity or criterion that is not
    finite are refused.
    """
    for label, value in (("sensitivity", sensitivity), ("criterion", criterion)):
        if value is not None and not math.isfinite(value):
            raise ValidationError(f"{label} must be a finite number, got {value!r}")
    if criterion is None:
        criterion = sensitivity / 2.0
    stream = PhiloxStream(seed)
    flags = []
    for truth in ground_truth:
        _check_ground_truth(truth)
        mean = sensitivity if truth == "trap" else 0.0
        flags.append(mean + stream.standard_normal() > criterion)
    return flags
