"""Cohen's kappa for two raters over a shared category set.

Kappa's sufficient statistic is the table of (rater a, rater b) label-pair
counts, so ``cohens_kappa`` takes that table: a caller can count pairs as
they stream in and hold k x k entries for k categories, whatever the number
of ratings.  ``pair_counts`` builds the table from two rating sequences.
"""

from __future__ import annotations

from collections import Counter
from typing import Hashable, Mapping, Sequence

from vibecheck.errors import DegenerateAgreementError, ValidationError


def pair_counts(rater_a: Sequence, rater_b: Sequence) -> Counter:
    """The count of each ``(a, b)`` label pair over two paired rating vectors."""
    if len(rater_a) != len(rater_b):
        raise ValidationError(
            f"rating vectors differ in length: {len(rater_a)} vs {len(rater_b)}"
        )
    return Counter(zip(rater_a, rater_b))


def cohens_kappa(counts: Mapping[tuple[Hashable, Hashable], int]) -> float:
    """Chance-corrected agreement ``(p_o - p_e) / (1 - p_e)`` from a table of
    ``(a, b)`` label-pair counts.

    Chance agreement ``p_e`` is the product of the raters' marginal category
    frequencies.  When both raters use a single identical category, ``p_e``
    is 1 and the statistic is undefined.
    """
    n = sum(counts.values())
    if n < 1:
        raise ValidationError("need at least one paired rating")
    agreements = 0
    freq_a: Counter = Counter()
    freq_b: Counter = Counter()
    for (a, b), count in counts.items():
        if a == b:
            agreements += count
        freq_a[a] += count
        freq_b[b] += count
    observed = agreements / n
    # Summed in sorted order: a set's order follows string hashing, which
    # changes from process to process and would move the last bits.
    categories = sorted(freq_a.keys() | freq_b.keys())
    expected = sum((freq_a[cat] / n) * (freq_b[cat] / n) for cat in categories)
    if expected >= 1.0:
        raise DegenerateAgreementError(
            "both raters used one identical category; chance agreement is 1 "
            "and kappa is undefined"
        )
    return (observed - expected) / (1.0 - expected)
