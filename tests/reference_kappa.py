"""Cohen's kappa as it stood before it took a table of label-pair counts: two
rating lists in, the agreements, marginals and chance agreement counted from
the lists.  Test-only reference: ``tests/test_kappa_stream.py`` checks the
production kappa against it bit for bit.  Kept verbatim; do not edit.
"""

from __future__ import annotations

from collections import Counter
from typing import Sequence

from vibecheck.errors import DegenerateAgreementError, ValidationError


def cohens_kappa(rater_a: Sequence, rater_b: Sequence) -> float:
    """Chance-corrected agreement ``(p_o - p_e) / (1 - p_e)``.

    Chance agreement ``p_e`` is the product of the raters' marginal category
    frequencies.  When both raters use a single identical category, ``p_e``
    is 1 and the statistic is undefined.
    """
    if len(rater_a) != len(rater_b):
        raise ValidationError(
            f"rating vectors differ in length: {len(rater_a)} vs {len(rater_b)}"
        )
    n = len(rater_a)
    if n < 1:
        raise ValidationError("need at least one paired rating")
    observed = sum(1 for a, b in zip(rater_a, rater_b) if a == b) / n
    freq_a = Counter(rater_a)
    freq_b = Counter(rater_b)
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
