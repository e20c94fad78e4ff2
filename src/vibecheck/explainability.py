"""Concept coverage of explanation transcripts and the explanation gap.

An ontology assigns each concept of a unit a proportion (summing to 1) and
a set of trigger phrases.  A concept is matched -- all or nothing -- when
any of its phrases occurs in the transcript as a token-boundary-respecting,
case-insensitive substring; no stemming, no fuzzy matching.  Multi-space or
line-wrapped gaps between the words of a phrase still match.

Matched proportions sum to ``coverage``; the explained entropy is
``h_e = coverage * h_c`` against the code's structural entropy ``h_c``, and
the gap is ``clamp(1 - h_e / (h_c + epsilon), 0, 1)``.  Code with no
decisions (``h_c = 0``) has nothing to explain: the gap is reported as 0
and flagged degenerate.
"""

from __future__ import annotations

import math
import re
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Union

from vibecheck.codemetrics import CodeMetrics
from vibecheck.config import RunConfig
from vibecheck.errors import DegenerateEntropyWarning, ValidationError
from vibecheck.io import as_finite, as_list, as_str, as_strings, fields, read_json

PROPORTION_TOLERANCE = 1e-9

E_GAP_DEFINITION = "coverage-weighted decision entropy vs structural entropy"


@dataclass(frozen=True)
class Concept:
    concept_id: str
    proportion: float
    phrases: tuple[str, ...]


@dataclass(frozen=True)
class ConceptOntology:
    unit: str
    version: str
    concepts: tuple[Concept, ...]

    def validate(self) -> None:
        if not self.concepts:
            raise ValidationError(f"ontology for {self.unit!r} has no concepts")
        ids = [c.concept_id for c in self.concepts]
        if len(set(ids)) != len(ids):
            raise ValidationError("concept ids must be unique")
        for concept in self.concepts:
            if not (0.0 < concept.proportion <= 1.0):
                raise ValidationError(
                    f"concept {concept.concept_id!r} has proportion "
                    f"{concept.proportion!r} outside (0, 1]"
                )
            if not concept.phrases:
                raise ValidationError(f"concept {concept.concept_id!r} has no phrases")
            for phrase in concept.phrases:
                if not phrase.strip():
                    raise ValidationError(
                        f"concept {concept.concept_id!r} has an empty phrase"
                    )
                if phrase != phrase.lower():
                    raise ValidationError(
                        f"phrase {phrase!r} of concept {concept.concept_id!r} "
                        "must be lowercase"
                    )
        total = math.fsum(c.proportion for c in self.concepts)
        if abs(total - 1.0) > PROPORTION_TOLERANCE:
            raise ValidationError(
                f"concept proportions must sum to 1 within {PROPORTION_TOLERANCE}, "
                f"got {total!r}"
            )

    __post_init__ = validate


@dataclass(frozen=True)
class ExplanationScore:
    unit: str
    matched: tuple[str, ...]
    coverage: float
    h_e: float
    h_c: float
    e_gap: float
    epsilon: float
    degenerate: bool


def _phrase_pattern(phrase: str) -> re.Pattern:
    words = phrase.split()
    body = r"\s+".join(re.escape(word) for word in words)
    return re.compile(r"(?<!\w)" + body + r"(?!\w)", re.IGNORECASE)


def match_concepts(transcript: str, ontology: ConceptOntology) -> tuple[str, ...]:
    """Ids of concepts with at least one phrase occurring in the transcript."""
    matched = []
    for concept in ontology.concepts:
        if any(_phrase_pattern(p).search(transcript) for p in concept.phrases):
            matched.append(concept.concept_id)
    return tuple(sorted(matched))


def e_gap(
    transcript: str,
    ontology: ConceptOntology,
    code_metrics: CodeMetrics,
    epsilon: float = RunConfig.epsilon,
) -> ExplanationScore:
    """Explanation-gap score of a transcript against its unit's ontology."""
    if epsilon <= 0.0:
        raise ValidationError(f"epsilon must be positive, got {epsilon!r}")
    matched = match_concepts(transcript, ontology)
    matched_set = set(matched)
    # Sum in concept-id order so ontology file order never changes the result.
    coverage = math.fsum(
        c.proportion
        for c in sorted(ontology.concepts, key=lambda c: c.concept_id)
        if c.concept_id in matched_set
    )
    h_c = code_metrics.h_c
    h_e = coverage * h_c
    if h_c == 0.0:
        warnings.warn(
            "structural entropy is 0 (no decision sites); explanation gap "
            "is reported as 0 and flagged degenerate",
            DegenerateEntropyWarning,
            stacklevel=2,
        )
        return ExplanationScore(
            unit=ontology.unit,
            matched=matched,
            coverage=coverage,
            h_e=h_e,
            h_c=h_c,
            e_gap=0.0,
            epsilon=epsilon,
            degenerate=True,
        )
    raw = 1.0 - h_e / (h_c + epsilon)
    return ExplanationScore(
        unit=ontology.unit,
        matched=matched,
        coverage=coverage,
        h_e=h_e,
        h_c=h_c,
        e_gap=min(1.0, max(0.0, raw)),
        epsilon=epsilon,
        degenerate=False,
    )


_CONCEPT_FIELDS = {"concept_id": as_str, "proportion": as_finite, "phrases": as_strings}
_ONTOLOGY_FIELDS = {
    "unit": as_str, "version": as_str,
    "concepts": lambda o, k: tuple(Concept(**fields(c, _CONCEPT_FIELDS)) for c in as_list(o, k)),
}


def load_ontology(path: Union[str, Path]) -> ConceptOntology:
    """Read an ontology JSON file."""
    return read_json(path, lambda d: ConceptOntology(**fields(d, _ONTOLOGY_FIELDS)), "ontology")
