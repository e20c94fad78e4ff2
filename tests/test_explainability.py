"""Concept matching, coverage, and the explanation-gap score."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vibecheck.codemetrics.halstead import HalsteadCounts
from vibecheck.codemetrics.metrics import CodeMetrics
from vibecheck.errors import DegenerateEntropyWarning, ValidationError
from vibecheck.explainability import (
    Concept,
    ConceptOntology,
    e_gap,
    load_ontology,
    match_concepts,
)

# Frozen: with epsilon = 1e-9 and h_c = 8 the gap at full coverage is
# 1 - 8/(8 + 1e-9), tiny but not zero; zero coverage gives exactly 1.
GAP_FULL_COVERAGE = 1.25e-10
GAP_QUARTER_COVERAGE = 0.750000000031250


def _ontology(*concepts):
    return ConceptOntology(unit="u.vcp", version="test-v1", concepts=tuple(concepts))


def _metrics(h_c, cc=4):
    counts = HalsteadCounts(n1=1, n2=1, N1=1, N2=1, volume_v=100.0)
    return CodeMetrics(cc=cc, halstead=counts, h_c=h_c)


LOOP = Concept("c1", 0.5, ("bounded loop",))
GUARD = Concept("c2", 0.25, ("guards the index", "bounds check"))
SINK = Concept("c3", 0.25, ("sanitizes before sending",))
ONTOLOGY = _ontology(LOOP, GUARD, SINK)


# --- phrase matching ----------------------------------------------------------


def test_phrase_matches_case_insensitively():
    assert match_concepts("The Bounded LOOP runs n times.", ONTOLOGY) == ("c1",)


def test_phrase_respects_token_boundaries():
    ont = _ontology(Concept("c1", 1.0, ("loop",)))
    assert match_concepts("the loophole is irrelevant", ont) == ()
    assert match_concepts("the loop, however, matters", ont) == ("c1",)
    assert match_concepts("loop", ont) == ("c1",)


def test_phrase_tolerates_multi_space_and_line_wrap_gaps():
    assert match_concepts("a bounded  loop", ONTOLOGY) == ("c1",)
    assert match_concepts("a bounded\nloop", ONTOLOGY) == ("c1",)
    assert match_concepts("a bounded \t loop", ONTOLOGY) == ("c1",)


def test_no_stemming_or_fuzzy_matching():
    ont = _ontology(Concept("c1", 1.0, ("sums the readings",)))
    assert match_concepts("it sums the reading", ont) == ()
    assert match_concepts("summing the readings", ont) == ()


def test_any_phrase_of_a_concept_suffices():
    assert match_concepts("there is a bounds check here", ONTOLOGY) == ("c2",)
    assert match_concepts("it guards the index", ONTOLOGY) == ("c2",)


def test_matched_ids_are_sorted():
    text = "sanitizes before sending after the bounded loop"
    assert match_concepts(text, ONTOLOGY) == ("c1", "c3")


def test_all_or_nothing_matching():
    # A concept matches fully or not at all; partial phrase hits do not count.
    ont = _ontology(Concept("c1", 1.0, ("guards the index",)))
    assert match_concepts("this guards something", ont) == ()


# --- the gap ------------------------------------------------------------------


def test_full_coverage_leaves_epsilon_gap():
    score = e_gap("bounded loop, guards the index, sanitizes before sending",
                  ONTOLOGY, _metrics(8.0))
    assert score.coverage == pytest.approx(1.0, abs=1e-12)
    assert score.h_e == pytest.approx(8.0, abs=1e-9)
    assert score.e_gap == pytest.approx(GAP_FULL_COVERAGE, abs=1e-12)
    assert not score.degenerate


def test_zero_coverage_gap_is_one():
    score = e_gap("nothing relevant at all", ONTOLOGY, _metrics(8.0))
    assert score.coverage == 0.0
    assert score.matched == ()
    assert score.e_gap == 1.0


def test_quarter_coverage_frozen_value():
    score = e_gap("there is a bounds check", ONTOLOGY, _metrics(8.0))
    assert score.coverage == pytest.approx(0.25, abs=1e-12)
    assert score.e_gap == pytest.approx(GAP_QUARTER_COVERAGE, abs=1e-12)


def test_zero_entropy_is_degenerate_and_warns():
    with pytest.warns(DegenerateEntropyWarning):
        score = e_gap("bounded loop", ONTOLOGY, _metrics(0.0, cc=1))
    assert score.e_gap == 0.0
    assert score.degenerate
    assert score.h_c == 0.0


def test_score_echoes_unit_and_epsilon():
    score = e_gap("bounded loop", ONTOLOGY, _metrics(2.0), epsilon=1e-6)
    assert score.unit == "u.vcp"
    assert score.epsilon == 1e-6


def test_epsilon_must_be_positive():
    with pytest.raises(ValidationError):
        e_gap("x", ONTOLOGY, _metrics(2.0), epsilon=0.0)


def test_gap_is_clamped_to_unit_interval():
    # Coverage 1 with a large epsilon still stays within [0, 1].
    score = e_gap("bounded loop, guards the index, sanitizes before sending",
                  ONTOLOGY, _metrics(1e-12), epsilon=1.0)
    assert 0.0 <= score.e_gap <= 1.0


def test_concept_order_in_file_does_not_change_coverage():
    reordered = _ontology(SINK, GUARD, LOOP)
    text = "bounded loop and a bounds check"
    a = e_gap(text, ONTOLOGY, _metrics(8.0))
    b = e_gap(text, reordered, _metrics(8.0))
    assert a.coverage == b.coverage
    assert a.e_gap == b.e_gap
    assert a.matched == b.matched


@settings(max_examples=50, deadline=None)
@given(st.sets(st.sampled_from(["c1", "c2", "c3"])))
def test_gap_decreases_as_more_concepts_are_explained(mentioned):
    phrases = {"c1": "bounded loop", "c2": "bounds check", "c3": "sanitizes before sending"}
    text = ". ".join(phrases[c] for c in sorted(mentioned))
    score = e_gap(text, ONTOLOGY, _metrics(8.0))
    fuller = e_gap(". ".join(phrases.values()), ONTOLOGY, _metrics(8.0))
    assert score.matched == tuple(sorted(mentioned))
    assert score.e_gap >= fuller.e_gap - 1e-15
    assert 0.0 <= score.e_gap <= 1.0


# --- ontology validation ------------------------------------------------------


def test_proportions_must_sum_to_one():
    with pytest.raises(ValidationError, match="sum to 1"):
        _ontology(Concept("c1", 0.5, ("a b",)), Concept("c2", 0.4, ("c d",)))


def test_duplicate_concept_ids_rejected():
    with pytest.raises(ValidationError, match="unique"):
        _ontology(Concept("c1", 0.5, ("a",)), Concept("c1", 0.5, ("b",)))


def test_out_of_range_proportion_rejected():
    with pytest.raises(ValidationError, match="outside"):
        _ontology(Concept("c1", 0.0, ("a",)), Concept("c2", 1.0, ("b",)))


def test_empty_phrase_rejected():
    with pytest.raises(ValidationError, match="empty phrase"):
        _ontology(Concept("c1", 1.0, ("  ",)))


def test_uppercase_phrase_rejected():
    with pytest.raises(ValidationError, match="lowercase"):
        _ontology(Concept("c1", 1.0, ("Bounded Loop",)))


def test_concept_without_phrases_rejected():
    with pytest.raises(ValidationError, match="no phrases"):
        _ontology(Concept("c1", 1.0, ()))


def test_load_ontology_fixture(fixtures):
    ontology = load_ontology(fixtures / "study" / "ontology.json")
    assert ontology.unit == "target.vcp"
    assert len(ontology.concepts) == 4
    assert sum(c.proportion for c in ontology.concepts) == pytest.approx(1.0, abs=1e-12)


def test_load_ontology_rejects_bad_json(tmp_path):
    path = tmp_path / "ontology.json"
    path.write_text("{not json")
    with pytest.raises(ValidationError, match="JSON"):
        load_ontology(path)


def test_load_ontology_rejects_missing_fields(tmp_path):
    path = tmp_path / "ontology.json"
    path.write_text(json.dumps({"unit": "u.vcp", "concepts": []}))
    with pytest.raises(ValidationError, match="malformed"):
        load_ontology(path)
