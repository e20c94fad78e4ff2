"""Each record type checks its invariants once, when it is built.

``validate`` is bound as the dataclass ``__post_init__`` of the nine types the
metrics and the study design read, so an instance that exists is valid: a
writer cannot be handed a record that its reader would refuse, and no caller
re-checks one.  Each message is the one ``validate`` gave when callers ran it
by hand.
"""

import dataclasses

import pytest

from vibecheck.codemetrics.cfg import BasicBlock, ControlFlowGraph, Edge, dump_cfg
from vibecheck.codemetrics.metrics import metrics
from vibecheck.codemetrics.parser import parse
from vibecheck.composite import StudentRecord, UtilityWeights
from vibecheck.config import RunConfig
from vibecheck.errors import ValidationError
from vibecheck.explainability import Concept, ConceptOntology
from vibecheck.retention import SessionEvent, SessionLog, write_session_log
from vibecheck.stats.mixed import CohortDataset, GeneratingParams, write_cohort
from vibecheck.stats.power import PowerSpec

UNIT = parse("x = 1\n", name="unit.vcp")


def _cohort(**columns) -> CohortDataset:
    base = dict(students=(0, 1), occasions=(0, 0), conditions=("trad", "vibe"),
                times=(0.0, 0.0), y=(1.0, 1.0))
    return CohortDataset(**{**base, **columns})


def _graph(*edges) -> ControlFlowGraph:
    return ControlFlowGraph((BasicBlock(0, ()), BasicBlock(1, ())), tuple(edges), 0, 1)


# type: (a valid instance, a build of it with one invalid field, the message)
CASES = {
    SessionLog: (
        lambda: SessionLog("s", "ai_build", (SessionEvent(0.0, "edit"),), UNIT),
        lambda: SessionLog("s", "debug_session", (SessionEvent(0.0, "edit"),), UNIT),
        "unknown phase 'debug_session'",
    ),
    ConceptOntology: (
        lambda: ConceptOntology("u.vcp", "v1", (Concept("c1", 1.0, ("loop",)),)),
        lambda: ConceptOntology("u.vcp", "v1", (Concept("c1", 1.0, ("Loop",)),)),
        "phrase 'Loop' of concept 'c1' must be lowercase",
    ),
    StudentRecord: (
        lambda: StudentRecord("s", 1.0, 0.5, 0.2, 3.0),
        lambda: StudentRecord("s", 1.0, 1.5, 0.2, 3.0),
        "m_ht must lie in (0, 1), got 1.5",
    ),
    UtilityWeights: (
        lambda: UtilityWeights(),
        lambda: UtilityWeights(w1=0.5, w2=0.5, w3=0.5),
        "metric weights must sum to 1 within 1e-09, got 1.5",
    ),
    GeneratingParams: (
        lambda: GeneratingParams(1.0, 0.4, 0.2, 0.5, 0.5),
        lambda: GeneratingParams(1.0, 0.4, 0.2, -0.5, 0.5),
        "standard deviations must be >= 0",
    ),
    CohortDataset: (
        lambda: _cohort(),
        lambda: _cohort(conditions=("trad", "control")),
        "unknown condition 'control'",
    ),
    PowerSpec: (
        lambda: PowerSpec(effect_size_d=0.8),
        lambda: PowerSpec(effect_size_d=0.8, replicates=999),
        "Monte-Carlo power needs at least 1000 replicates",
    ),
    ControlFlowGraph: (
        lambda: _graph(Edge(0, 1, "seq")),
        lambda: _graph(Edge(0, 1, "seq"), Edge(1, 0, "seq")),
        "entry block must have in-degree 0",
    ),
    RunConfig: (
        lambda: RunConfig(),
        lambda: RunConfig(seed=-1),
        "seed must be a non-negative integer, got -1",
    ),
}
TYPES = list(CASES)
IDS = [t.__name__ for t in TYPES]


@pytest.mark.parametrize("cls", TYPES, ids=IDS)
def test_validate_is_the_post_init_hook(cls):
    assert cls.__post_init__ is cls.validate


@pytest.mark.parametrize("cls", TYPES, ids=IDS)
def test_building_an_invalid_instance_raises_the_validate_message(cls):
    valid, invalid, message = CASES[cls]
    assert isinstance(valid(), cls)
    with pytest.raises(ValidationError) as caught:
        invalid()
    assert str(caught.value) == message


def test_replace_checks_the_new_instance():
    with pytest.raises(ValidationError, match="seed must be a non-negative integer"):
        dataclasses.replace(RunConfig(), seed=-1)
    with pytest.raises(ValidationError, match="m_ht must lie in"):
        dataclasses.replace(StudentRecord("s", 1.0, 0.5, 0.2, 3.0), m_ht=0.0)


# --- writers cannot be handed what their readers refuse ------------------------


def test_write_session_log_cannot_get_an_assisted_cold_refactor(tmp_path):
    path = tmp_path / "refactor.log"
    with pytest.raises(ValidationError, match="assisted event 'prompt'"):
        write_session_log(
            SessionLog("s", "cold_refactor", (SessionEvent(0.0, "prompt"),), UNIT),
            path, "unit.vcp",
        )
    assert not path.exists()


def test_dump_cfg_cannot_get_an_edge_into_entry(tmp_path):
    path = tmp_path / "graph.json"
    with pytest.raises(ValidationError, match="entry block must have in-degree 0"):
        dump_cfg(_graph(Edge(0, 1, "seq"), Edge(1, 0, "seq")), path)
    assert not path.exists()


def test_write_cohort_cannot_get_a_duplicate_observation(tmp_path):
    path = tmp_path / "cohort.jsonl"
    with pytest.raises(ValidationError, match="duplicate"):
        write_cohort(_cohort(students=(0, 0)), path)
    assert not path.exists()


def test_metrics_cannot_get_an_edge_into_entry():
    with pytest.raises(ValidationError, match="entry block must have in-degree 0"):
        metrics(_graph(Edge(0, 1, "seq"), Edge(1, 0, "seq")))
