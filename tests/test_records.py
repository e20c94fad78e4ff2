"""Each record type checks its invariants once, when it is built, and behaves
as the frozen dataclass it replaced.

``Record.__init__`` runs ``validate`` on the nine types the metrics and the
study design read, each of which defines its own, so an instance that exists
is valid: a writer cannot be handed a record that its reader would refuse,
and no caller re-checks one.  Each message is the one ``validate`` gave when
callers ran it by hand.

Each record of a few samples is also rebuilt, field for field and nested
records included, as a frozen dataclass whose fields carry the record's
``compare`` and ``repr`` choices; both must give the same ``repr``, hash,
equality verdicts and ``asdict``.  Constructors keep the dataclass
signatures, fields refuse assignment, and records survive a pickle round
trip.
"""

import dataclasses
import functools
import pickle

import pytest

from vibecheck.codemetrics import nodes as N
from vibecheck.codemetrics.cfg import BasicBlock, ControlFlowGraph, Edge, build_cfg, dump_cfg
from vibecheck.codemetrics.metrics import metrics
from vibecheck.codemetrics.parser import parse
from vibecheck.composite import StudentRecord, UtilityWeights
from vibecheck.config import RunConfig
from vibecheck.errors import ValidationError
from vibecheck.explainability import Concept, ConceptOntology
from vibecheck.record import Record
from vibecheck.retention import SessionEvent, SessionLog, write_session_log
from vibecheck.stats.mixed import (
    CohortDataset,
    GeneratingParams,
    fit_mixed,
    read_cohort,
    write_cohort,
)
from vibecheck.stats.power import PowerSpec
from vibecheck.trapforge import MutationSite, generate_corpus

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
    # ``Record.__init__`` runs ``validate`` once the fields are bound.
    assert cls.__init__ is Record.__init__ and cls.validate is not Record.validate


@pytest.mark.parametrize("cls", TYPES, ids=IDS)
def test_building_an_invalid_instance_raises_the_validate_message(cls):
    valid, invalid, message = CASES[cls]
    assert isinstance(valid(), cls)
    with pytest.raises(ValidationError) as caught:
        invalid()
    assert str(caught.value) == message


def test_replace_checks_the_new_instance():
    with pytest.raises(ValidationError, match="seed must be a non-negative integer"):
        RunConfig()._replace(seed=-1)
    with pytest.raises(ValidationError, match="m_ht must lie in"):
        StudentRecord("s", 1.0, 0.5, 0.2, 3.0)._replace(m_ht=0.0)


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


# --- Record behaves as the frozen dataclasses it replaced ---------------------

_TEXT = (
    'x = a[i] + f(1, "s")\n'
    "for (i = 0; i < n; i = i + 1) { if (!x) { } else if (y) { return } }\n"
)


@functools.cache
def _samples(root) -> list:
    unit = parse(_TEXT, name="unit.vcp")
    origins = sorted((root / "fixtures" / "origins").glob("*.vcp"))
    return [
        unit,
        build_cfg(unit),
        metrics(unit),
        RunConfig(),
        generate_corpus(origins, 0.5, seed=7),
        fit_mixed(read_cohort(root / "fixtures" / "draws" / "simulate" / "cohort.jsonl")),
    ]


@functools.cache
def _twin_class(cls: type) -> type:
    return dataclasses.make_dataclass(cls.__name__, [
        (name, object, dataclasses.field(compare=name not in cls._uncompared,
                                          repr=name not in cls._hidden))
        for name in cls._fields
    ], frozen=True)


def _twin(value):
    """``value`` with every record in it rebuilt as its dataclass twin."""
    if isinstance(value, Record):
        return _twin_class(type(value))(
            **{name: _twin(getattr(value, name)) for name in value._fields}
        )
    if isinstance(value, tuple):
        return tuple(_twin(v) for v in value)
    return value


def _records(value):
    """Every record in ``value``, outermost first."""
    if isinstance(value, Record):
        yield value
        for name in value._fields:
            yield from _records(getattr(value, name))
    elif isinstance(value, tuple):
        for v in value:
            yield from _records(v)


def test_records_print_hash_and_compare_as_their_dataclass_twins(repo_root):
    records = [r for sample in _samples(repo_root) for r in _records(sample)]
    assert {type(r).__name__ for r in records} >= {
        "SourceUnit", "Program", "Binary", "Index", "Call", "StrLit", "Unary", "For", "If",
        "Return", "ControlFlowGraph", "BasicBlock", "Edge", "CodeMetrics", "HalsteadCounts",
        "RunConfig", "TrapCorpus", "TrapItem", "MutationSite", "MixedModelFit",
    }
    twins = [_twin(r) for r in records]
    for record, twin in zip(records, twins):
        assert repr(record) == repr(twin)
        assert hash(record) == hash(twin)
        assert record._asdict() == dataclasses.asdict(twin)
    for (a, ta), (b, tb) in zip(zip(records, twins), zip(records[1:], twins[1:])):
        assert (a == b) == (ta == tb) and (a != b) == (ta != tb)


def test_spans_and_the_parsed_program_stay_out_of_equality(repo_root):
    unit = _samples(repo_root)[0]
    binary = unit.ast.body[0].value
    moved = binary._replace(span=(50, 60), op_span=(55, 56))
    assert moved == binary and hash(moved) == hash(binary) and repr(moved) == repr(binary)
    assert moved.span == (50, 60) and moved.op_span == (55, 56)
    other = N.SourceUnit(unit.name, unit.text, parse("y = 2\n").ast)
    assert other == unit and hash(other) == hash(unit)
    assert repr(other) != repr(unit)  # the program is printed
    assert N.Name("x") != N.StrLit("x") and N.IntLit(1) != (1,)


def test_constructors_keep_the_dataclass_signatures():
    name = N.Name("x", span=(0, 1))
    assert N.Binary("+", name, name, span=(0, 5), op_span=(2, 3)).op_span == (2, 3)
    with pytest.raises(TypeError):
        N.Name("x", (0, 1))  # span is keyword-only
    assert BasicBlock(3).stmts == () and BasicBlock(id=3, stmts=("x = 1",)).stmts == ("x = 1",)
    assert RunConfig(2.0, seed=4) == RunConfig(k=2.0, seed=4)
    for bad in (lambda: StudentRecord("s", 1.0, 0.5, 0.2),
                lambda: StudentRecord("s", 1.0, 0.5, 0.2, 3.0, None, "extra"),
                lambda: StudentRecord("s", 1.0, 0.5, 0.2, 3.0, student="t"),
                lambda: StudentRecord("s", 1.0, 0.5, 0.2, 3.0, conditon="trad")):
        with pytest.raises(TypeError):
            bad()


@pytest.mark.parametrize(
    "record", [N.Name("x", span=(0, 1)), RunConfig(), MutationSite(0, 1, 1, 1, "d")],
    ids=["node", "config", "mutation-site"],
)
def test_fields_refuse_assignment_and_deletion(record):
    name = record._fields[-1]
    with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
        setattr(record, name, None)
    with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.not_a_field = 1


def test_records_survive_a_pickle_round_trip(repo_root):
    for sample in _samples(repo_root):
        copy = pickle.loads(pickle.dumps(sample))
        assert copy == sample and repr(copy) == repr(sample)
        assert [r.span for r in _records(copy) if isinstance(r, N.Node)] == [
            r.span for r in _records(sample) if isinstance(r, N.Node)
        ]
