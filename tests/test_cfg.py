"""Control-flow graph construction, cyclomatic complexity, and entropy."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vibecheck.codemetrics import nodes as N
from vibecheck.codemetrics.cfg import (
    BasicBlock,
    ControlFlowGraph,
    Edge,
    build_cfg,
    cfg_entropy,
    cyclomatic_complexity,
    dump_cfg,
    load_cfg,
)
from vibecheck.codemetrics.parser import parse
from vibecheck.codemetrics.progen import random_program
from vibecheck.errors import ValidationError

IF_ELSE = "if (a < b) { x = 1 } else { x = 2 }\n"


def _decision_count(program: N.Program) -> int:
    return sum(isinstance(node, (N.If, N.While, N.For)) for node in N.walk(program))


def test_empty_program_is_two_blocks_one_edge():
    cfg = build_cfg(parse(""))
    assert len(cfg.blocks) == 2
    assert len(cfg.edges) == 1
    assert cyclomatic_complexity(cfg) == 1
    assert cfg_entropy(cfg) == 0.0


def test_straight_line_has_cc_one():
    cfg = build_cfg(parse("x = 1\ny = x + 2\nlog(y)\n"))
    assert cyclomatic_complexity(cfg) == 1
    assert cfg_entropy(cfg) == 0.0


def test_single_if_else():
    cfg = build_cfg(parse(IF_ELSE))
    assert cyclomatic_complexity(cfg) == 2
    assert cfg_entropy(cfg) == 1.0
    labels = sorted(e.label for e in cfg.edges if e.src == cfg.branch_nodes()[0])
    assert labels == ["false", "true"]


def test_branch_nodes_have_out_degree_two():
    text = "while (i < n) { if (a > 0) { x = 1 } i = i + 1 }\n"
    cfg = build_cfg(parse(text))
    degrees = cfg.out_degrees()
    branches = cfg.branch_nodes()
    assert len(branches) == 2
    assert all(degrees[b] == 2 for b in branches)
    assert cyclomatic_complexity(cfg) == 3
    assert cfg_entropy(cfg) == 2.0


def test_loop_guard_edges_are_labelled():
    cfg = build_cfg(parse("while (i < n) { i = i + 1 }\n"))
    labels = {e.label for e in cfg.edges}
    assert "loop-back" in labels
    assert "loop-exit" in labels


def test_for_loop_counts_one_decision():
    cfg = build_cfg(parse("for (i = 0; i < n; i = i + 1) { s = s + i }\n"))
    assert cyclomatic_complexity(cfg) == 2
    assert cfg_entropy(cfg) == 1.0


def test_else_if_chain_counts_each_guard():
    text = (
        "if (a < 1) { x = 1 } else if (a < 2) { x = 2 } "
        "else if (a < 3) { x = 3 } else { x = 4 }\n"
    )
    cfg = build_cfg(parse(text))
    assert cyclomatic_complexity(cfg) == 4
    assert cfg_entropy(cfg) == 3.0


def test_else_if_chain_blocks_and_edges_keep_their_order():
    # Each link gets its own join block; the joins chain innermost first.
    text = (
        "if (a < 1) { x = 1 } else if (a < 2) { return 2 } "
        "else if (a < 3) { x = 3 } else { x = 4 }\ny = 5\n"
    )
    data = build_cfg(parse(text)).to_dict()
    assert [node["stmts"] for node in data["nodes"]] == [
        [], ["if (a < 1)"], ["y = 5"], ["x = 1"], ["if (a < 2)"], [], ["return 2"],
        ["if (a < 3)"], [], ["x = 3"], ["x = 4"], [],
    ]
    assert [(e["from"], e["to"], e["label"]) for e in data["edges"]] == [
        (0, 1, "seq"), (1, 3, "true"), (3, 2, "seq"), (1, 4, "false"),
        (4, 6, "true"), (6, 11, "seq"), (4, 7, "false"), (7, 9, "true"),
        (9, 8, "seq"), (7, 10, "false"), (10, 8, "seq"), (8, 5, "seq"),
        (5, 2, "seq"), (2, 11, "seq"),
    ]


def test_return_jumps_to_exit():
    text = "if (a < 0) { return }\nx = 1\n"
    cfg = build_cfg(parse(text))
    cfg.validate()
    assert cyclomatic_complexity(cfg) == 2


def test_entropy_is_log2_product_of_branch_degrees():
    # h_c treats each decision site as a uniform choice over its successors,
    # so it equals log2 of the product of branch out-degrees.
    text = "while (i < n) { if (a > 0) { if (b > 0) { x = 1 } } i = i + 1 }\n"
    cfg = build_cfg(parse(text))
    degrees = cfg.out_degrees()
    product = 1
    for b in cfg.branch_nodes():
        product *= degrees[b]
    assert cfg_entropy(cfg) == pytest.approx(math.log2(product), abs=1e-12)


def test_interchange_round_trip(tmp_path):
    cfg = build_cfg(parse(IF_ELSE))
    path = tmp_path / "unit.cfg.json"
    dump_cfg(cfg, path)
    loaded = load_cfg(path)
    assert loaded == cfg
    assert cyclomatic_complexity(loaded) == cyclomatic_complexity(cfg)
    assert cfg_entropy(loaded) == cfg_entropy(cfg)


def test_load_rejects_unreachable_block(tmp_path):
    data = {
        "nodes": [{"id": 0, "stmts": []}, {"id": 1, "stmts": []}, {"id": 2, "stmts": []}],
        "edges": [{"from": 0, "to": 1, "label": "seq"}],
        "entry": 0,
        "exit": 1,
    }
    path = tmp_path / "bad.cfg.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ValidationError):
        load_cfg(path)


def test_load_rejects_unknown_edge_label(tmp_path):
    data = {
        "nodes": [{"id": 0, "stmts": []}, {"id": 1, "stmts": []}],
        "edges": [{"from": 0, "to": 1, "label": "goto"}],
        "entry": 0,
        "exit": 1,
    }
    path = tmp_path / "bad.cfg.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ValidationError):
        load_cfg(path)


def test_validate_rejects_edge_into_entry():
    cfg = ControlFlowGraph(
        blocks=(BasicBlock(0, ()), BasicBlock(1, ())),
        edges=(Edge(0, 1, "seq"), Edge(1, 0, "seq")),
        entry=0,
        exit=1,
    )
    with pytest.raises(ValidationError):
        cfg.validate()


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=20_000))
def test_cc_agrees_between_edge_count_and_decision_count(seed):
    unit = parse(random_program(seed))
    cfg = build_cfg(unit)
    cfg.validate()
    cc_edges = len(cfg.edges) - len(cfg.blocks) + 2
    assert cyclomatic_complexity(cfg) == cc_edges
    assert cc_edges == _decision_count(unit.ast) + 1


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=20_000))
def test_every_branch_node_has_true_and_false_successors(seed):
    cfg = build_cfg(parse(random_program(seed)))
    by_src: dict[int, list[str]] = {}
    for edge in cfg.edges:
        by_src.setdefault(edge.src, []).append(edge.label)
    for node in cfg.branch_nodes():
        labels = sorted(by_src[node])
        assert len(labels) == 2
        # if-guards split true/false; loop guards take the true edge into the
        # body and the loop-exit edge past it (loop-back returns to the guard).
        assert labels in (["false", "true"], ["loop-exit", "true"])


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=20_000))
def test_entropy_counts_one_bit_per_binary_decision(seed):
    cfg = build_cfg(parse(random_program(seed)))
    assert cfg_entropy(cfg) == pytest.approx(float(len(cfg.branch_nodes())), abs=1e-12)
