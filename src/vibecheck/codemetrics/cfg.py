"""Control-flow graphs over VCPLang programs.

Construction discipline:

- straight-line statements accumulate into the current basic block;
- an ``if`` guard terminates its block, which becomes a branch node with a
  ``true`` edge into the then-branch and a ``false`` edge to the else-branch
  (or directly to the join block when there is none); ``else if`` chains are
  nested ifs, so every branch node has out-degree exactly 2;
- a loop guard sits in its own block with a ``true`` edge into the body and a
  ``loop-exit`` edge past the loop; the body tail returns via a ``loop-back``
  edge to the guard;
- ``return`` routes to the synthetic exit block; code after it is
  unreachable and is omitted from the graph.

Every produced graph has a single entry (in-degree 0), a single exit
reachable from every node, and non-exit nodes with out-degree 1 or 2.  The
same structure round-trips through a JSON interchange form, and any graph
read back from that form is accepted wherever a freshly built one is.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Iterable, Union

from vibecheck.codemetrics import nodes as N
from vibecheck.errors import ValidationError
from vibecheck.io import as_int, as_list, as_str, as_strings, fields, read_json
from vibecheck.record import Record
from vibecheck.reporting import write_json

EDGE_LABELS = frozenset({"seq", "true", "false", "loop-back", "loop-exit"})


_set = object.__setattr__


# Built once per block and edge, so with slots and their own ``__init__``.
class BasicBlock(Record):
    __slots__ = ("id", "stmts")

    id: int
    stmts: tuple[str, ...]

    def __init__(self, id: int, stmts: tuple[str, ...] = ()) -> None:
        _set(self, "id", id)
        _set(self, "stmts", stmts)


class Edge(Record):
    __slots__ = ("src", "dst", "label")

    src: int
    dst: int
    label: str

    def __init__(self, src: int, dst: int, label: str) -> None:
        _set(self, "src", src)
        _set(self, "dst", dst)
        _set(self, "label", label)


class ControlFlowGraph(Record):
    blocks: tuple[BasicBlock, ...]
    edges: tuple[Edge, ...]
    entry: int
    exit: int

    def out_degrees(self) -> dict[int, int]:
        degrees = {block.id: 0 for block in self.blocks}
        for edge in self.edges:
            degrees[edge.src] += 1
        return degrees

    def branch_nodes(self) -> list[int]:
        return [b for b, d in sorted(self.out_degrees().items()) if d >= 2]

    def validate(self) -> None:
        ids = [b.id for b in self.blocks]
        if len(set(ids)) != len(ids):
            raise ValidationError("duplicate block ids in control-flow graph")
        known = set(ids)
        if self.entry not in known or self.exit not in known:
            raise ValidationError("entry/exit refer to unknown blocks")
        succs: dict[int, list[int]] = {i: [] for i in ids}
        preds: dict[int, list[int]] = {i: [] for i in ids}
        for edge in self.edges:
            if edge.label not in EDGE_LABELS:
                raise ValidationError(f"unknown edge label {edge.label!r}")
            if edge.src not in known or edge.dst not in known:
                raise ValidationError("edge refers to unknown block")
            succs[edge.src].append(edge.dst)
            preds[edge.dst].append(edge.src)
        if preds[self.entry]:
            raise ValidationError("entry block must have in-degree 0")
        if succs[self.exit]:
            raise ValidationError("exit block must have out-degree 0")
        if _reachable(self.entry, succs) != known:
            raise ValidationError("every block must be reachable from entry")
        if _reachable(self.exit, preds) != known:
            raise ValidationError("exit must be reachable from every block")

    # --- interchange form --------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "nodes": [{"id": b.id, "stmts": list(b.stmts)} for b in self.blocks],
            "edges": [{"from": e.src, "to": e.dst, "label": e.label} for e in self.edges],
            "entry": self.entry,
            "exit": self.exit,
        }


# The interchange form's tables, each in the order of its record's fields.
_NODE_FIELDS = {"id": as_int, "stmts": as_strings}
_EDGE_FIELDS = {"from": as_int, "to": as_int, "label": as_str}
_GRAPH_FIELDS = {
    "nodes": lambda o, k: tuple(
        BasicBlock(**fields(n, _NODE_FIELDS, optional=("stmts",))) for n in as_list(o, k)
    ),
    "edges": lambda o, k: tuple(Edge(*fields(e, _EDGE_FIELDS).values()) for e in as_list(o, k)),
    "entry": as_int, "exit": as_int,
}


def _reachable(start: int, adjacency: dict[int, list[int]]) -> set[int]:
    seen = {start}
    frontier = [start]
    while frontier:
        node = frontier.pop()
        for nxt in adjacency[node]:
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def load_cfg(path: Union[str, Path]) -> ControlFlowGraph:
    """Read a control-flow graph from its JSON interchange file."""
    return read_json(
        path, lambda d: ControlFlowGraph(*fields(d, _GRAPH_FIELDS).values()), "control-flow graph"
    )


def dump_cfg(cfg: ControlFlowGraph, path: Union[str, Path]) -> None:
    write_json(path, cfg.to_dict())


# --- construction ----------------------------------------------------------


def build_cfg(unit: N.SourceUnit) -> ControlFlowGraph:
    """Build the whole-unit control-flow graph chaining top-level statements."""
    program = unit.ast
    if not program.body:
        return ControlFlowGraph(
            (BasicBlock(0, ()), BasicBlock(1, ())), (Edge(0, 1, "seq"),), 0, 1
        )

    # Each block's statement lines by block id, and the edges as
    # (src, dst, label); blocks 0 and 1 are entry and exit.
    block_lines: list[list[str]] = [[], []]
    links: list[tuple[int, int, str]] = []
    entry, exit_block = 0, 1

    def new_block() -> int:
        block_lines.append([])
        return len(block_lines) - 1

    def flow(stmts: Iterable[N.Stmt], current: int | None) -> int | None:
        for stmt in stmts:
            if current is None:
                # Unreachable suffix (after a return): parked in a dangling
                # block that the reachability prune below removes.
                current = new_block()
            current = place(stmt, current)
        return current

    def fresh_after(current: int) -> int:
        """A block to hold a guard: ``current`` itself if still empty.  It has no
        out-edge yet: ``place`` gets only the first block or one just made (a then,
        else, body, join, loop-exit or post-return block), whose edges come later."""
        if not block_lines[current]:
            return current
        nxt = new_block()
        links.append((current, nxt, "seq"))
        return nxt

    def place(stmt: N.Stmt, current: int) -> int | None:
        if isinstance(stmt, (N.Assign, N.CallStmt)):
            block_lines[current].append(N.render_stmt_line(stmt))
            return current
        if isinstance(stmt, N.Return):
            block_lines[current].append(N.render_stmt_line(stmt))
            links.append((current, exit_block, "seq"))
            return None
        if isinstance(stmt, N.Block):
            return flow(stmt.body, current)
        if isinstance(stmt, N.If):
            # An ``else if`` chain is walked in a loop, not by recursion, so
            # its length costs no stack.  Each link gets its own join block,
            # and the joins are linked innermost first once the chain ends.
            guard = current
            joins: list[int] = []
            while True:
                block_lines[guard].append(N.render_stmt_line(stmt))
                join = new_block()
                joins.append(join)
                then_block = new_block()
                links.append((guard, then_block, "true"))
                then_end = flow(stmt.then.body, then_block)
                if then_end is not None:
                    links.append((then_end, join, "seq"))
                if stmt.orelse is None:
                    links.append((guard, join, "false"))
                    break
                else_block = new_block()
                links.append((guard, else_block, "false"))
                if not isinstance(stmt.orelse, N.If):
                    else_end = flow(stmt.orelse.body, else_block)
                    if else_end is not None:
                        links.append((else_end, join, "seq"))
                    break
                stmt, guard = stmt.orelse, else_block
            for inner in range(len(joins) - 1, 0, -1):
                links.append((joins[inner], joins[inner - 1], "seq"))
            return joins[0]
        if isinstance(stmt, (N.While, N.For)):
            is_for = isinstance(stmt, N.For)
            if is_for:
                block_lines[current].append(N.render_stmt_line(stmt.init))
            guard = fresh_after(current)
            block_lines[guard].append(N.render_stmt_line(stmt))
            body_block = new_block()
            links.append((guard, body_block, "true"))
            body_end = flow(stmt.body.body, body_block)
            if body_end is not None:
                if is_for:
                    block_lines[body_end].append(N.render_stmt_line(stmt.update))
                links.append((body_end, guard, "loop-back"))
            after = new_block()
            links.append((guard, after, "loop-exit"))
            return after
        raise TypeError(f"unknown statement node: {stmt!r}")

    first = new_block()
    links.append((entry, first, "seq"))
    last = flow(program.body, first)
    if last is not None:
        links.append((last, exit_block, "seq"))

    # Prune blocks unreachable from entry, keeping entry and exit.
    succs: dict[int, list[int]] = {i: [] for i in range(len(block_lines))}
    for src, dst, _ in links:
        succs[src].append(dst)
    live = _reachable(entry, succs)
    live.add(exit_block)
    order = [i for i in range(len(block_lines)) if i in live]
    # Entry stays first and exit moves last for readable interchange files.
    order.remove(exit_block)
    order.append(exit_block)
    renumber = {old: new for new, old in enumerate(order)}
    blocks = tuple(BasicBlock(renumber[i], tuple(block_lines[i])) for i in order)
    edges = tuple(
        Edge(renumber[src], renumber[dst], label)
        for src, dst, label in links
        if src in live and dst in live
    )
    return ControlFlowGraph(blocks, edges, renumber[entry], renumber[exit_block])


# --- graph metrics ---------------------------------------------------------


def cyclomatic_complexity(cfg: ControlFlowGraph) -> int:
    """Cyclomatic number ``E - N + 2`` of a connected control-flow graph."""
    return len(cfg.edges) - len(cfg.blocks) + 2


def cfg_entropy(cfg: ControlFlowGraph) -> float:
    """Structural decision entropy in bits.

    Each decision site contributes ``log2(out-degree)``, treating the
    alternatives at the site as equiprobable.  Graphs without a node of
    out-degree >= 2 have entropy exactly 0.0.
    """
    total = 0.0
    for _, degree in sorted(cfg.out_degrees().items()):
        if degree >= 2:
            total += math.log2(degree)
    return total
