"""Trap-site finding and Halstead counting as they stood before the one-walk
passes: the five per-kind site finders, each walking the whole tree, the
recursive Halstead ``_count`` and the ``isinstance``-dispatched ``walk``.
Test-only reference: ``tests/test_trapforge_oracle.py`` checks the
production passes against it.  Kept as it was, with node names qualified by
``N.``; do not edit.
"""

from __future__ import annotations

from collections import Counter

from vibecheck.codemetrics import nodes as N
from vibecheck.errors import ValidationError
from vibecheck.trapforge import (
    _NEGATE,
    _SHIFT_BOUND,
    DEFECT_KINDS,
    SANITIZER,
    SINK_FUNCTIONS,
    _Site,
)


def walk(node: N.Node):
    """Yield ``node`` and every descendant in a deterministic pre-order."""
    stack = [node]
    push = stack.append
    while stack:
        node = stack.pop()
        yield node
        # Children go on the stack last-first, so the first one comes out next.
        if isinstance(node, N.Binary):
            push(node.right)
            push(node.left)
        elif isinstance(node, (N.Program, N.Block)):
            stack.extend(reversed(node.body))
        elif isinstance(node, N.Assign):
            push(node.value)
        elif isinstance(node, N.If):
            if node.orelse is not None:
                push(node.orelse)
            push(node.then)
            push(node.cond)
        elif isinstance(node, N.While):
            push(node.body)
            push(node.cond)
        elif isinstance(node, N.For):
            stack.extend((node.body, node.update, node.cond, node.init))
        elif isinstance(node, N.Return):
            if node.value is not None:
                push(node.value)
        elif isinstance(node, N.CallStmt):
            push(node.call)
        elif isinstance(node, N.Unary):
            push(node.operand)
        elif isinstance(node, N.Call):
            stack.extend(reversed(node.args))
        elif isinstance(node, N.Index):
            push(node.index)


def _comparison_sites(unit: N.SourceUnit, table: dict[str, str]) -> list[_Site]:
    sites = []
    for node in walk(unit.ast):
        if isinstance(node, N.Binary) and node.op in table:
            sites.append(
                _Site(
                    span=node.op_span,
                    replacement=table[node.op],
                    description=f"comparison '{node.op}' replaced by '{table[node.op]}'",
                )
            )
    return sites


def _loop_guard_sites(unit: N.SourceUnit) -> list[_Site]:
    sites = []
    for node in walk(unit.ast):
        if isinstance(node, (N.While, N.For)):
            cond = node.cond
            if isinstance(cond, N.Binary) and cond.op in _SHIFT_BOUND:
                new_op = _SHIFT_BOUND[cond.op]
                sites.append(
                    _Site(
                        span=cond.op_span,
                        replacement=new_op,
                        description=f"loop bound '{cond.op}' relaxed to '{new_op}'",
                    )
                )
    return sites


def _contains_index(node: N.Node) -> bool:
    return any(isinstance(sub, N.Index) for sub in walk(node))


def _bounds_guard_sites(unit: N.SourceUnit) -> list[_Site]:
    sites = []
    for node in walk(unit.ast):
        if (
            isinstance(node, N.If)
            and node.orelse is None
            and isinstance(node.cond, N.Binary)
            and node.cond.op in _SHIFT_BOUND
            and _contains_index(node.then)
        ):
            inner = unit.text[node.then.span[0] + 1 : node.then.span[1] - 1].strip()
            sites.append(
                _Site(
                    span=node.span,
                    replacement=inner,
                    description="bounds-guard if removed around subscript access",
                )
            )
    return sites


def _sink_sites(unit: N.SourceUnit) -> list[_Site]:
    sites = []
    for node in walk(unit.ast):
        if isinstance(node, N.Call) and node.func in SINK_FUNCTIONS:
            for arg in node.args:
                if isinstance(arg, N.Call) and arg.func == SANITIZER and arg.args:
                    start = arg.args[0].span[0]
                    end = arg.args[-1].span[1]
                    sites.append(
                        _Site(
                            span=arg.span,
                            replacement=unit.text[start:end],
                            description=f"sanitize() wrapper removed inside {node.func}() call",
                        )
                    )
    return sites


def _guard_names(cond: N.Expr) -> set[str]:
    return {sub.ident for sub in walk(cond) if isinstance(sub, N.Name)}


def _dropped_update_sites(unit: N.SourceUnit) -> list[_Site]:
    # For-header init/update clauses are loop syntax, not body statements;
    # deleting one would leave an unparseable header.
    header_clauses = {
        id(clause)
        for node in walk(unit.ast)
        if isinstance(node, N.For)
        for clause in (node.init, node.update)
    }
    sites = []
    for node in walk(unit.ast):
        if isinstance(node, (N.While, N.For)):
            guard_vars = _guard_names(node.cond)
            for sub in walk(node.body):
                if (
                    isinstance(sub, N.Assign)
                    and sub.target in guard_vars
                    and id(sub) not in header_clauses
                ):
                    sites.append(
                        _Site(
                            span=sub.span,
                            replacement="",
                            description=f"loop-variable update '{sub.target} = ...' deleted",
                        )
                    )
    return sites


def applicable_sites(unit: N.SourceUnit, kind: str) -> list[_Site]:
    if kind == "inverted-condition":
        return _comparison_sites(unit, _NEGATE)
    if kind == "off-by-one":
        return _loop_guard_sites(unit)
    if kind == "unchecked-index":
        return _bounds_guard_sites(unit)
    if kind == "unsanitized-sink":
        return _sink_sites(unit)
    if kind == "dropped-update":
        return _dropped_update_sites(unit)
    raise ValidationError(f"unknown defect kind {kind!r}; known kinds: {', '.join(DEFECT_KINDS)}")


def _count(node: N.Node, operators: Counter, operands: Counter) -> None:
    if isinstance(node, (N.Program, N.Block)):
        for stmt in node.body:
            _count(stmt, operators, operands)
    elif isinstance(node, N.Assign):
        operators["="] += 1
        operands[("ident", node.target)] += 1
        _count(node.value, operators, operands)
    elif isinstance(node, N.If):
        operators["if"] += 1
        _count(node.cond, operators, operands)
        _count(node.then, operators, operands)
        if node.orelse is not None:
            _count(node.orelse, operators, operands)
    elif isinstance(node, N.While):
        operators["while"] += 1
        _count(node.cond, operators, operands)
        _count(node.body, operators, operands)
    elif isinstance(node, N.For):
        operators["for"] += 1
        _count(node.init, operators, operands)
        _count(node.cond, operators, operands)
        _count(node.update, operators, operands)
        _count(node.body, operators, operands)
    elif isinstance(node, N.Return):
        operators["return"] += 1
        if node.value is not None:
            _count(node.value, operators, operands)
    elif isinstance(node, N.CallStmt):
        _count(node.call, operators, operands)
    elif isinstance(node, N.Binary):
        operators[node.op] += 1
        _count(node.left, operators, operands)
        _count(node.right, operators, operands)
    elif isinstance(node, N.Unary):
        operators[node.op] += 1
        _count(node.operand, operators, operands)
    elif isinstance(node, N.Call):
        operators["call"] += 1
        operands[("ident", node.func)] += 1
        for arg in node.args:
            _count(arg, operators, operands)
    elif isinstance(node, N.Index):
        operators["index"] += 1
        operands[("ident", node.base)] += 1
        _count(node.index, operators, operands)
    elif isinstance(node, N.Name):
        operands[("ident", node.ident)] += 1
    elif isinstance(node, N.IntLit):
        operands[("int", node.value)] += 1
    elif isinstance(node, N.StrLit):
        operands[("str", node.value)] += 1
    else:
        raise TypeError(f"unknown node: {node!r}")
