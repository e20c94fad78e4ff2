"""Halstead vocabulary counts and volume for VCPLang.

The classification table is fixed (version ``vcp-1``) so that counts are
reproducible across implementations:

==========================  ================================================
operators                   every binary/unary operator symbol (`-` counts
                            as one operator in both roles), the assignment
                            ``=``, one ``call`` operator per call site, one
                            ``index`` operator per subscript site, and the
                            keywords ``if``, ``while``, ``for``, ``return``
                            (one occurrence per syntactic use; ``else`` is
                            part of the ``if`` syntax and adds nothing)
operands                    identifiers (assignment targets, callee names,
                            subscripted names, and plain uses) and literals,
                            distinct by spelling for identifiers and by
                            value for literals
not counted                 braces, parentheses, semicolons, commas
==========================  ================================================

Volume is ``V = (N1 + N2) * log2(n1 + n2)``; the empty program has all
counts and volume exactly 0.
"""

from __future__ import annotations

import math

from vibecheck.codemetrics import nodes as N
from vibecheck.record import Record

CLASSIFIER_TABLE_VERSION = "vcp-1"


class HalsteadCounts(Record):
    n1: int  # distinct operators
    n2: int  # distinct operands
    N1: int  # total operator occurrences
    N2: int  # total operand occurrences
    volume_v: float


_KEYWORDS = {N.If: "if", N.While: "while", N.For: "for", N.Return: "return"}


def _count(program: N.Program) -> tuple[list, list]:
    """Every operator and operand occurrence, in one pass over ``walk``."""
    operators: list = []
    operands: list = []
    operator = operators.append
    operand = operands.append
    for node in N.walk(program):
        cls = type(node)
        if cls is N.Name:
            operand(("ident", node.ident))
        elif cls is N.Binary or cls is N.Unary:
            operator(node.op)
        elif cls is N.IntLit:
            operand(("int", node.value))
        elif cls is N.Assign:
            operator("=")
            operand(("ident", node.target))
        elif cls is N.Call:
            operator("call")
            operand(("ident", node.func))
        elif cls is N.Index:
            operator("index")
            operand(("ident", node.base))
        elif cls is N.StrLit:
            operand(("str", node.value))
        elif cls in _KEYWORDS:
            operator(_KEYWORDS[cls])
        elif cls is not N.Program and cls is not N.Block and cls is not N.CallStmt:
            raise TypeError(f"unknown node: {node!r}")
    return operators, operands


def halstead(unit: N.SourceUnit) -> HalsteadCounts:
    """Count operators/operands and compute volume for one source unit."""
    operators, operands = _count(unit.ast)
    n1 = len(set(operators))
    n2 = len(set(operands))
    total_n1 = len(operators)
    total_n2 = len(operands)
    vocabulary = n1 + n2
    length = total_n1 + total_n2
    volume = float(length) * math.log2(vocabulary) if vocabulary else 0.0
    return HalsteadCounts(n1=n1, n2=n2, N1=total_n1, N2=total_n2, volume_v=volume)
