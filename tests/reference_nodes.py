"""The VCPLang node classes and renderer as they stood before ``span`` was
declared once on ``Node`` and the renderer appended to a single list of
lines: one frozen dataclass per node, each with its own ``span`` field, and
the list-returning ``_render_block``/``_attach_header``/``_render_stmt``.
Test-only reference: ``tests/test_nodes_oracle.py`` checks the production
nodes and ``pretty_print`` against it.  Kept verbatim below the line; do not
edit.

---

VCPLang abstract syntax tree.

Every node carries a character span into the source it was parsed from.
Spans are metadata: they are excluded from equality, so two parses are equal
exactly when they are structurally identical.  ``pretty_print`` renders the
canonical form; reparsing it yields a structurally equal tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

Span = tuple[int, int]

_NO_SPAN: Span = (0, 0)


@dataclass(frozen=True)
class Node:
    pass


# --- expressions -----------------------------------------------------------


@dataclass(frozen=True)
class Expr(Node):
    pass


@dataclass(frozen=True)
class Name(Expr):
    ident: str
    span: Span = field(default=_NO_SPAN, compare=False, repr=False)


@dataclass(frozen=True)
class IntLit(Expr):
    value: int
    span: Span = field(default=_NO_SPAN, compare=False, repr=False)


@dataclass(frozen=True)
class StrLit(Expr):
    value: str
    span: Span = field(default=_NO_SPAN, compare=False, repr=False)


@dataclass(frozen=True)
class Unary(Expr):
    op: str
    operand: Expr
    span: Span = field(default=_NO_SPAN, compare=False, repr=False)


@dataclass(frozen=True)
class Binary(Expr):
    op: str
    left: Expr
    right: Expr
    span: Span = field(default=_NO_SPAN, compare=False, repr=False)
    op_span: Span = field(default=_NO_SPAN, compare=False, repr=False)


@dataclass(frozen=True)
class Call(Expr):
    func: str
    args: tuple[Expr, ...]
    span: Span = field(default=_NO_SPAN, compare=False, repr=False)


@dataclass(frozen=True)
class Index(Expr):
    base: str
    index: Expr
    span: Span = field(default=_NO_SPAN, compare=False, repr=False)


# --- statements ------------------------------------------------------------


@dataclass(frozen=True)
class Stmt(Node):
    pass


@dataclass(frozen=True)
class Assign(Stmt):
    target: str
    value: Expr
    span: Span = field(default=_NO_SPAN, compare=False, repr=False)


@dataclass(frozen=True)
class Block(Stmt):
    body: tuple[Stmt, ...]
    span: Span = field(default=_NO_SPAN, compare=False, repr=False)


@dataclass(frozen=True)
class If(Stmt):
    cond: Expr
    then: Block
    orelse: Optional[Union[Block, "If"]]
    span: Span = field(default=_NO_SPAN, compare=False, repr=False)


@dataclass(frozen=True)
class While(Stmt):
    cond: Expr
    body: Block
    span: Span = field(default=_NO_SPAN, compare=False, repr=False)


@dataclass(frozen=True)
class For(Stmt):
    init: Assign
    cond: Expr
    update: Assign
    body: Block
    span: Span = field(default=_NO_SPAN, compare=False, repr=False)


@dataclass(frozen=True)
class Return(Stmt):
    value: Optional[Expr]
    span: Span = field(default=_NO_SPAN, compare=False, repr=False)


@dataclass(frozen=True)
class CallStmt(Stmt):
    call: Call
    span: Span = field(default=_NO_SPAN, compare=False, repr=False)


@dataclass(frozen=True)
class Program(Node):
    body: tuple[Stmt, ...]
    span: Span = field(default=_NO_SPAN, compare=False, repr=False)


@dataclass(frozen=True)
class SourceUnit:
    """A named piece of VCPLang source with its parsed program."""

    name: str
    text: str
    ast: Program = field(compare=False)


# --- canonical rendering ---------------------------------------------------

# Binding strength per binary operator, shared with the parser; unary binds
# tighter than any binary.
BINARY_PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "==": 3, "!=": 3,
    "<": 4, "<=": 4, ">": 4, ">=": 4,
    "+": 5, "-": 5,
    "*": 6, "/": 6, "%": 6,
}
_UNARY_PRECEDENCE = 7

_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\t": "\\t"}


def _escape(value: str) -> str:
    return "".join(_ESCAPES.get(ch, ch) for ch in value)


def _expr_prec(expr: Expr) -> int:
    if isinstance(expr, Binary):
        return BINARY_PRECEDENCE[expr.op]
    if isinstance(expr, Unary):
        return _UNARY_PRECEDENCE
    return 8


def render_expr(expr: Expr) -> str:
    if isinstance(expr, Name):
        return expr.ident
    if isinstance(expr, IntLit):
        return str(expr.value)
    if isinstance(expr, StrLit):
        return '"' + _escape(expr.value) + '"'
    if isinstance(expr, Call):
        return expr.func + "(" + ", ".join(render_expr(a) for a in expr.args) + ")"
    if isinstance(expr, Index):
        return expr.base + "[" + render_expr(expr.index) + "]"
    if isinstance(expr, Unary):
        inner = render_expr(expr.operand)
        # Parenthesize any binary operand; nested unaries get explicit parens
        # too so "-(-x)" never prints as a single "--" lexeme.
        if isinstance(expr.operand, (Binary, Unary)):
            inner = "(" + inner + ")"
        return expr.op + inner
    if isinstance(expr, Binary):
        prec = BINARY_PRECEDENCE[expr.op]
        left = render_expr(expr.left)
        right = render_expr(expr.right)
        if _expr_prec(expr.left) < prec:
            left = "(" + left + ")"
        # Binaries are left-associative: equal precedence on the right needs parens.
        if _expr_prec(expr.right) <= prec:
            right = "(" + right + ")"
        return f"{left} {expr.op} {right}"
    raise TypeError(f"unknown expression node: {expr!r}")


def render_stmt_line(stmt: Stmt) -> str:
    """One-line descriptor of a statement; guards render without their body."""
    if isinstance(stmt, Assign):
        return f"{stmt.target} = {render_expr(stmt.value)}"
    if isinstance(stmt, Return):
        return "return" if stmt.value is None else f"return {render_expr(stmt.value)}"
    if isinstance(stmt, CallStmt):
        return render_expr(stmt.call)
    if isinstance(stmt, If):
        return f"if ({render_expr(stmt.cond)})"
    if isinstance(stmt, While):
        return f"while ({render_expr(stmt.cond)})"
    if isinstance(stmt, For):
        return (
            f"for ({render_stmt_line(stmt.init)}; {render_expr(stmt.cond)}; "
            f"{render_stmt_line(stmt.update)})"
        )
    raise TypeError(f"no one-line form for: {stmt!r}")


def _render_block(block: Block, indent: int) -> list[str]:
    if not block.body:
        return ["{ }"]
    lines = ["{"]
    for stmt in block.body:
        lines.extend(_render_stmt(stmt, indent + 1))
    lines.append("}")
    return lines


def _attach_header(header: str, block_lines: list[str], indent: int) -> list[str]:
    pad = "  " * indent
    out = [pad + header + " " + block_lines[0]]
    for line in block_lines[1:-1]:
        out.append(line)
    if len(block_lines) > 1:
        out.append(pad + block_lines[-1])
    return out


def _render_stmt(stmt: Stmt, indent: int) -> list[str]:
    pad = "  " * indent
    if isinstance(stmt, (Assign, Return, CallStmt)):
        return [pad + render_stmt_line(stmt)]
    if isinstance(stmt, Block):
        inner = _render_block(stmt, indent)
        return [pad + inner[0]] + inner[1:-1] + ([pad + inner[-1]] if len(inner) > 1 else [])
    if isinstance(stmt, While):
        return _attach_header(f"while ({render_expr(stmt.cond)})", _render_block(stmt.body, indent), indent)
    if isinstance(stmt, For):
        return _attach_header(render_stmt_line(stmt), _render_block(stmt.body, indent), indent)
    if isinstance(stmt, If):
        lines = _attach_header(f"if ({render_expr(stmt.cond)})", _render_block(stmt.then, indent), indent)
        orelse = stmt.orelse
        # An ``else if`` chain renders link by link in a loop, so its length
        # costs no stack.
        while isinstance(orelse, If):
            chained = _attach_header(
                f"if ({render_expr(orelse.cond)})", _render_block(orelse.then, indent), indent
            )
            lines[-1] = lines[-1] + " else " + chained[0].lstrip()
            lines.extend(chained[1:])
            orelse = orelse.orelse
        if orelse is None:
            return lines
        else_lines = _attach_header("else", _render_block(orelse, indent), indent)
        lines[-1] = lines[-1] + " " + else_lines[0].lstrip()
        return lines + else_lines[1:]
    raise TypeError(f"unknown statement node: {stmt!r}")


def pretty_print(program: Program) -> str:
    """Render the canonical source form (two-space indent, one stmt per line)."""
    lines: list[str] = []
    for stmt in program.body:
        lines.extend(_render_stmt(stmt, 0))
    return "\n".join(lines) + ("\n" if lines else "")


_LEAVES = frozenset((Name, IntLit, StrLit))


def walk(node: Node):
    """Yield ``node`` and every descendant in a deterministic pre-order.

    Dispatch is on the exact node type, leaves first; the node classes have
    no subclasses.
    """
    stack = [node]
    push = stack.append
    pop = stack.pop
    while stack:
        node = pop()
        yield node
        cls = type(node)
        if cls in _LEAVES:
            continue
        # Children go on the stack last-first, so the first one comes out next.
        if cls is Binary:
            push(node.right)
            push(node.left)
        elif cls is Assign:
            push(node.value)
        elif cls is Block or cls is Program:
            stack.extend(reversed(node.body))
        elif cls is Call:
            stack.extend(reversed(node.args))
        elif cls is If:
            if node.orelse is not None:
                push(node.orelse)
            push(node.then)
            push(node.cond)
        elif cls is Index:
            push(node.index)
        elif cls is Unary:
            push(node.operand)
        elif cls is CallStmt:
            push(node.call)
        elif cls is While:
            push(node.body)
            push(node.cond)
        elif cls is For:
            stack.extend((node.body, node.update, node.cond, node.init))
        elif cls is Return:
            if node.value is not None:
                push(node.value)
