"""VCPLang abstract syntax tree.

Every node carries a character span into the source it was parsed from.
Spans are metadata: they are excluded from equality, so two parses are equal
exactly when they are structurally identical.  ``pretty_print`` renders the
canonical form; reparsing it yields a structurally equal tree.
"""

from __future__ import annotations

from typing import Optional, Union

from vibecheck.record import Record

Span = tuple[int, int]

_NO_SPAN: Span = (0, 0)

_set = object.__setattr__


class Node(Record):
    # One node is built per parsed construct, so each class has slots and
    # its own ``__init__``; ``span`` and ``op_span`` are keyword-only.
    __slots__ = ("span",)
    _uncompared = _hidden = frozenset(("span", "op_span"))

    span: Span

    def __init__(self, *, span: Span = _NO_SPAN) -> None:
        _set(self, "span", span)


# --- expressions -----------------------------------------------------------


class Expr(Node):
    __slots__ = ()


class Name(Expr):
    __slots__ = ("ident",)

    ident: str

    def __init__(self, ident: str, *, span: Span = _NO_SPAN) -> None:
        _set(self, "span", span)
        _set(self, "ident", ident)


class IntLit(Expr):
    __slots__ = ("value",)

    value: int

    def __init__(self, value: int, *, span: Span = _NO_SPAN) -> None:
        _set(self, "span", span)
        _set(self, "value", value)


class StrLit(Expr):
    __slots__ = ("value",)

    value: str

    def __init__(self, value: str, *, span: Span = _NO_SPAN) -> None:
        _set(self, "span", span)
        _set(self, "value", value)


class Unary(Expr):
    __slots__ = ("op", "operand")

    op: str
    operand: Expr

    def __init__(self, op: str, operand: Expr, *, span: Span = _NO_SPAN) -> None:
        _set(self, "span", span)
        _set(self, "op", op)
        _set(self, "operand", operand)


class Binary(Expr):
    __slots__ = ("op", "left", "right", "op_span")

    op: str
    left: Expr
    right: Expr
    op_span: Span

    def __init__(
        self, op: str, left: Expr, right: Expr, *, span: Span = _NO_SPAN,
        op_span: Span = _NO_SPAN,
    ) -> None:
        _set(self, "span", span)
        _set(self, "op", op)
        _set(self, "left", left)
        _set(self, "right", right)
        _set(self, "op_span", op_span)


class Call(Expr):
    __slots__ = ("func", "args")

    func: str
    args: tuple[Expr, ...]

    def __init__(self, func: str, args: tuple[Expr, ...], *, span: Span = _NO_SPAN) -> None:
        _set(self, "span", span)
        _set(self, "func", func)
        _set(self, "args", args)


class Index(Expr):
    __slots__ = ("base", "index")

    base: str
    index: Expr

    def __init__(self, base: str, index: Expr, *, span: Span = _NO_SPAN) -> None:
        _set(self, "span", span)
        _set(self, "base", base)
        _set(self, "index", index)


# --- statements ------------------------------------------------------------


class Stmt(Node):
    __slots__ = ()


class Assign(Stmt):
    __slots__ = ("target", "value")

    target: str
    value: Expr

    def __init__(self, target: str, value: Expr, *, span: Span = _NO_SPAN) -> None:
        _set(self, "span", span)
        _set(self, "target", target)
        _set(self, "value", value)


class Block(Stmt):
    __slots__ = ("body",)

    body: tuple[Stmt, ...]

    def __init__(self, body: tuple[Stmt, ...], *, span: Span = _NO_SPAN) -> None:
        _set(self, "span", span)
        _set(self, "body", body)


class If(Stmt):
    __slots__ = ("cond", "then", "orelse")

    cond: Expr
    then: Block
    orelse: Optional[Union[Block, If]]

    def __init__(
        self, cond: Expr, then: Block, orelse: Optional[Union[Block, If]], *,
        span: Span = _NO_SPAN,
    ) -> None:
        _set(self, "span", span)
        _set(self, "cond", cond)
        _set(self, "then", then)
        _set(self, "orelse", orelse)


class While(Stmt):
    __slots__ = ("cond", "body")

    cond: Expr
    body: Block

    def __init__(self, cond: Expr, body: Block, *, span: Span = _NO_SPAN) -> None:
        _set(self, "span", span)
        _set(self, "cond", cond)
        _set(self, "body", body)


class For(Stmt):
    __slots__ = ("init", "cond", "update", "body")

    init: Assign
    cond: Expr
    update: Assign
    body: Block

    def __init__(
        self, init: Assign, cond: Expr, update: Assign, body: Block, *, span: Span = _NO_SPAN,
    ) -> None:
        _set(self, "span", span)
        _set(self, "init", init)
        _set(self, "cond", cond)
        _set(self, "update", update)
        _set(self, "body", body)


class Return(Stmt):
    __slots__ = ("value",)

    value: Optional[Expr]

    def __init__(self, value: Optional[Expr], *, span: Span = _NO_SPAN) -> None:
        _set(self, "span", span)
        _set(self, "value", value)


class CallStmt(Stmt):
    __slots__ = ("call",)

    call: Call

    def __init__(self, call: Call, *, span: Span = _NO_SPAN) -> None:
        _set(self, "span", span)
        _set(self, "call", call)


class Program(Node):
    __slots__ = ("body",)

    body: tuple[Stmt, ...]

    def __init__(self, body: tuple[Stmt, ...], *, span: Span = _NO_SPAN) -> None:
        _set(self, "span", span)
        _set(self, "body", body)


class SourceUnit(Record):
    """A named piece of VCPLang source with its parsed program."""

    _uncompared = frozenset(("ast",))

    name: str
    text: str
    ast: Program


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
    """The canonical text of ``expr``.  Pieces of text and subexpressions
    wait on an explicit stack, last piece first, so a deep tree, such as a
    long operator chain, costs no interpreter stack."""
    if type(expr) is Name:  # the commonest expression, without the stack
        return expr.ident
    out: list[str] = []
    todo: list = [expr]
    put, push, pop = out.append, todo.append, todo.pop
    while todo:
        item = pop()
        cls = type(item)
        if cls is str:
            put(item)
        elif cls is Name:
            put(item.ident)
        elif cls is Binary:
            prec = BINARY_PRECEDENCE[item.op]
            left_parens = _expr_prec(item.left) < prec
            # Binaries are left-associative: equal precedence on the right needs parens.
            right_parens = _expr_prec(item.right) <= prec
            if right_parens:
                push(")")
            push(item.right)
            push((") " if left_parens else " ") + item.op + (" (" if right_parens else " "))
            push(item.left)
            if left_parens:
                push("(")
        elif cls is IntLit:
            put(str(item.value))
        elif cls is Call:
            push(")")
            args = item.args
            for k in range(len(args) - 1, 0, -1):
                push(args[k])
                push(", ")
            if args:
                push(args[0])
            push(item.func + "(")
        elif cls is StrLit:
            put('"' + _escape(item.value) + '"')
        elif cls is Unary:
            # Parenthesize any binary operand; nested unaries get explicit
            # parens too so "-(-x)" never prints as a single "--" lexeme.
            if type(item.operand) in (Binary, Unary):
                todo += (")", item.operand, item.op + "(")
            else:
                todo += (item.operand, item.op)
        elif cls is Index:
            todo += ("]", item.index, item.base + "[")
        else:
            raise TypeError(f"unknown expression node: {item!r}")
    return "".join(out)


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


def _render_block(opening: str, block: Block, indent: int, out: list[str]) -> None:
    """Append ``block`` to ``out``: its first line starts with ``opening``
    and its closing brace sits at ``indent``."""
    if not block.body:
        out.append(opening + "{ }")
        return
    out.append(opening + "{")
    for stmt in block.body:
        _render_stmt(stmt, indent + 1, out)
    out.append("  " * indent + "}")


def _render_stmt(stmt: Stmt, indent: int, out: list[str]) -> None:
    pad = "  " * indent
    if isinstance(stmt, (Assign, Return, CallStmt)):
        out.append(pad + render_stmt_line(stmt))
    elif isinstance(stmt, Block):
        _render_block(pad, stmt, indent, out)
    elif isinstance(stmt, (While, For)):
        _render_block(pad + render_stmt_line(stmt) + " ", stmt.body, indent, out)
    elif isinstance(stmt, If):
        _render_block(pad + render_stmt_line(stmt) + " ", stmt.then, indent, out)
        # Each ``else`` continues the line that closed the previous block; an
        # ``else if`` chain is read link by link in a loop, so its length
        # costs no stack.
        orelse = stmt.orelse
        while isinstance(orelse, If):
            opening = out.pop() + " else " + render_stmt_line(orelse) + " "
            _render_block(opening, orelse.then, indent, out)
            orelse = orelse.orelse
        if orelse is not None:
            _render_block(out.pop() + " else ", orelse, indent, out)
    else:
        raise TypeError(f"unknown statement node: {stmt!r}")


def pretty_print(program: Program) -> str:
    """Render the canonical source form (two-space indent, one stmt per line)."""
    lines: list[str] = []
    for stmt in program.body:
        _render_stmt(stmt, 0, lines)
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
