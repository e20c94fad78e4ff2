"""Recursive-descent parser for VCPLang.

Grammar::

    program  := stmt*
    stmt     := assign | if | while | for | return | call-stmt | block
    assign   := IDENT "=" expr
    if       := "if" "(" expr ")" block [ "else" (block | if) ]
    while    := "while" "(" expr ")" block
    for      := "for" "(" assign ";" expr ";" assign ")" block
    return   := "return" [ expr ]
    call-stmt:= IDENT "(" args ")"
    block    := "{" stmt* "}"
    expr     := unary ( BINOP unary )*      (C-style precedence, left assoc)
    unary    := ("!" | "-") unary | primary
    primary  := INT | STRING | IDENT | IDENT "(" args ")" | IDENT "[" expr "]"
              | "(" expr ")"
    args     := [ expr ( "," expr )* ]

Binary operators bind, loosest first: ``||``; ``&&``; ``==`` ``!=``; ``<``
``<=`` ``>`` ``>=``; ``+`` ``-``; ``*`` ``/`` ``%`` (``nodes.BINARY_PRECEDENCE``).
Line comments start with ``//``; whitespace is insignificant.  A bare
``return`` takes the following tokens as its value whenever they can start an
expression, except that ``IDENT "="`` is left alone so a following assignment
is not swallowed.
"""

from __future__ import annotations

from vibecheck.codemetrics.lexer import lex, line_col
from vibecheck.codemetrics.nodes import (
    BINARY_PRECEDENCE,
    Assign,
    Binary,
    Block,
    Call,
    CallStmt,
    Expr,
    For,
    If,
    Index,
    IntLit,
    Name,
    Program,
    Return,
    SourceUnit,
    Stmt,
    StrLit,
    Unary,
    While,
)
from vibecheck.errors import ValidationError, VcpSyntaxError
from vibecheck.io import PathLike, read_text

_STMT_EXPECTED = ("identifier", "'if'", "'while'", "'for'", "'return'", "'{'")
_EXPR_EXPECTED = ("identifier", "integer", "string", "'('", "'!'", "'-'")
_VALUE_STARTS = frozenset({"<int>", "<string>", "(", "!", "-"})
# Longest integer literal accepted, well inside the 4,300 digits that int()
# converts from a string.
_MAX_INT_DIGITS = 1000
# Deepest nesting accepted, counting every block, bracket and unary operator
# that encloses a token; the links of an ``else if`` chain do not nest.  A
# level costs the parser at most four stack frames and every later pass at
# most two, so a program within the budget parses and is measured well inside
# the interpreter's default limit of 1,000 frames, whatever the caller's depth
# (a forked worker runs a few frames deeper than the process that forked it).
DEPTH_BUDGET = 200


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.keys, self.texts, self.starts, self.ends = map(list, zip(*lex(text)))
        self.i = 0  # index of the next token; the parser never moves past <eof>
        # Levels open around the next token.  A syntax error ends the parse,
        # so a level is closed only on the way out of a successful parse.
        self.depth = 0

    def expect(self, key: str) -> int:
        """Consume a ``key`` token and return its index."""
        i = self.i
        if self.keys[i] != key:
            expected = "identifier" if key == "<ident>" else f"'{key}'"
            raise self._error((expected,))
        self.i = i + 1
        return i

    def open_level(self, at: int) -> None:
        """Enter one nesting level opened by token ``at``."""
        self.depth += 1
        if self.depth > DEPTH_BUDGET:
            raise VcpSyntaxError(
                f"nesting deeper than {DEPTH_BUDGET} levels", *line_col(self.text, self.starts[at])
            )

    def _error(self, expected: tuple[str, ...]) -> VcpSyntaxError:
        i = self.i
        what = "end of input" if self.keys[i] == "<eof>" else repr(self.texts[i])
        return VcpSyntaxError(f"unexpected {what}", *line_col(self.text, self.starts[i]), expected)

    # --- statements --------------------------------------------------------

    def parse_program(self) -> Program:
        body: list[Stmt] = []
        while self.keys[self.i] != "<eof>":
            body.append(self.parse_stmt())
        return Program(tuple(body), span=(0, len(self.text)))

    def parse_stmt(self) -> Stmt:
        key = self.keys[self.i]
        if key == "{":
            return self.parse_block()
        if key == "if":
            return self.parse_if()
        if key == "while":
            return self.parse_while()
        if key == "for":
            return self.parse_for()
        if key == "return":
            return self.parse_return()
        if key == "<ident>":
            after = self.keys[self.i + 1]
            if after == "=":
                return self.parse_assign()
            if after == "(":
                call = self.parse_call()
                return CallStmt(call, span=call.span)
            self.i += 1
            raise self._error(expected=("'='", "'('"))
        raise self._error(expected=_STMT_EXPECTED)

    def parse_block(self) -> Block:
        keys = self.keys
        open_at = self.expect("{")
        self.open_level(open_at)
        body: list[Stmt] = []
        while keys[self.i] != "}":
            if keys[self.i] == "<eof>":
                raise self._error(expected=("'}'",) + _STMT_EXPECTED)
            body.append(self.parse_stmt())
        close_at = self.i
        self.i = close_at + 1
        self.depth -= 1
        return Block(tuple(body), span=(self.starts[open_at], self.ends[close_at]))

    def parse_assign(self) -> Assign:
        name_at = self.expect("<ident>")
        self.expect("=")
        value = self.parse_expr()
        return Assign(self.texts[name_at], value, span=(self.starts[name_at], value.span[1]))

    def parse_if(self) -> If:
        # An ``else if`` chain is read in a loop, not by recursion, then folded
        # from its last link outwards; every link's span ends where the chain does.
        links = []
        orelse = None
        while True:
            start = self.starts[self.i]
            self.i += 1
            self.expect("(")
            cond = self.parse_expr()
            self.expect(")")
            links.append((start, cond, self.parse_block()))
            if self.keys[self.i] != "else":
                break
            self.i += 1
            if self.keys[self.i] != "if":
                orelse = self.parse_block()
                break
        end = (links[-1][2] if orelse is None else orelse).span[1]
        for start, cond, then in reversed(links):
            orelse = If(cond, then, orelse, span=(start, end))
        return orelse

    def parse_while(self) -> While:
        start = self.starts[self.i]
        self.i += 1
        self.expect("(")
        cond = self.parse_expr()
        self.expect(")")
        body = self.parse_block()
        return While(cond, body, span=(start, body.span[1]))

    def parse_for(self) -> For:
        start = self.starts[self.i]
        self.i += 1
        self.expect("(")
        init = self.parse_assign()
        self.expect(";")
        cond = self.parse_expr()
        self.expect(";")
        update = self.parse_assign()
        self.expect(")")
        body = self.parse_block()
        return For(init, cond, update, body, span=(start, body.span[1]))

    def parse_return(self) -> Return:
        i = self.i
        self.i = i + 1
        key = self.keys[i + 1]
        # "return" directly before an assignment keeps an empty value.
        if key in _VALUE_STARTS or (key == "<ident>" and self.keys[i + 2] != "="):
            value = self.parse_expr()
            return Return(value, span=(self.starts[i], value.span[1]))
        return Return(None, span=(self.starts[i], self.ends[i]))

    # --- expressions -------------------------------------------------------

    def parse_expr(self) -> Expr:
        """Operator precedence on explicit stacks: before an operator is
        pushed, every pending operator that binds at least as tightly is
        folded (all of them at the end), so equal precedence associates to
        the left and a long operator chain costs no stack."""
        keys = self.keys
        first = self.parse_unary()
        op_at = self.i
        prec = BINARY_PRECEDENCE.get(keys[op_at], 0)
        if not prec:
            return first
        operands = [first]
        pending: list[tuple[int, int]] = []  # (precedence, token index) of open operators
        while True:
            while pending and pending[-1][0] >= prec:
                at = pending.pop()[1]
                right = operands.pop()
                left = operands[-1]
                operands[-1] = Binary(
                    keys[at],
                    left,
                    right,
                    span=(left.span[0], right.span[1]),
                    op_span=(self.starts[at], self.ends[at]),
                )
            if not prec:
                return operands[0]
            pending.append((prec, op_at))
            self.i = op_at + 1
            operands.append(self.parse_unary())
            op_at = self.i
            prec = BINARY_PRECEDENCE.get(keys[op_at], 0)

    def parse_unary(self) -> Expr:
        i = self.i
        key = self.keys[i]
        if key == "!" or key == "-":
            self.open_level(i)
            self.i = i + 1
            operand = self.parse_unary()
            self.depth -= 1
            return Unary(key, operand, span=(self.starts[i], operand.span[1]))
        return self.parse_primary()

    def parse_call(self) -> Call:
        """``IDENT "(" args ")"``, with the parser at the identifier."""
        keys = self.keys
        name_at = self.i
        self.open_level(name_at + 1)
        self.i += 2
        args: list[Expr] = []
        if keys[self.i] != ")":
            args.append(self.parse_expr())
            while keys[self.i] == ",":
                self.i += 1
                args.append(self.parse_expr())
        close_at = self.expect(")")
        self.depth -= 1
        return Call(self.texts[name_at], tuple(args), span=(self.starts[name_at], self.ends[close_at]))

    def parse_primary(self) -> Expr:
        i = self.i
        key = self.keys[i]
        if key == "<ident>":
            after = self.keys[i + 1]
            if after == "(":
                return self.parse_call()
            if after == "[":
                self.open_level(i + 1)
                self.i = i + 2
                index = self.parse_expr()
                close_at = self.expect("]")
                self.depth -= 1
                return Index(self.texts[i], index, span=(self.starts[i], self.ends[close_at]))
            self.i = i + 1
            return Name(self.texts[i], span=(self.starts[i], self.ends[i]))
        if key == "<int>":
            digits = self.texts[i]
            if len(digits) > _MAX_INT_DIGITS:
                raise VcpSyntaxError(
                    f"integer literal longer than {_MAX_INT_DIGITS} digits",
                    *line_col(self.text, self.starts[i]),
                )
            self.i = i + 1
            return IntLit(int(digits), span=(self.starts[i], self.ends[i]))
        if key == "<string>":
            self.i = i + 1
            return StrLit(self.texts[i], span=(self.starts[i], self.ends[i]))
        if key == "(":
            self.open_level(i)
            self.i = i + 1
            inner = self.parse_expr()
            close_at = self.expect(")")
            self.depth -= 1
            if isinstance(inner, (Binary, Unary)):
                # Keep the parenthesized extent so splices stay balanced.
                inner = _respan(inner, (self.starts[i], self.ends[close_at]))
            return inner
        raise self._error(expected=_EXPR_EXPECTED)


def _respan(expr: Expr, span: tuple[int, int]) -> Expr:
    if isinstance(expr, Binary):
        return Binary(expr.op, expr.left, expr.right, span=span, op_span=expr.op_span)
    return Unary(expr.op, expr.operand, span=span)


def parse(text: str, name: str = "<unit>") -> SourceUnit:
    """Parse VCPLang source into a :class:`SourceUnit`.

    Raises :class:`~vibecheck.errors.VcpSyntaxError` with line, column, and
    the expected-token set on malformed input, and at the token that opens
    the first level past ``DEPTH_BUDGET``.
    """
    return SourceUnit(name=name, text=text, ast=_Parser(text).parse_program())


def parse_file(path: PathLike, name: str, what: str = "file") -> SourceUnit:
    """:func:`parse` of a UTF-8 source file; a syntax error names ``path``."""
    try:
        return parse(read_text(path, what), name=name)
    except VcpSyntaxError as exc:
        raise ValidationError(f"{path}: {exc}") from exc
