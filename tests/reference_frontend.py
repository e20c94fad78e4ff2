"""The VCPLang front end as it stood before the single-pattern lexer and the
precedence-climbing parser: the character-at-a-time lexer, the recursive
descent parser with one function per binary precedence level, and the
recursive ``walk``.  Test-only reference: ``tests/test_frontend_oracle.py``
checks the production front end against it.  Kept verbatim; do not edit.
"""

from __future__ import annotations

from dataclasses import dataclass

from vibecheck.codemetrics.nodes import (
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
    Node,
    Program,
    Return,
    SourceUnit,
    Stmt,
    StrLit,
    Unary,
    While,
)
from vibecheck.errors import ValidationError, VcpSyntaxError

KEYWORDS = frozenset({"if", "else", "while", "for", "return"})

_TWO_CHAR_OPS = ("||", "&&", "==", "!=", "<=", ">=")
_ONE_CHAR_OPS = frozenset("+-*/%!<>=(){}[];,")

_STRING_ESCAPES = {"\\": "\\", '"': '"', "n": "\n", "t": "\t"}


@dataclass(frozen=True)
class Token:
    kind: str  # "ident" | "int" | "string" | "op" | "kw" | "eof"
    text: str
    pos: int
    end: int
    line: int
    col: int


def lex(text: str) -> list[Token]:
    tokens: list[Token] = []
    i = 0
    line = 1
    col = 1
    n = len(text)

    def error(message: str, at_line: int, at_col: int) -> VcpSyntaxError:
        return VcpSyntaxError(message, at_line, at_col)

    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if text.startswith("//", i):
            while i < n and text[i] != "\n":
                i += 1
                col += 1
            continue
        start, start_line, start_col = i, line, col
        if ch.isalpha() or ch == "_":
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            word = text[start:i]
            kind = "kw" if word in KEYWORDS else "ident"
            tokens.append(Token(kind, word, start, i, start_line, start_col))
            col += i - start
            continue
        if ch.isdecimal():  # not isdigit: int() refuses superscripts such as "²"
            while i < n and text[i].isdecimal():
                i += 1
            tokens.append(Token("int", text[start:i], start, i, start_line, start_col))
            col += i - start
            continue
        if ch == '"':
            i += 1
            col += 1
            value_parts: list[str] = []
            while True:
                if i >= n or text[i] == "\n":
                    raise error("unterminated string literal", start_line, start_col)
                c = text[i]
                if c == '"':
                    i += 1
                    col += 1
                    break
                if c == "\\":
                    if i + 1 >= n:
                        raise error("unterminated string literal", start_line, start_col)
                    esc = text[i + 1]
                    if esc not in _STRING_ESCAPES:
                        raise error(f"bad escape '\\{esc}' in string literal", line, col)
                    value_parts.append(_STRING_ESCAPES[esc])
                    i += 2
                    col += 2
                    continue
                value_parts.append(c)
                i += 1
                col += 1
            tokens.append(Token("string", "".join(value_parts), start, i, start_line, start_col))
            continue
        two = text[i : i + 2]
        if two in _TWO_CHAR_OPS:
            tokens.append(Token("op", two, i, i + 2, line, col))
            i += 2
            col += 2
            continue
        if ch in _ONE_CHAR_OPS:
            tokens.append(Token("op", ch, i, i + 1, line, col))
            i += 1
            col += 1
            continue
        raise error(f"unexpected character {ch!r}", line, col)

    tokens.append(Token("eof", "", n, n, line, col))
    return tokens


_STMT_EXPECTED = ("identifier", "'if'", "'while'", "'for'", "'return'", "'{'")
_EXPR_EXPECTED = ("identifier", "integer", "string", "'('", "'!'", "'-'")


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = lex(text)
        self.i = 0

    # --- token plumbing ----------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        j = min(self.i + ahead, len(self.tokens) - 1)
        return self.tokens[j]

    def advance(self) -> Token:
        tok = self.tokens[self.i]
        if tok.kind != "eof":
            self.i += 1
        return tok

    def at_op(self, *texts: str) -> bool:
        tok = self.peek()
        return tok.kind == "op" and tok.text in texts

    def at_kw(self, *words: str) -> bool:
        tok = self.peek()
        return tok.kind == "kw" and tok.text in words

    def expect_op(self, text: str) -> Token:
        if not self.at_op(text):
            raise self._error(expected=(f"'{text}'",))
        return self.advance()

    def expect_ident(self) -> Token:
        tok = self.peek()
        if tok.kind != "ident":
            raise self._error(expected=("identifier",))
        return self.advance()

    def _error(self, expected: tuple[str, ...]) -> VcpSyntaxError:
        tok = self.peek()
        what = "end of input" if tok.kind == "eof" else repr(tok.text)
        return VcpSyntaxError(f"unexpected {what}", tok.line, tok.col, expected)

    # --- statements --------------------------------------------------------

    def parse_program(self) -> Program:
        body: list[Stmt] = []
        while self.peek().kind != "eof":
            body.append(self.parse_stmt())
        span = (0, len(self.text))
        return Program(tuple(body), span=span)

    def parse_stmt(self) -> Stmt:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "{":
            return self.parse_block()
        if tok.kind == "kw":
            if tok.text == "if":
                return self.parse_if()
            if tok.text == "while":
                return self.parse_while()
            if tok.text == "for":
                return self.parse_for()
            if tok.text == "return":
                return self.parse_return()
            raise self._error(expected=_STMT_EXPECTED)
        if tok.kind == "ident":
            nxt = self.peek(1)
            if nxt.kind == "op" and nxt.text == "=":
                return self.parse_assign()
            if nxt.kind == "op" and nxt.text == "(":
                call = self.parse_primary()
                assert isinstance(call, Call)
                return CallStmt(call, span=call.span)
            self.advance()
            raise self._error(expected=("'='", "'('"))
        raise self._error(expected=_STMT_EXPECTED)

    def parse_block(self) -> Block:
        open_tok = self.expect_op("{")
        body: list[Stmt] = []
        while not self.at_op("}"):
            if self.peek().kind == "eof":
                raise self._error(expected=("'}'",) + _STMT_EXPECTED)
            body.append(self.parse_stmt())
        close_tok = self.advance()
        return Block(tuple(body), span=(open_tok.pos, close_tok.end))

    def parse_assign(self) -> Assign:
        name_tok = self.expect_ident()
        self.expect_op("=")
        value = self.parse_expr()
        return Assign(name_tok.text, value, span=(name_tok.pos, value.span[1]))

    def parse_if(self) -> If:
        if_tok = self.advance()
        self.expect_op("(")
        cond = self.parse_expr()
        self.expect_op(")")
        then = self.parse_block()
        orelse = None
        end = then.span[1]
        if self.at_kw("else"):
            self.advance()
            if self.at_kw("if"):
                orelse = self.parse_if()
            else:
                orelse = self.parse_block()
            end = orelse.span[1]
        return If(cond, then, orelse, span=(if_tok.pos, end))

    def parse_while(self) -> While:
        while_tok = self.advance()
        self.expect_op("(")
        cond = self.parse_expr()
        self.expect_op(")")
        body = self.parse_block()
        return While(cond, body, span=(while_tok.pos, body.span[1]))

    def parse_for(self) -> For:
        for_tok = self.advance()
        self.expect_op("(")
        init = self.parse_assign()
        self.expect_op(";")
        cond = self.parse_expr()
        self.expect_op(";")
        update = self.parse_assign()
        self.expect_op(")")
        body = self.parse_block()
        return For(init, cond, update, body, span=(for_tok.pos, body.span[1]))

    def parse_return(self) -> Return:
        ret_tok = self.advance()
        value = None
        end = ret_tok.end
        if self._starts_return_value():
            value = self.parse_expr()
            end = value.span[1]
        return Return(value, span=(ret_tok.pos, end))

    def _starts_return_value(self) -> bool:
        tok = self.peek()
        if tok.kind in ("int", "string"):
            return True
        if tok.kind == "op" and tok.text in ("(", "!", "-"):
            return True
        if tok.kind == "ident":
            nxt = self.peek(1)
            # "return" directly before an assignment keeps an empty value.
            return not (nxt.kind == "op" and nxt.text == "=")
        return False

    # --- expressions -------------------------------------------------------

    _BINARY_LEVELS = (
        ("||",),
        ("&&",),
        ("==", "!="),
        ("<", "<=", ">", ">="),
        ("+", "-"),
        ("*", "/", "%"),
    )

    def parse_expr(self) -> Expr:
        return self._parse_binary(0)

    def _parse_binary(self, level: int) -> Expr:
        if level >= len(self._BINARY_LEVELS):
            return self.parse_unary()
        ops = self._BINARY_LEVELS[level]
        left = self._parse_binary(level + 1)
        while self.at_op(*ops):
            op_tok = self.advance()
            right = self._parse_binary(level + 1)
            left = Binary(
                op_tok.text,
                left,
                right,
                span=(left.span[0], right.span[1]),
                op_span=(op_tok.pos, op_tok.end),
            )
        return left

    def parse_unary(self) -> Expr:
        if self.at_op("!", "-"):
            op_tok = self.advance()
            operand = self.parse_unary()
            return Unary(op_tok.text, operand, span=(op_tok.pos, operand.span[1]))
        return self.parse_primary()

    def parse_primary(self) -> Expr:
        tok = self.peek()
        if tok.kind == "int":
            self.advance()
            return IntLit(int(tok.text), span=(tok.pos, tok.end))
        if tok.kind == "string":
            self.advance()
            return StrLit(tok.text, span=(tok.pos, tok.end))
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            inner = self.parse_expr()
            close = self.expect_op(")")
            if isinstance(inner, (Binary, Unary)):
                # Keep the parenthesized extent so splices stay balanced.
                inner = _respan(inner, (tok.pos, close.end))
            return inner
        if tok.kind == "ident":
            self.advance()
            if self.at_op("("):
                self.advance()
                args: list[Expr] = []
                if not self.at_op(")"):
                    args.append(self.parse_expr())
                    while self.at_op(","):
                        self.advance()
                        args.append(self.parse_expr())
                close = self.expect_op(")")
                return Call(tok.text, tuple(args), span=(tok.pos, close.end))
            if self.at_op("["):
                self.advance()
                index = self.parse_expr()
                close = self.expect_op("]")
                return Index(tok.text, index, span=(tok.pos, close.end))
            return Name(tok.text, span=(tok.pos, tok.end))
        raise self._error(expected=_EXPR_EXPECTED)


def _respan(expr: Expr, span: tuple[int, int]) -> Expr:
    if isinstance(expr, Binary):
        return Binary(expr.op, expr.left, expr.right, span=span, op_span=expr.op_span)
    return Unary(expr.op, expr.operand, span=span)


def parse(text: str, name: str = "<unit>") -> SourceUnit:
    """Parse VCPLang source into a :class:`SourceUnit`.

    Raises :class:`~vibecheck.errors.VcpSyntaxError` with line, column, and
    the expected-token set on malformed input.
    """
    try:
        program = _Parser(text).parse_program()
    except RecursionError:
        raise ValidationError(f"{name}: nesting too deep to parse") from None
    return SourceUnit(name=name, text=text, ast=program)


def walk(node: Node):
    """Yield ``node`` and every descendant in a deterministic pre-order."""
    yield node
    if isinstance(node, Program) or isinstance(node, Block):
        children: tuple = node.body
    elif isinstance(node, Assign):
        children = (node.value,)
    elif isinstance(node, If):
        children = (node.cond, node.then) + ((node.orelse,) if node.orelse else ())
    elif isinstance(node, While):
        children = (node.cond, node.body)
    elif isinstance(node, For):
        children = (node.init, node.cond, node.update, node.body)
    elif isinstance(node, Return):
        children = (node.value,) if node.value is not None else ()
    elif isinstance(node, CallStmt):
        children = (node.call,)
    elif isinstance(node, Unary):
        children = (node.operand,)
    elif isinstance(node, Binary):
        children = (node.left, node.right)
    elif isinstance(node, Call):
        children = node.args
    elif isinstance(node, Index):
        children = (node.index,)
    else:
        children = ()
    for child in children:
        yield from walk(child)
