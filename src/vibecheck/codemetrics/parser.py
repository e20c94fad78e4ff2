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
    expr     := or-expr                     (C-style precedence, left assoc)
    or-expr  := and-expr ( "||" and-expr )*
    and-expr := eq-expr ( "&&" eq-expr )*
    eq-expr  := rel-expr ( ("==" | "!=") rel-expr )*
    rel-expr := add-expr ( ("<" | "<=" | ">" | ">=") add-expr )*
    add-expr := mul-expr ( ("+" | "-") mul-expr )*
    mul-expr := unary ( ("*" | "/" | "%") unary )*
    unary    := ("!" | "-") unary | primary
    primary  := INT | STRING | IDENT | IDENT "(" args ")" | IDENT "[" expr "]"
              | "(" expr ")"
    args     := [ expr ( "," expr )* ]

Line comments start with ``//``; whitespace is insignificant.  A bare
``return`` takes the following tokens as its value whenever they can start an
expression, except that ``IDENT "="`` is left alone so a following assignment
is not swallowed.
"""

from __future__ import annotations

from vibecheck.codemetrics.lexer import Token, lex
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
    Program,
    Return,
    SourceUnit,
    Stmt,
    StrLit,
    Unary,
    While,
)
from vibecheck.errors import ValidationError, VcpSyntaxError

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
