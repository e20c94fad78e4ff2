"""Tokenizer for VCPLang source text."""

from __future__ import annotations

from dataclasses import dataclass

from vibecheck.errors import VcpSyntaxError

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
