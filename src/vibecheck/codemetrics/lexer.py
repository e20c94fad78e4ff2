"""Tokenizer for VCPLang source text.

``lex`` returns one ``(key, text, pos, end)`` tuple per token, the end-of-input
token last.  ``key`` is the operator or keyword itself, or one of ``<ident>``,
``<int>``, ``<string>`` and ``<eof>``; ``text`` is the spelling, or the decoded
value of a string literal.  Tokens carry no line or column: :func:`line_col`
works them out from ``pos`` where a message needs them.
"""

from __future__ import annotations

import re

from vibecheck.errors import VcpSyntaxError

KEYWORDS = frozenset({"if", "else", "while", "for", "return"})

Token = tuple[str, str, int, int]

_STRING_ESCAPES = {"\\": "\\", '"': '"', "n": "\n", "t": "\t"}

# One match per token, with the whitespace and comments before it.  ``\d`` is
# str.isdecimal and ``\w`` is str.isalnum or "_", so a word that starts with a
# decimal digit splits into an int and an identifier ("12abc"); a word that
# starts with any other non-letter ("²x") is refused below.  A string with a
# bad escape or no closing quote falls through to ``bad``.
_TOKEN = re.compile(
    r"""(?:[ \t\r\n]+|//[^\n]*)*
    (?:(?P<int>\d+)
      |(?P<word>\w+)
      |(?P<string>"(?:[^"\\\n]|\\["\\nt])*")
      |(?P<op>\|\||&&|[=!<>]=?|[-+*/%(){}\[\];,])
      |(?P<bad>.)
    )?""",
    re.VERBOSE | re.DOTALL,
)
_ESCAPE = re.compile(r"\\(.)")


def line_col(text: str, pos: int) -> tuple[int, int]:
    """1-based line and column of offset ``pos``; a tab or ``\\r`` is one column."""
    line = text.count("\n", 0, pos) + 1
    col = pos - (text.rfind("\n", 0, pos) + 1) + 1
    return line, col


def lex(text: str) -> list[Token]:
    tokens: list[Token] = []
    append = tokens.append
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind is None:  # trailing whitespace or comment
            continue
        value = m[kind]
        pos = m.start(kind)
        end = m.end()
        if kind == "op":
            append((value, value, pos, end))
        elif kind == "word":
            if value in KEYWORDS:
                append((value, value, pos, end))
            elif value[0].isalpha() or value[0] == "_":
                append(("<ident>", value, pos, end))
            else:
                raise _error(text, f"unexpected character {value[0]!r}", pos)
        elif kind == "int":
            append(("<int>", value, pos, end))
        elif kind == "string":
            inner = value[1:-1]
            if "\\" in inner:
                inner = _ESCAPE.sub(lambda e: _STRING_ESCAPES[e[1]], inner)
            append(("<string>", inner, pos, end))
        elif value == '"':
            raise _string_error(text, pos)
        else:
            raise _error(text, f"unexpected character {value!r}", pos)
    n = len(text)
    append(("<eof>", "", n, n))
    return tokens


def _error(text: str, message: str, pos: int) -> VcpSyntaxError:
    return VcpSyntaxError(message, *line_col(text, pos))


def _string_error(text: str, start: int) -> VcpSyntaxError:
    """The error for the string literal at ``start``, which does not lex."""
    i = start + 1
    while i < len(text) and text[i] not in '"\n':
        if text[i] == "\\":
            if i + 1 < len(text) and text[i + 1] not in _STRING_ESCAPES:
                return _error(text, f"bad escape '\\{text[i + 1]}' in string literal", i)
            i += 1
        i += 1
    return _error(text, "unterminated string literal", start)
