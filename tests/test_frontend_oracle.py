"""Differential test of the VCPLang front end against ``reference_frontend``.

The reference is the character-at-a-time lexer, the one-function-per-level
recursive-descent parser and the recursive ``walk`` that the production front
end replaced.  On generated programs, on damaged copies of them and on short
random strings, both must give the same tokens, the same tree *with* every
span, the same syntax error (message, line, column, expected set) and the same
walk order.  Inputs that exhaust the reference's stack are skipped: the
production parser uses fewer frames per nesting level, so it may accept them.
"""

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import reference_frontend as R
from vibecheck.codemetrics import nodes as N
from vibecheck.codemetrics.lexer import lex, line_col
from vibecheck.codemetrics.parser import parse
from vibecheck.codemetrics.progen import random_program
from vibecheck.errors import VcpSyntaxError

# Characters and lexemes an edit may insert; the first seven are the ones the
# lexer treats specially.
_PIECES = ['"', "\\", "²", "é", "\r", "\f", "//", "(", ")", "{", "}", "[", "]", "-", "!",
           "=", "==", "<", "<=", "&&", "||", "&", "|", ";", ",", "\n", " ", "\t", "_",
           "x", "a1", "12", "if", "else", "while", "for", "return", '"s\\n"']


@st.composite
def _sources(draw):
    """A generated program, or one truncated, with one piece inserted or one
    character deleted, or a short random string."""
    kind = draw(st.sampled_from(["program", "truncate", "insert", "delete", "pieces", "text"]))
    if kind == "pieces":
        return "".join(draw(st.lists(st.sampled_from(_PIECES), max_size=12)))
    if kind == "text":
        return draw(st.text(max_size=20))
    text = random_program(draw(st.integers(0, 10_000)))
    if kind == "program":
        return text
    i = draw(st.integers(0, len(text)))
    if kind == "truncate":
        return text[:i]
    if kind == "insert":
        return text[:i] + draw(st.sampled_from(_PIECES)) + text[i:]
    return text[:i] + text[i + 1:]


def _dump(value):
    """The tree as nested tuples, spans included (equality leaves them out)."""
    if isinstance(value, N.Node):
        return (type(value).__name__, *(_dump(getattr(value, name)) for name in value._fields))
    if isinstance(value, tuple):
        return tuple(_dump(v) for v in value)
    return value


def _error(err: VcpSyntaxError):
    return ("error", str(err), err.line, err.col, err.expected)


def _reference_parse(text: str):
    try:
        return ("ok", _dump(R._Parser(text).parse_program()))
    except VcpSyntaxError as err:
        return _error(err)
    except RecursionError:
        assume(False)


def _parse(text: str):
    try:
        return ("ok", _dump(parse(text).ast))
    except VcpSyntaxError as err:
        return _error(err)


_KEYS = {"ident": "<ident>", "int": "<int>", "string": "<string>", "eof": "<eof>"}


def _reference_tokens(text: str):
    try:
        tokens = R.lex(text)
    except VcpSyntaxError as err:
        return _error(err)
    return [(_KEYS.get(t.kind, t.text), t.text, t.pos, t.end, t.line, t.col) for t in tokens]


def _tokens(text: str):
    try:
        tokens = lex(text)
    except VcpSyntaxError as err:
        return _error(err)
    return [(*t, *line_col(text, t[2])) for t in tokens]


@settings(max_examples=400, deadline=None)
@given(_sources())
@example('x = "ab\\q"\n')
@example('x = "abc')
@example("y = ²x\n")
@example("a² = é1\r\nf(12abc)\f")
@example("x = 1 // c\n/ 2 //")
def test_tokens_match_the_reference(text):
    assert _tokens(text) == _reference_tokens(text)


@settings(max_examples=400, deadline=None)
@given(_sources())
@example("x = a || b && c < d + e * f - -g % (h != i)\n")
@example("return\nx = (1)\nreturn -(a + b)\n")
@example("if (a) { } else if (b) { f(x, y[1]) } else { }")
@example("for (i = 0; i < n; i = i + 1) { }\n}")
def test_trees_and_errors_match_the_reference(text):
    assert _parse(text) == _reference_parse(text)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10_000))
def test_walk_order_matches_the_reference(seed):
    tree = parse(random_program(seed)).ast
    assert [id(node) for node in N.walk(tree)] == [id(node) for node in R.walk(tree)]
