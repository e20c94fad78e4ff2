"""Parser and canonical-rendering tests for the VCPLang front end."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vibecheck.codemetrics import nodes as N
from vibecheck.codemetrics.lexer import lex, line_col
from vibecheck.codemetrics.metrics import metrics
from vibecheck.codemetrics.parser import DEPTH_BUDGET, parse, parse_file
from vibecheck.codemetrics.progen import random_program
from vibecheck.errors import ValidationError, VcpSyntaxError


def test_assign_statement():
    unit = parse("x = a + b\n")
    (stmt,) = unit.ast.body
    assert isinstance(stmt, N.Assign)
    assert stmt.target == "x"
    assert isinstance(stmt.value, N.Binary)
    assert stmt.value.op == "+"


def test_if_else_chain_nests_on_the_else_arm():
    text = "if (a < b) { x = 1 } else if (a > b) { x = 2 } else { x = 3 }\n"
    unit = parse(text)
    (outer,) = unit.ast.body
    assert isinstance(outer, N.If)
    assert isinstance(outer.orelse, N.If)
    assert isinstance(outer.orelse.orelse, N.Block)


def test_for_header_has_three_clauses():
    unit = parse("for (i = 0; i < n; i = i + 1) { s = s + i }\n")
    (stmt,) = unit.ast.body
    assert isinstance(stmt, N.For)
    assert isinstance(stmt.init, N.Assign)
    assert isinstance(stmt.cond, N.Binary)
    assert isinstance(stmt.update, N.Assign)


def test_return_with_and_without_value():
    unit = parse("return\nreturn x + 1\n")
    bare, valued = unit.ast.body
    assert isinstance(bare, N.Return) and bare.value is None
    assert isinstance(valued, N.Return) and isinstance(valued.value, N.Binary)


def test_bare_return_does_not_swallow_a_following_assignment():
    unit = parse("return\nx = 1\n")
    ret, assign = unit.ast.body
    assert isinstance(ret, N.Return) and ret.value is None
    assert isinstance(assign, N.Assign)


def test_return_takes_a_following_name_as_its_value():
    unit = parse("return x\n")
    (ret,) = unit.ast.body
    assert isinstance(ret.value, N.Name)


def test_call_statement_and_nested_call_expression():
    unit = parse('send(sanitize(score), "alert")\n')
    (stmt,) = unit.ast.body
    assert isinstance(stmt, N.CallStmt)
    call = stmt.call
    assert call.func == "send"
    assert isinstance(call.args[0], N.Call)
    assert call.args[0].func == "sanitize"
    assert isinstance(call.args[1], N.StrLit)


def test_index_expression():
    unit = parse("x = buf[i + 1]\n")
    (stmt,) = unit.ast.body
    assert isinstance(stmt.value, N.Index)
    assert stmt.value.base == "buf"


def test_comments_are_ignored():
    unit = parse("// leading comment\nx = 1 // trailing\n// whole-line\n")
    assert len(unit.ast.body) == 1


def test_empty_program_parses():
    unit = parse("")
    assert unit.ast.body == ()


def test_precedence_ladder():
    # * binds tighter than +, + tighter than <, < tighter than &&, && than ||.
    unit = parse("x = a || b && c < d + e * f\n")
    value = unit.ast.body[0].value
    assert value.op == "||"
    assert value.right.op == "&&"
    assert value.right.right.op == "<"
    assert value.right.right.right.op == "+"
    assert value.right.right.right.right.op == "*"


def test_binary_operators_are_left_associative():
    unit = parse("x = a - b - c\n")
    value = unit.ast.body[0].value
    assert value.op == "-"
    assert isinstance(value.left, N.Binary) and value.left.op == "-"
    assert isinstance(value.right, N.Name) and value.right.ident == "c"


def test_parentheses_override_precedence():
    unit = parse("x = (a + b) * c\n")
    value = unit.ast.body[0].value
    assert value.op == "*"
    assert value.left.op == "+"


def test_unary_binds_tighter_than_binary():
    unit = parse("x = -a * b\ny = !p || q\n")
    mul = unit.ast.body[0].value
    assert mul.op == "*" and isinstance(mul.left, N.Unary)
    disj = unit.ast.body[1].value
    assert disj.op == "||" and isinstance(disj.left, N.Unary)


def test_truncated_while_reports_line_and_column():
    with pytest.raises(VcpSyntaxError) as excinfo:
        parse("while (")
    err = excinfo.value
    assert err.line == 1
    assert err.col == 8
    assert "line 1, column 8" in str(err)
    assert err.expected  # the expected-token set travels with the error


def test_syntax_error_is_a_validation_error():
    with pytest.raises(ValidationError):
        parse("if a { }")


def test_semicolons_only_belong_in_for_headers():
    with pytest.raises(VcpSyntaxError):
        parse("x = 1;\n")


def test_error_position_on_later_line():
    with pytest.raises(VcpSyntaxError) as excinfo:
        parse("x = 1\ny = (2\n")
    assert excinfo.value.line == 3  # closing paren never arrives; eof is line 3


def test_string_escapes_round_trip():
    unit = parse('x = "a\\"b\\n"\n')
    lit = unit.ast.body[0].value
    assert lit.value == 'a"b\n'
    rendered = N.pretty_print(unit.ast)
    assert parse(rendered).ast == unit.ast


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_random_programs_parse_and_render_idempotently(seed):
    text = random_program(seed)
    unit = parse(text)
    rendered = N.pretty_print(unit.ast)
    reparsed = parse(rendered)
    assert reparsed.ast == unit.ast
    assert N.pretty_print(reparsed.ast) == rendered


def test_nested_else_if_chain_renders_canonically():
    text = (
        "while (a) {\n  if (a < 1) {\n    x = 1\n  } else if (a < 2) { }"
        " else if (a < 3) {\n    x = 3\n  } else {\n    x = 4\n  }\n}\n"
    )
    assert N.pretty_print(parse(text).ast) == text


def test_10000_link_else_if_chain_renders_and_reparses():
    links = [f"if (a < {i}) {{ x = {i} }}" for i in range(10_000)]
    unit = parse(" else ".join(links) + " else { x = -1 }\n")
    rendered = N.pretty_print(unit.ast)
    assert rendered.count(" else if (") == 9_999
    # Tree equality recurses once per link, so the chains are compared link
    # by link.
    old, new = unit.ast.body[0], parse(rendered).ast.body[0]
    while isinstance(old, N.If):
        assert isinstance(new, N.If)
        assert (old.cond, old.then) == (new.cond, new.then)
        old, new = old.orelse, new.orelse
    assert old == new == N.Block((N.Assign("x", N.Unary("-", N.IntLit(1))),))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_random_program_generator_is_deterministic(seed):
    assert random_program(seed) == random_program(seed)


# --- lexer edge cases, each pinned with its position -------------------------


def _syntax_error(text):
    with pytest.raises(VcpSyntaxError) as excinfo:
        parse(text)
    return excinfo.value


@pytest.mark.parametrize(
    "text, message, line, col",
    [
        ('x = "ab\\q"\n', "bad escape '\\q' in string literal", 1, 8),
        ('x = 1\ny = "a\\\nb"\n', "bad escape '\\\n' in string literal", 2, 7),
        ('x = "abc', "unterminated string literal", 1, 5),
        ('x = "abc\\', "unterminated string literal", 1, 5),
        ('x = 1\ny = "ab\n"\n', "unterminated string literal", 2, 5),
        ("y = ²x\n", "unexpected character '²'", 1, 5),
        ("x = 1\f\n", "unexpected character '\\x0c'", 1, 6),
        ("x = 1\r&\n", "unexpected character '&'", 1, 7),
        ("x = 1\r\n\ty = &\n", "unexpected character '&'", 2, 6),
        ("f(12abc)\n", "unexpected 'abc'", 1, 5),
    ],
)
def test_lexer_edge_cases_keep_their_message_and_position(text, message, line, col):
    err = _syntax_error(text)
    assert (str(err).split(": ", 1)[1].split(" (expected")[0], err.line, err.col) == (
        message, line, col,
    )


def test_superscript_digit_continues_an_identifier():
    (stmt,) = parse("a² = 1\n").ast.body
    assert stmt.target == "a²" and stmt.span == (0, 6)


def test_digits_then_letters_split_into_int_and_identifier():
    assert lex("12abc") == [("<int>", "12", 0, 2), ("<ident>", "abc", 2, 5), ("<eof>", "", 5, 5)]


def test_crlf_source_parses_with_offsets_into_the_text():
    unit = parse("x = 1\r\nif (x < 2) {\r\n  y = x\r\n}\r\n")
    assign, guard = unit.ast.body
    assert assign.span == (0, 5)
    assert guard.span == (7, 31)
    assert line_col(unit.text, guard.then.body[0].span[0]) == (3, 3)


# --- the nesting budget -------------------------------------------------------

# Each shape nested ``n`` levels deep, with the 1-based column of the token
# that opens level ``n``.
_NESTINGS = {
    "call": (lambda n: "x = " + "f(" * n + ")" * n, lambda n: 2 * n + 4),
    "parens": (lambda n: "x = " + "(" * n + "1" + ")" * n, lambda n: n + 4),
    "if": (lambda n: "if (a < b) { " * n + "}" * n, lambda n: 13 * n - 1),
    "block": (lambda n: "{ " * n + "}" * n, lambda n: 2 * n - 1),
    "unary": (lambda n: "x = " + "!-" * (n // 2) + "-" * (n % 2) + "1", lambda n: n + 4),
    "index": (lambda n: "x = " + "a[" * n + "1" + "]" * n, lambda n: 2 * n + 4),
    "operators": (lambda n: "x = " + "a || b && c == d < e + f * (" * n + "1" + ")" * n,
                  lambda n: 28 * n + 4),
    "mixed": (lambda n: "while (a) { " * (n // 2) + "x = " + "f(" * (n - n // 2)
              + ")" * (n - n // 2) + " }" * (n // 2),
              lambda n: 12 * (n // 2) + 2 * (n - n // 2) + 4),
}


def _at_depth(frames: int, fn):
    return fn() if frames == 0 else _at_depth(frames - 1, fn)


@pytest.mark.parametrize("shape", sorted(_NESTINGS))
def test_nesting_at_the_budget_is_measured_even_from_a_deep_caller(shape):
    text = _NESTINGS[shape][0](DEPTH_BUDGET)
    metrics(parse(text))
    # A forked worker, a test runner or an embedding program calls from
    # deeper in the stack than a plain ``vcp`` run.
    _at_depth(150, lambda: metrics(parse(text)))


@pytest.mark.parametrize("shape", sorted(_NESTINGS))
def test_nesting_past_the_budget_is_refused_at_its_opening_token(shape):
    make, column = _NESTINGS[shape]
    err = _syntax_error(make(DEPTH_BUDGET + 1))
    assert str(err) == (
        f"line 1, column {column(DEPTH_BUDGET + 1)}: nesting deeper than {DEPTH_BUDGET} levels"
    )
    assert (err.line, err.col, err.expected) == (1, column(DEPTH_BUDGET + 1), ())


def test_a_too_deep_file_is_refused_with_its_path(tmp_path):
    path = tmp_path / "sub" / "deep.vcp"
    path.parent.mkdir()
    path.write_text("x = " + "f(" * 300 + ")" * 300 + "\n")
    with pytest.raises(ValidationError) as excinfo:
        parse_file(path, "deep")
    assert str(excinfo.value) == (
        f"{path}: line 1, column {2 * DEPTH_BUDGET + 6}: nesting deeper than {DEPTH_BUDGET} levels"
    )


def test_else_if_links_and_sibling_blocks_do_not_nest():
    chain = " else ".join(["if (a < b) { x = f(1) }"] * (3 * DEPTH_BUDGET))
    siblings = "{ x = (1) } " * (3 * DEPTH_BUDGET)
    for text in (chain, siblings, "x = " + " + ".join(["(a)"] * 3 * DEPTH_BUDGET)):
        metrics(parse(text))


@pytest.mark.parametrize("op", ["+", "*", "&&", "<"])
def test_long_operator_chain_is_measured_and_rendered(op):
    # A left-associative chain nests one node per operator, so measuring or
    # rendering it recursively would exhaust the stack.
    text = "x = " + f" {op} ".join(f"a{i}" for i in range(5_000)) + "\n"
    unit = parse(text)
    assert metrics(unit).halstead.N1 == 5_000
    assert N.pretty_print(unit.ast) == text
