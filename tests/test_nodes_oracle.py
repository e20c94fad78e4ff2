"""Differential test of the node classes and renderer against ``reference_nodes``.

The reference declares ``span`` on every node class and renders through
list-returning helpers.  Each production tree is rebuilt in the reference
classes, spans included; both must then give the same ``repr``, hash,
equality verdicts and canonical text, on generated programs, the benchmark's
corpus pools, the fixture origins and hand-written edge shapes.  The spans
the parser assigns are checked against the reference parser in
``tests/test_frontend_oracle.py``.
"""

import pytest

import reference_nodes as R
from test_trapforge_oracle import _corpus_pool_texts
from vibecheck.codemetrics import nodes as N
from vibecheck.codemetrics.parser import parse
from vibecheck.codemetrics.progen import random_program

_CHAIN = " else ".join(f"if (a < {i}) {{ x = {i} }}" for i in range(10_000))

_EDGE_SHAPES = [
    "",
    "{ }",
    "{ { } }",
    "{ { x = 1 } }\n{ }\n",
    "if (a) { } else { }",
    "if (a) { } else if (b) { }",
    "if (a) { } else if (b) { } else { }",
    "if (a) { x = 1 } else if (b) { } else if (c) { y = 2 }",
    "if (a) { } else if (b) { x = 1 } else { }",
    "while (a) { if (a) { } else if (b) { { } } else { return } }",
    "for (i = 0; i < n; i = i + 1) { }\nwhile (a) { }\nreturn\n",
    _CHAIN,
    _CHAIN + " else { x = -1 }\n",
]


def _to_reference(root: N.Node):
    """The same tree built from the reference classes, spans included.

    Children come after their parent in pre-order, so reading the walk
    backwards builds every child before the node that holds it.
    """
    built = {}
    for node in reversed(list(N.walk(root))):
        values = dict(vars(node))
        for name, value in values.items():
            if isinstance(value, N.Node):
                values[name] = built[id(value)]
            elif type(value) is tuple and value and isinstance(value[0], N.Node):
                values[name] = tuple(built[id(v)] for v in value)
        built[id(node)] = getattr(R, type(node).__name__)(**values)
    return built[id(root)]


def _assert_same(text: str, *, deep: bool = True):
    tree = parse(text).ast
    ref = _to_reference(tree)
    rendered = N.pretty_print(tree)
    assert rendered == R.pretty_print(ref)
    if deep:
        # Dataclass repr, hash and equality recurse once per level.
        assert repr(tree) == repr(ref)
        assert hash(tree) == hash(ref)
        reparsed = parse(rendered).ast
        assert tree == reparsed and ref == _to_reference(reparsed)
    return tree, ref


@pytest.mark.parametrize("block", range(6))
def test_generated_programs_match_the_reference(block):
    previous = None
    for seed in range(block * 500, block * 500 + 500):
        tree, ref = _assert_same(random_program(seed))
        if previous is not None:
            assert (tree == previous[0]) == (ref == previous[1])
        previous = tree, ref


@pytest.mark.parametrize("seed", [1, 2])
def test_corpus_pool_units_match_the_reference(seed):
    for text in _corpus_pool_texts(seed):
        _assert_same(text)


def test_fixture_origins_match_the_reference(fixtures):
    paths = sorted((fixtures / "origins").glob("*.vcp"))
    assert paths
    for path in paths:
        _assert_same(path.read_text())


@pytest.mark.parametrize("text", _EDGE_SHAPES, ids=range(len(_EDGE_SHAPES)))
def test_edge_shapes_match_the_reference(text):
    _assert_same(text, deep=len(text) < 1_000)


def test_spans_stay_out_of_repr_equality_and_hash():
    moved = N.Binary("+", N.Name("a", span=(4, 5)), N.IntLit(1), span=(4, 9), op_span=(6, 7))
    bare = N.Binary("+", N.Name("a"), N.IntLit(1))
    assert moved == bare and hash(moved) == hash(bare)
    assert repr(moved) == repr(bare) == "Binary(op='+', left=Name(ident='a'), right=IntLit(value=1))"
    assert (moved.span, moved.op_span, bare.span) == ((4, 9), (6, 7), (0, 0))
