"""Differential test of the one-walk passes against ``reference_trapforge``.

The reference holds the five per-kind trap-site finders, the recursive
Halstead ``_count`` and the ``isinstance``-dispatched ``walk`` that the
production code replaced.  Over generated programs, the joined 10x units of
the benchmark's corpus pool, the fixture origins and a few hand-written
shapes, both must give the same sites per kind in the same order (the seeded
draws index into these lists), the same Halstead counts and the same walk
order.  One site differs on purpose: an ``else if`` link that is a bounds
guard is replaced by its braced body, where the reference left a bare
``else`` that does not parse.
"""

import itertools
from collections import Counter

import pytest

import reference_trapforge as R
from vibecheck.codemetrics import nodes as N
from vibecheck.codemetrics.halstead import _count
from vibecheck.codemetrics.parser import parse
from vibecheck.codemetrics.progen import random_program
from vibecheck.trapforge import DEFECT_KINDS, _apply, applicable_sites

_SHAPES = [
    "",
    "x = 1\n",
    # nested loops sharing a guard variable: the inner update is a site twice
    "while (i < n) {\n  while (i < m) {\n    i = i + 1\n  }\n  i = i + 2\n}\n",
    # a For header clause is never a dropped-update site, even in an outer body
    "while (i < n) {\n  for (i = 0; i < m; i = i + 1) {\n    s = s + i\n  }\n}\n",
    "for (i = 0; i < n; i = i + 1) {\n  i = i + 1\n  for (j = i; j <= i; j = j + 1) { i = j }\n}\n",
    # a subscript in the guard's condition or after its block does not count
    "if (buf[i] < n) {\n  x = 1\n}\ny = buf[i]\n",
    "if (i < n) {\n  if (j < m) {\n    x = buf[j]\n  }\n}\n",
    "if (i < n) {\n  x = 1\n} else {\n  x = buf[i]\n}\n",
    "if (i < n) { x = (a[(i)]) }\n",
    "send(sanitize(a, b), sanitize(), sanitize(c))\nquery(sanitize(sanitize(d)))\n",
    "exec(x, sanitize(-y))\nlog(sanitize(z))\nrender(render(sanitize(w)))\n",
    "if (a < b) { x = 1 } else if (a == b) { x = 2 } else if (a >= b) { x = buf[a] }\n",
    "while ((i < n) && (j != m)) { j = j - 1\n i = i + 1 }\n",
    "while (-i > !n) { x = -(-x) }\nreturn a[b[c[0]]] != \"s\"\n",
]


def _strip_returns(text: str) -> str:
    return "".join(line for line in text.splitlines(True) if not line.startswith("return"))


def _corpus_pool_texts(seed: int) -> list[str]:
    """The benchmark's corpus pool at ``seed``: 240 programs, then 24 units
    each joined from 10 programs with their returns stripped."""
    programs = (random_program(s) for s in itertools.count(seed * 1_000_003))
    texts = [next(programs) for _ in range(240)]
    texts += ["".join(_strip_returns(next(programs)) for _ in range(10)) for _ in range(24)]
    return texts


def _braced_links(unit: N.SourceUnit, sites: list) -> list:
    """The reference's unchecked-index sites, except that an ``else if`` link
    is replaced by its braced body: the reference unwrapped it, which left an
    ``else`` without a block."""
    links = {
        node.orelse.span: node.orelse.then.span
        for node in N.walk(unit.ast)
        if type(node) is N.If and type(node.orelse) is N.If
    }
    return [
        site._replace(replacement=unit.text[slice(*links[site.span])])
        if site.span in links else site
        for site in sites
    ]


def _assert_same(unit: N.SourceUnit) -> None:
    sites = applicable_sites(unit)
    assert list(sites) == list(DEFECT_KINDS)
    for kind in DEFECT_KINDS:
        expected = R.applicable_sites(unit, kind)
        if kind == "unchecked-index":
            expected = _braced_links(unit, expected)
        assert sites[kind] == expected, kind
    operators, operands = _count(unit.ast)
    ref_operators, ref_operands = Counter(), Counter()
    R._count(unit.ast, ref_operators, ref_operands)
    assert (Counter(operators), Counter(operands)) == (ref_operators, ref_operands)
    assert [id(n) for n in N.walk(unit.ast)] == [id(n) for n in R.walk(unit.ast)]


@pytest.mark.parametrize("block", range(6))
def test_generated_programs_match_the_reference(block):
    for seed in range(block * 100, block * 100 + 100):
        _assert_same(parse(random_program(seed), name=f"seed{seed}"))


@pytest.mark.parametrize("seed", [1, 2])
def test_corpus_pool_units_match_the_reference(seed):
    texts = _corpus_pool_texts(seed)
    for i, text in enumerate(texts):
        _assert_same(parse(text, name=f"u{i}"))


def test_fixture_origins_match_the_reference(fixtures):
    paths = sorted((fixtures / "origins").glob("*.vcp"))
    paths += sorted((fixtures / "study" / "origins").glob("*.vcp"))
    assert paths
    for path in paths:
        _assert_same(parse(path.read_text(), name=path.stem))


@pytest.mark.parametrize("text", _SHAPES)
def test_hand_written_shapes_match_the_reference(text):
    _assert_same(parse(text, name="shape"))


def test_hand_written_shapes_have_sites_of_every_kind():
    found = Counter()
    for text in _SHAPES:
        for kind, sites in applicable_sites(parse(text, name="shape")).items():
            found[kind] += len(sites)
    assert all(found[kind] >= 2 for kind in DEFECT_KINDS), found


def test_every_site_of_the_hand_written_shapes_splices_into_parseable_text():
    for text in _SHAPES:
        unit = parse(text, name="shape")
        for kind, sites in applicable_sites(unit).items():
            for site in sites:
                _apply(unit, kind, site)  # reparses the spliced text
