"""Seeded single-defect injection and review-corpus generation.

Each defect kind edits the origin source at exactly one site, by splicing
bytes at spans taken from the parsed tree, so the trap differs from its
origin only at the mutation site and always reparses:

- ``inverted-condition``: one comparison operator becomes its negation
  (``<`` -> ``>=``, ``==`` -> ``!=``, ...), anywhere in the program;
- ``off-by-one``: one loop guard comparison flips boundary inclusion
  (``<`` <-> ``<=``, ``>`` <-> ``>=``), shifting the iteration count by one;
- ``unchecked-index``: one if-statement without an else whose condition is a
  comparison and whose body subscripts an array is unwrapped, deleting the
  bounds guard around the access (an ``else if`` link keeps the braces of its
  body, which becomes the ``else`` block);
- ``unsanitized-sink``: one ``sanitize(...)`` wrapper inside a call to a
  designated sink function is removed, routing the argument in raw;
- ``dropped-update``: one assignment to a loop-guard variable inside the
  loop body is deleted, so the loop no longer advances that variable.

Site coordinates in the answer key refer to the origin source as written:
origins are read and items written without translating newlines, so an
offset is an offset into the origin file, a clean item is byte-equal to its
origin and a trap differs from it only at the site.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_left
from pathlib import Path
from typing import Optional, Sequence, Union

from vibecheck.codemetrics import nodes as N
from vibecheck.codemetrics.lexer import line_col
from vibecheck.codemetrics.parser import parse, parse_file
from vibecheck.errors import NotApplicableError, ValidationError
from vibecheck.io import as_str, fields, read_jsonl
from vibecheck.pool import FORK_MIN_BYTES, ordered_map, path_bytes
from vibecheck.record import Record
from vibecheck.reporting import write_json, write_jsonl, write_text
from vibecheck.rng import PhiloxStream
from vibecheck.sdt import check_ground_truth

DEFECT_KINDS = (
    "inverted-condition",
    "off-by-one",
    "unchecked-index",
    "unsanitized-sink",
    "dropped-update",
)

SINK_FUNCTIONS = frozenset({"query", "exec", "render", "send"})
SANITIZER = "sanitize"

_NEGATE = {"<": ">=", "<=": ">", ">": "<=", ">=": "<", "==": "!=", "!=": "=="}
_SHIFT_BOUND = {"<": "<=", "<=": "<", ">": ">=", ">=": ">"}
_set = object.__setattr__


class MutationSite(Record):
    start: int
    end: int
    line: int
    col: int
    description: str


class TrapItem(Record):
    item_id: str
    source: str
    ground_truth: str  # "trap" | "clean"
    defect_kind: Optional[str]
    mutation_site: Optional[MutationSite]
    origin_name: str


class TrapCorpus(Record):
    items: tuple[TrapItem, ...]
    seed: int
    trap_fraction: float
    requested_traps: int
    shortfall: int

    def counts(self) -> dict[str, int]:
        """Items, requested and actual traps, and the shortfall, as reports name them."""
        actual = sum(1 for i in self.items if i.ground_truth == "trap")
        return {"n_items": len(self.items), "requested_traps": self.requested_traps,
                "actual_traps": actual, "shortfall": self.shortfall}


class _Site(Record):
    # Built once per candidate site, so with slots and its own ``__init__``.
    __slots__ = ("span", "replacement", "description")

    span: tuple[int, int]
    replacement: str
    description: str

    def __init__(self, span: tuple[int, int], replacement: str, description: str) -> None:
        _set(self, "span", span)
        _set(self, "replacement", replacement)
        _set(self, "description", description)


def applicable_sites(unit: N.SourceUnit) -> dict[str, list[_Site]]:
    """The mutation sites of every defect kind, keyed by kind, from one walk.

    Each kind lists its sites in the pre-order of the nodes they sit on; the
    seeded draws index into these lists, so the order is part of the output.
    A node lies inside a block exactly when its span does, and pre-order is
    source order, so subscripts and assignments inside a body are looked up
    by position instead of by walking the body again.
    """
    text = unit.text
    inverted: list[_Site] = []
    loop_bound: list[_Site] = []
    sink: list[_Site] = []
    guard_ifs: list[N.If] = []
    # Ifs that follow an ``else``: unwrapped, they must keep their braces.
    chain_links: set[int] = set()
    loops: list[Union[N.While, N.For]] = []
    index_starts: list[int] = []
    assigns: list[N.Assign] = []
    # For-header init/update clauses are loop syntax, not body statements;
    # deleting one would leave an unparseable header.
    header_clauses: set[int] = set()
    for node in N.walk(unit.ast):
        cls = type(node)
        if cls is N.Binary:
            op = node.op
            if op in _NEGATE:
                new_op = _NEGATE[op]
                inverted.append(
                    _Site(node.op_span, new_op, f"comparison '{op}' replaced by '{new_op}'")
                )
        elif cls is N.Assign:
            if id(node) not in header_clauses:
                assigns.append(node)
        elif cls is N.Index:
            index_starts.append(node.span[0])
        elif cls is N.Call:
            if node.func in SINK_FUNCTIONS:
                for arg in node.args:
                    if type(arg) is N.Call and arg.func == SANITIZER and arg.args:
                        inner = text[arg.args[0].span[0] : arg.args[-1].span[1]]
                        sink.append(
                            _Site(
                                arg.span,
                                inner,
                                f"sanitize() wrapper removed inside {node.func}() call",
                            )
                        )
        elif cls is N.If:
            cond = node.cond
            if node.orelse is None and type(cond) is N.Binary and cond.op in _SHIFT_BOUND:
                guard_ifs.append(node)
            elif type(node.orelse) is N.If:
                chain_links.add(id(node.orelse))
        elif cls is N.While or cls is N.For:
            loops.append(node)
            if cls is N.For:
                header_clauses.update((id(node.init), id(node.update)))
            cond = node.cond
            if type(cond) is N.Binary and cond.op in _SHIFT_BOUND:
                new_op = _SHIFT_BOUND[cond.op]
                loop_bound.append(
                    _Site(cond.op_span, new_op, f"loop bound '{cond.op}' relaxed to '{new_op}'")
                )

    bounds_guard = []
    for node in guard_ifs:
        lo, hi = node.then.span
        i = bisect_left(index_starts, lo)
        if i < len(index_starts) and index_starts[i] < hi:
            body = text[lo:hi] if id(node) in chain_links else text[lo + 1 : hi - 1].strip()
            bounds_guard.append(
                _Site(node.span, body, "bounds-guard if removed around subscript access")
            )

    dropped = []
    assign_starts = [a.span[0] for a in assigns]
    for node in loops:
        guard_vars = {sub.ident for sub in N.walk(node.cond) if type(sub) is N.Name}
        lo, hi = node.body.span
        for sub in assigns[bisect_left(assign_starts, lo) : bisect_left(assign_starts, hi)]:
            if sub.target in guard_vars:
                dropped.append(
                    _Site(sub.span, "", f"loop-variable update '{sub.target} = ...' deleted")
                )

    return {
        "inverted-condition": inverted,
        "off-by-one": loop_bound,
        "unchecked-index": bounds_guard,
        "unsanitized-sink": sink,
        "dropped-update": dropped,
    }


def inject(unit: N.SourceUnit, kind: str, seed: int = 0) -> tuple[str, MutationSite]:
    """Apply one seeded mutation of ``kind``; returns (mutated source, site)."""
    if kind not in DEFECT_KINDS:
        raise ValidationError(
            f"unknown defect kind {kind!r}; known kinds: {', '.join(DEFECT_KINDS)}"
        )
    sites = applicable_sites(unit)[kind]
    if not sites:
        raise NotApplicableError(kind, unit.name)
    site = sites[PhiloxStream(seed).integers(len(sites))]
    return _apply(unit, kind, site)


def _apply(unit: N.SourceUnit, kind: str, site: _Site) -> tuple[str, MutationSite]:
    start, end = site.span
    mutated = unit.text[:start] + site.replacement + unit.text[end:]
    # A mutation that fails to reparse is a bug in the site tables.
    parse(mutated, name=f"{unit.name}#{kind}")
    line, col = line_col(unit.text, start)
    return mutated, MutationSite(start, end, line, col, site.description)


def _draft(
    task: tuple[int, Union[Path, N.SourceUnit], bool], seed: int
) -> tuple[str, str, Optional[str], bool, Optional[MutationSite]]:
    """One origin's item: (name, source, defect kind, shortfall, site).

    ``task`` is (origin index, origin, selected for mutation).  A path is
    parsed here, so its tree is dropped once the item is drafted.
    """
    index, origin, selected = task
    unit = parse_file(origin, origin.stem) if isinstance(origin, Path) else origin
    if not selected:
        return unit.name, unit.text, None, False, None
    item_rng = PhiloxStream(seed, index)
    sites_by_kind = applicable_sites(unit)
    kinds = [k for k in DEFECT_KINDS if sites_by_kind[k]]
    if not kinds:
        return unit.name, unit.text, None, True, None
    kind = kinds[item_rng.integers(len(kinds))]
    sites = sites_by_kind[kind]
    mutated, mutation = _apply(unit, kind, sites[item_rng.integers(len(sites))])
    return unit.name, mutated, kind, False, mutation


def generate_corpus(
    origins: Sequence[Union[Path, N.SourceUnit]], trap_fraction: float, seed: int
) -> TrapCorpus:
    """Deterministically derive a shuffled review corpus from clean origins.

    An origin is a ``.vcp`` path, parsed under its stem, or a parsed unit.
    ``round(trap_fraction * len(origins))`` origins are selected for
    mutation; each selected origin draws a defect kind uniformly from the
    kinds applicable to it, using a stream derived from ``(seed, origin
    index)`` so items are independent.  A selected origin with no applicable
    kind stays clean and is counted in ``shortfall``.  Presentation order is
    a Fisher-Yates shuffle seeded by the corpus seed, and item ids are
    assigned after shuffling.  The origins are drafted through
    :func:`vibecheck.pool.ordered_map`, so a large batch of paths is parsed
    and mutated on every available CPU with the same result.
    """
    if not origins:
        raise ValidationError("corpus generation needs at least one origin")
    if not (0.0 <= trap_fraction <= 1.0):
        raise ValidationError(f"trap_fraction must lie in [0, 1], got {trap_fraction!r}")
    names = [o.stem if isinstance(o, Path) else o.name for o in origins]
    if len(set(names)) != len(names):
        raise ValidationError("origin names must be unique")

    n = len(origins)
    requested = int(math.floor(trap_fraction * n + 0.5))
    top_rng = PhiloxStream(seed)
    chosen = set(top_rng.sample(n, requested))
    drafts = ordered_map(
        functools.partial(_draft, seed=seed),
        [(index, origin, index in chosen) for index, origin in enumerate(origins)],
        [path_bytes(o) if isinstance(o, Path) else len(o.text.encode("utf-8")) for o in origins],
        FORK_MIN_BYTES,
    )
    shortfall = sum(draft[3] for draft in drafts)

    # Fisher-Yates over presentation order, seeded by the corpus seed.
    order = list(range(n))
    for i in range(n - 1, 0, -1):
        j = top_rng.integers(i + 1)
        order[i], order[j] = order[j], order[i]

    width = max(3, len(str(n - 1)))
    items = []
    for position, original_index in enumerate(order):
        name, source, kind, _, site = drafts[original_index]
        items.append(
            TrapItem(
                item_id=f"item_{position:0{width}d}",
                source=source,
                ground_truth="trap" if kind else "clean",
                defect_kind=kind,
                mutation_site=site,
                origin_name=name,
            )
        )
    return TrapCorpus(
        items=tuple(items),
        seed=seed,
        trap_fraction=trap_fraction,
        requested_traps=requested,
        shortfall=shortfall,
    )


def write_corpus(corpus: TrapCorpus, out_dir: Union[str, Path]) -> None:
    """Write ``items/<id>.vcp``, the answer key, and a manifest.

    The answer key lands next to (not inside) ``items/`` so the reviewer
    bundle is the items directory alone.  An ``items/`` that already holds a
    ``.vcp`` file this corpus does not name is refused before anything is
    written; no file is ever deleted.
    """
    out = Path(out_dir)
    items = out / "items"
    names = {f"{item.item_id}.vcp" for item in corpus.items}
    stale = sum(1 for path in items.glob("*.vcp") if path.name not in names)
    if stale:
        raise ValidationError(
            f"{items} holds {stale} .vcp file(s) that this corpus does not name; "
            "write the corpus to an empty directory"
        )
    items.mkdir(parents=True, exist_ok=True)
    for item in corpus.items:
        write_text(items / f"{item.item_id}.vcp", item.source)
    write_jsonl(out / "answer_key.jsonl", (_key_record(item) for item in corpus.items))
    manifest = {"seed": corpus.seed, "trap_fraction": corpus.trap_fraction, **corpus.counts()}
    write_json(out / "manifest.json", manifest)


def _key_record(item: TrapItem) -> dict:
    site = item.mutation_site
    return {
        "item_id": item.item_id,
        "ground_truth": item.ground_truth,
        "defect_kind": item.defect_kind,
        "mutation_site": None if site is None else site._asdict(),
        "origin": item.origin_name,
    }


# The other keys of ``_key_record`` may be absent and are taken as written.
_KEY_DETAILS = dict.fromkeys(("defect_kind", "mutation_site", "origin"), dict.get)
_ANSWER_KEY_FIELDS = {"item_id": as_str, "ground_truth": as_str, **_KEY_DETAILS}


def read_answer_key(path: Union[str, Path]) -> dict[str, str]:
    """Map item_id -> ground_truth from an answer-key file, in file order; a
    ground truth other than ``"trap"`` or ``"clean"`` is refused at its line,
    and an item_id given twice at its second line."""
    key: dict[str, str] = {}

    def row(rec: dict) -> None:
        item = fields(rec, _ANSWER_KEY_FIELDS, _KEY_DETAILS)
        check_ground_truth(item["ground_truth"])
        if item["item_id"] in key:
            raise ValueError(f"duplicate item_id {item['item_id']!r}")
        key[item["item_id"]] = item["ground_truth"]

    read_jsonl(path, row, "answer-key record")
    return key
