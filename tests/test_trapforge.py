"""Seeded defect injection and corpus generation."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vibecheck.cli import run
from vibecheck.codemetrics.cfg import build_cfg, cyclomatic_complexity
from vibecheck.codemetrics.lexer import line_col
from vibecheck.codemetrics.parser import parse
from vibecheck.errors import NotApplicableError, ValidationError
from vibecheck.io import read_jsonl
from vibecheck.trapforge import (
    DEFECT_KINDS,
    applicable_sites,
    generate_corpus,
    inject,
    read_answer_key,
    write_corpus,
)


def _load_origins(fixtures):
    paths = sorted((fixtures / "origins").glob("*.vcp"))
    return [parse(p.read_text(), name=p.stem) for p in paths]


# --- single-site injections ---------------------------------------------------


def test_inverted_condition_flips_comparison():
    mutated, site = inject(parse("if (a < b) {\n  x = 1\n}\n", name="u"), "inverted-condition")
    assert mutated == "if (a >= b) {\n  x = 1\n}\n"
    assert (site.start, site.end) == (6, 7)
    assert (site.line, site.col) == (1, 7)


def test_off_by_one_relaxes_loop_bound():
    mutated, site = inject(parse("while (i < n) {\n  i = i + 1\n}\n", name="u"), "off-by-one")
    assert mutated == "while (i <= n) {\n  i = i + 1\n}\n"
    assert (site.line, site.col) == (1, 10)


def test_unsanitized_sink_unwraps_argument():
    mutated, site = inject(parse("send(sanitize(x))\n", name="u"), "unsanitized-sink")
    assert mutated == "send(x)\n"
    assert (site.start, site.end) == (5, 16)


def test_unchecked_index_removes_bounds_guard():
    src = "if (i < n) {\n  x = buf[i]\n}\n"
    mutated, site = inject(parse(src, name="u"), "unchecked-index")
    assert mutated == "x = buf[i]\n"
    assert site.start == 0


def test_unchecked_index_on_an_else_if_link_keeps_the_braces():
    src = "if (a < b) { x = 1 } else if (i < n) { y = d[i] }\n"
    mutated, site = inject(parse(src, name="u"), "unchecked-index")
    assert mutated == "if (a < b) { x = 1 } else { y = d[i] }\n"
    assert (site.start, site.end) == (26, 49)


def test_dropped_update_deletes_loop_advance():
    src = "while (i < n) {\n  s = s + i\n  i = i + 1\n}\n"
    mutated, site = inject(parse(src, name="u"), "dropped-update")
    assert "i = i + 1" not in mutated
    assert "s = s + i" in mutated
    assert site.line == 3


@pytest.mark.parametrize("kind", DEFECT_KINDS)
def test_injection_is_deterministic_per_seed(fixtures, kind):
    for unit in _load_origins(fixtures):
        if not applicable_sites(unit)[kind]:
            continue
        assert inject(unit, kind, seed=5) == inject(unit, kind, seed=5)


@pytest.mark.parametrize("kind", DEFECT_KINDS)
def test_mutations_differ_at_exactly_the_recorded_site(fixtures, kind):
    for unit in _load_origins(fixtures):
        if not applicable_sites(unit)[kind]:
            continue
        mutated, site = inject(unit, kind, seed=5)
        assert mutated != unit.text
        # Outside [start, end) the origin bytes survive verbatim.
        assert mutated.startswith(unit.text[: site.start])
        tail = unit.text[site.end :]
        assert mutated.endswith(tail)
        replacement = mutated[site.start : len(mutated) - len(tail)]
        assert mutated == unit.text[: site.start] + replacement + tail


@pytest.mark.parametrize("kind", DEFECT_KINDS)
def test_every_mutation_reparses(fixtures, kind):
    for unit in _load_origins(fixtures):
        if not applicable_sites(unit)[kind]:
            continue
        mutated, _ = inject(unit, kind, seed=5)
        parse(mutated)


def test_unchecked_index_lowers_cc_by_one():
    src = "if (i < n) {\n  x = buf[i]\n}\n"
    unit = parse(src, name="u")
    mutated, _ = inject(unit, "unchecked-index")
    before = cyclomatic_complexity(build_cfg(unit))
    after = cyclomatic_complexity(build_cfg(parse(mutated)))
    assert before - after == 1


def test_inverted_condition_preserves_cc(fixtures):
    for unit in _load_origins(fixtures):
        if not applicable_sites(unit)["inverted-condition"]:
            continue
        mutated, _ = inject(unit, "inverted-condition", seed=5)
        assert cyclomatic_complexity(build_cfg(parse(mutated))) == cyclomatic_complexity(
            build_cfg(unit)
        )


def test_not_applicable_raises():
    unit = parse("x = 1\ny = x + 2\n", name="plain")
    for kind in DEFECT_KINDS:
        with pytest.raises(NotApplicableError):
            inject(unit, kind)


def test_off_by_one_needs_a_loop_guard():
    unit = parse("if (a < b) {\n  x = 1\n}\n", name="u")
    assert applicable_sites(unit)["off-by-one"] == []
    assert applicable_sites(unit)["inverted-condition"] != []


def test_sanitize_outside_sink_is_not_a_site():
    unit = parse("x = sanitize(y)\nlog(sanitize(z))\n", name="u")
    assert applicable_sites(unit)["unsanitized-sink"] == []


def test_unknown_kind_rejected():
    with pytest.raises(ValidationError, match="known kinds"):
        inject(parse("x = 1\n", name="u"), "race-condition")


def test_fixture_origins_cover_every_kind(fixtures):
    origins = _load_origins(fixtures)
    for kind in DEFECT_KINDS:
        assert any(applicable_sites(u)[kind] for u in origins), kind


# --- corpus generation --------------------------------------------------------


def test_fraction_zero_yields_all_clean(fixtures):
    corpus = generate_corpus(_load_origins(fixtures), 0.0, seed=1)
    assert corpus.requested_traps == 0
    assert corpus.shortfall == 0
    assert all(i.ground_truth == "clean" for i in corpus.items)
    assert all(i.defect_kind is None and i.mutation_site is None for i in corpus.items)


def test_fraction_one_traps_every_origin_with_a_site(fixtures):
    origins = _load_origins(fixtures)
    corpus = generate_corpus(origins, 1.0, seed=1)
    assert corpus.requested_traps == len(origins)
    # Fixture origins each admit at least one kind, so no shortfall.
    assert corpus.shortfall == 0
    assert all(i.ground_truth == "trap" for i in corpus.items)


def test_half_fraction_rounds_to_nearest(fixtures):
    origins = _load_origins(fixtures)
    corpus = generate_corpus(origins, 0.5, seed=2026)
    assert len(origins) == 12
    assert corpus.requested_traps == 6
    assert sum(1 for i in corpus.items if i.ground_truth == "trap") == 6


def test_requested_count_rounds_half_up():
    origins = [parse("if (a < b) {\n  x = 1\n}\n", name=f"o{i}") for i in range(5)]
    corpus = generate_corpus(origins, 0.5, seed=0)
    assert corpus.requested_traps == 3  # floor(2.5 + 0.5)


def test_corpus_is_deterministic(fixtures):
    origins = _load_origins(fixtures)
    assert generate_corpus(origins, 0.5, seed=7) == generate_corpus(origins, 0.5, seed=7)
    assert generate_corpus(origins, 0.5, seed=7) != generate_corpus(origins, 0.5, seed=8)


def test_item_ids_are_sequential_after_shuffle(fixtures):
    corpus = generate_corpus(_load_origins(fixtures), 0.5, seed=7)
    assert [i.item_id for i in corpus.items] == [f"item_{k:03d}" for k in range(len(corpus.items))]
    # The shuffle moved at least one origin away from its original position.
    assert [i.origin_name for i in corpus.items] != sorted(i.origin_name for i in corpus.items)


def test_trap_items_differ_from_origin_only_at_site(fixtures):
    origins = {u.name: u for u in _load_origins(fixtures)}
    corpus = generate_corpus(list(origins.values()), 1.0, seed=3)
    for item in corpus.items:
        origin = origins[item.origin_name]
        site = item.mutation_site
        assert item.source.startswith(origin.text[: site.start])
        assert item.source.endswith(origin.text[site.end :])
        parse(item.source)


def test_clean_items_are_byte_identical_to_origin(fixtures):
    origins = {u.name: u for u in _load_origins(fixtures)}
    corpus = generate_corpus(list(origins.values()), 0.5, seed=7)
    for item in corpus.items:
        if item.ground_truth == "clean":
            assert item.source == origins[item.origin_name].text


def test_selected_origin_without_sites_counts_as_shortfall():
    origins = [parse("x = 1\ny = x\n", name="plain0"), parse("log(x)\n", name="plain1")]
    corpus = generate_corpus(origins, 1.0, seed=0)
    assert corpus.requested_traps == 2
    assert corpus.shortfall == 2
    assert all(i.ground_truth == "clean" for i in corpus.items)


def test_generate_corpus_validates_inputs(fixtures):
    origins = _load_origins(fixtures)
    with pytest.raises(ValidationError):
        generate_corpus([], 0.5, seed=0)
    with pytest.raises(ValidationError):
        generate_corpus(origins, 1.5, seed=0)
    with pytest.raises(ValidationError):
        generate_corpus([origins[0], origins[0]], 0.5, seed=0)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=1000))
def test_trap_count_never_exceeds_requested(seed):
    origins = [
        parse("while (i < n) {\n  i = i + 1\n}\n", name="loop"),
        parse("x = 1\n", name="plain"),
        parse("if (a < b) {\n  y = 2\n}\n", name="branch"),
    ]
    corpus = generate_corpus(origins, 0.5, seed=seed)
    actual = sum(1 for i in corpus.items if i.ground_truth == "trap")
    assert actual + corpus.shortfall == corpus.requested_traps == 2


# --- corpus files -------------------------------------------------------------


def test_write_corpus_layout_and_answer_key(fixtures, tmp_path):
    corpus = generate_corpus(_load_origins(fixtures), 0.5, seed=7)
    write_corpus(corpus, tmp_path)
    items_dir = tmp_path / "items"
    assert sorted(p.name for p in items_dir.glob("*.vcp")) == [
        f"{i.item_id}.vcp" for i in corpus.items
    ]
    for item in corpus.items:
        assert (items_dir / f"{item.item_id}.vcp").read_text() == item.source
    key = read_answer_key(tmp_path / "answer_key.jsonl")
    assert key == {i.item_id: i.ground_truth for i in corpus.items}
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["n_items"] == len(corpus.items)
    assert manifest["seed"] == 7
    assert manifest["requested_traps"] == corpus.requested_traps
    assert manifest["actual_traps"] == sum(
        1 for i in corpus.items if i.ground_truth == "trap"
    )
    assert manifest["shortfall"] == corpus.shortfall


def test_answer_key_records_site_against_origin_coordinates(fixtures, tmp_path):
    origins = {u.name: u for u in _load_origins(fixtures)}
    corpus = generate_corpus(list(origins.values()), 1.0, seed=3)
    write_corpus(corpus, tmp_path)
    for line in (tmp_path / "answer_key.jsonl").read_text().splitlines():
        rec = json.loads(line)
        if rec["ground_truth"] == "clean":
            assert rec["defect_kind"] is None and rec["mutation_site"] is None
            continue
        origin = origins[rec["origin"]]
        site = rec["mutation_site"]
        assert 0 <= site["start"] < site["end"] <= len(origin.text)
        assert rec["defect_kind"] in DEFECT_KINDS
        assert site["description"]


def test_traps_generate_on_an_else_if_link_writes_a_parseable_trap(tmp_path, capsys):
    origins = tmp_path / "origins"
    origins.mkdir()
    (origins / "o.vcp").write_text("if (a < b) { x = 1 } else if (i < n) { y = d[i] }\n")
    argv = ["traps", "generate", "--origins", str(origins), "--fraction", "1", "--seed", "0",
            "--out", str(tmp_path / "c")]
    assert run(argv) == 0
    [key] = read_answer_key(tmp_path / "c" / "answer_key.jsonl").items()
    assert key == ("item_000", "trap")
    trap = (tmp_path / "c" / "items" / "item_000.vcp").read_text()
    assert trap == "if (a < b) { x = 1 } else { y = d[i] }\n"
    parse(trap)


def _tree_bytes(root):
    return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def test_traps_generate_refuses_items_of_an_earlier_corpus(fixtures, tmp_path, capsys):
    four = tmp_path / "four"
    four.mkdir()
    for path in sorted((fixtures / "origins").glob("*.vcp"))[:4]:
        (four / path.name).write_bytes(path.read_bytes())
    out = tmp_path / "c"
    assert run(["traps", "generate", "--origins", str(fixtures / "origins"),
                "--out", str(out)]) == 0
    before = _tree_bytes(out)
    capsys.readouterr()
    assert run(["traps", "generate", "--origins", str(four), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"vcp: error: {out / 'items'} holds 8 .vcp file(s) that this corpus does not name; "
        "write the corpus to an empty directory\n"
    )
    assert _tree_bytes(out) == before


def test_traps_generate_rewrites_the_same_corpus_in_place(fixtures, tmp_path):
    out = tmp_path / "c"
    argv = ["traps", "generate", "--origins", str(fixtures / "origins"), "--out", str(out)]
    assert run(argv) == 0
    first = _tree_bytes(out)
    assert sum(1 for rel in first if rel.parent.name == "items") == 12
    assert run(argv) == 0
    assert _tree_bytes(out) == first


def test_read_answer_key_reports_bad_line(tmp_path):
    path = tmp_path / "answer_key.jsonl"
    path.write_text('{"item_id": "a", "ground_truth": "trap"}\nnot json\n')
    with pytest.raises(ValidationError, match=":2:"):
        read_answer_key(path)


def test_perfect_reviewer_on_written_corpus(fixtures, tmp_path):
    from vibecheck.sdt import TrapResponse, score_responses

    corpus = generate_corpus(_load_origins(fixtures), 0.5, seed=7)
    write_corpus(corpus, tmp_path)
    key = read_answer_key(tmp_path / "answer_key.jsonl")
    responses = [
        TrapResponse(item_id, truth, truth == "trap") for item_id, truth in key.items()
    ]
    result = score_responses("oracle-reviewer", responses)
    assert (result.hit_rate, result.fa_rate) == (1.0, 0.0)
    assert result.correction_applied
    assert result.d_prime > 0


def test_a_crlf_corpus_is_spliced_from_its_origins_as_written(crlf_origins, tmp_path):
    out = tmp_path / "corpus"
    assert run(["traps", "generate", "--origins", str(crlf_origins), "--out", str(out),
                "--fraction", "0.5", "--seed", "3"]) == 0
    truths = []
    for rec in read_jsonl(out / "answer_key.jsonl", dict, "answer-key record"):
        origin = (crlf_origins / f"{rec['origin']}.vcp").read_bytes().decode("utf-8")
        item = (out / "items" / f"{rec['item_id']}.vcp").read_bytes().decode("utf-8")
        truths.append(rec["ground_truth"])
        if rec["ground_truth"] == "clean":
            assert item == origin
            continue
        site = rec["mutation_site"]
        start, end = site["start"], site["end"]
        sites = applicable_sites(parse(origin))[rec["defect_kind"]]
        [replacement] = {s.replacement for s in sites if s.span == (start, end)}
        assert item == origin[:start] + replacement + origin[end:]
        assert (site["line"], site["col"]) == line_col(origin, start)
    assert sorted(set(truths)) == ["clean", "trap"]
