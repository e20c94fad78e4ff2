"""Kappa from its table of label-pair counts, and ``vcp kappa`` over a
streamed CSV.

``tests/reference_kappa.py`` holds the two-list kappa that counted from
whole rating lists.  The table form adds chance agreement with ``math.fsum``
and the reference with ``sum``, so the reference runs with its ``sum``
replaced by ``math.fsum``; the table form must give the same float bit for bit,
and ``vcp kappa`` must hold memory independent of the number of rows while
refusing every malformed file the way ``read_csv`` does.
"""

import contextlib
import io
import json
import math
import random
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_kappa as ref
from vibecheck.cli import run
from vibecheck.errors import DegenerateAgreementError, ValidationError
from vibecheck.stats.kappa import cohens_kappa, pair_counts

CATEGORIES = ("none", "minor", "major", "critical")


def _vcp(argv):
    """Exit code, stdout and stderr of one in-process ``vcp`` run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def _reference_kappa(rater_a, rater_b):
    with mock.patch.object(ref, "sum", math.fsum, create=True):
        return ref.cohens_kappa(rater_a, rater_b)


def _outcome(kappa, *args):
    try:
        return kappa(*args)
    except (ValidationError, DegenerateAgreementError) as exc:
        return type(exc), str(exc)


def _pairs(labels):
    return st.lists(st.tuples(labels, labels), max_size=60)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        _pairs(st.text(max_size=3)),
        _pairs(st.sampled_from(["a", "b", "c", "é", "B"])),
        _pairs(st.integers(-3, 3)),
        _pairs(st.booleans()),
    )
)
def test_table_kappa_is_bit_identical_to_the_list_kappa(pairs):
    a = [x for x, _ in pairs]
    b = [y for _, y in pairs]
    new = _outcome(lambda: cohens_kappa(pair_counts(a, b)))
    old = _outcome(_reference_kappa, a, b)
    if isinstance(old, float):
        assert isinstance(new, float) and new.hex() == old.hex()
    else:
        assert new == old


def test_pair_counts_keeps_the_length_refusal():
    a, b = [1, 2], [1, 2, 3]
    assert _outcome(pair_counts, a, b) == _outcome(_reference_kappa, a, b)


def _design_ratings(seed: int) -> list[tuple[str, str]]:
    """The 200k ratings the benchmark's design workload writes for ``seed``."""
    rng = random.Random(seed)
    # The workload draws its 50 (x, y) Spearman pairs from the stream first.
    for _ in range(100):
        rng.gauss(0.0, 1.0)
    ratings = []
    for _ in range(200_000):
        a = rng.choice(CATEGORIES)
        ratings.append((a, a if rng.random() < 0.6 else rng.choice(CATEGORIES)))
    return ratings


def _write_ratings(path, ratings) -> None:
    path.write_text("a,b\n" + "".join(f"{a},{b}\n" for a, b in ratings))


@pytest.mark.parametrize("seed", [1, 2])
def test_vcp_kappa_on_design_ratings_matches_the_list_kappa(seed, tmp_path):
    ratings = _design_ratings(seed)
    path = tmp_path / "ratings.csv"
    _write_ratings(path, ratings)
    code, _, err = _vcp(["kappa", "--data", path, "--out", tmp_path / "out"])
    assert code == 0, err
    report = json.loads((tmp_path / "out" / "kappa.json").read_text())
    expected = _reference_kappa([a for a, _ in ratings], [b for _, b in ratings])
    assert report["kappa"].hex() == expected.hex()
    assert report["n"] == 200_000


def test_vcp_kappa_memory_does_not_grow_with_rows(tmp_path):
    rng = random.Random(0)
    path = tmp_path / "ratings.csv"
    _write_ratings(path, ((rng.choice(CATEGORIES), rng.choice(CATEGORIES))
                          for _ in range(200_000)))
    small = tmp_path / "small.csv"
    small.write_text("a,b\nnone,minor\nminor,minor\n")
    argv = ["kappa", "--data", path, "--out", tmp_path / "out"]
    # A first run loads the handler's modules; the second is measured.
    assert _vcp(["kappa", "--data", small, "--out", tmp_path / "warm"])[0] == 0
    tracemalloc.start()
    try:
        code = _vcp(argv)[0]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 2_000_000, peak


@pytest.mark.parametrize(
    "text, message",
    [
        ("a,c\n1,2\n", "expected CSV columns a, b; got a, c"),
        ("", "expected CSV columns a, b; got none"),
        ("a,b\n\n", "no data rows"),
        ("a,b\nx,y\n\nz\n", ":4: expected 2 fields"),
        ("a,b\nx," + "9" * 200_000 + "\n", ":2: field larger than field limit"),
    ],
)
def test_vcp_kappa_refuses_what_read_csv_refuses(tmp_path, text, message):
    path = tmp_path / "ratings.csv"
    path.write_text(text)
    code, out, err = _vcp(["kappa", "--data", path])
    assert code == 1 and not out
    [line] = err.splitlines()
    assert line.startswith(f"vcp: error: {path}") and message in line


@pytest.mark.parametrize(
    "argv, data",
    [
        (["kappa", "--data"], "a,b\nminor,minor\nmajor,minor\nnone,none\n"),
        (["spearman", "--data"], None),
        (["retention", "--decay"], None),
    ],
    ids=["kappa", "spearman", "retention"],
)
def test_a_byte_order_mark_is_not_part_of_the_header(argv, data, tmp_path, fixtures):
    if data is None:
        name = {"spearman": "spearman/quiz_scores.csv", "retention": "decay/noisy_decay.csv"}
        data = (fixtures / name[argv[0]]).read_text(encoding="utf-8")
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_text(data, encoding="utf-8")
    marked.write_bytes(b"\xef\xbb\xbf" + data.encode("utf-8"))
    code, expected, err = _vcp([*argv, plain])
    assert code == 0, err
    code, report, err = _vcp([*argv, marked])
    assert code == 0, err
    assert report == expected
