"""Report writers: byte determinism and formatting."""

import json
import math

import pytest

from vibecheck.errors import ComputationError
from vibecheck.reporting import (
    dumps_record,
    human_table,
    write_columns,
    write_json,
    write_jsonl,
)


def test_json_keys_are_sorted(tmp_path):
    path = tmp_path / "out.json"
    write_json(path, {"zeta": 1, "alpha": 2, "mid": {"b": 1, "a": 2}})
    text = path.read_text()
    assert text.index('"alpha"') < text.index('"zeta"')
    assert text.index('"a"') < text.index('"b"')
    assert text.endswith("\n")
    assert json.loads(text) == {"zeta": 1, "alpha": 2, "mid": {"b": 1, "a": 2}}


def test_json_full_float_precision(tmp_path):
    value = 0.1 + 0.2
    path = tmp_path / "out.json"
    write_json(path, {"x": value})
    assert json.loads(path.read_text())["x"] == value


def test_write_json_byte_identical(tmp_path):
    record = {"rho": 0.5804511278195489, "n": 20, "label": "quiz"}
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    write_json(a, record)
    write_json(b, record)
    assert a.read_bytes() == b.read_bytes()


def test_jsonl_one_record_per_line(tmp_path):
    path = tmp_path / "out.jsonl"
    write_jsonl(path, [{"id": "a", "v": 1}, {"id": "b", "v": 2}])
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    assert json.loads(lines[0]) == {"id": "a", "v": 1}
    assert dumps_record({"id": "a", "v": 1}) == lines[0]


def test_human_table_alignment_and_rounding():
    table = human_table(
        [
            {"student": "s01", "m_csr": 0.123456, "zone": "foundational"},
            {"student": "s2", "m_csr": 1.0, "zone": "professional"},
        ],
        ["student", "m_csr", "zone"],
    )
    lines = table.splitlines()
    assert lines[0].startswith("student")
    assert set(lines[1]) <= {"-", " "}
    assert "0.1235" in lines[2]
    assert "1.0000" in lines[3]
    # Aligned columns: the zone column starts at one offset in every row.
    offset = lines[0].index("zone")
    assert lines[2].index("foundational") == offset
    assert lines[3].index("professional") == offset


def test_human_table_missing_field_and_bool():
    table = human_table([{"a": True, "b": None}], ["a", "b"])
    assert "True" in table
    assert "None" in table


def test_human_table_empty_records():
    table = human_table([], ["a", "b"])
    assert table.splitlines()[0].rstrip() == "a  b"


def test_write_columns_round_trips_floats(tmp_path):
    path = tmp_path / "curve.tsv"
    write_columns(path, ["n", "power"], [(62, 0.788708), (63, 1 / 3)])
    lines = path.read_text().splitlines()
    assert lines[0] == "n\tpower"
    n, p = lines[2].split("\t")
    assert int(n) == 63
    assert float(p) == 1 / 3  # repr() keeps the exact double


def test_write_columns_handles_non_floats(tmp_path):
    path = tmp_path / "mix.tsv"
    write_columns(path, ["kind", "count"], [("trap", 6)])
    assert path.read_text() == "kind\tcount\ntrap\t6\n"


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_numbers_are_refused_before_writing(tmp_path, value):
    # JSON has no literal for nan or inf; a report holding one is an error.
    with pytest.raises(ComputationError, match="non-finite"):
        write_json(tmp_path / "odd.json", {"nested": {"x": value}})
    with pytest.raises(ComputationError, match="non-finite"):
        write_jsonl(tmp_path / "odd.jsonl", [{"x": 1.0}, {"x": value}])
    assert list(tmp_path.iterdir()) == []
