"""The input boundary: each reader and scalar helper, a regression case for
each input hole it closed, and a fuzz of every file input through ``vcp``."""

import contextlib
import copy
import io
import json
import shutil

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from vibecheck.cli import run
from vibecheck.codemetrics.cfg import build_cfg, dump_cfg
from vibecheck.codemetrics.parser import parse
from vibecheck.config import RunConfig
from vibecheck.errors import FitError, ValidationError
from vibecheck.io import (
    as_bool,
    as_finite,
    as_int,
    as_list,
    as_str,
    as_strings,
    csv_rows,
    fields,
    read_csv,
    read_json,
    read_jsonl,
    read_text,
)
from vibecheck.reporting import write_jsonl
from vibecheck.retention import read_session_log
from vibecheck.stats.mixed import GeneratingParams, simulate_cohort, write_cohort

NOT_UTF8 = b"\xff\xfe"


def _vcp(argv):
    """Exit code and stderr of one in-process ``vcp`` run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run([str(a) for a in argv])
    return code, err.getvalue()


def _error_lines(err: str) -> list[str]:
    return [
        line for line in err.splitlines()
        if line.startswith(("vcp: error:", "vcp: computation error:"))
    ]


# --- read_text ---------------------------------------------------------------


def test_read_text_is_utf8(tmp_path):
    path = tmp_path / "unit.vcp"
    path.write_bytes("x = 1 // café\n".encode("utf-8"))
    assert read_text(path) == "x = 1 // café\n"


def test_read_text_names_the_path_of_undecodable_bytes(tmp_path):
    path = tmp_path / "unit.vcp"
    path.write_bytes(NOT_UTF8)
    with pytest.raises(ValidationError, match=f"{path}: file is not UTF-8 text"):
        read_text(path)


@pytest.mark.parametrize("name", ["absent.txt", "", "nul\x00byte"])
def test_read_text_unreadable_path(tmp_path, name):
    path = tmp_path / name  # a missing file, a directory, an invalid name
    with pytest.raises(ValidationError, match="cannot read transcript"):
        read_text(path, "transcript")


def test_read_text_reads_line_endings_as_written(tmp_path):
    path = tmp_path / "unit.vcp"
    path.write_bytes(b"x = 1\r\ny = 2\rz = 3\n")
    assert read_text(path) == "x = 1\r\ny = 2\rz = 3\n"


# --- read_json ---------------------------------------------------------------


def test_read_json_returns_fn_of_the_object(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text('{"a": 1, "b": [2.5]}')
    assert read_json(path, dict, "doc") == {"a": 1, "b": [2.5]}
    assert read_json(path, lambda d: d["b"][0], "doc") == 2.5


@pytest.mark.parametrize(
    "text", ['{"a": NaN}', '{"a": Infinity}', '{"a": -Infinity}', '{"a": 1e999}',
             '{"a": [-1e400]}', "{bad"]
)
def test_read_json_refuses_non_finite_and_malformed(tmp_path, text):
    path = tmp_path / "doc.json"
    path.write_text(text)
    with pytest.raises(ValidationError, match=f"{path}: calibration is not valid JSON"):
        read_json(path, dict, "calibration")


@pytest.mark.parametrize("text", ["[1, 2]", "3", '"x"', "null"])
def test_read_json_wants_an_object(tmp_path, text):
    path = tmp_path / "doc.json"
    path.write_text(text)
    with pytest.raises(ValidationError, match="doc must hold a JSON object"):
        read_json(path, dict, "doc")


@pytest.mark.parametrize("error", [KeyError("k"), TypeError("t"), ValueError("v")])
def test_read_json_fn_errors_name_the_path(tmp_path, error):
    path = tmp_path / "doc.json"
    path.write_text("{}")

    def fn(data):
        raise error

    with pytest.raises(ValidationError, match=f"{path}: malformed ontology"):
        read_json(path, fn, "ontology")


def test_read_json_fn_toolkit_error_passes_through(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text("{}")
    error = FitError("singular")

    def fn(data):
        raise error

    with pytest.raises(FitError) as caught:
        read_json(path, fn, "doc")
    assert caught.value is error


# --- read_jsonl --------------------------------------------------------------


def test_read_jsonl_skips_blank_lines_and_maps_rows(tmp_path):
    path = tmp_path / "rows.jsonl"
    path.write_text('{"v": 1}\n\n   \n{"v": 2.5}\n')
    assert read_jsonl(path, lambda rec: rec["v"], "row") == [1, 2.5]


@pytest.mark.parametrize(
    "line, detail",
    [('{"w": 1}', "'v'"), ("[1]", "JSON object"), ('{"v": NaN}', "NaN"),
     ('{"v": 1e999}', "out of range"), ("{not json}", "Expecting"), ('{"v": "x"}', "")],
)
def test_read_jsonl_bad_line_names_path_and_line(tmp_path, line, detail):
    path = tmp_path / "rows.jsonl"
    path.write_text('{"v": 1}\n\n' + line + "\n")
    with pytest.raises(ValidationError, match=f"{path}:3: bad row: ") as caught:
        read_jsonl(path, lambda rec: rec["v"] + 0, "row")
    assert detail in str(caught.value)


# Unicode line boundaries that are not "\n": a JSONL line ends at "\n" only.
_LINE_SEPARATORS = ["\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("separator", _LINE_SEPARATORS)
def test_a_string_holding_a_line_separator_round_trips_through_jsonl(tmp_path, separator):
    path = tmp_path / "rows.jsonl"
    records = [{"v": f"a{separator}b"}, {"v": separator}]
    write_jsonl(path, records)
    assert separator in path.read_bytes().decode("utf-8")  # written raw
    assert read_jsonl(path, dict, "row") == records


def test_a_crlf_jsonl_file_reads_as_its_lf_twin(tmp_path):
    path = tmp_path / "rows.jsonl"
    path.write_bytes(b'{"v": 1}\r\n\r\n{"v": 2}\r\n')
    assert read_jsonl(path, lambda rec: rec["v"], "row") == [1, 2]


def test_a_lone_cr_ends_no_jsonl_line(tmp_path):
    path = tmp_path / "records.jsonl"
    record = {"student": "s1", "condition": "vibe", "m_csr": 0.8, "m_ht": 0.9, "e_gap": 0.1,
              "t_dev": 1.0}
    path.write_bytes(f"{json.dumps(record)}\r{json.dumps(record)}\r".encode("utf-8"))
    code, err = _vcp(["score", "--records", path])
    assert code == 1
    [line] = _error_lines(err)
    assert line.startswith(f"vcp: error: {path}:1: bad student record: Extra data")


def test_read_jsonl_toolkit_error_passes_through(tmp_path):
    path = tmp_path / "rows.jsonl"
    path.write_text('{"v": 1}\n')
    error = FitError("singular")

    def row_fn(rec):
        raise error

    with pytest.raises(FitError) as caught:
        read_jsonl(path, row_fn, "row")
    assert caught.value is error


def test_validation_error_from_the_row_function_names_the_file(tmp_path):
    error = ValidationError("row-level check")

    def fn(data):
        if data.get("v") == 2:
            raise error
        return data

    path = tmp_path / "rows.jsonl"
    path.write_text('{"v": 1}\n\n{"v": 2}\n')
    with pytest.raises(ValidationError) as caught:
        read_jsonl(path, fn, "row")
    assert str(caught.value) == f"{path}:3: bad row: row-level check"
    assert caught.value.__cause__ is error
    path = tmp_path / "doc.json"
    path.write_text('{"v": 2}')
    with pytest.raises(ValidationError) as caught:
        read_json(path, fn, "doc")
    assert str(caught.value) == f"{path}: malformed doc: row-level check"
    assert caught.value.__cause__ is error


# --- read_csv ----------------------------------------------------------------


def test_read_csv_string_columns(tmp_path):
    path = tmp_path / "ratings.csv"
    path.write_text("id,a,b\n1,minor,major\n\n2,none,none\n")
    assert read_csv(path, ("a", "b")) == {"a": ["minor", "none"], "b": ["major", "none"]}


def test_read_csv_cast_columns(tmp_path):
    path = tmp_path / "xy.csv"
    path.write_text("x,y\n1,2.5\n3,-4\n")
    assert read_csv(path, ("x", "y"), float) == {"x": [1.0, 3.0], "y": [2.5, -4.0]}


def test_read_csv_repeated_header_takes_the_last_column(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text("a,b,a\nfirst,x,last\n")
    assert read_csv(path, ("a",)) == {"a": ["last"]}


_CSV_REFUSALS = [
    ("x,z\n1,2\n", "expected CSV columns x, y; got x, z"),
    ("", "expected CSV columns x, y; got none"),
    ("x,y\n\n", "no data rows"),
    ("x,y\n1,2\n\n3\n", ":4: expected 2 fields"),
    ("x,y\n1,2\n3,oops\n", ":3: bad 'y' value"),
    ("x,y\noops,2\n", ":2: bad 'x' value"),
    # Cells are read in column order: a bad cell before the row runs out.
    ("x,y\noops\n", ":2: bad 'x' value"),
    ("x,y\n1," + "9" * 200_000 + "\n", ":2: field larger than field limit"),
]


@pytest.mark.parametrize("text, message", _CSV_REFUSALS)
def test_read_csv_refusals_name_the_path(tmp_path, text, message):
    path = tmp_path / "xy.csv"
    path.write_text(text)
    with pytest.raises(ValidationError, match=str(path)) as caught:
        read_csv(path, ("x", "y"), float)
    assert message in str(caught.value)


@pytest.mark.parametrize("text, message", _CSV_REFUSALS)
def test_csv_rows_refusals_name_the_path(tmp_path, text, message):
    path = tmp_path / "xy.csv"
    path.write_text(text)
    with pytest.raises(ValidationError, match=str(path)) as caught:
        list(csv_rows(path, ("x", "y"), float))
    assert message in str(caught.value)


def test_csv_rows_yields_one_tuple_per_row_as_it_reads(tmp_path):
    path = tmp_path / "ratings.csv"
    path.write_text("id,a,b\n1,minor,major\n\n2,none,none\n3\n")
    rows = csv_rows(path, ("b", "a"))
    assert next(rows) == ("major", "minor")
    assert next(rows) == ("none", "none")
    with pytest.raises(ValidationError, match=f"{path}:5: expected 3 fields"):
        next(rows)
    one = tmp_path / "one.csv"
    one.write_text("a\nx\ny\n")
    assert list(csv_rows(one, ("a",))) == [("x",), ("y",)]
    assert list(csv_rows(one, ("a",), str.upper)) == [("X",), ("Y",)]


# --- field readers -----------------------------------------------------------


@pytest.mark.parametrize("value", [True, False])
def test_as_bool_accepts_json_booleans(value):
    assert as_bool({"k": value}, "k") is value


@pytest.mark.parametrize("value", ["false", "true", 0, 1, None, [], 0.0])
def test_as_bool_refuses_everything_else(value):
    with pytest.raises(TypeError, match="bad value for 'k': expected true or false"):
        as_bool({"k": value}, "k")


@pytest.mark.parametrize("value", ["", "s01", "None", "3"])
def test_as_str_accepts_json_strings(value):
    assert as_str({"k": value}, "k") is value


@pytest.mark.parametrize("value", [None, 3, 3.0, True, ["s"], {"s": 1}])
def test_as_str_refuses_everything_else(value):
    with pytest.raises(TypeError, match="bad value for 'k': expected a string"):
        as_str({"k": value}, "k")


def test_as_list_accepts_json_arrays():
    value = ["a", 1]
    assert as_list({"k": value}, "k") is value and as_list({"k": []}, "k") == []


@pytest.mark.parametrize("value", ["loop", None, 3, ("a",), {"a": 1}])
def test_as_list_refuses_everything_else(value):
    with pytest.raises(TypeError, match="bad value for 'k': expected an array"):
        as_list({"k": value}, "k")


@pytest.mark.parametrize("value, expected", [(3, 3), (3.0, 3), (-2, -2), (10**30, 10**30)])
def test_as_int_accepts_integral_numbers(value, expected):
    result = as_int({"k": value}, "k")
    assert result == expected and type(result) is int


@pytest.mark.parametrize("value", [2.9, float("nan"), float("inf"), True, "7", None, [1]])
def test_as_int_refuses_fractions_and_non_numbers(value):
    with pytest.raises(TypeError, match="bad value for 'k': expected an integer"):
        as_int({"k": value}, "k")


@pytest.mark.parametrize("value, expected", [(2, 2.0), (0.5, 0.5), (-1e300, -1e300)])
def test_as_finite_accepts_finite_numbers(value, expected):
    result = as_finite({"k": value}, "k")
    assert result == expected and type(result) is float


@pytest.mark.parametrize(
    "value", [float("nan"), float("inf"), -float("inf"), 10**400, True, "1.5", None]
)
def test_as_finite_refuses_non_finite_and_non_numbers(value):
    with pytest.raises(TypeError, match="bad value for 'k': expected a finite number"):
        as_finite({"k": value}, "k")


def test_as_strings_reads_an_array_of_strings_as_a_tuple():
    assert as_strings({"k": ["a", "b"]}, "k") == ("a", "b")
    with pytest.raises(TypeError, match="bad value for 'k': expected a string, got None"):
        as_strings({"k": ["a", None]}, "k")
    with pytest.raises(TypeError, match="bad value for 'k': expected an array, got 'ab'"):
        as_strings({"k": "ab"}, "k")


@pytest.mark.parametrize("reader", [as_bool, as_str, as_list, as_strings, as_int, as_finite])
def test_field_readers_name_a_missing_key_and_want_an_object(reader):
    with pytest.raises(ValueError, match="^missing field 'k'$"):
        reader({"j": 1}, "k")
    with pytest.raises(TypeError, match="expected a JSON object, got 'k'"):
        reader("k", "k")


_SPEC = {"b": as_str, "a": as_finite, "c": as_bool}


def test_fields_reads_each_key_in_the_table_order():
    assert list(fields({"c": True, "a": 1, "b": "x"}, _SPEC).items()) == [
        ("b", "x"), ("a", 1.0), ("c", True)
    ]


def test_an_absent_optional_key_is_left_out():
    assert fields({"b": "x", "a": 1}, _SPEC, optional=("c",)) == {"b": "x", "a": 1.0}
    with pytest.raises(TypeError, match="bad value for 'c': expected true or false, got None"):
        fields({"b": "x", "a": 1, "c": None}, _SPEC, optional=("c",))
    with pytest.raises(ValueError, match="^missing field 'a'$"):
        fields({"b": "x"}, _SPEC, optional=("c",))


def test_fields_refuses_a_key_the_table_does_not_name():
    # The unknown key is named before a required key is missed.
    with pytest.raises(ValueError, match="^unknown field 'd'; known fields: a, b, c$"):
        fields({"b": "x", "d": 1}, _SPEC)
    with pytest.raises(TypeError, match="expected a JSON object, got \\['b'\\]"):
        fields(["b"], _SPEC)


# --- regressions: each input that used to end in a traceback or a coercion ---


def _nine_commands(fixtures, path):
    """Each file-reading command, with ``path`` as the input under test."""
    study = fixtures / "study"
    return {
        "metrics": ["metrics", path.with_suffix(".vcp")],
        "egap": ["egap", "--transcript", path, "--ontology", study / "ontology.json",
                 "--code", study / "target.vcp"],
        "spearman": ["spearman", "--data", path],
        "kappa": ["kappa", "--data", path],
        "fit": ["fit", "--data", path],
        "score": ["score", "--records", path],
        "sdt": ["sdt", "--responses", path],
        "calibrate": ["calibrate", "--pairs", path],
        "egap --check-ontology": ["egap", "--check-ontology", path],
    }


@pytest.mark.parametrize(
    "command",
    ["metrics", "egap", "spearman", "kappa", "fit", "score", "sdt", "calibrate",
     "egap --check-ontology"],
)
def test_undecodable_input_is_one_error_line(fixtures, tmp_path, command):
    path = tmp_path / "input.dat"
    path.write_bytes(NOT_UTF8)
    path.with_suffix(".vcp").write_bytes(NOT_UTF8)
    argv = _nine_commands(fixtures, path)[command]
    code, err = _vcp(argv)
    assert code == 1
    assert err.startswith("vcp: error: ") and len(err.splitlines()) == 1
    assert "input." in err and "not UTF-8" in err


def _retention_with(fixtures, calibration):
    session = fixtures / "session"
    return _vcp(["retention", "--build", session / "build.log",
                 "--refactor", session / "refactor.log", "--calibration", calibration])


@pytest.mark.parametrize(
    "text",
    [
        "{bad",
        '{"alpha": 1.0, "beta": 0.0, "baseline_source": "x", "degenerate": "false"}',
        '{"alpha": NaN, "beta": 0.0, "baseline_source": "x"}',
        '{"alpha": 1.0, "beta": 1e999, "baseline_source": "x"}',
        '{"alpha": "1.0", "beta": 0.0, "baseline_source": "x"}',
    ],
    ids=["malformed", "string-degenerate", "nan-alpha", "overflow-beta", "string-alpha"],
)
def test_bad_calibration_is_exit_1(fixtures, tmp_path, text):
    path = tmp_path / "calibration.json"
    path.write_text(text)
    code, err = _retention_with(fixtures, path)
    assert code == 1
    assert err.startswith(f"vcp: error: {path}") and len(err.splitlines()) == 1


def test_good_calibration_still_scores(fixtures):
    code, _ = _retention_with(fixtures, fixtures / "study" / "calibration.json")
    assert code == 0


def test_cfg_with_infinite_exit_is_exit_1(tmp_path):
    data = {"nodes": [{"id": 0, "stmts": []}, {"id": 1, "stmts": []}],
            "edges": [{"from": 0, "to": 1, "label": "seq"}], "entry": 0, "exit": 1}
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(data).replace('"exit": 1', '"exit": Infinity'))
    code, err = _vcp(["metrics", path])
    assert code == 1
    assert err.startswith(f"vcp: error: {path}") and len(err.splitlines()) == 1


@pytest.mark.parametrize("exit_id", ["1.5", '"1"', "true"])
def test_cfg_ids_must_be_integers(tmp_path, exit_id):
    text = ('{"nodes": [{"id": 0, "stmts": []}, {"id": 1, "stmts": []}], '
            '"edges": [{"from": 0, "to": 1, "label": "seq"}], "entry": 0, '
            f'"exit": {exit_id}}}')
    path = tmp_path / "graph.json"
    path.write_text(text)
    code, err = _vcp(["metrics", path])
    assert code == 1 and "malformed control-flow graph" in err


@pytest.mark.parametrize("text", ["x = ²\n", "x = " + "(" * 5000 + "1" + ")" * 5000 + "\n"],
                         ids=["superscript-digit", "deep-nesting"])
def test_unparseable_source_is_exit_1(tmp_path, text):
    path = tmp_path / "unit.vcp"
    path.write_text(text, encoding="utf-8")
    code, err = _vcp(["metrics", path])
    assert code == 1 and len(_error_lines(err)) == 1


def test_a_hundred_nested_parentheses_parse(tmp_path):
    path = tmp_path / "unit.vcp"
    path.write_text("x = " + "(" * 100 + "1" + ")" * 100 + "\n", encoding="utf-8")
    code, err = _vcp(["metrics", path])
    assert code == 0 and not _error_lines(err)


def test_short_kappa_row_is_exit_1(tmp_path):
    path = tmp_path / "ratings.csv"
    path.write_text("a,b\nminor,minor\nmajor\n")
    code, err = _vcp(["kappa", "--data", path])
    assert code == 1 and f"{path}:3:" in err


# One valid document per input kind: a list of records for a JSONL file, a
# dict for a JSON file.
_VALID_DOCS = {
    "responses": [{"reviewer": "r", "item_id": "i", "ground_truth": "trap", "flagged": True}],
    "answer_key": [{"item_id": "i", "ground_truth": "trap"}],
    "session": [{"student": "s", "phase": "ai_build"},
                {"t": 0.0, "kind": "edit", "payload": "note"},
                {"final_unit": "unit.vcp"}],
    "calibration": {"alpha": 1.0, "beta": 0.0, "baseline_source": "x"},
    "ontology": {"unit": "u.vcp", "version": "v1",
                 "concepts": [{"concept_id": "c1", "proportion": 1.0, "phrases": ["loop"]}]},
    "cohort": [{"student": 0, "occasion": 0, "condition": "trad", "time": 0.0, "y": 1.0}],
    "cfg": {"nodes": [{"id": 0, "stmts": ["x = 1"]}, {"id": 1}],
            "edges": [{"from": 0, "to": 1, "label": "seq"}], "entry": 0, "exit": 1},
    "students": [{"student": "s", "m_csr": 0.8, "m_ht": 0.9, "e_gap": 0.1, "t_dev": 1.0}],
    "pairs": [{"build": "build.log", "refactor": "refactor.log"}],
    "config": {"seed": 1},
}
# Each text field and list field a reader takes: its kind and its place in the
# document (for JSONL, the record index first).
_FIELDS = {
    "response.reviewer": ("responses", (0, "reviewer")),
    "response.item_id": ("responses", (0, "item_id")),
    "response.ground_truth": ("responses", (0, "ground_truth")),
    "answer_key.item_id": ("answer_key", (0, "item_id")),
    "answer_key.ground_truth": ("answer_key", (0, "ground_truth")),
    "session.student": ("session", (0, "student")),
    "session.phase": ("session", (0, "phase")),
    "session.kind": ("session", (1, "kind")),
    "session.payload": ("session", (1, "payload")),
    "session.final_unit": ("session", (2, "final_unit")),
    "calibration.baseline_source": ("calibration", ("baseline_source",)),
    "ontology.unit": ("ontology", ("unit",)),
    "ontology.version": ("ontology", ("version",)),
    "ontology.concept_id": ("ontology", ("concepts", 0, "concept_id")),
    "ontology.phrase": ("ontology", ("concepts", 0, "phrases", 0)),
    "ontology.phrases": ("ontology", ("concepts", 0, "phrases")),
    "cohort.condition": ("cohort", (0, "condition")),
    "cfg.label": ("cfg", ("edges", 0, "label")),
    "cfg.stmts": ("cfg", ("nodes", 0, "stmts")),
}
_LIST_FIELDS = ("ontology.phrases", "cfg.stmts")
_CASES = [
    (field, value)
    for field in _FIELDS
    for value in [None, 7] + (["x = 1"] if field in _LIST_FIELDS else [])
    if (field, value) != ("session.payload", None)  # an event without a payload
]


def _field_argv(kind, path, fixtures):
    session = fixtures / "session"
    return {
        "responses": ["sdt", "--responses", path],
        # The key is read before the responses.
        "answer_key": ["sdt", "--responses", fixtures / "study" / "responses.jsonl",
                       "--answer-key", path],
        "session": ["retention", "--build", path, "--refactor", session / "refactor.log",
                    "--allow-uncalibrated"],
        "calibration": ["retention", "--build", session / "build.log", "--refactor",
                        session / "refactor.log", "--calibration", path],
        "ontology": ["egap", "--check-ontology", path],
        "cohort": ["fit", "--data", path],
        "cfg": ["metrics", path],
        "students": ["score", "--records", path],
        "pairs": ["calibrate", "--pairs", path],
        "config": ["metrics", fixtures / "ifelse.vcp", "--config", path],
    }[kind]


def _read_edited(fixtures, tmp_path, kind, place, edit):
    """Exit code, stderr and expected error prefix of reading the valid
    ``kind`` document after ``edit(container, key)`` at ``place``."""
    doc = copy.deepcopy(_VALID_DOCS[kind])
    target = doc
    for key in place[:-1]:
        target = target[key]
    edit(target, place[-1])
    path = tmp_path / ("input.json" if kind == "cfg" else "input.dat")
    if isinstance(doc, list):
        path.write_text("".join(json.dumps(rec) + "\n" for rec in doc))
        where = f"{path}:{place[0] + 1}: "
    else:
        path.write_text(json.dumps(doc))
        where = f"{path}: "
    (tmp_path / "unit.vcp").write_text("x = 1\n")  # a session log's final unit
    return *_vcp(_field_argv(kind, path, fixtures)), where


@pytest.mark.parametrize("field, value", _CASES, ids=[f"{f}={v!r}" for f, v in _CASES])
def test_text_and_list_fields_are_not_coerced(fixtures, tmp_path, field, value):
    kind, place = _FIELDS[field]
    code, err, where = _read_edited(
        fixtures, tmp_path, kind, place, lambda target, key: target.__setitem__(key, value)
    )
    assert code == 1
    assert err.startswith(f"vcp: error: {where}") and len(err.splitlines()) == 1
    assert ("expected an array" if field in _LIST_FIELDS else "expected a string") in err
    key = [k for k in place if isinstance(k, str)][-1]  # a phrase is judged as 'phrases'
    assert f"bad value for {key!r}: " in err


# One required field per reader, and the key its absence is reported under.
_MISSING = {
    "response": ("responses", (0, "flagged"), "flagged"),
    "answer_key": ("answer_key", (0, "ground_truth"), "ground_truth"),
    "session.header": ("session", (0, "student"), "student"),
    "session.event": ("session", (1, "kind"), "kind"),
    "session.trailer": ("session", (2, "final_unit"), "final_unit"),
    "calibration": ("calibration", ("alpha",), "alpha"),
    "ontology": ("ontology", ("version",), "version"),
    "ontology.concept": ("ontology", ("concepts", 0, "proportion"), "proportion"),
    "cohort": ("cohort", (0, "y"), "y"),
    "cfg": ("cfg", ("entry",), "entry"),
    "cfg.edge": ("cfg", ("edges", 0, "label"), "label"),
    "students": ("students", (0, "m_ht"), "m_ht"),
    "pairs": ("pairs", (0, "refactor"), "refactor"),
}


@pytest.mark.parametrize("reader", list(_MISSING))
def test_a_missing_field_is_named(fixtures, tmp_path, reader):
    kind, place, key = _MISSING[reader]
    code, err, where = _read_edited(fixtures, tmp_path, kind, place, dict.__delitem__)
    assert code == 1 and len(err.splitlines()) == 1
    assert err.startswith(f"vcp: error: {where}") and err.endswith(f"missing field {key!r}\n")


# One key per record shape that its table does not name, and the known fields.
_UNKNOWN = {
    "response": ("responses", (0, "flaged"), "flagged, ground_truth, item_id, reviewer"),
    "answer_key": ("answer_key", (0, "orgin"),
                   "defect_kind, ground_truth, item_id, mutation_site, origin"),
    "session.header": ("session", (0, "name"), "phase, student"),
    "session.event": ("session", (1, "paylod"), "kind, payload, t"),
    "session.trailer": ("session", (2, "t"), "final_unit"),
    "calibration": ("calibration", ("degenrate",), "alpha, baseline_source, beta, degenerate"),
    "ontology": ("ontology", ("concept",), "concepts, unit, version"),
    "ontology.concept": ("ontology", ("concepts", 0, "phrase"),
                         "concept_id, phrases, proportion"),
    "cohort": ("cohort", (0, "students"), "condition, occasion, student, time, y"),
    "cfg": ("cfg", ("entry_block",), "edges, entry, exit, nodes"),
    "cfg.node": ("cfg", ("nodes", 1, "stmt"), "id, stmts"),
    "cfg.edge": ("cfg", ("edges", 0, "src"), "from, label, to"),
    "students": ("students", (0, "conditon"), "condition, e_gap, m_csr, m_ht, student, t_dev"),
    "pairs": ("pairs", (0, "refractor"), "build, refactor"),
    "config": ("config", ("granularity",), ", ".join(sorted(RunConfig().to_dict()))),
}


@pytest.mark.parametrize("reader", list(_UNKNOWN))
def test_an_unknown_field_is_named(fixtures, tmp_path, reader):
    kind, place, known = _UNKNOWN[reader]
    code, err, where = _read_edited(
        fixtures, tmp_path, kind, place, lambda target, key: target.__setitem__(key, 1)
    )
    assert code == 1 and len(err.splitlines()) == 1
    assert err.startswith(f"vcp: error: {where}")
    assert err.endswith(f"unknown field {place[-1]!r}; known fields: {known}\n")


# A session log's header and trailer keys, misspelt: a record's position, not
# its keys, picks the table it is read by.
_MISSPELT = {
    "student": ((0, "student"), "studnt", "phase, student"),
    "phase": ((0, "phase"), "phse", "phase, student"),
    "final_unit": ((2, "final_unit"), "final_unt", "final_unit"),
}


@pytest.mark.parametrize("key", list(_MISSPELT))
def test_a_misspelt_session_log_key_lists_its_own_records_fields(fixtures, tmp_path, key):
    place, misspelt, known = _MISSPELT[key]
    code, err, where = _read_edited(
        fixtures, tmp_path, "session", place,
        lambda target, k: target.__setitem__(misspelt, target.pop(k)),
    )
    assert code == 1
    assert err == (
        f"vcp: error: {where}bad session-log record: unknown field {misspelt!r}; "
        f"known fields: {known}\n"
    )


def test_a_misspelt_condition_is_refused_not_pooled(fixtures, tmp_path):
    records = (fixtures / "zones" / "boundary_records.jsonl").read_text()
    path = tmp_path / "records.jsonl"
    path.write_text(records.replace('"condition"', '"conditon"'))
    code, err = _vcp(["score", "--records", path])
    assert code == 1
    assert err == (
        f"vcp: error: {path}:1: bad student record: unknown field 'conditon'; known fields: "
        "condition, e_gap, m_csr, m_ht, student, t_dev\n"
    )


def test_a_misspelt_calibration_key_is_refused(fixtures, tmp_path):
    calibration = json.loads((fixtures / "study" / "calibration.json").read_text())
    calibration["degenrate"] = calibration.pop("degenerate")
    path = tmp_path / "calibration.json"
    path.write_text(json.dumps(calibration))
    session = fixtures / "session"
    code, err = _vcp(["retention", "--build", session / "build.log",
                      "--refactor", session / "refactor.log", "--calibration", path])
    assert code == 1
    assert err == (
        f"vcp: error: {path}: malformed calibration: unknown field 'degenrate'; "
        "known fields: alpha, baseline_source, beta, degenerate\n"
    )


def test_a_present_null_payload_is_still_accepted(tmp_path):
    records = copy.deepcopy(_VALID_DOCS["session"])
    records[1]["payload"] = None
    path = tmp_path / "build.log"
    path.write_text("".join(json.dumps(rec) + "\n" for rec in records))
    (tmp_path / "unit.vcp").write_text("x = 1\n")
    [event] = read_session_log(path).events
    assert event.payload is None


# Container fields and a number given as a string: each refusal names its key.
_NAMED = {
    "concepts": ("ontology", ("concepts",), "abc", "expected an array, got 'abc'"),
    "nodes": ("cfg", ("nodes",), {"id": 0}, "expected an array, got {'id': 0}"),
    "build": ("pairs", (0, "build"), 7, "expected a string, got 7"),
    "m_ht": ("students", (0, "m_ht"), "0.5", "expected a finite number, got '0.5'"),
}


@pytest.mark.parametrize("key", list(_NAMED))
def test_a_bad_container_or_number_is_named(fixtures, tmp_path, key):
    kind, place, value, detail = _NAMED[key]
    code, err, where = _read_edited(
        fixtures, tmp_path, kind, place, lambda target, k: target.__setitem__(k, value)
    )
    assert code == 1 and len(err.splitlines()) == 1
    assert err.startswith(f"vcp: error: {where}")
    assert err.endswith(f"bad value for {key!r}: {detail}\n")


# --- fuzz: arbitrary bytes as every file input --------------------------------


def _cohort_bytes(tmp_path) -> bytes:
    path = tmp_path / "sample_cohort.jsonl"
    write_cohort(simulate_cohort(GeneratingParams(10.0, 1.0, 0.5, 1.0, 1.0), 4, 3, 0), path)
    return path.read_bytes()


def _cfg_bytes(fixtures, tmp_path) -> bytes:
    path = tmp_path / "sample_cfg.json"
    dump_cfg(build_cfg(parse((fixtures / "study" / "target.vcp").read_text())), path)
    return path.read_bytes()


def _pairs_bytes(fixtures) -> bytes:
    root = fixtures / "calibration"
    lines = []
    for line in (root / "pairs.jsonl").read_text().splitlines():
        rec = json.loads(line)
        lines.append(json.dumps({k: str(root / v) for k, v in rec.items()}))
    return ("\n".join(lines) + "\n").encode()


KINDS = ["vcp", "cfg", "responses", "answer_key", "session", "calibration", "pairs",
         "transcript", "ontology", "records", "cohort", "spearman", "kappa", "decay", "config"]


def _case(kind, fixtures, tmp_path):
    """(input file name, argv using it, a valid sample of its contents)."""
    study, session = fixtures / "study", fixtures / "session"
    f = tmp_path / {"vcp": "input.vcp", "cfg": "input.json"}.get(kind, "input.dat")
    build, refactor = session / "build.log", session / "refactor.log"
    cases = {
        "vcp": (["metrics", f], (study / "target.vcp").read_bytes()),
        "cfg": (["metrics", f], None),
        "responses": (["sdt", "--responses", f], (study / "responses.jsonl").read_bytes()),
        "answer_key": (["sdt", "--responses", study / "responses.jsonl", "--answer-key", f],
                       (study / "golden" / "corpus" / "answer_key.jsonl").read_bytes()),
        "session": (["retention", "--build", f, "--refactor", refactor,
                     "--allow-uncalibrated"], build.read_bytes()),
        "calibration": (["retention", "--build", build, "--refactor", refactor,
                         "--calibration", f], (study / "calibration.json").read_bytes()),
        "pairs": (["calibrate", "--pairs", f], None),
        "transcript": (["egap", "--transcript", f, "--ontology", study / "ontology.json",
                        "--code", study / "target.vcp"],
                       (study / "transcripts" / "s01.txt").read_bytes()),
        "ontology": (["egap", "--check-ontology", f], (study / "ontology.json").read_bytes()),
        "records": (["score", "--records", f],
                    (study / "golden" / "records.jsonl").read_bytes()),
        "cohort": (["fit", "--data", f], None),
        "spearman": (["spearman", "--data", f],
                     (fixtures / "spearman" / "quiz_scores.csv").read_bytes()),
        "kappa": (["kappa", "--data", f], b"a,b\nminor,minor\nmajor,minor\nnone,none\n"),
        "decay": (["retention", "--decay", f],
                  (fixtures / "decay" / "noisy_decay.csv").read_bytes()),
        "config": (["metrics", study / "target.vcp", "--config", f],
                   json.dumps(RunConfig().to_dict()).encode()),
    }
    argv, sample = cases[kind]
    if sample is None:
        sample = {"cfg": lambda: _cfg_bytes(fixtures, tmp_path),
                  "pairs": lambda: _pairs_bytes(fixtures),
                  "cohort": lambda: _cohort_bytes(tmp_path)}[kind]()
    return f, argv, sample


@st.composite
def _inputs(draw, sample: bytes):
    """Arbitrary bytes, arbitrary UTF-8 text, or the valid sample with one
    span replaced by arbitrary bytes."""
    kind = draw(st.sampled_from(["bytes", "text", "splice"]))
    if kind == "bytes":
        return draw(st.binary(max_size=200))
    if kind == "text":
        return draw(st.text(max_size=200)).encode("utf-8")
    i = draw(st.integers(0, len(sample)))
    j = draw(st.integers(i, min(len(sample), i + 16)))
    return sample[:i] + draw(st.binary(max_size=8)) + sample[j:]


@pytest.mark.parametrize("kind", KINDS)
def test_any_bytes_end_in_an_exit_code_never_a_traceback(fixtures, tmp_path, kind):
    path, argv, sample = _case(kind, fixtures, tmp_path)
    if kind == "session":
        shutil.copy(fixtures / "session" / "final_unit.vcp", tmp_path / "final_unit.vcp")

    @settings(max_examples=40, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_inputs(sample))
    def check(data):
        path.write_bytes(data)
        code, err = _vcp(argv)
        assert code in (0, 1, 2)
        assert len(_error_lines(err)) == (0 if code == 0 else 1)
        assert "Traceback" not in err

    check()


# JSON nested past the C decoder's recursion used to end in a RecursionError
# traceback, from about 1,000 levels on.  In a JSONL file the nested value is
# line 1 of an otherwise valid sample, so a session log keeps its trailer.
JSON_KINDS = {"cfg": False, "responses": True, "answer_key": True, "session": True,
              "calibration": False, "pairs": True, "ontology": False, "records": True,
              "cohort": True, "config": False}


@pytest.mark.parametrize("depth", [1_500, 100_000])
@pytest.mark.parametrize("kind", list(JSON_KINDS))
def test_deeply_nested_json_is_one_error_line(fixtures, tmp_path, kind, depth):
    path, argv, sample = _case(kind, fixtures, tmp_path)
    rest = sample.split(b"\n", 1)[1] if JSON_KINDS[kind] else b""
    path.write_bytes(b"[" * depth + b"]" * depth + b"\n" + rest)
    code, err = _vcp(argv)
    assert code == 1
    [line] = err.splitlines()
    assert line.startswith(f"vcp: error: {path}{':1:' if JSON_KINDS[kind] else ':'} ")
