"""Command-line behavior: reports, file sets, exit codes, determinism."""

import json
import subprocess
import sys
import textwrap

import pytest

from conftest import fresh_env
from vibecheck import retention
from vibecheck.cli import run
from vibecheck.codemetrics import metrics as metrics_module
from vibecheck.codemetrics.parser import parse
from vibecheck.errors import ValidationError
from vibecheck.io import read_jsonl
from vibecheck.reporting import write_jsonl
from vibecheck.retention import SessionEvent, SessionLog, write_session_log

VOL_ASSIGN = 11.60964047443681  # x = a + b: 5 tokens over a vocabulary of 5


def _json_out(capsys):
    captured = capsys.readouterr()
    return json.loads(captured.out), captured.err


# --- metrics ------------------------------------------------------------------


def test_metrics_stdout_report(fixtures, capsys):
    code = run(["metrics", str(fixtures / "halstead" / "assign.vcp")])
    assert code == 0
    report, err = _json_out(capsys)
    assert report["command"] == "metrics"
    assert report["config"]["seed"] == 0
    [record] = report["records"]
    assert record["unit"] == "assign.vcp"
    assert record["cc"] == 1
    assert record["volume_v"] == pytest.approx(VOL_ASSIGN, abs=1e-9)
    assert "unit" in err  # human summary goes to stderr


def test_metrics_out_directory_file_set(fixtures, tmp_path, capsys):
    out = tmp_path / "reports"
    code = run(["metrics", str(fixtures / "ifelse.vcp"), "--out", str(out)])
    assert code == 0
    assert (out / "metrics.json").is_file()
    assert (out / "metrics.jsonl").is_file()
    assert (out / "metrics.txt").is_file()
    report = json.loads((out / "metrics.json").read_text())
    assert report["records"][0]["volume_v"] == pytest.approx(30.0, abs=1e-12)
    summary = capsys.readouterr().out
    assert summary == (out / "metrics.txt").read_text()


def test_metrics_multiple_files_one_row_each(fixtures, capsys):
    code = run([
        "metrics",
        str(fixtures / "halstead" / "assign.vcp"),
        str(fixtures / "ifelse.vcp"),
    ])
    assert code == 0
    report, _ = _json_out(capsys)
    assert [r["unit"] for r in report["records"]] == ["assign.vcp", "ifelse.vcp"]


def test_metrics_of_crlf_origins_equal_those_of_the_lf_originals(fixtures, crlf_origins, capsys):
    reports = []
    for directory in (fixtures / "origins", crlf_origins):
        assert run(["metrics", *map(str, sorted(directory.glob("*.vcp")))]) == 0
        reports.append(_json_out(capsys)[0])
    assert reports[0] == reports[1]


def test_metrics_byte_identical_reports(fixtures, tmp_path):
    for name in ("a", "b"):
        assert run([
            "metrics", str(fixtures / "ifelse.vcp"), "--out", str(tmp_path / name)
        ]) == 0
    assert (tmp_path / "a" / "metrics.json").read_bytes() == (
        tmp_path / "b" / "metrics.json"
    ).read_bytes()


def test_metrics_missing_file_is_exit_1(tmp_path, capsys):
    assert run(["metrics", str(tmp_path / "absent.vcp")]) == 1
    assert "error" in capsys.readouterr().err


def test_syntax_error_is_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.vcp"
    bad.write_text("x = 1;\n")
    assert run(["metrics", str(bad)]) == 1
    assert "vcp: error" in capsys.readouterr().err


def test_long_integer_literal_is_exit_1(tmp_path, capsys):
    # 5,000 digits used to end in int()'s ValueError traceback.
    origins = tmp_path / "origins"
    origins.mkdir()
    (origins / "unit.vcp").write_text("x = " + "1" * 5000 + "\n")
    assert run(["metrics", str(origins / "unit.vcp")]) == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line == (
        f"vcp: error: {origins / 'unit.vcp'}: line 1, column 5: "
        "integer literal longer than 1000 digits"
    )
    assert run(["traps", "generate", "--origins", str(origins), "--out", str(tmp_path / "c")]) == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("vcp: error: ") and "integer literal longer than 1000 digits" in line


def test_longest_integer_literal_parses(tmp_path, capsys):
    unit = tmp_path / "unit.vcp"
    unit.write_text("x = " + "9" * 1000 + "\n")
    assert run(["metrics", str(unit)]) == 0


def test_long_else_if_chain_has_metrics(fixtures, tmp_path, capsys):
    # 600 links used to overflow the stack in cfg.build_cfg (two frames a link).
    unit = tmp_path / "chain.vcp"
    unit.write_text("if (a < b) { x = 1 }" + " else if (a < b) { x = 1 }" * 600 + "\n")
    assert run(["metrics", str(unit)]) == 0
    report, _ = _json_out(capsys)
    assert report["records"][0]["cc"] == 602
    study = fixtures / "study"
    assert run([
        "egap", "--transcript", str(study / "transcripts" / "s01.txt"),
        "--ontology", str(study / "ontology.json"), "--code", str(unit),
    ]) == 0
    report, _ = _json_out(capsys)
    assert report["h_c"] == 601.0


def test_5000_link_else_if_chain_through_metrics_and_traps(tmp_path, capsys):
    # 2,000 links used to exhaust the parser's stack (one frame a link).
    origins = tmp_path / "origins"
    origins.mkdir()
    unit = origins / "chain.vcp"
    unit.write_text("if (a < b) { x = 1 }" + " else if (a < b) { x = 1 }" * 5000 + "\n")
    assert run(["metrics", str(unit)]) == 0
    report, _ = _json_out(capsys)
    assert report["records"][0]["cc"] == 5002
    assert report["records"][0]["N1"] == 5001 * 3
    out = tmp_path / "corpus"
    assert run(["traps", "generate", "--origins", str(origins), "--fraction", "1",
                "--out", str(out)]) == 0
    [record] = [json.loads(line) for line in (out / "answer_key.jsonl").read_text().splitlines()]
    assert record["ground_truth"] == "trap"


# --- config plumbing ----------------------------------------------------------


def test_seed_flag_lands_in_report(fixtures, capsys):
    run(["metrics", str(fixtures / "ifelse.vcp"), "--seed", "7"])
    report, _ = _json_out(capsys)
    assert report["config"]["seed"] == 7


def test_config_file_and_flag_precedence(fixtures, tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"seed": 9, "k": 2.0}))
    run(["metrics", str(fixtures / "ifelse.vcp"), "--config", str(config)])
    report, _ = _json_out(capsys)
    assert report["config"]["seed"] == 9
    assert report["config"]["k"] == 2.0
    run([
        "metrics", str(fixtures / "ifelse.vcp"), "--config", str(config),
        "--seed", "4",
    ])
    report, _ = _json_out(capsys)
    assert report["config"]["seed"] == 4
    assert report["config"]["k"] == 2.0


def test_env_config_fallback(fixtures, tmp_path, capsys, monkeypatch):
    config = tmp_path / "env.json"
    config.write_text(json.dumps({"seed": 31}))
    monkeypatch.setenv("VCP_CONFIG", str(config))
    run(["metrics", str(fixtures / "ifelse.vcp")])
    report, _ = _json_out(capsys)
    assert report["config"]["seed"] == 31


def test_unknown_config_key_is_exit_1(fixtures, tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"granularity": 3}))
    code = run(["metrics", str(fixtures / "ifelse.vcp"), "--config", str(config)])
    assert code == 1
    assert "unknown field 'granularity'; known fields: " in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["traps", "generate", "--origins", "{fixtures}/origins", "--seed=-1", "--out", "{tmp}"],
        ["power", "--d", "0.8", "--replicates", "1000", "--seed=-1"],
        ["spearman", "--data", "{fixtures}/spearman/quiz_scores.csv",
         "--permutations", "1000", "--seed=-3"],
        ["simulate", "--beta0", "1", "--beta1", "0.4", "--beta2", "0.2", "--sigma-u", "0.5",
         "--sigma-e", "0.5", "--n-per-condition", "4", "--occasions", "2", "--seed=-2"],
        ["traps", "generate", "--origins", "{fixtures}/origins", "--config", "{tmp}/run.json",
         "--out", "{tmp}/corpus"],
    ],
    ids=["traps", "power", "spearman", "simulate", "config-file"],
)
def test_negative_seed_is_exit_1(fixtures, tmp_path, capsys, argv):
    # Each of these used to end in a traceback from numpy's SeedSequence.
    (tmp_path / "run.json").write_text(json.dumps({"seed": -5}))
    argv = [a.replace("{fixtures}", str(fixtures)).replace("{tmp}", str(tmp_path)) for a in argv]
    assert run(argv) == 1
    captured = capsys.readouterr()
    [line] = captured.err.splitlines()
    assert line.startswith("vcp: error: seed must be a non-negative integer, got -")
    assert captured.out == ""


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        run(["--version"])
    assert exc.value.code == 0


def test_unknown_subcommand_is_exit_1(capsys):
    assert run(["transmogrify"]) == 1
    assert "vcp: error" in capsys.readouterr().err


def test_usage_error_after_a_successful_call_is_one_error_line(fixtures, capsys):
    assert run(["metrics", str(fixtures / "ifelse.vcp")]) == 0
    capsys.readouterr()
    assert run(["metrics"]) == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("vcp: error:")
    assert run(["sdt", "--responses", str(fixtures / "study" / "responses.jsonl"),
                "--k", "x"]) == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("vcp: error:") and "'x'" in line


def test_back_to_back_subcommands_write_what_fresh_runs_write(repo_root, fixtures, tmp_path):
    # The argparse parser is built once per process; no option may carry over
    # from one call to the next.
    responses = str(fixtures / "study" / "responses.jsonl")
    steps = [
        ["traps", "generate", "--origins", str(fixtures / "origins"), "--seed", "3",
         "--fraction", "0.8", "--out", "traps"],
        ["metrics", str(fixtures / "ifelse.vcp"), "--seed", "5", "--out", "metrics"],
        ["sdt", "--responses", responses, "--k", "2", "--delta", "0.1", "--out", "sdt_flags"],
        ["sdt", "--responses", responses, "--out", "sdt"],
        ["traps", "generate", "--origins", str(fixtures / "origins"), "--out", "traps_default"],
    ]
    env = fresh_env()
    for step in steps:
        *argv, out = step
        assert run([*argv, str(tmp_path / "together" / out)]) == 0
        subprocess.run(
            [sys.executable, "-m", "vibecheck", *argv, str(tmp_path / "fresh" / out)],
            capture_output=True, env=env, check=True,
        )
    together = sorted(p.relative_to(tmp_path / "together")
                      for p in (tmp_path / "together").rglob("*") if p.is_file())
    fresh = sorted(p.relative_to(tmp_path / "fresh")
                   for p in (tmp_path / "fresh").rglob("*") if p.is_file())
    assert together == fresh and len(together) > 20
    for rel in together:
        assert (tmp_path / "together" / rel).read_bytes() == (tmp_path / "fresh" / rel).read_bytes(), rel


# --- sdt ----------------------------------------------------------------------


def test_sdt_scores_study_responses(fixtures, capsys):
    code = run(["sdt", "--responses", str(fixtures / "study" / "responses.jsonl")])
    assert code == 0
    report, _ = _json_out(capsys)
    records = report["records"]
    assert [r["reviewer"] for r in records] == sorted(r["reviewer"] for r in records)
    for rec in records:
        assert 0.0 < rec["m_ht"] < 1.0
        assert rec["k"] == 1.5
        assert rec["delta"] == 1.0


def test_sdt_flag_overrides(fixtures, capsys):
    code = run([
        "sdt", "--responses", str(fixtures / "study" / "responses.jsonl"),
        "--k", "2.5", "--delta", "0.5",
    ])
    assert code == 0
    report, _ = _json_out(capsys)
    assert report["config"]["k"] == 2.5
    assert all(rec["k"] == 2.5 and rec["delta"] == 0.5 for rec in report["records"])


def test_sdt_correction_none_on_extreme_rates_is_exit_2(fixtures, capsys):
    # The study corpus contains a reviewer with an extreme rate, which is
    # exactly the case the half-count correction exists for.
    code = run([
        "sdt", "--responses", str(fixtures / "study" / "responses.jsonl"),
        "--correction", "none",
    ])
    assert code == 2
    assert "computation error" in capsys.readouterr().err


def test_a_bad_ground_truth_names_its_file_and_line(tmp_path, capsys):
    path = tmp_path / "responses.jsonl"
    path.write_text(
        '{"reviewer": "a", "item_id": "i1", "ground_truth": "trap", "flagged": true}\n'
        '{"reviewer": "a", "item_id": "i2", "ground_truth": "clen", "flagged": false}\n'
    )
    assert run(["sdt", "--responses", str(path)]) == 1
    assert capsys.readouterr().err == (
        f"vcp: error: {path}:2: bad response record: "
        "ground_truth must be 'trap' or 'clean', got 'clen'\n"
    )


def _record_lines(*records: dict) -> str:
    return "".join(json.dumps(rec) + "\n" for rec in records)


_KEY = ({"item_id": "i1", "ground_truth": "trap"}, {"item_id": "i2", "ground_truth": "clean"})
_ANSWERS = tuple(
    {"reviewer": reviewer, "flagged": reviewer == "a", **item}
    for reviewer in ("a", "b") for item in _KEY
)


def _sdt_with_key(tmp_path, capsys, key, responses):
    key_path, responses_path = tmp_path / "answer_key.jsonl", tmp_path / "responses.jsonl"
    key_path.write_text(_record_lines(*key))
    responses_path.write_text(_record_lines(*responses))
    code = run(["sdt", "--responses", str(responses_path), "--answer-key", str(key_path)])
    return code, capsys.readouterr(), key_path, responses_path


def test_sdt_answer_key_that_agrees_leaves_the_report_unchanged(fixtures, capsys):
    responses = str(fixtures / "study" / "responses.jsonl")
    assert run(["sdt", "--responses", responses]) == 0
    plain = capsys.readouterr()
    key = str(fixtures / "study" / "golden" / "corpus" / "answer_key.jsonl")
    assert run(["sdt", "--responses", responses, "--answer-key", key]) == 0
    assert capsys.readouterr() == plain


def test_sdt_refuses_a_response_that_disagrees_with_the_answer_key(tmp_path, capsys):
    wrong = {**_ANSWERS[3], "ground_truth": "trap"}
    code, captured, key, responses = _sdt_with_key(tmp_path, capsys, _KEY, _ANSWERS[:3] + (wrong,))
    assert code == 1 and captured.out == ""
    assert captured.err == (
        f"vcp: error: {responses}:4: bad response record: ground_truth 'trap' of 'i2' "
        f"disagrees with the answer key {key}, which says 'clean'\n"
    )


def test_sdt_refuses_an_item_that_the_answer_key_lacks(tmp_path, capsys):
    extra = {**_ANSWERS[0], "item_id": "i3"}
    code, captured, key, responses = _sdt_with_key(tmp_path, capsys, _KEY, _ANSWERS + (extra,))
    assert code == 1
    assert captured.err == (
        f"vcp: error: {responses}:5: bad response record: "
        f"item_id 'i3' is not in the answer key {key}\n"
    )


def test_sdt_refuses_an_answer_key_item_that_no_reviewer_answered(tmp_path, capsys):
    key_items = _KEY + ({"item_id": "i3", "ground_truth": "trap"},
                        {"item_id": "i4", "ground_truth": "clean"})
    code, captured, key, responses = _sdt_with_key(tmp_path, capsys, key_items, _ANSWERS)
    assert code == 1
    assert captured.err == (
        f"vcp: error: {key}: no reviewer in {responses} answered 2 of its items, the first 'i3'\n"
    )


def test_sdt_refuses_an_answer_key_that_names_an_item_twice(tmp_path, capsys):
    code, captured, key, _ = _sdt_with_key(tmp_path, capsys, _KEY + _KEY[:1], _ANSWERS)
    assert code == 1
    assert captured.err == (
        f"vcp: error: {key}:3: bad answer-key record: duplicate item_id 'i1'\n"
    )


def test_sdt_refuses_an_answer_key_ground_truth_at_its_own_line(tmp_path, capsys):
    key = ({"item_id": "i1", "ground_truth": "bogus"},) + _KEY[1:]
    code, captured, key_path, _ = _sdt_with_key(tmp_path, capsys, key, _ANSWERS)
    assert code == 1
    assert captured.err == (
        f"vcp: error: {key_path}:1: bad answer-key record: "
        "ground_truth must be 'trap' or 'clean', got 'bogus'\n"
    )


def test_sdt_writes_jsonl(fixtures, tmp_path):
    out = tmp_path / "sdt"
    run(["sdt", "--responses", str(fixtures / "study" / "responses.jsonl"),
         "--out", str(out)])
    lines = (out / "sdt.jsonl").read_text().splitlines()
    report = json.loads((out / "sdt.json").read_text())
    assert len(lines) == len(report["records"])


# --- traps generate -----------------------------------------------------------


def test_traps_generate_writes_corpus(fixtures, tmp_path, capsys):
    out = tmp_path / "corpus"
    code = run([
        "traps", "generate", "--origins", str(fixtures / "origins"),
        "--out", str(out), "--seed", "2026",
    ])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["n_origins"] == 12
    assert report["n_items"] == 12
    assert report["requested_traps"] == 6
    assert (out / "answer_key.jsonl").is_file()
    assert (out / "manifest.json").is_file()
    items = sorted((out / "items").glob("*.vcp"))
    assert len(items) == 12
    assert "corpus: 12 items" in capsys.readouterr().out


def test_traps_report_and_manifest_share_the_corpus_counts(fixtures, tmp_path, capsys):
    out = tmp_path / "corpus"
    assert run(["traps", "generate", "--origins", str(fixtures / "study" / "origins"),
                "--out", str(out), "--seed", "5", "--fraction", "0.7"]) == 0
    report = json.loads((out / "report.json").read_text())
    manifest = json.loads((out / "manifest.json").read_text())
    counts = {"n_items": 12, "requested_traps": 8, "actual_traps": 8, "shortfall": 0}
    assert {k: report[k] for k in counts} == {k: manifest[k] for k in counts} == counts
    assert capsys.readouterr().out.startswith("corpus: 12 items (8 traps, 4 clean), shortfall 0,")


def test_traps_generate_deterministic(fixtures, tmp_path):
    for name in ("one", "two"):
        run([
            "traps", "generate", "--origins", str(fixtures / "origins"),
            "--out", str(tmp_path / name), "--seed", "5",
        ])
    assert (tmp_path / "one" / "answer_key.jsonl").read_bytes() == (
        tmp_path / "two" / "answer_key.jsonl"
    ).read_bytes()


def test_traps_generate_fraction_flag(fixtures, tmp_path):
    out = tmp_path / "corpus"
    run([
        "traps", "generate", "--origins", str(fixtures / "origins"),
        "--out", str(out), "--fraction", "0.0",
    ])
    report = json.loads((out / "report.json").read_text())
    assert report["actual_traps"] == 0


def test_traps_generate_requires_out(fixtures, capsys):
    assert run(["traps", "generate", "--origins", str(fixtures / "origins")]) == 1
    assert "--out" in capsys.readouterr().err


def test_traps_generate_empty_origins_is_exit_1(tmp_path, capsys):
    assert run([
        "traps", "generate", "--origins", str(tmp_path), "--out",
        str(tmp_path / "corpus"),
    ]) == 1
    assert "no .vcp origins" in capsys.readouterr().err


# --- retention and calibrate --------------------------------------------------


def test_retention_decay_fit(fixtures, tmp_path, capsys):
    out = tmp_path / "decay"
    code = run([
        "retention", "--decay", str(fixtures / "decay" / "noisy_decay.csv"),
        "--out", str(out),
    ])
    assert code == 0
    report = json.loads((out / "decay_fit.json").read_text())
    assert report["lam"] == pytest.approx(0.2, abs=0.05)
    curve = (out / "decay_curve.tsv").read_text().splitlines()
    assert curve[0] == "t\ts\tfitted"
    assert len(curve) == 13  # header + 12 observations


def test_retention_needs_calibration_by_default(fixtures, capsys):
    logs = fixtures / "study" / "logs"
    code = run([
        "retention", "--build", str(logs / "s01_build.log"),
        "--refactor", str(logs / "s01_refactor.log"),
    ])
    assert code == 1
    assert "calibration" in capsys.readouterr().err


def test_retention_with_stored_calibration(fixtures, capsys):
    logs = fixtures / "study" / "logs"
    code = run([
        "retention", "--build", str(logs / "s01_build.log"),
        "--refactor", str(logs / "s01_refactor.log"),
        "--calibration", str(fixtures / "study" / "calibration.json"),
    ])
    assert code == 0
    report, _ = _json_out(capsys)
    assert report["student"] == "s01"
    assert report["m_csr"] > 0.0


def test_retention_allow_uncalibrated(fixtures, capsys):
    logs = fixtures / "study" / "logs"
    code = run([
        "retention", "--build", str(logs / "s01_build.log"),
        "--refactor", str(logs / "s01_refactor.log"), "--allow-uncalibrated",
    ])
    assert code == 0


def test_degenerate_weight_is_one_warning_line_and_only_on_success(fixtures, tmp_path, capsys):
    # Both final units have omega = 0: two warnings with one message.
    session = fixtures / "session"
    argv = ["retention", "--build", str(session / "build.log"),
            "--refactor", str(session / "refactor.log"), "--allow-uncalibrated"]
    assert run([*argv, "--out", str(tmp_path / "retention")]) == 0
    assert capsys.readouterr().err == (
        "vcp: warning: complexity weight is exactly 0 (cc = 1 and no volume term); "
        "retention ratios built on it collapse to 0\n"
    )
    # The report cannot be written after the weights warned: one error line.
    (tmp_path / "blocked" / "retention.json").mkdir(parents=True)
    assert run([*argv, "--out", str(tmp_path / "blocked")]) == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("vcp: error: ") and "retention.json" in line


def test_retention_rejects_non_finite_idle_gap(fixtures, tmp_path, capsys):
    logs = fixtures / "study" / "logs"
    out = tmp_path / "retention"
    code = run([
        "retention", "--build", str(logs / "s01_build.log"),
        "--refactor", str(logs / "s01_refactor.log"), "--allow-uncalibrated",
        "--idle-gap", "nan", "--out", str(out),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("vcp: error: argument --idle-gap: expected a finite number")
    assert not (out / "retention.json").exists()


def test_non_finite_config_value_never_reaches_a_report(fixtures, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text('{"idle_gap": NaN}')
    logs = fixtures / "study" / "logs"
    out = tmp_path / "retention"
    code = run([
        "retention", "--build", str(logs / "s01_build.log"),
        "--refactor", str(logs / "s01_refactor.log"), "--allow-uncalibrated",
        "--config", str(config), "--out", str(out),
    ])
    # NaN is refused when the config file is read, before any scoring.
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"vcp: error: {config}") and len(err.splitlines()) == 1
    assert not (out / "retention.json").exists()


@pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
@pytest.mark.parametrize(
    "command, header, flag",
    [(["spearman"], "x,y", "--data"), (["retention"], "t,s", "--decay")],
    ids=["spearman", "retention"],
)
def test_non_finite_csv_cell_is_exit_1(tmp_path, capsys, command, header, flag, cell):
    path = tmp_path / "data.csv"
    rows = [header, "1,0.9", "2,0.7", f"3,{cell}", "4,0.4", "5,0.3"]
    path.write_text("\n".join(rows) + "\n")
    out = tmp_path / "out"
    assert run([*command, flag, str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"vcp: error: {path}:4: ")
    assert "not finite" in err and len(err.splitlines()) == 1
    assert not any(out.iterdir())


@pytest.mark.parametrize(
    "rows, prefix",
    [
        # The fitted curve s0 * exp(-lam * t) passes the float range at t = 1.
        ("0,1e-300\n1,1e300", "numeric overflow"),
        # Distinct times that a float cannot tell apart at their magnitude.
        ("1e12,1\n1000000000000.0001,0.5",
         "decay fit cannot tell the times apart at their magnitude: "
         "t spans [1000000000000.0, 1000000000000.0001]"),
        ("0,1\n1e-320,2",
         "decay fit cannot tell the times apart at their magnitude: t spans [0.0, 1e-320]"),
        # t squared passes the float range.
        ("-1e308,1\n1e308,2", "decay fit overflows a float: t spans [-1e+308, 1e+308]"),
    ],
    ids=["curve", "close-times", "subnormal-spread", "t-squared"],
)
def test_decay_fit_that_overflows_is_exit_2(tmp_path, capsys, rows, prefix):
    path = tmp_path / "decay.csv"
    path.write_text(f"t,s\n{rows}\n")
    assert run(["retention", "--decay", str(path)]) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith(f"vcp: computation error: {prefix}")


@pytest.mark.parametrize(
    "build_times, refactor_times, message, build_text",
    [((), (86400.0,), "both sessions need at least one event", "x = a + b\n"),
     ((0.0, 60.0), (30.0,), "refactor session starts before the build session ends",
      "x = a + b\n"),
     # A build that produced no code has velocity 0: no ratio can be taken to it.
     ((0.0, 60.0), (86400.0,), "build velocity must be positive, got 0.0", "// nothing yet\n")],
)
def test_retention_and_calibrate_refuse_a_bad_pair_alike(
    tmp_path, capsys, build_times, refactor_times, message, build_text
):
    logs = {"build": ("ai_build", build_times, build_text),
            "refactor": ("cold_refactor", refactor_times, "x = a + b\n"),
            "sound": ("cold_refactor", (86400.0, 86460.0), "x = a + b\n")}
    for name, (phase, times, text) in logs.items():
        events = tuple(SessionEvent(t, "edit") for t in times)
        unit = parse(text, name=f"{name}.vcp")
        write_session_log(SessionLog("e", phase, events, unit), tmp_path / f"{name}.log",
                          f"{name}.vcp")
    # Fitted with the first, the sound pair makes the design inconsistent (exit 2).
    pairs = tmp_path / "pairs.jsonl"
    write_jsonl(pairs, [{"build": "build.log", "refactor": "refactor.log"},
                        {"build": "build.log", "refactor": "sound.log"}])
    assert run(["retention", "--build", str(tmp_path / "build.log"),
                "--refactor", str(tmp_path / "refactor.log"), "--allow-uncalibrated"]) == 1
    assert capsys.readouterr().err == f"vcp: error: {message}\n"
    assert run(["calibrate", "--pairs", str(pairs)]) == 1
    assert capsys.readouterr().err == f"vcp: error: {message}\n"


def test_calibrate_reproduces_stored_weights(fixtures, tmp_path):
    out = tmp_path / "cal"
    code = run([
        "calibrate", "--pairs", str(fixtures / "calibration" / "pairs.jsonl"),
        "--out", str(out),
    ])
    assert code == 0
    fresh = json.loads((out / "calibration.json").read_text())
    stored = json.loads((fixtures / "calibration" / "calibration.json").read_text())
    assert fresh["alpha"] == pytest.approx(stored["alpha"], abs=1e-9)
    assert fresh["beta"] == pytest.approx(stored["beta"], abs=1e-9)
    report = json.loads((out / "calibrate.json").read_text())
    assert abs(report["baseline_mean_m_csr"] - 1.0) <= 0.05


def test_calibrate_honours_the_configured_velocity_unit(tmp_path):
    # Build and refactor units differ, so lines and volume give different ratios;
    # two complexity classes make each fit exact, so both pass the baseline.
    units = {"assign": "x = a + b\n", "ifelse": "if (a < b) {\n  x = 1\n} else {\n  x = 2\n}\n"}
    experts = {"e1": ("assign", "ifelse"), "e2": ("ifelse", "assign")}
    manifest = []
    for student, (built, rebuilt) in experts.items():
        for phase, name, times in (("ai_build", built, (0.0, 100.0)),
                                   ("cold_refactor", rebuilt, (86400.0, 86700.0))):
            unit = parse(units[name], name=f"{name}.vcp")
            events = tuple(SessionEvent(t, "edit") for t in times)
            write_session_log(SessionLog(student, phase, events, unit),
                              tmp_path / f"{student}_{phase}.log", f"{name}.vcp")
        manifest.append({"build": f"{student}_ai_build.log",
                         "refactor": f"{student}_cold_refactor.log"})
    write_jsonl(tmp_path / "pairs.jsonl", manifest)
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"velocity_unit": "loc"}))
    out = tmp_path / "out"
    assert run(["calibrate", "--pairs", str(tmp_path / "pairs.jsonl"),
                "--config", str(config), "--out", str(out)]) == 0
    report = json.loads((out / "calibrate.json").read_text())
    pairs = retention.read_pairs(tmp_path / "pairs.jsonl")
    loc, loc_mean = retention.calibrate_omega(pairs, velocity_unit="loc")
    assert (report["alpha"], report["beta"]) == (loc.alpha, loc.beta)
    assert report["baseline_mean_m_csr"] == loc_mean
    volume, _ = retention.calibrate_omega(pairs)
    assert (report["alpha"], report["beta"]) != (volume.alpha, volume.beta)


def test_calibrate_and_retention_measure_each_unit_once(fixtures, monkeypatch):
    # Calibrate measures each pair once: two velocities (a Halstead count each)
    # and the refactor target's metrics (a graph and a count).  Retention adds
    # the build target's metrics for its build-side weight.
    graphs, counts = [], []
    build_cfg, halstead = metrics_module.build_cfg, metrics_module.halstead
    monkeypatch.setattr(metrics_module, "build_cfg", lambda u: graphs.append(u) or build_cfg(u))
    monkeypatch.setattr(metrics_module, "halstead", lambda u: counts.append(u) or halstead(u))
    monkeypatch.setattr(retention, "halstead", lambda u: counts.append(u) or halstead(u))
    assert run(["calibrate", "--pairs", str(fixtures / "calibration" / "pairs.jsonl")]) == 0
    assert (len(graphs), len(counts)) == (6, 18)
    graphs.clear()
    counts.clear()
    logs = fixtures / "study" / "logs"
    assert run(["retention", "--build", str(logs / "s01_build.log"),
                "--refactor", str(logs / "s01_refactor.log"),
                "--calibration", str(fixtures / "study" / "calibration.json")]) == 0
    assert (len(graphs), len(counts)) == (2, 4)


# --- egap ---------------------------------------------------------------------


def test_egap_scores_transcript(fixtures, capsys):
    study = fixtures / "study"
    code = run([
        "egap", "--transcript", str(study / "transcripts" / "s01.txt"),
        "--ontology", str(study / "ontology.json"),
        "--code", str(study / "target.vcp"),
    ])
    assert code == 0
    report, _ = _json_out(capsys)
    assert 0.0 <= report["e_gap"] <= 1.0
    assert report["h_c"] == 6.0
    assert report["degenerate"] is False


def test_egap_check_ontology(fixtures, capsys):
    code = run(["egap", "--check-ontology", str(fixtures / "study" / "ontology.json")])
    assert code == 0
    assert "ontology OK" in capsys.readouterr().out


def test_egap_missing_inputs_is_exit_1(fixtures, capsys):
    assert run(["egap", "--transcript", "x.txt"]) == 1
    assert "egap needs" in capsys.readouterr().err


# --- score --------------------------------------------------------------------


def test_score_zones_and_utilities(fixtures, tmp_path, capsys):
    out = tmp_path / "score"
    code = run([
        "score", "--records", str(fixtures / "zones" / "boundary_records.jsonl"),
        "--gamma", "0.05", "--out", str(out),
    ])
    assert code == 0
    rows = [json.loads(l) for l in (out / "score.jsonl").read_text().splitlines()]
    zones = {r["student"]: r["zone"] for r in rows}
    assert zones == {
        "z1": "foundational", "z2": "professional", "z3": "architectural",
        "z4": "architectural", "z5": "foundational", "z6": "professional",
        "z7": "architectural",
    }
    assert [r["flags"] for r in rows if r["student"] == "z3"] == [["foundational-review"]]
    report = json.loads((out / "score_report.json").read_text())
    assert report["summary"]["break_even_hours"] is not None
    conditions = [r["condition"] for r in report["summary"]["by_condition"]]
    assert conditions == ["trad", "vibe"]
    tsv = (out / "cohort_summary.tsv").read_text().splitlines()
    assert tsv[0].startswith("condition\tn\t")
    assert len(tsv) == 3


def test_score_no_gamma_drops_break_even(fixtures, capsys):
    code = run([
        "score", "--records", str(fixtures / "zones" / "boundary_records.jsonl"),
        "--gamma", "0.05", "--no-gamma",
    ])
    assert code == 0
    report, _ = _json_out(capsys)
    assert report["config"]["gamma"] == 0.0
    assert report["summary"]["break_even_hours"] is None


def test_score_custom_weights(fixtures, capsys):
    code = run([
        "score", "--records", str(fixtures / "zones" / "boundary_records.jsonl"),
        "--weights", "0.5,0.3,0.2",
    ])
    assert code == 0
    report, _ = _json_out(capsys)
    assert report["config"]["w1"] == 0.5
    record = next(r for r in report["records"] if r["student"] == "z1")
    expected = 0.5 * 0.8 + 0.3 * 0.9 + 0.2 * (1.0 - 0.1)
    assert record["utility"] == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("weights", ["0.5,0.5", "a,b,c", "1,1,1"])
def test_score_bad_weights_is_exit_1(fixtures, weights, capsys):
    assert run([
        "score", "--records", str(fixtures / "zones" / "boundary_records.jsonl"),
        "--weights", weights,
    ]) == 1


def test_score_bad_record_line_is_exit_1(tmp_path, capsys):
    path = tmp_path / "records.jsonl"
    path.write_text('{"student": "s", "m_csr": 1.0}\n')
    assert run(["score", "--records", str(path)]) == 1
    assert ":1:" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["student", "condition"])
@pytest.mark.parametrize("value", [None, 3])
def test_score_non_string_student_or_condition_is_exit_1(tmp_path, capsys, field, value):
    record = {"student": "s1", "condition": "vibe", "m_csr": 0.8, "m_ht": 0.9, "e_gap": 0.1,
              "t_dev": 1.0}
    path = tmp_path / "records.jsonl"
    path.write_text(json.dumps(record) + "\n" + json.dumps({**record, field: value}) + "\n")
    assert run(["score", "--records", str(path)]) == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith(
        f"vcp: error: {path}:2: bad student record: bad value for '{field}': expected a string"
    )


@pytest.mark.parametrize("separator", ["\x85", "\u2028", "\u2029"])
def test_score_reads_back_a_student_named_with_a_line_separator(tmp_path, capsys, separator):
    # write_jsonl writes the separator raw, and a JSONL line ends at "\n" only.
    students = [f"s{i}{separator}x" for i in range(4)]
    path = tmp_path / "records.jsonl"
    write_jsonl(path, [
        {"student": student, "condition": ("vibe", "trad")[i % 2], "m_csr": 0.8,
         "m_ht": 0.9, "e_gap": 0.1, "t_dev": 1.0}
        for i, student in enumerate(students)
    ])
    out = tmp_path / "score"
    assert run(["score", "--records", str(path), "--out", str(out)]) == 0
    scored = read_jsonl(out / "score.jsonl", lambda rec: rec["student"], "score record")
    assert sorted(scored) == students


# --- power / simulate / fit ---------------------------------------------------


def test_power_report_and_curve(tmp_path, capsys):
    out = tmp_path / "power"
    code = run([
        "power", "--d", "2.0", "--replicates", "2000", "--attrition", "0.2",
        "--stated-target", "90", "--out", str(out),
    ])
    assert code == 0
    report = json.loads((out / "power.json").read_text())
    assert 2 <= report["n_required"] <= 10
    assert report["attrition"]["raw_target"] >= report["n_required"]
    assert report["stated_exceeds_formula"] is True
    curve = (out / "power_curve.tsv").read_text().splitlines()
    assert curve[0] == "n\tmc_power"
    assert len(curve) >= 2


def test_power_stated_target_without_attrition_is_exit_1(capsys):
    # A stated target is compared with the attrition target; alone it was dropped.
    assert run(["power", "--d", "2.0", "--replicates", "1000", "--stated-target", "100"]) == 1
    captured = capsys.readouterr()
    [line] = captured.err.splitlines()
    assert line == "vcp: error: --stated-target needs --attrition"
    assert captured.out == ""


def test_power_paired_design(capsys):
    code = run(["power", "--d", "2.0", "--design", "paired", "--replicates", "2000"])
    assert code == 0
    report, _ = _json_out(capsys)
    assert report["design"] == "paired"
    assert report["attrition"] is None


def test_power_bad_effect_size_is_exit_1(capsys):
    assert run(["power", "--d", "-1.0"]) == 1


def test_power_past_the_search_limit_is_exit_2(tmp_path, capsys):
    # The analytic n for d = 0.0001 is 1,569,775,947 per group.
    out = tmp_path / "power"
    assert run(["power", "--d", "0.0001", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    [line] = captured.err.splitlines()
    assert line.startswith("vcp: computation error: ") and "1569775947" in line
    assert captured.out == ""
    assert not any(out.iterdir())


@pytest.mark.parametrize("d, n", [("1e-200", "1.57e+401"), ("5e-324", "6.43e+647"),
                                  ("1e-150", "1.57e+301")])
def test_power_with_a_tiny_d_gets_the_search_limit_message(capsys, d, n):
    # Squaring z / d used to overflow (the first two) or print all 302 digits of n.
    assert run(["power", "--d", d]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"vcp: computation error: the analytic n for d = {float(d)} is {n}, past the "
        "search limit of 1000000"
    ]


def test_power_summary_writes_a_huge_effect_size_compactly(capsys):
    # At four decimals, d = 1e300 filled a cell 306 characters wide.
    assert run(["power", "--d", "1e300", "--replicates", "1000"]) == 0
    header, _, row = capsys.readouterr().err.splitlines()
    cell = row[header.index("effect_size_d"):header.index("n_required")].rstrip()
    assert cell == "1.0000e+300"


def test_power_too_many_replicates_is_exit_1(capsys):
    # 10^12 replicates used to ask numpy for 7.28 TiB and die with a traceback.
    assert run(["power", "--d", "0.5", "--replicates", "1000000000000"]) == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("vcp: error: ") and "at most 10000000 replicates" in line


def test_power_string_cohort_rounding_is_exit_1(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text('{"cohort_rounding": "false"}')
    code = run([
        "power", "--d", "2.0", "--replicates", "2000", "--attrition", "0.1",
        "--config", str(config),
    ])
    assert code == 1
    assert "bad value for 'cohort_rounding'" in capsys.readouterr().err


def test_simulate_then_fit_round_trip(tmp_path, capsys):
    out = tmp_path / "cohort"
    code = run([
        "simulate", "--beta0", "1.0", "--beta1", "0.4", "--beta2", "0.2",
        "--sigma-u", "0.5", "--sigma-e", "0.5",
        "--n-per-condition", "20", "--occasions", "4",
        "--seed", "7", "--out", str(out),
    ])
    assert code == 0
    cohort = out / "cohort.jsonl"
    assert len(cohort.read_text().splitlines()) == 160
    capsys.readouterr()
    code = run(["fit", "--data", str(cohort)])
    assert code == 0
    report, _ = _json_out(capsys)
    assert report["n_obs"] == 160
    assert abs(report["beta1"] - 0.4) < 3.5 * report["se_beta1"]


def test_fit_byte_identical_reports(tmp_path):
    cohort = tmp_path / "cohort"
    assert run([
        "simulate", "--beta0", "1.0", "--beta1", "0.4", "--beta2", "0.2",
        "--sigma-u", "0.5", "--sigma-e", "0.5",
        "--n-per-condition", "20", "--occasions", "4", "--out", str(cohort),
    ]) == 0
    for name in ("a", "b"):
        assert run([
            "fit", "--data", str(cohort / "cohort.jsonl"), "--out", str(tmp_path / name)
        ]) == 0
    for report in (tmp_path / "a").iterdir():
        assert report.read_bytes() == (tmp_path / "b" / report.name).read_bytes()


def test_fit_of_an_exact_cohort_is_exit_2(tmp_path, capsys):
    # Zero residual variance used to end in a math domain error traceback.
    cohort = tmp_path / "cohort"
    assert run([
        "simulate", "--beta0", "1", "--beta1", "0", "--beta2", "0",
        "--sigma-u", "0", "--sigma-e", "0",
        "--n-per-condition", "3", "--occasions", "2", "--out", str(cohort),
    ]) == 0
    capsys.readouterr()
    assert run(["fit", "--data", str(cohort / "cohort.jsonl")]) == 2
    captured = capsys.readouterr()
    [line] = captured.err.splitlines()
    assert line.startswith("vcp: computation error: residual variance is zero")
    assert captured.out == ""


def test_fit_of_an_overflowing_outcome_is_one_error_line(repo_root, tmp_path):
    # The sums of squares used to print numpy overflow warnings first.
    cohort = tmp_path / "cohort"
    assert run([
        "simulate", "--beta0", "1", "--beta1", "0.4", "--beta2", "0.2",
        "--sigma-u", "0.5", "--sigma-e", "0.5",
        "--n-per-condition", "4", "--occasions", "3", "--out", str(cohort),
    ]) == 0
    records = [json.loads(line) for line in (cohort / "cohort.jsonl").read_text().splitlines()]
    scaled = tmp_path / "scaled.jsonl"
    scaled.write_text("".join(json.dumps({**r, "y": r["y"] * 1e200}) + "\n" for r in records))
    env = fresh_env()
    proc = subprocess.run(
        [sys.executable, "-m", "vibecheck", "fit", "--data", str(scaled)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 2
    [line] = proc.stderr.splitlines()
    assert line.startswith("vcp: computation error: the cohort's sums of squares overflow")
    assert "y spans [" in line
    assert proc.stdout == ""


@pytest.mark.parametrize(
    "shape", [("1000000000", "1000"), ("3", "1000000000000")], ids=["students", "occasions"]
)
def test_simulate_too_large_to_draw_is_exit_1(repo_root, shape):
    # Both runs used to end in a numpy _ArrayMemoryError traceback.
    code = """
        import contextlib, io, sys, tracemalloc
        import vibecheck.stats.mixed
        from vibecheck.cli import run
        tracemalloc.start()
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            exit_code = run(["simulate", "--beta0", "1", "--beta1", "0.4", "--beta2", "0.2",
                             "--sigma-u", "0.5", "--sigma-e", "0.5",
                             "--n-per-condition", sys.argv[1], "--occasions", sys.argv[2]])
        peak = tracemalloc.get_traced_memory()[1]
        print(exit_code, "numpy" in sys.modules, peak < 1_000_000)
        print(err.getvalue(), end="")
    """
    env = fresh_env()
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code), *shape],
        capture_output=True, text=True, env=env, check=True,
    )
    verdict, *lines = proc.stdout.splitlines()
    assert verdict == "1 False True"
    [line] = lines
    assert line.startswith("vcp: error: a simulated cohort holds at most 1000000 observations")


def test_simulate_without_out_embeds_records(capsys):
    code = run([
        "simulate", "--beta0", "0.0", "--beta1", "0.1", "--beta2", "0.0",
        "--sigma-u", "0.1", "--sigma-e", "0.1",
        "--n-per-condition", "2", "--occasions", "2",
    ])
    assert code == 0
    report, _ = _json_out(capsys)
    assert len(report["records"]) == 8


# --- spearman / kappa ---------------------------------------------------------


def test_spearman_quiz_fixture(fixtures, capsys):
    code = run(["spearman", "--data", str(fixtures / "spearman" / "quiz_scores.csv")])
    assert code == 0
    report, _ = _json_out(capsys)
    assert report["rho"] == pytest.approx(0.5804511278, abs=1e-9)
    assert 0.006 <= report["p_two_sided"] <= 0.010
    assert report["p_permutation"] is None


def test_spearman_with_permutations(fixtures, capsys):
    code = run([
        "spearman", "--data", str(fixtures / "spearman" / "quiz_scores.csv"),
        "--permutations", "20000", "--seed", "3",
    ])
    assert code == 0
    report, _ = _json_out(capsys)
    assert report["p_permutation"] == pytest.approx(report["p_two_sided"], abs=0.005)


def test_spearman_too_many_permutations_is_exit_1(fixtures, capsys):
    # 10^12 permutations used to run until the process was killed.
    assert run([
        "spearman", "--data", str(fixtures / "spearman" / "quiz_scores.csv"),
        "--permutations", "1000000000000", "--seed", "1",
    ]) == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("vcp: error: ") and "at most 10000000 permutations" in line


def test_spearman_constant_input_is_exit_2(tmp_path, capsys):
    path = tmp_path / "flat.csv"
    path.write_text("x,y\n1,5\n2,5\n3,5\n4,5\n")
    assert run(["spearman", "--data", str(path)]) == 2
    assert "computation error" in capsys.readouterr().err


def test_spearman_missing_columns_is_exit_1(tmp_path, capsys):
    path = tmp_path / "wrong.csv"
    path.write_text("a,b\n1,2\n")
    assert run(["spearman", "--data", str(path)]) == 1
    assert "expected CSV columns" in capsys.readouterr().err


def test_kappa_csv(tmp_path, capsys):
    path = tmp_path / "ratings.csv"
    rows = ["a,b"]
    rows += ["trap,trap"] * 45 + ["trap,clean"] * 5
    rows += ["clean,trap"] * 5 + ["clean,clean"] * 45
    path.write_text("\n".join(rows) + "\n")
    assert run(["kappa", "--data", str(path)]) == 0
    report, _ = _json_out(capsys)
    assert report["kappa"] == pytest.approx(0.8, abs=1e-12)
    assert report["n"] == 100


def test_kappa_does_not_depend_on_string_hashing(repo_root, tmp_path):
    # Summing chance agreement over a set used to move the last digit with
    # PYTHONHASHSEED: -0.4285714285714287 or -0.4285714285714285.  math.fsum
    # rounds it exactly, to 0.44, in any order.
    path = tmp_path / "ratings.csv"
    path.write_text("a,b\nnone,minor\nminor,none\nminor,minor\nmajor,minor\nminor,major\n")
    env = fresh_env()
    outputs = set()
    for hash_seed in ("0", "1", "2", "3", "5", "7"):
        env["PYTHONHASHSEED"] = hash_seed
        proc = subprocess.run(
            [sys.executable, "-m", "vibecheck", "kappa", "--data", str(path)],
            capture_output=True, env=env, check=True,
        )
        outputs.add(proc.stdout)
    [output] = outputs
    assert json.loads(output)["kappa"] == -0.4285714285714285


# --- every refused input file is named ------------------------------------------


def _refused_file(case, tmp_path, fixtures):
    """(argv, the refused file, the error that follows its name)."""
    if case == "score":
        path = tmp_path / "rec.jsonl"
        path.write_text(json.dumps(
            {"student": "s", "m_csr": 1.0, "m_ht": 1.5, "e_gap": 0.1, "t_dev": 1.0}
        ) + "\n")
        return ["score", "--records", path], path, ":1: bad student record: " + (
            "m_ht must lie in (0, 1), got 1.5"
        )
    if case == "egap":
        path = tmp_path / "ont.json"
        path.write_text(json.dumps({"unit": "u", "version": "1", "concepts": [
            {"concept_id": "c", "proportion": 0.5, "phrases": ["loop"]},
        ]}))
        return ["egap", "--check-ontology", path], path, ": malformed ontology: " + (
            "concept proportions must sum to 1 within 1e-09, got 0.5"
        )
    if case == "retention":
        path = tmp_path / "bad.log"
        (tmp_path / "unit.vcp").write_text("x = 1\n")
        path.write_text(
            '{"student": "demo", "phase": "bogus"}\n{"kind": "edit", "t": 0.0}\n'
            '{"final_unit": "unit.vcp"}\n'
        )
        argv = ["retention", "--build", path, "--refactor",
                fixtures / "session" / "refactor.log", "--allow-uncalibrated"]
        return argv, path, ": unknown phase 'bogus'"
    if case == "calibrate":
        _, log, error = _refused_file("retention", tmp_path, fixtures)
        path = tmp_path / "pairs.jsonl"
        path.write_text(json.dumps({"build": log.name, "refactor": log.name}) + "\n")
        return ["calibrate", "--pairs", path], path, f":1: bad pair record: {log}{error}"
    if case == "graph":
        path = tmp_path / "g.json"
        path.write_text(json.dumps({
            "nodes": [{"id": 0}, {"id": 1}], "entry": 0, "exit": 1,
            "edges": [{"from": 0, "to": 1, "label": "seq"}, {"from": 1, "to": 0, "label": "seq"}],
        }))
        return ["metrics", path], path, (
            ": malformed control-flow graph: entry block must have in-degree 0"
        )
    if case == "fit":
        path = tmp_path / "coh.jsonl"
        row = json.dumps({"student": 1, "occasion": 0, "condition": "trad", "time": 0.0,
                          "y": 1.0})
        path.write_text(row + "\n" + row + "\n")
        return ["fit", "--data", path], path, ": duplicate (student, occasion) observation"
    path = tmp_path / "bad.vcp"
    path.write_text("x = = 1\n")
    with pytest.raises(ValidationError) as caught:
        parse("x = = 1\n")
    assert str(caught.value).startswith("line 1, column 5: unexpected '=' (")
    return ["metrics", path], path, f": {caught.value}"


@pytest.mark.parametrize(
    "case", ["score", "egap", "retention", "calibrate", "graph", "fit", "metrics"]
)
def test_a_refused_input_file_is_named(fixtures, tmp_path, capsys, case):
    argv, path, error = _refused_file(case, tmp_path, fixtures)
    assert run([str(a) for a in argv]) == 1
    assert capsys.readouterr().err.splitlines() == [f"vcp: error: {path}{error}"]


def test_a_syntax_error_in_an_origin_or_final_unit_names_the_file(fixtures, tmp_path, capsys):
    origins = tmp_path / "origins"
    origins.mkdir()
    (origins / "bad.vcp").write_text("x = = 1\n")
    argv = ["traps", "generate", "--origins", origins, "--out", tmp_path / "corpus"]
    assert run([str(a) for a in argv]) == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith(f"vcp: error: {origins / 'bad.vcp'}: line 1, column 5: ")
    (tmp_path / "unit.vcp").write_text("x = = 1\n")
    log = tmp_path / "build.log"
    log.write_text(
        '{"student": "demo", "phase": "ai_build"}\n{"kind": "edit", "t": 0.0}\n'
        '{"final_unit": "unit.vcp"}\n'
    )
    argv = ["retention", "--build", log, "--refactor",
            fixtures / "session" / "refactor.log", "--allow-uncalibrated"]
    assert run([str(a) for a in argv]) == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith(f"vcp: error: {tmp_path / 'unit.vcp'}: line 1, column 5: ")
