"""Command-line behavior: reports, file sets, exit codes, determinism."""

import json

import pytest

from vibecheck.cli import run

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
    assert "unknown config keys" in capsys.readouterr().err


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        run(["--version"])
    assert exc.value.code == 0


def test_unknown_subcommand_is_exit_1(capsys):
    assert run(["transmogrify"]) == 1
    assert "vcp: error" in capsys.readouterr().err


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
    assert code == 2
    assert "vcp: computation error:" in capsys.readouterr().err
    assert not (out / "retention.json").exists()


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


def test_power_paired_design(capsys):
    code = run(["power", "--d", "2.0", "--design", "paired", "--replicates", "2000"])
    assert code == 0
    report, _ = _json_out(capsys)
    assert report["design"] == "paired"
    assert report["attrition"] is None


def test_power_bad_effect_size_is_exit_1(capsys):
    assert run(["power", "--d", "-1.0"]) == 1


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
