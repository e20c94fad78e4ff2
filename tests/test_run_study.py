"""The study driver runs every vcp step in process and fails loudly."""

import importlib.util
import json
import os
import shutil
import subprocess
import sys

import pytest


@pytest.fixture(scope="module")
def run_study_module(repo_root):
    spec = importlib.util.spec_from_file_location(
        "run_study", repo_root / "scripts" / "run_study.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_failing_step_raises_with_argv_and_error_line(
    run_study_module, fixtures, tmp_path, monkeypatch
):
    bundle = tmp_path / "study"
    shutil.copytree(fixtures / "study", bundle)
    missing = bundle / "logs" / "s03_build.log"
    missing.unlink()
    monkeypatch.delenv("VCP_CONFIG", raising=False)
    with pytest.raises(RuntimeError) as info:
        run_study_module.run_study(bundle, tmp_path / "out")
    message = str(info.value)
    assert "exit 1" in message
    assert f"vcp retention --build {missing} " in message
    assert "vcp: error:" in message


def test_driver_prints_only_its_completion_line(
    run_study_module, fixtures, tmp_path, monkeypatch, capsys
):
    out = tmp_path / "out"
    monkeypatch.delenv("VCP_CONFIG", raising=False)
    monkeypatch.setattr(
        sys, "argv", ["run_study.py", "--fixtures", str(fixtures / "study"), "--out", str(out)]
    )
    run_study_module.main()
    captured = capsys.readouterr()
    assert captured.out == f"study complete: {out}\n"
    assert (out / "score" / "score_report.json").is_file()


def test_study_output_is_byte_identical_to_the_golden_tree(
    run_study_module, fixtures, tmp_path, monkeypatch
):
    golden = fixtures / "study" / "golden"
    out = tmp_path / "out"
    monkeypatch.delenv("VCP_CONFIG", raising=False)
    run_study_module.run_study(fixtures / "study", out)
    written = sorted(p.relative_to(out) for p in out.rglob("*") if p.is_file())
    expected = sorted(p.relative_to(golden) for p in golden.rglob("*") if p.is_file())
    assert written == expected
    for rel in written:
        assert (out / rel).read_bytes() == (golden / rel).read_bytes(), rel


def _driver(repo_root, bundle, out) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if k != "VCP_CONFIG"}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(repo_root / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(repo_root / "scripts" / "run_study.py"),
         "--fixtures", str(bundle), "--out", str(out)],
        capture_output=True, text=True, env=env,
    )


@pytest.mark.parametrize(
    "study_json",
    [
        '{"seed": 2026, "trap_fraction": 0.5, "students": [',
        json.dumps({"trap_fraction": 0.5, "students": []}),
    ],
    ids=["not-json", "no-seed"],
)
def test_malformed_study_json_is_one_error_line(repo_root, tmp_path, study_json):
    bundle = tmp_path / "study"
    bundle.mkdir()
    (bundle / "study.json").write_text(study_json)
    proc = _driver(repo_root, bundle, tmp_path / "out")
    assert proc.returncode == 1
    [line] = proc.stderr.splitlines()
    assert line.startswith(f"run_study: error: {bundle / 'study.json'}: ")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize(
    "edit, key, known",
    [
        (lambda meta: meta.update(sed=1), "sed", "seed, students, trap_fraction"),
        (lambda meta: meta["students"][2].update(tdev=1.0), "tdev", "condition, student, t_dev"),
    ],
    ids=["study", "student"],
)
def test_an_unknown_study_key_is_named(
    run_study_module, fixtures, tmp_path, monkeypatch, edit, key, known
):
    meta = json.loads((fixtures / "study" / "study.json").read_text())
    edit(meta)
    path = tmp_path / "study.json"
    path.write_text(json.dumps(meta))
    monkeypatch.setattr(
        sys, "argv", ["run_study.py", "--fixtures", str(tmp_path), "--out", str(tmp_path / "out")]
    )
    with pytest.raises(SystemExit) as info:
        run_study_module.main()
    assert info.value.code == (
        f"run_study: error: {path}: malformed study description: "
        f"unknown field {key!r}; known fields: {known}"
    )
    assert not (tmp_path / "out").exists()


def test_failed_step_is_one_error_line(repo_root, fixtures, tmp_path):
    bundle = tmp_path / "study"
    shutil.copytree(fixtures / "study", bundle)
    (bundle / "logs" / "s03_build.log").unlink()
    proc = _driver(repo_root, bundle, tmp_path / "out")
    assert proc.returncode == 1
    [line] = proc.stderr.splitlines()
    assert line.startswith("run_study: error: step failed (exit 1): vcp retention ")
    assert "vcp: error:" in line
