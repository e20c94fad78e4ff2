"""The study driver runs every vcp step in process and fails loudly."""

import importlib.util
import shutil
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
