"""The CI-coverage experiment writes the same bytes on every run."""

import importlib.util
import json
import sys

import pytest


@pytest.fixture(scope="module")
def coverage_experiment(repo_root):
    spec = importlib.util.spec_from_file_location(
        "coverage_experiment", repo_root / "scripts" / "coverage_experiment.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_two_runs_write_identical_files(coverage_experiment, tmp_path, monkeypatch, capsys):
    written = []
    for run in ("a", "b"):
        out = tmp_path / run
        monkeypatch.setattr(
            sys, "argv", ["coverage_experiment.py", "--out", str(out), "--replicates", "20"]
        )
        coverage_experiment.main()
        written.append({name: (out / name).read_bytes()
                        for name in ("coverage.json", "replicates.tsv")})
    assert written[0] == written[1]
    report = json.loads(written[0]["coverage.json"])
    assert report["replicates"] == 20 and "elapsed_seconds" not in report
    assert len(written[0]["replicates.tsv"].splitlines()) == 21
    assert "s -> " in capsys.readouterr().out
