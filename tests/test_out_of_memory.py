"""A command that runs out of memory ends with one error line, not a traceback.

Each reading command runs in one child whose address space is capped with
``RLIMIT_AS`` (set in that child only, between fork and exec), on an input of
a few megabytes that needs several times the cap once read: ``vcp`` ends with
exit 1 and one ``vcp: error:`` line that names the command, and the study
driver with one ``run_study: error:`` line.  The cap leaves the interpreter
and the toolkit's imports (about 19 MB of address space) room to start.
"""

import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import fresh_env

_CAP = 48 << 20
_ROWS = 200_000
_TOO_LARGE = "input too large for the memory available"
_STUDY = Path(__file__).resolve().parent.parent / "fixtures" / "study"


def _cap_address_space() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (_CAP, _CAP))


def _capped(argv: list, cwd) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, cwd=cwd,
        env=fresh_env("VCP_CONFIG"), preexec_fn=_cap_address_space,
    )


def _jsonl(path, rows) -> str:
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))
    return str(path)


def _session_logs(tmp) -> list:
    """A build and a refactor log of ``_ROWS`` events each, around a small unit."""
    (tmp / "unit.vcp").write_text("x = 1\n")
    paths = []
    for phase, first_t in (("ai_build", 0), ("cold_refactor", _ROWS)):
        events = ({"kind": "edit", "t": float(first_t + i)} for i in range(_ROWS))
        rows = [{"phase": phase, "student": "s"}, *events, {"final_unit": "unit.vcp"}]
        paths.append(_jsonl(tmp / f"{phase}.log", rows))
    return paths


def _program(path) -> str:
    path.parent.mkdir(exist_ok=True)
    path.write_text("x = 1\n" * _ROWS)
    return str(path)


def _csv(path, header: str, lines) -> str:
    path.write_text(header + "\n" + "".join(line + "\n" for line in lines))
    return str(path)


# command: the argv tail of a run on inputs, written into a directory, that
# outgrow the cap once read.
_ARGV = {
    "metrics": lambda tmp: [_program(tmp / "big.vcp")],
    "sdt": lambda tmp: ["--responses", _jsonl(tmp / "responses.jsonl", (
        {"flagged": True, "ground_truth": ("trap", "clean")[i % 2], "item_id": f"i{i}",
         "reviewer": "r"} for i in range(_ROWS)))],
    "traps generate": lambda tmp: [
        "--origins", str(Path(_program(tmp / "origins" / "big.vcp")).parent),
        "--out", str(tmp / "corpus"),
    ],
    "retention": lambda tmp: [
        *(arg for flag, path in zip(("--build", "--refactor"), _session_logs(tmp))
          for arg in (flag, path)),
        "--allow-uncalibrated",
    ],
    "calibrate": lambda tmp: ["--pairs", _jsonl(tmp / "pairs.jsonl", [
        dict(zip(("build", "refactor"), map(os.path.basename, _session_logs(tmp))))] * 2)],
    "egap": lambda tmp: [
        "--transcript", str(_STUDY / "transcripts" / "s01.txt"),
        "--ontology", str(_STUDY / "ontology.json"), "--code", _program(tmp / "big.vcp"),
    ],
    "score": lambda tmp: ["--records", _jsonl(tmp / "records.jsonl", (
        {"condition": "trad", "e_gap": 0.1, "m_csr": 0.8, "m_ht": 0.9, "student": f"s{i}",
         "t_dev": 1.0} for i in range(_ROWS)))],
    "fit": lambda tmp: ["--data", _jsonl(tmp / "cohort.jsonl", (
        {"condition": ("trad", "vibe")[i // 2 % 2], "occasion": i % 2, "student": i // 2,
         "time": float(i % 2), "y": 1.5} for i in range(_ROWS)))],
    # Two floats a row need less than a record: five times the rows.
    "spearman": lambda tmp: ["--data", _csv(
        tmp / "xy.csv", "x,y", (f"{i},{i * 0.5}" for i in range(5 * _ROWS)))],
    "kappa": lambda tmp: ["--data", _csv(
        tmp / "ab.csv", "a,b", (f"a{i},b{i}" for i in range(_ROWS)))],
}


@pytest.mark.parametrize("command", list(_ARGV))
def test_a_command_out_of_memory_is_one_error_line(tmp_path, command):
    argv = ["-m", "vibecheck", *command.split(), *_ARGV[command](tmp_path)]
    proc = _capped(argv, tmp_path)
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == [f"vcp: error: {command}: {_TOO_LARGE}"]


def test_the_study_driver_out_of_memory_is_one_error_line(repo_root, tmp_path):
    bundle = tmp_path / "study"
    bundle.mkdir()
    students = [{"student": f"s{i}", "condition": "trad", "t_dev": 1.0} for i in range(_ROWS)]
    (bundle / "study.json").write_text(
        json.dumps({"seed": 1, "trap_fraction": 0.5, "students": students})
    )
    proc = _capped([str(repo_root / "scripts" / "run_study.py"), "--fixtures", str(bundle),
                    "--out", str(tmp_path / "out")], repo_root)
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == [f"run_study: error: {_TOO_LARGE}"]
    assert proc.stdout == ""
