"""Drive a study bundle end to end through the vcp command line.

Steps: derive the review corpus from the bundle's origin pool, score the
shipped reviewer responses, checked against the corpus's answer key, compute
each student's retention score and explanation gap, assemble the per-student
record file, and produce the composite score report.  Each step runs in
this process through ``vibecheck.cli.run`` with its output captured; a step
that exits non-zero stops the study with its argv and error output.  Every
randomized step takes its seed from the bundle's study.json, so two runs
into two directories write identical bytes.  A malformed bundle or a failed
step ends the script with one ``run_study: error:`` line and exit code 1.

Usage: python3 scripts/run_study.py --fixtures fixtures/study --out OUT_DIR
"""

from __future__ import annotations

import argparse
import contextlib
import io
import sys
from pathlib import Path

from vibecheck import cli
from vibecheck.errors import ValidationError, VcpError
from vibecheck.io import as_finite, as_int, as_list, as_str, fields, read_json, read_jsonl
from vibecheck.reporting import write_jsonl


class StepFailed(RuntimeError):
    """A vcp step exited non-zero; the message holds its argv and stderr."""


def _vcp(*args: str) -> None:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.run(list(args))
    if code != 0:
        raise StepFailed(
            f"step failed (exit {code}): vcp {' '.join(args)}\n{stderr.getvalue()}"
        )


_STUDENT_FIELDS = {"student": as_str, "condition": as_str, "t_dev": as_finite}
_STUDY_FIELDS = {
    "seed": as_int,
    "trap_fraction": as_finite,
    "students": lambda o, k: [fields(s, _STUDENT_FIELDS) for s in as_list(o, k)],
}


def read_study(path: Path) -> dict:
    """study.json: the corpus seed and trap fraction, and each student's id,
    condition and development hours."""
    return read_json(path, lambda data: fields(data, _STUDY_FIELDS), "study description")


def run_study(fixtures: Path, out: Path) -> None:
    meta = read_study(fixtures / "study.json")
    out.mkdir(parents=True, exist_ok=True)

    _vcp(
        "traps", "generate",
        "--origins", str(fixtures / "origins"),
        "--fraction", str(meta["trap_fraction"]),
        "--seed", str(meta["seed"]),
        "--out", str(out / "corpus"),
    )
    _vcp(
        "sdt",
        "--responses", str(fixtures / "responses.jsonl"),
        "--answer-key", str(out / "corpus" / "answer_key.jsonl"),
        "--out", str(out / "sdt"),
    )

    students = meta["students"]
    for rec in students:
        sid = rec["student"]
        _vcp(
            "retention",
            "--build", str(fixtures / "logs" / f"{sid}_build.log"),
            "--refactor", str(fixtures / "logs" / f"{sid}_refactor.log"),
            "--calibration", str(fixtures / "calibration.json"),
            "--out", str(out / "retention" / sid),
        )
        _vcp(
            "egap",
            "--transcript", str(fixtures / "transcripts" / f"{sid}.txt"),
            "--ontology", str(fixtures / "ontology.json"),
            "--code", str(fixtures / "target.vcp"),
            "--out", str(out / "egap" / sid),
        )

    sdt_path = out / "sdt" / "sdt.jsonl"
    m_ht_by_reviewer = dict(
        read_jsonl(
            sdt_path, lambda rec: (as_str(rec, "reviewer"), as_finite(rec, "m_ht")), "sdt record"
        )
    )
    records = []
    for rec in sorted(students, key=lambda r: r["student"]):
        sid = rec["student"]
        if sid not in m_ht_by_reviewer:
            raise ValidationError(f"{sdt_path}: no detection score for student {sid}")
        records.append({
            "student": sid,
            "condition": rec["condition"],
            "m_csr": read_json(
                out / "retention" / sid / "retention.json",
                lambda report: as_finite(report, "m_csr"),
                "retention report",
            ),
            "m_ht": m_ht_by_reviewer[sid],
            "e_gap": read_json(
                out / "egap" / sid / "egap.json",
                lambda report: as_finite(report, "e_gap"),
                "egap report",
            ),
            "t_dev": rec["t_dev"],
        })
    write_jsonl(out / "records.jsonl", records)

    _vcp(
        "score",
        "--records", str(out / "records.jsonl"),
        "--weights", "default",
        "--no-gamma",
        "--out", str(out / "score"),
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fixtures", default="fixtures/study", help="study bundle directory")
    parser.add_argument("--out", required=True, help="output directory")
    args = parser.parse_args()
    try:
        run_study(Path(args.fixtures), Path(args.out))
    except (VcpError, StepFailed, OSError) as exc:
        sys.exit(f"run_study: error: {' '.join(str(exc).split())}")
    except MemoryError:
        sys.exit("run_study: error: input too large for the memory available")
    print(f"study complete: {args.out}")


if __name__ == "__main__":
    main()
