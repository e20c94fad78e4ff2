"""Drive a study bundle end to end through the vcp command line.

Steps: derive the review corpus from the bundle's origin pool, score the
shipped reviewer responses, compute each student's retention score and
explanation gap, assemble the per-student record file, and produce the
composite score report.  Each step runs in this process through
``vibecheck.cli.run`` with its output captured; a step that exits non-zero
stops the study with its argv and error output.  Every randomized step
takes its seed from the bundle's study.json, so two runs into two
directories write identical bytes.

Usage: python3 scripts/run_study.py --fixtures fixtures/study --out OUT_DIR
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
from pathlib import Path

from vibecheck import cli


def _vcp(*args: str) -> None:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.run(list(args))
    if code != 0:
        raise RuntimeError(
            f"step failed (exit {code}): vcp {' '.join(args)}\n{stderr.getvalue()}"
        )


def run_study(fixtures: Path, out: Path) -> None:
    meta = json.loads((fixtures / "study.json").read_text())
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

    m_ht_by_reviewer = {}
    for line in (out / "sdt" / "sdt.jsonl").read_text().splitlines():
        rec = json.loads(line)
        m_ht_by_reviewer[rec["reviewer"]] = rec["m_ht"]

    with (out / "records.jsonl").open("w") as fh:
        for rec in sorted(students, key=lambda r: r["student"]):
            sid = rec["student"]
            retention = json.loads(
                (out / "retention" / sid / "retention.json").read_text()
            )
            egap = json.loads((out / "egap" / sid / "egap.json").read_text())
            fh.write(
                json.dumps(
                    {
                        "student": sid,
                        "condition": rec["condition"],
                        "m_csr": retention["m_csr"],
                        "m_ht": m_ht_by_reviewer[sid],
                        "e_gap": egap["e_gap"],
                        "t_dev": rec["t_dev"],
                    },
                    sort_keys=True,
                )
                + "\n"
            )

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
    run_study(Path(args.fixtures), Path(args.out))
    print(f"study complete: {args.out}")


if __name__ == "__main__":
    main()
