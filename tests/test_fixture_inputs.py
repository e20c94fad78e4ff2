"""Every committed JSON, JSONL and session-log input under fixtures/ reads
through its strict record reader, so a stray key fails here, not in a run."""

import importlib.util
from pathlib import Path

import pytest

from vibecheck.composite import read_student_records
from vibecheck.explainability import load_ontology
from vibecheck.io import read_json
from vibecheck.retention import OmegaCalibration, read_pairs, read_session_log
from vibecheck.sdt import load_responses
from vibecheck.stats.mixed import read_cohort
from vibecheck.trapforge import read_answer_key


def _read_study(path):
    spec = importlib.util.spec_from_file_location(
        "run_study", Path(__file__).resolve().parents[1] / "scripts" / "run_study.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.read_study(path)


# Each input, as a glob under fixtures/, and its reader.
_INPUTS = {
    "study/study.json": _read_study,
    "study/responses.jsonl": load_responses,
    "study/ontology.json": load_ontology,
    "*/calibration.json": lambda p: read_json(p, OmegaCalibration.from_dict, "calibration"),
    "**/*.log": read_session_log,
    "calibration/pairs.jsonl": read_pairs,
    "zones/boundary_records.jsonl": read_student_records,
    "study/golden/records.jsonl": read_student_records,
    "study/golden/corpus/answer_key.jsonl": read_answer_key,
    "draws/simulate/cohort.jsonl": read_cohort,
}
# The reports a command writes, which no reader takes back in.
_REPORTS = {
    "manifest.json", "report.json", "egap.json", "retention.json", "score.jsonl",
    "score_report.json", "sdt.json", "sdt.jsonl", "power.json", "simulate.json",
    "spearman.json",
}


@pytest.mark.parametrize("pattern", list(_INPUTS))
def test_each_committed_input_reads_strictly(fixtures, pattern):
    paths = sorted(fixtures.glob(pattern))
    assert paths
    for path in paths:
        _INPUTS[pattern](path)


def test_every_json_file_is_an_input_or_a_report(fixtures):
    inputs = {p for pattern in _INPUTS for p in fixtures.glob(pattern)}
    unclaimed = [
        p.relative_to(fixtures) for suffix in ("*.json", "*.jsonl", "*.log")
        for p in fixtures.rglob(suffix) if p not in inputs and p.name not in _REPORTS
    ]
    assert unclaimed == []
