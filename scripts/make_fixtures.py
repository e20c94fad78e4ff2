"""Regenerate every committed fixture under fixtures/ deterministically.

Each section derives its files from fixed seeds or hand-written sources, so
rerunning this script reproduces the tree byte for byte.  The expert
calibration bundle is engineered so an exact least-squares solution exists
(expert velocity ratios are the reciprocals of the intended complexity
weights), which the retention tests and the calibration golden depend on.

Usage: python3 scripts/make_fixtures.py [--root fixtures]
"""

from __future__ import annotations

import argparse
import importlib.util
import math
import shutil
import sys
from pathlib import Path

from vibecheck import cli, retention, sdt, trapforge
from vibecheck.codemetrics.metrics import metrics
from vibecheck.codemetrics.parser import parse
from vibecheck.codemetrics.progen import random_program
from vibecheck.io import read_json
from vibecheck.reporting import write_json, write_jsonl
from vibecheck.retention import SessionEvent, SessionLog, write_session_log

ALPHA_STAR = 0.6     # intended ln(cc) weight for the calibration bundle
BETA_STAR = 0.002    # intended per-volume-bit weight
STUDY_SEED = 2026
STUDY_FRACTION = 0.5


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


# --- small hand-written sources --------------------------------------------

ASSIGN = "x = a + b\n"
ASSIGN_TWICE = "x = a + b\nx = a + b\n"

IFELSE = """\
if (a < b) {
  x = 1
} else {
  x = 2
}
"""

TARGET = """\
// shared study task: scan a sensor series and alert on outliers
n = read_count()
limit = read_limit()
total = 0
peak = 0
i = 0
while (i < n) {
  value = probe(i)
  if (value < 0) {
    value = 0 - value
  }
  total = total + value
  if (value > peak) {
    peak = value
  }
  i = i + 1
}
if (n > 0) {
  mean = total / n
} else {
  mean = 0
}
alerts = 0
for (j = 0; j < n; j = j + 1) {
  score = probe(j)
  if (score > limit) {
    alerts = alerts + 1
    send(sanitize(score))
  }
}
return alerts
"""

CAL_SMALL = """\
// clamp a reading to the accepted floor
value = sense("probe")
floor_level = read_floor()
adjusted = value * scale_for("probe")
if (adjusted < floor_level) {
  adjusted = floor_level
}
store("probe", adjusted)
"""

CAL_MEDIUM = """\
// drain a work queue, counting retries separately
pending = queue_size()
done = 0
retries = 0
while (pending > 0) {
  job = take_job()
  result = execute(job)
  if (result == 0) {
    done = done + 1
  } else {
    retries = retries + 1
  }
  pending = pending - 1
}
report(done, retries)
"""

CAL_LARGE = """\
// reconcile a ledger against incoming entries with range checks
count = entry_count()
balance = opening_balance()
flagged = 0
applied = 0
i = 0
while (i < count) {
  entry = fetch(i)
  amount = amount_of(entry)
  if (amount < 0) {
    amount = 0 - amount
  }
  if (amount > ceiling()) {
    flagged = flagged + 1
  } else {
    if (kind_of(entry) == 1) {
      balance = balance + amount
    } else {
      balance = balance - amount
    }
    applied = applied + 1
  }
  i = i + 1
}
if (balance < 0) {
  alert("negative")
}
for (k = 0; k < flagged; k = k + 1) {
  review(fetch_flagged(k))
}
write_back(balance, applied)
"""


def make_basics(root: Path) -> None:
    _write(root / "halstead" / "assign.vcp", ASSIGN)
    _write(root / "halstead" / "assign_twice.vcp", ASSIGN_TWICE)
    _write(root / "halstead" / "empty.vcp", "")
    _write(root / "ifelse.vcp", IFELSE)
    for name, text in (("assign", ASSIGN), ("ifelse", IFELSE), ("target", TARGET)):
        parse(text, name=name)  # refuse to ship unparseable fixtures


# --- origin pools ----------------------------------------------------------


def _pick_origins(first_seed: int, count: int) -> list[tuple[str, str]]:
    """Deterministically pick generated programs covering all defect kinds."""
    candidates = []
    seed = first_seed
    while len(candidates) < 40:
        text = random_program(seed=seed)
        unit = parse(text, name=f"cand_{seed}")
        kinds = frozenset(k for k, sites in trapforge.applicable_sites(unit).items() if sites)
        if kinds:
            candidates.append((seed, text, kinds))
        seed += 1
    picked: list[tuple[int, str, frozenset]] = []
    covered: set[str] = set()
    for cand in candidates:  # greedy cover pass, then fill in seed order
        if cand[2] - covered:
            picked.append(cand)
            covered |= cand[2]
        if covered == set(trapforge.DEFECT_KINDS):
            break
    for cand in candidates:
        if len(picked) >= count:
            break
        if cand not in picked:
            picked.append(cand)
    picked = sorted(picked[:count])
    if len(picked) < count:
        raise RuntimeError("origin search exhausted its candidate pool")
    return [(f"prog_{i:02d}", text) for i, (_, text, _) in enumerate(picked)]


def make_origins(root: Path) -> None:
    for name, text in _pick_origins(first_seed=1000, count=12):
        _write(root / "origins" / f"{name}.vcp", text)


# --- session-log engineering -----------------------------------------------


def _chain_events(start: float, minutes: float, kinds: list[str]) -> list[SessionEvent]:
    """Events whose active-time union is exactly `minutes` (one interval).

    Consecutive gaps stay <= 120 s, so the union is [first, last + 120] and
    the span between first and last event must be minutes*60 - 120.
    """
    span = minutes * 60.0 - 120.0
    if span < 0:
        raise ValueError(f"cannot engineer {minutes} active minutes: below the 2-minute floor")
    offsets = [0.0]
    full = int(span // 120.0)
    for k in range(1, full + 1):
        offsets.append(120.0 * k)
    remainder = span - 120.0 * full
    if remainder > 0.0:
        offsets.append(span)
    events = []
    for i, off in enumerate(offsets):
        events.append(SessionEvent(t=start + off, kind=kinds[i % len(kinds)]))
    return events


_BUILD_KINDS = ["prompt", "paste", "edit", "run"]
_REFACTOR_KINDS = ["edit", "run", "edit", "test_pass"]


def _engineer_pair(
    student: str,
    target_rel: str,
    target_text: str,
    build_minutes: float,
    refactor_minutes: float,
    refactor_day: int,
    out_dir: Path,
) -> tuple[Path, Path]:
    unit = parse(target_text, name=Path(target_rel).name)
    build = SessionLog(
        student=student,
        phase="ai_build",
        events=tuple(_chain_events(0.0, build_minutes, _BUILD_KINDS)),
        final_unit=unit,
    )
    refactor = SessionLog(
        student=student,
        phase="cold_refactor",
        events=tuple(_chain_events(86400.0 * refactor_day, refactor_minutes, _REFACTOR_KINDS)),
        final_unit=unit,
    )
    build_path = out_dir / f"{student}_build.log"
    refactor_path = out_dir / f"{student}_refactor.log"
    out_dir.mkdir(parents=True, exist_ok=True)
    write_session_log(build, build_path, target_rel)
    write_session_log(refactor, refactor_path, target_rel)
    return build_path, refactor_path


def make_calibration(root: Path) -> Path:
    cal_dir = root / "calibration"
    targets = {
        "small": CAL_SMALL,
        "medium": CAL_MEDIUM,
        "large": CAL_LARGE,
    }
    for name, text in targets.items():
        _write(cal_dir / "targets" / f"{name}.vcp", text)

    build_minutes = 6.0
    pair_files = []
    experts = [
        ("expert_01", "small"), ("expert_02", "small"),
        ("expert_03", "medium"), ("expert_04", "medium"),
        ("expert_05", "large"), ("expert_06", "large"),
    ]
    for day, (student, tname) in enumerate(experts, start=1):
        m = metrics(parse(targets[tname], name=f"{tname}.vcp"))
        omega_star = ALPHA_STAR * math.log(m.cc) + BETA_STAR * m.halstead.volume_v
        # expert ratio r = build/refactor minutes must equal 1/omega_star
        refactor_minutes = build_minutes * omega_star
        b, r = _engineer_pair(
            student,
            f"targets/{tname}.vcp",
            targets[tname],
            build_minutes,
            refactor_minutes,
            day,
            cal_dir,
        )
        pair_files.append((b.name, r.name))

    write_jsonl(cal_dir / "pairs.jsonl", ({"build": b, "refactor": r} for b, r in pair_files))

    pairs = [
        (
            retention.read_session_log(cal_dir / b),
            retention.read_session_log(cal_dir / r),
        )
        for b, r in pair_files
    ]
    calibration = retention.calibrate_omega(pairs, baseline_source="expert-baseline-v1")
    mean = retention.calibration_mean_score(calibration, pairs)
    if abs(mean - 1.0) > 1e-9:
        raise RuntimeError(f"calibration bundle is not exact: mean score {mean!r}")
    if abs(calibration.alpha - ALPHA_STAR) > 1e-6 or abs(calibration.beta - BETA_STAR) > 1e-6:
        raise RuntimeError(
            f"calibration drifted from the engineered weights: "
            f"({calibration.alpha!r}, {calibration.beta!r})"
        )
    cal_path = cal_dir / "calibration.json"
    write_json(cal_path, calibration.to_dict())
    print(f"calibration: alpha={calibration.alpha!r} beta={calibration.beta!r} mean={mean!r}")
    return cal_path


def make_session_demo(root: Path) -> None:
    # velocity is hand-checkable: V("x = a + b") = 5*log2(5), 3.0 active
    # minutes from events at 0 and 60 s
    demo_dir = root / "session"
    demo_dir.mkdir(parents=True, exist_ok=True)
    unit = parse(ASSIGN, name="assign.vcp")
    build = SessionLog(
        student="demo",
        phase="ai_build",
        events=(SessionEvent(0.0, "prompt"), SessionEvent(60.0, "edit")),
        final_unit=unit,
    )
    refactor = SessionLog(
        student="demo",
        phase="cold_refactor",
        events=(SessionEvent(86400.0, "edit"),),
        final_unit=unit,
    )
    write_session_log(build, demo_dir / "build.log", "final_unit.vcp")
    write_session_log(refactor, demo_dir / "refactor.log", "final_unit.vcp")


# --- numeric fixtures ------------------------------------------------------


def make_decay(root: Path) -> None:
    import numpy as np  # here, so that importing this script needs no numpy

    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(7)))
    ts = np.linspace(0.0, 11.0, 12)
    s_obs = np.exp(-0.2 * ts) + rng.normal(0.0, 0.05, size=12)
    lines = ["t,s"]
    for t, s in zip(ts, s_obs):
        lines.append(f"{float(t)!r},{float(s)!r}")
    _write(root / "decay" / "noisy_decay.csv", "\n".join(lines) + "\n")


def make_spearman(root: Path) -> None:
    # y-ranks: a permutation of 0..19 with sum of squared rank displacements
    # 558, built from disjoint swaps 13, 10, 3, 1 positions apart, so the
    # sample rank correlation is 1 - 6*558/7980 = 0.58045... (0.58 at 2 dp)
    perm = list(range(20))
    used: set[int] = set()
    for k in (13, 10, 3, 1):
        for i in range(20):
            j = i + k
            if j < 20 and i not in used and j not in used:
                perm[i], perm[j] = perm[j], perm[i]
                used.update((i, j))
                break
    assert sum((i - p) ** 2 for i, p in enumerate(perm)) == 558
    lines = ["x,y"]
    for i, p in enumerate(perm):
        y = round(2.0 + 0.35 * p + 0.01 * p * p, 4)
        lines.append(f"{i + 1},{y!r}")
    _write(root / "spearman" / "quiz_scores.csv", "\n".join(lines) + "\n")


def make_zones(root: Path) -> None:
    records = [
        {"student": "z1", "condition": "trad", "m_csr": 0.8, "m_ht": 0.9, "e_gap": 0.1, "t_dev": 1.0},
        {"student": "z2", "condition": "vibe", "m_csr": 0.8000000001, "m_ht": 0.5, "e_gap": 0.3, "t_dev": 1.0},
        {"student": "z3", "condition": "vibe", "m_csr": 0.81, "m_ht": 0.7, "e_gap": 0.3000000001, "t_dev": 1.0},
        {"student": "z4", "condition": "trad", "m_csr": 0.81, "m_ht": 0.4999999999, "e_gap": 0.25, "t_dev": 1.0},
        {"student": "z5", "condition": "vibe", "m_csr": 0.5, "m_ht": 0.9, "e_gap": 0.05, "t_dev": 2.0},
        {"student": "z6", "condition": "trad", "m_csr": 0.9, "m_ht": 0.9, "e_gap": 0.2, "t_dev": 4.0},
        {"student": "z7", "condition": "vibe", "m_csr": 0.9, "m_ht": 0.3, "e_gap": 0.2, "t_dev": 2.0},
    ]
    (root / "zones").mkdir(parents=True, exist_ok=True)
    write_jsonl(root / "zones" / "boundary_records.jsonl", records)


# --- reports drawn from numpy's generator ---------------------------------


def draw_commands(root: Path) -> dict[str, list[str]]:
    """Small fixed-seed runs of the commands whose reports numpy draws, through
    ``normal``, ``chisquare`` and ``permuted``, which NEP 19 lets numpy change
    between feature releases."""
    return {
        "power": ["power", "--d", "0.8", "--replicates", "1000"],
        "simulate": ["simulate", "--beta0", "1", "--beta1", "0.4", "--beta2", "0.2",
                     "--sigma-u", "0.5", "--sigma-e", "0.5", "--n-per-condition", "4",
                     "--occasions", "2"],
        "spearman": ["spearman", "--data", str(root / "spearman" / "quiz_scores.csv"),
                     "--permutations", "1000"],
    }


def make_draws(root: Path) -> None:
    for name, argv in draw_commands(root).items():
        if cli.run([*argv, "--out", str(root / "draws" / name)]) != 0:
            raise RuntimeError(f"vcp {name} failed")


# --- the end-to-end study bundle -------------------------------------------

ONTOLOGY = {
    "unit": "target.vcp",
    "version": "study-v1",
    "concepts": [
        {
            "concept_id": "c1_accumulation",
            "proportion": 0.4,
            "phrases": ["running total", "sums each reading"],
        },
        {
            "concept_id": "c2_absolute",
            "proportion": 0.3,
            "phrases": ["flips negative readings", "absolute value"],
        },
        {
            "concept_id": "c3_mean_guard",
            "proportion": 0.2,
            "phrases": ["divides the total by the count", "guards against an empty series"],
        },
        {
            "concept_id": "c4_sanitized_alert",
            "proportion": 0.1,
            "phrases": ["sanitizes the score before sending", "alert above the limit"],
        },
    ],
}

TRANSCRIPTS = {
    "s01": (
        "The loop keeps a running total of the series while tracking the peak. "
        "Negative values go through an absolute value step first. Afterwards it "
        "divides the total by the count, but only when the count is positive, and "
        "the second pass raises an alert above the limit, where the code sanitizes "
        "the score before sending it out.\n"
    ),
    "s02": (
        "It sums each reading into an accumulator and remembers the biggest one. "
        "I think negative numbers are special-cased: the code flips negative "
        "readings so they count as magnitudes. The rest I did not really read.\n"
    ),
    "s03": (
        "There is a running total over all the probes. Then something about "
        "averages and alerts happens at the end, I could not follow the details.\n"
    ),
    "s04": (
        "The assistant wrote this one for me. It processes the data and reports "
        "problems. Honestly I could not explain the branches from memory.\n"
    ),
    "s05": (
        "Each value is normalized to its absolute value before use. The mean "
        "computation guards against an empty series. At the end it sanitizes the "
        "score before sending anything to the reporting channel.\n"
    ),
    "s06": (
        "First pass: a running total plus the peak value; the sign handling takes "
        "the absolute value of dips. Second pass divides the total by the count "
        "when possible, then walks the series again to raise an alert above the "
        "limit, and it sanitizes the score before sending.\n"
    ),
}

STUDENTS = [
    {"student": "s01", "condition": "vibe", "t_dev": 2.0, "m_csr": 0.95, "sensitivity": 2.6},
    {"student": "s02", "condition": "vibe", "t_dev": 1.5, "m_csr": 0.72, "sensitivity": 1.7},
    {"student": "s03", "condition": "vibe", "t_dev": 2.5, "m_csr": 0.90, "sensitivity": 1.1},
    {"student": "s04", "condition": "trad", "t_dev": 6.0, "m_csr": 0.88, "sensitivity": 2.2},
    {"student": "s05", "condition": "trad", "t_dev": 5.0, "m_csr": 0.40, "sensitivity": 0.9},
    {"student": "s06", "condition": "trad", "t_dev": 5.5, "m_csr": 0.85, "sensitivity": 1.4},
]


def write_responses(origins_dir: Path, path: Path) -> None:
    """Each student's simulated review of the corpus derived from the study's
    origins, as JSONL records at ``path``."""
    origins = [parse(p.read_text(), name=p.stem) for p in sorted(origins_dir.glob("*.vcp"))]
    corpus = trapforge.generate_corpus(origins, STUDY_FRACTION, STUDY_SEED)
    truths = [item.ground_truth for item in corpus.items]
    responses = []
    for index, rec in enumerate(STUDENTS):
        flags = sdt.simulate_reviewer(truths, rec["sensitivity"], seed=9000 + index)
        for item, flagged in zip(corpus.items, flags):
            responses.append({
                "reviewer": rec["student"],
                "item_id": item.item_id,
                "ground_truth": item.ground_truth,
                "flagged": flagged,
            })
    write_jsonl(path, responses)


def make_study(root: Path, calibration_path: Path) -> Path:
    study = root / "study"
    _write(study / "target.vcp", TARGET)
    write_json(study / "ontology.json", ONTOLOGY)
    for name, text in _pick_origins(first_seed=2000, count=12):
        _write(study / "origins" / f"{name}.vcp", text)
    for sid, text in TRANSCRIPTS.items():
        _write(study / "transcripts" / f"{sid}.txt", text)
    shutil.copyfile(calibration_path, study / "calibration.json")

    calibration = read_json(
        study / "calibration.json", retention.OmegaCalibration.from_dict, "calibration"
    )
    target_metrics = metrics(parse(TARGET, name="target.vcp"))
    omega_target = retention.omega(target_metrics, calibration)
    print(f"study target: cc={target_metrics.cc} V={target_metrics.halstead.volume_v:.4f} "
          f"h_c={target_metrics.h_c} omega={omega_target:.6f}")

    build_minutes = 4.0
    for day, rec in enumerate(STUDENTS, start=1):
        ratio = rec["m_csr"] / omega_target
        refactor_minutes = build_minutes / ratio
        _engineer_pair(
            rec["student"],
            "../target.vcp",
            TARGET,
            build_minutes,
            refactor_minutes,
            day,
            study / "logs",
        )

    write_responses(study / "origins", study / "responses.jsonl")

    meta = {
        "seed": STUDY_SEED,
        "trap_fraction": STUDY_FRACTION,
        "students": [
            {"student": r["student"], "condition": r["condition"], "t_dev": r["t_dev"]}
            for r in STUDENTS
        ],
    }
    write_json(study / "study.json", meta)
    return study


def make_golden(study: Path) -> None:
    spec = importlib.util.spec_from_file_location(
        "run_study", Path(__file__).parent / "run_study.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    golden = study / "golden"
    if golden.exists():
        shutil.rmtree(golden)
    module.run_study(study, golden)
    print(f"golden study outputs: {golden}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default="fixtures", help="fixture tree to (re)build")
    args = parser.parse_args()
    root = Path(args.root)
    make_basics(root)
    make_origins(root)
    cal = make_calibration(root)
    make_session_demo(root)
    make_decay(root)
    make_spearman(root)
    make_zones(root)
    make_draws(root)
    study = make_study(root, cal)
    make_golden(study)
    print("fixtures rebuilt")


if __name__ == "__main__":
    main()
