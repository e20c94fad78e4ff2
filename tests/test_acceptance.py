"""Acceptance suite: the nine shipping criteria, one test each.

Each test prints one ``ACCEPTANCE n: PASS`` line with the observed numbers
(run with ``pytest tests/test_acceptance.py -v -s`` to see them).  The
tolerances here are contractual; loosening them is not an option.
"""

import csv
import itertools
import json
import math
import subprocess
import sys
import time
from pathlib import Path

import pytest

from vibecheck import composite, retention, sdt
from vibecheck.codemetrics import nodes as N
from vibecheck.codemetrics.cfg import build_cfg, cfg_entropy, cyclomatic_complexity
from vibecheck.codemetrics.halstead import halstead
from vibecheck.codemetrics.metrics import metrics
from vibecheck.codemetrics.parser import parse
from vibecheck.codemetrics.progen import random_program
from vibecheck.explainability import Concept, ConceptOntology, e_gap, load_ontology
from vibecheck.rng import make_rng
from vibecheck.stats.mixed import GeneratingParams, fit_mixed, simulate_cohort
from vibecheck.stats.power import PowerSpec, required_n
from vibecheck.stats.spearman import spearman


def _report(n: int, detail: str) -> None:
    print(f"\nACCEPTANCE {n}: PASS - {detail}")


# --- 1: power analysis reproduces the published sample sizes ------------------


def test_acceptance_1_power_sample_sizes():
    started = time.time()
    two_sample = required_n(PowerSpec(effect_size_d=0.5, replicates=100_000))
    paired = required_n(
        PowerSpec(effect_size_d=0.5, design="paired", replicates=100_000)
    )
    elapsed = time.time() - started
    assert two_sample.n_required in (63, 64)
    assert paired.n_required in (33, 34, 35)
    assert elapsed <= 120.0
    _report(
        1,
        f"two-sample n={two_sample.n_required}, paired n={paired.n_required}, "
        f"{elapsed:.1f}s",
    )


# --- 2: rank-correlation fixture ----------------------------------------------


def test_acceptance_2_spearman_fixture(fixtures):
    xs, ys = [], []
    with open(fixtures / "spearman" / "quiz_scores.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            xs.append(float(row["x"]))
            ys.append(float(row["y"]))
    assert len(xs) == 20
    result = spearman(xs, ys, permutations=1_000_000, seed=0)
    assert round(result.rho, 2) == 0.58
    assert 0.006 <= result.p_two_sided <= 0.010
    assert abs(result.p_permutation - result.p_two_sided) <= 0.002
    _report(
        2,
        f"rho={result.rho:.4f}, p_t={result.p_two_sided:.6f}, "
        f"p_perm={result.p_permutation:.6f}",
    )


# --- 3: signal-detection oracle equivalence -----------------------------------


def _phi(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def _z_bisect(p: float) -> float:
    lo, hi = -40.0, 40.0
    while hi - lo > 1e-13:
        mid = (lo + hi) / 2.0
        if _phi(mid) < p:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def test_acceptance_3_sdt_oracle():
    rng = make_rng(3)
    worst = 0.0
    for _ in range(1000):
        h, f = rng.uniform(0.01, 0.99, size=2)
        got = sdt.d_prime(float(h), float(f))
        want = _z_bisect(float(h)) - _z_bisect(float(f))
        worst = max(worst, abs(got - want))
    assert worst <= 1e-9
    for rate in (0.05, 0.25, 0.5, 0.815, 0.99):
        assert sdt.d_prime(rate, rate) == 0.0
    for k, delta in ((1.5, 1.0), (0.7, 2.3), (4.0, 0.1)):
        assert sdt.m_ht(delta, k=k, delta=delta) == 0.5
    _report(3, f"1000 pairs, max |d' - oracle| = {worst:.3e}")


# --- 4: code-metric oracles ---------------------------------------------------

# Hand counts for the shipped fixtures: (distinct ops, distinct operands,
# total ops, total operands).
HAND_COUNTS = {
    "halstead/assign.vcp": (2, 3, 2, 3),
    "halstead/assign_twice.vcp": (2, 3, 4, 6),
    "ifelse.vcp": (3, 5, 4, 6),
}


def test_acceptance_4_code_metric_oracles(fixtures):
    corpus = [parse(random_program(seed), name=f"gen_{seed}") for seed in range(50)]
    entropy_checked = 0
    for unit in corpus:
        graph = build_cfg(unit)
        cc_graph = len(graph.edges) - len(graph.blocks) + 2
        cc_decisions = 1 + sum(
            isinstance(node, (N.If, N.While, N.For)) for node in N.walk(unit.ast)
        )
        assert cc_graph == cc_decisions == cyclomatic_complexity(graph)
        branches = graph.branch_nodes()
        if len(branches) <= 12:
            out_edges = [
                [e for e in graph.edges if e.src == b] for b in branches
            ]
            resolutions = sum(1 for _ in itertools.product(*out_edges))
            assert cfg_entropy(graph) == pytest.approx(
                math.log2(resolutions) if resolutions else 0.0, abs=1e-9
            )
            entropy_checked += 1
    assert entropy_checked >= 10
    for rel, (n1, n2, big_n1, big_n2) in HAND_COUNTS.items():
        counts = halstead(parse((fixtures / rel).read_text(), name=rel))
        assert (counts.n1, counts.n2, counts.N1, counts.N2) == (n1, n2, big_n1, big_n2)
        expected = (big_n1 + big_n2) * math.log2(n1 + n2)
        assert counts.volume_v == pytest.approx(expected, abs=1e-9)
    _report(
        4,
        f"50 programs cc dual-route, {entropy_checked} entropy enumerations, "
        f"3 hand-counted volumes",
    )


# --- 5: mixed-model recovery --------------------------------------------------


def test_acceptance_5_mixed_model_recovery():
    started = time.time()
    params = GeneratingParams(beta0=1.0, beta1=0.4, beta2=0.2, sigma_u=0.5, sigma_e=0.5)
    covered = 0
    estimates = []
    for replicate in range(500):
        fit = fit_mixed(simulate_cohort(params, 40, 4, seed=replicate))
        lo, hi = fit.ci95_beta1
        covered += lo <= 0.4 <= hi
        estimates.append(fit.beta1)
    elapsed = time.time() - started
    coverage = covered / 500.0
    mean_estimate = math.fsum(estimates) / 500.0
    assert 0.93 <= coverage <= 0.97
    assert abs(mean_estimate - 0.4) <= 0.02
    assert elapsed <= 300.0
    _report(
        5,
        f"coverage={coverage:.3f}, mean beta1={mean_estimate:.4f}, {elapsed:.1f}s",
    )


# --- 6: retention identities --------------------------------------------------


def test_acceptance_6_retention_identities(fixtures):
    # Exact recovery of a noiseless exponential.
    s0, lam = 0.8, 0.35
    observations = [(t, s0 * math.exp(-lam * t)) for t in (0.0, 1.0, 2.5, 4.0, 7.0, 11.0)]
    fit = retention.fit_decay(observations)
    lam_error = abs(fit.lam - lam)
    assert lam_error < 1e-12
    assert abs(fit.s0 - s0) < 1e-12

    # The expert calibration set scores itself at 1 on average.
    pairs = retention.read_pairs(fixtures / "calibration" / "pairs.jsonl")
    calibration, mean_score = retention.calibrate_omega(pairs)
    assert not calibration.degenerate
    assert abs(mean_score - 1.0) <= 1e-9

    # Homogeneity: joint velocity rescaling cancels; the weight is linear.
    rng = make_rng(6)
    for _ in range(200):
        v_build, v_rec, weight, scale = rng.uniform(0.1, 10.0, size=4)
        base = retention.csr_ratio(float(v_rec), float(v_build), float(weight))
        scaled = retention.csr_ratio(
            float(scale * v_rec), float(scale * v_build), float(weight)
        )
        assert scaled == pytest.approx(base, rel=1e-12)
        reweighted = retention.csr_ratio(
            float(v_rec), float(v_build), float(scale * weight)
        )
        assert reweighted == pytest.approx(float(scale) * base, rel=1e-12)
    _report(
        6,
        f"lam error={lam_error:.2e}, calibration mean={mean_score:.12f}, "
        f"200 homogeneity fixtures",
    )


# --- 7: explanation-gap limits ------------------------------------------------


def test_acceptance_7_e_gap_limits(fixtures):
    ontology = load_ontology(fixtures / "study" / "ontology.json")
    code = metrics(parse((fixtures / "study" / "target.vcp").read_text(), name="t"))
    assert code.h_c > 0.0
    full = " ".join(c.phrases[0] for c in ontology.concepts)
    full_score = e_gap(full, ontology, code)
    assert full_score.coverage == pytest.approx(1.0, abs=1e-12)
    assert full_score.e_gap <= 1e-9
    empty_score = e_gap("no relevant phrasing at all", ontology, code)
    assert empty_score.coverage == 0.0
    assert empty_score.e_gap == 1.0

    # Monotonicity: mentioning one more concept never widens the gap.
    rng = make_rng(7)
    for case in range(500):
        k = int(rng.integers(3, 7))
        raw = rng.integers(1, 10, size=k)
        total = float(raw.sum())
        concepts = tuple(
            Concept(
                concept_id=f"c{i}",
                proportion=float(raw[i]) / total,
                phrases=(f"marker{i}",),
            )
            for i in range(k)
        )
        onto = ConceptOntology(unit="t", version="case", concepts=concepts)
        mentioned = [i for i in range(k) if rng.uniform() < 0.5]
        extra = int(rng.integers(0, k))
        smaller = " ".join(f"marker{i}" for i in mentioned)
        larger = " ".join(f"marker{i}" for i in sorted(set(mentioned) | {extra}))
        assert e_gap(larger, onto, code).e_gap <= e_gap(smaller, onto, code).e_gap + 1e-15
    _report(
        7,
        f"full coverage gap={full_score.e_gap:.2e}, zero coverage gap=1.0, "
        f"500 monotonicity cases",
    )


# --- 8: zone and utility contracts --------------------------------------------


def test_acceptance_8_zone_utility_contracts(fixtures):
    rng = make_rng(8)
    worst = 0.0
    for _ in range(1000):
        raw = rng.uniform(0.05, 1.0, size=3)
        w1, w2, w3 = (float(v) / float(raw.sum()) for v in raw)
        weights = composite.UtilityWeights(
            w1=w1, w2=w2, w3=w3, gamma=float(rng.uniform(0.01, 1.0))
        )
        vibe, trad = (
            composite.StudentRecord(
                student=name,
                m_csr=float(rng.uniform(0.0, 1.5)),
                m_ht=float(rng.uniform(0.01, 0.99)),
                e_gap=float(rng.uniform(0.0, 1.0)),
                t_dev=float(rng.uniform(0.0, 10.0)),
                condition=name,
            )
            for name in ("vibe", "trad")
        )
        delta = composite.break_even(vibe, trad, weights)
        t_trad = vibe.t_dev + delta
        shift = max(0.0, -t_trad)
        vibe_at = composite.StudentRecord(
            "vibe", vibe.m_csr, vibe.m_ht, vibe.e_gap, vibe.t_dev + shift, "vibe"
        )
        trad_at = composite.StudentRecord(
            "trad", trad.m_csr, trad.m_ht, trad.e_gap, t_trad + shift, "trad"
        )
        gap = abs(
            composite.utility(vibe_at, weights) - composite.utility(trad_at, weights)
        )
        worst = max(worst, gap)
    assert worst <= 1e-12

    expected_zones = {
        "z1": "foundational", "z2": "professional", "z3": "architectural",
        "z4": "architectural", "z5": "foundational", "z6": "professional",
        "z7": "architectural",
    }
    path = fixtures / "zones" / "boundary_records.jsonl"
    for line in path.read_text().splitlines():
        rec = json.loads(line)
        result = composite.classify_zone(
            composite.StudentRecord(
                student=rec["student"], m_csr=rec["m_csr"], m_ht=rec["m_ht"],
                e_gap=rec["e_gap"], t_dev=rec["t_dev"], condition=rec["condition"],
            )
        )
        assert result.zone == expected_zones[rec["student"]]
    _report(
        8,
        f"1000 break-even substitutions, max |U_vibe - U_trad| = {worst:.2e}; "
        f"{len(expected_zones)} boundary fixtures",
    )


# --- 9: end-to-end determinism ------------------------------------------------


def _run_study(repo_root: Path, out: Path) -> None:
    import os

    env = {k: v for k, v in os.environ.items() if k != "VCP_CONFIG"}
    proc = subprocess.run(
        [
            sys.executable, str(repo_root / "scripts" / "run_study.py"),
            "--fixtures", str(repo_root / "fixtures" / "study"),
            "--out", str(out),
        ],
        capture_output=True,
        text=True,
        env=env,
        cwd=repo_root,
    )
    assert proc.returncode == 0, proc.stderr


def _tree(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def _close(a, b, where: str) -> None:
    if isinstance(a, float) or isinstance(b, float):
        assert a == pytest.approx(b, rel=1e-9, abs=1e-12), where
    elif isinstance(a, dict):
        assert isinstance(b, dict) and sorted(a) == sorted(b), where
        for key in a:
            _close(a[key], b[key], f"{where}.{key}")
    elif isinstance(a, list):
        assert isinstance(b, list) and len(a) == len(b), where
        for i, (x, y) in enumerate(zip(a, b)):
            _close(x, y, f"{where}[{i}]")
    else:
        assert a == b, where


def _compare_to_golden(run: Path, golden: Path) -> int:
    compared = 0
    for path in sorted(golden.rglob("*")):
        if not path.is_file():
            continue
        rel = path.relative_to(golden)
        fresh = run / rel
        assert fresh.is_file(), f"missing output {rel}"
        if path.suffix == ".json":
            _close(json.loads(fresh.read_text()), json.loads(path.read_text()), str(rel))
        elif path.suffix == ".jsonl":
            fresh_lines = fresh.read_text().splitlines()
            golden_lines = path.read_text().splitlines()
            assert len(fresh_lines) == len(golden_lines), rel
            for i, (f_line, g_line) in enumerate(zip(fresh_lines, golden_lines)):
                _close(json.loads(f_line), json.loads(g_line), f"{rel}:{i + 1}")
        elif path.suffix == ".tsv":
            for f_line, g_line in zip(
                fresh.read_text().splitlines(), path.read_text().splitlines()
            ):
                for f_cell, g_cell in zip(f_line.split("\t"), g_line.split("\t")):
                    try:
                        _close(float(f_cell), float(g_cell), str(rel))
                    except ValueError:
                        assert f_cell == g_cell, rel
        elif path.suffix == ".vcp":
            assert fresh.read_bytes() == path.read_bytes(), rel
        else:
            continue  # .txt summaries restate the numbers above at 4 decimals
        compared += 1
    return compared


def test_acceptance_9_end_to_end_determinism(repo_root, tmp_path):
    first, second = tmp_path / "run1", tmp_path / "run2"
    _run_study(repo_root, first)
    _run_study(repo_root, second)
    tree_one, tree_two = _tree(first), _tree(second)
    assert sorted(tree_one) == sorted(tree_two)
    mismatched = [rel for rel in tree_one if tree_one[rel] != tree_two[rel]]
    assert mismatched == []
    compared = _compare_to_golden(first, repo_root / "fixtures" / "study" / "golden")
    assert compared >= 20
    _report(
        9,
        f"{len(tree_one)} files byte-identical across runs; {compared} outputs "
        f"match the committed golden at 1e-9",
    )
