"""The power-curve sweep script writes one curve per (design, d)."""

import importlib.util

import pytest

from vibecheck.stats.power import PowerSpec, required_n


@pytest.fixture(scope="module")
def power_curves(repo_root):
    spec = importlib.util.spec_from_file_location(
        "power_curves", repo_root / "scripts" / "power_curves.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("design", ["two_sample", "paired"])
def test_sweep_writes_a_curve_through_the_answer(power_curves, tmp_path, design):
    summary = power_curves.sweep(design, 0.8, 2000, 0, tmp_path)
    result = required_n(
        PowerSpec(effect_size_d=0.8, design=design, replicates=2000, seed=0)
    )
    assert summary["n_required"] == result.n_required
    assert summary["power_at_n"] == result.power_at_n
    lines = (tmp_path / f"curve_{design}_d08.tsv").read_text().splitlines()
    assert lines[0] == "n\tmc_power"
    rows = [line.split("\t") for line in lines[1:]]
    assert len(rows) == summary["points"]
    ns = [int(n) for n, _ in rows]
    assert ns == sorted(set(ns)) and ns[0] == 2
    assert ns[-1] >= result.n_required + 2
    curve = {int(n): float(p) for n, p in rows}
    assert all(curve[n] == p for n, p in result.evaluations)
