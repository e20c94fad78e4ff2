"""Sweep Monte-Carlo power curves across effect sizes and designs.

For each effect size the script runs the sample-size search, then fills in
the rejection rate at every n along the way plus a margin above, writing
one plot-ready TSV per (design, d) pair and a summary table to stdout.

Usage: python3 scripts/power_curves.py --out results/power [--replicates 20000]
"""

from __future__ import annotations

import argparse
from pathlib import Path

from vibecheck.config import RunConfig
from vibecheck.reporting import human_table, write_columns
from vibecheck.stats.power import PowerSpec, mc_power, required_n

EFFECT_SIZES = (0.3, 0.5, 0.8)
DESIGNS = ("two_sample", "paired")


def sweep(design: str, d: float, replicates: int, seed: int, out: Path) -> dict:
    spec = PowerSpec(
        effect_size_d=d, design=design, replicates=replicates, seed=seed
    )
    result = required_n(spec)
    # Dense curve: every candidate the search touched, extended 25% past the
    # answer so the plateau is visible.
    ns = {n for n, _ in result.evaluations}
    top = max(result.n_required + 2, int(result.n_required * 1.25))
    step = max(1, (top - 2) // 40)
    ns.update(range(2, top + 1, step))
    rows = [(n, mc_power(n, spec)) for n in sorted(ns)]
    name = f"curve_{design}_d{str(d).replace('.', '')}"
    write_columns(out / f"{name}.tsv", ("n", "mc_power"), rows)
    return {
        "design": design,
        "d": d,
        "n_required": result.n_required,
        "n_analytic": result.n_analytic,
        "power_at_n": result.power_at_n,
        "points": len(rows),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--replicates", type=int, default=RunConfig.replicates)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    summary = [
        sweep(design, d, args.replicates, args.seed, out)
        for design in DESIGNS
        for d in EFFECT_SIZES
    ]
    print(
        human_table(
            summary,
            ["design", "d", "n_required", "n_analytic", "power_at_n", "points"],
        ),
        end="",
    )
    print(f"curves written to {out}")


if __name__ == "__main__":
    main()
