"""Confidence-interval calibration experiment for the mixed-model fit.

Simulates seeded cohorts from known parameters, refits each one, and
reports 95% CI coverage of the condition effect, the mean estimate, and
the spread of the REML variance components.  Per-replicate estimates go to
a TSV for plotting.  Both files depend only on the options, so two runs write
the same bytes; the elapsed time is printed, not written.

Usage: python3 scripts/coverage_experiment.py --out results/coverage
       [--replicates 500] [--beta1 0.4] [--n-per-condition 40]
"""

from __future__ import annotations

import argparse
import math
import time
from pathlib import Path

from vibecheck.reporting import write_columns, write_json
from vibecheck.stats.mixed import GeneratingParams, fit_mixed, simulate_cohort


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--replicates", type=int, default=500)
    parser.add_argument("--beta0", type=float, default=1.0)
    parser.add_argument("--beta1", type=float, default=0.4)
    parser.add_argument("--beta2", type=float, default=0.2)
    parser.add_argument("--sigma-u", type=float, default=0.5)
    parser.add_argument("--sigma-e", type=float, default=0.5)
    parser.add_argument("--n-per-condition", type=int, default=40)
    parser.add_argument("--occasions", type=int, default=4)
    args = parser.parse_args()

    params = GeneratingParams(
        beta0=args.beta0, beta1=args.beta1, beta2=args.beta2,
        sigma_u=args.sigma_u, sigma_e=args.sigma_e,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    started = time.time()
    rows = []
    covered = 0
    for replicate in range(args.replicates):
        data = simulate_cohort(params, args.n_per_condition, args.occasions, replicate)
        fit = fit_mixed(data)
        lo, hi = fit.ci95_beta1
        hit = lo <= args.beta1 <= hi
        covered += hit
        rows.append(
            (replicate, fit.beta1, fit.se_beta1, lo, hi, int(hit),
             fit.sigma_u, fit.sigma_e)
        )
    elapsed = time.time() - started

    estimates = [r[1] for r in rows]
    mean_est = math.fsum(estimates) / len(estimates)
    sd_est = math.sqrt(
        math.fsum((e - mean_est) ** 2 for e in estimates) / (len(estimates) - 1)
    )
    coverage = covered / args.replicates
    report = {
        "params": {
            "beta0": args.beta0, "beta1": args.beta1, "beta2": args.beta2,
            "sigma_u": args.sigma_u, "sigma_e": args.sigma_e,
            "n_per_condition": args.n_per_condition, "occasions": args.occasions,
        },
        "replicates": args.replicates,
        "coverage": coverage,
        "mean_beta1": mean_est,
        "sd_beta1": sd_est,
        "mean_se_beta1": math.fsum(r[2] for r in rows) / len(rows),
    }
    write_columns(
        out / "replicates.tsv",
        ("replicate", "beta1_hat", "se", "ci_lo", "ci_hi", "covered",
         "sigma_u_hat", "sigma_e_hat"),
        rows,
    )
    write_json(out / "coverage.json", report)
    print(
        f"coverage {coverage:.3f} over {args.replicates} replicates "
        f"(target 0.95), mean beta1 {mean_est:.4f} vs {args.beta1}, "
        f"{elapsed:.1f}s -> {out}"
    )


if __name__ == "__main__":
    main()
