"""The ``vcp`` command line.

Subcommands: metrics, sdt, traps generate, retention, calibrate, egap,
score, power, simulate, fit, spearman, kappa.  Flags beat the config file
(``--config`` or ``$VCP_CONFIG``), which beats defaults; every machine
report embeds the resolved configuration and the seeds used.  Exit codes:
0 success, 1 validation error, 2 computation error; a successful command
writes each distinct warning it raised as one ``vcp: warning:`` line.

With ``--out DIR`` the machine report(s), a human summary, and any
plot-ready column files are written under DIR and the summary is printed;
without it the machine JSON goes to stdout and the summary to stderr.

Every layer but the stats layer loads with this module, because
``perfbench/benchtrace.py`` wraps only the functions of the modules loaded
once ``vibecheck.cli`` has run.  The stats handlers (power, simulate, fit,
spearman, kappa) import the stats layer when they run, so only the commands
that draw random numbers load numpy: power, simulate and spearman with
--permutations.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
import warnings
from collections import Counter
from pathlib import Path
from typing import Optional, Sequence

from vibecheck import __version__, composite, retention, sdt, trapforge
from vibecheck.codemetrics.cfg import load_cfg
from vibecheck.codemetrics.metrics import metrics, metrics_record
from vibecheck.codemetrics.parser import parse_file
from vibecheck.config import CORRECTIONS, VELOCITY_UNITS, RunConfig, resolve_config
from vibecheck.errors import ComputationError, ValidationError
from vibecheck.explainability import E_GAP_DEFINITION, e_gap, load_ontology
from vibecheck.io import csv_rows, read_csv, read_json, read_text
from vibecheck.pool import FORK_MIN_BYTES, ordered_map, path_bytes
from vibecheck.reporting import (
    dumps_record,
    human_table,
    write_columns,
    write_json,
    write_jsonl,
    write_text,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse default exits 2; usage errors are 1
        raise ValidationError(message)


def _finite(text: str) -> float:
    """A numeric option or CSV cell: a float that is neither nan nor inf."""
    if math.isfinite(value := float(text)):
        return value
    raise ValueError(f"{value!r} is not finite")


def _finite_float(text: str) -> float:
    """Argument type for numeric options."""
    try:
        return _finite(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}") from None


@functools.cache  # one parser per process; parse_args keeps no state between calls
def _build_parser() -> _Parser:
    parser = _Parser(prog="vcp", description=__doc__.partition("\n")[0])
    parser.add_argument("--version", action="version", version=f"vcp {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file (default: $VCP_CONFIG)")
    common.add_argument("--seed", type=int, default=None, help="run seed")
    common.add_argument("--out", help="output directory for report files")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("metrics", parents=[common], help="structural metrics of source units")
    p.add_argument("files", nargs="+", help=".vcp source or .json control-flow graph files")

    p = sub.add_parser("sdt", parents=[common], help="signal-detection scores per reviewer")
    p.add_argument("--responses", required=True, help="JSONL trap-response records")
    p.add_argument("--answer-key", help="the corpus answer key to check the responses against")
    p.add_argument("--k", type=_finite_float, default=None, help="logistic slope")
    p.add_argument("--delta", type=_finite_float, default=None, help="logistic midpoint")
    p.add_argument("--correction", choices=CORRECTIONS, default=None)

    traps = sub.add_parser("traps", help="trap-corpus operations")
    traps_sub = traps.add_subparsers(dest="traps_command", required=True)
    p = traps_sub.add_parser("generate", parents=[common], help="derive a review corpus")
    p.add_argument("--origins", required=True, help="directory of clean .vcp origins")
    p.add_argument("--fraction", type=_finite_float, default=None, dest="trap_fraction",
                   help="fraction of items mutated")

    p = sub.add_parser("retention", parents=[common], help="retention scoring / decay fits")
    p.add_argument("--build", help="ai_build session log")
    p.add_argument("--refactor", help="cold_refactor session log")
    p.add_argument("--calibration", help="calibration JSON from 'vcp calibrate'")
    p.add_argument("--allow-uncalibrated", action="store_true", default=None)
    p.add_argument("--idle-gap", type=_finite_float, default=None, help="idle gap seconds")
    p.add_argument("--velocity-unit", choices=VELOCITY_UNITS, default=None)
    p.add_argument("--decay", help="CSV of t,s observations to fit instead")

    p = sub.add_parser("calibrate", parents=[common], help="fit complexity weights on expert pairs")
    p.add_argument("--pairs", required=True, help="JSONL manifest of build/refactor log paths")
    p.add_argument("--baseline-id", default="expert-baseline", help="calibration label")
    p.add_argument("--idle-gap", type=_finite_float, default=None)

    p = sub.add_parser("egap", parents=[common], help="explanation-gap scoring")
    p.add_argument("--transcript", help="explanation transcript text file")
    p.add_argument("--ontology", help="concept ontology JSON")
    p.add_argument("--code", help=".vcp source or .json control-flow graph")
    p.add_argument("--epsilon", type=_finite_float, default=None)
    p.add_argument("--check-ontology", help="validate an ontology file and exit")

    p = sub.add_parser("score", parents=[common], help="composite utility and zones")
    p.add_argument("--records", required=True, help="JSONL student metric records")
    p.add_argument("--weights", default=None,
                   help='"default" (equal thirds) or three comma-separated weights')
    p.add_argument("--gamma", type=_finite_float, default=None)
    p.add_argument("--no-gamma", action="store_true", help="drop the time-cost term")

    p = sub.add_parser("power", parents=[common], help="Monte-Carlo sample-size search")
    p.add_argument("--d", type=_finite_float, required=True, help="effect size (Cohen's d)")
    p.add_argument("--alpha", type=_finite_float, default=0.05)
    p.add_argument("--power", type=_finite_float, default=0.8, dest="target_power")
    p.add_argument("--design", choices=["two_sample", "paired"], default="two_sample")
    p.add_argument("--replicates", type=int, default=None)
    p.add_argument("--attrition", type=_finite_float, default=None,
                   help="expected attrition rate")
    p.add_argument("--stated-target", type=int, default=None,
                   help="flag a stated recruitment figure against the formula (needs --attrition)")
    p.add_argument("--cohort-rounding", action="store_true", default=None,
                   help="round recruitment targets up to the next multiple of 10")

    p = sub.add_parser("simulate", parents=[common], help="simulate a two-condition cohort")
    p.add_argument("--beta0", type=_finite_float, required=True)
    p.add_argument("--beta1", type=_finite_float, required=True)
    p.add_argument("--beta2", type=_finite_float, required=True)
    p.add_argument("--sigma-u", type=_finite_float, required=True)
    p.add_argument("--sigma-e", type=_finite_float, required=True)
    p.add_argument("--n-per-condition", type=int, required=True)
    p.add_argument("--occasions", type=int, required=True)

    p = sub.add_parser("fit", parents=[common], help="REML random-intercept fit")
    p.add_argument("--data", required=True, help="cohort JSONL")

    p = sub.add_parser("spearman", parents=[common], help="rank correlation")
    p.add_argument("--data", required=True, help="CSV with columns x,y")
    p.add_argument("--permutations", type=int, default=0)

    p = sub.add_parser("kappa", parents=[common], help="inter-rater agreement")
    p.add_argument("--data", required=True, help="CSV with columns a,b")
    return parser


# --- output plumbing -------------------------------------------------------


class _Sink:
    """Where one command's reports go, and the envelope each report carries."""

    def __init__(self, out: Optional[str], command: str, config: RunConfig):
        self.out_dir = Path(out) if out else None
        if self.out_dir:
            self.out_dir.mkdir(parents=True, exist_ok=True)
        self.command = command
        self.config = config

    def report(self, fields: dict) -> dict:
        """The machine report: the command, the resolved config, then ``fields``."""
        return {"command": self.command, "config": self.config.to_dict(), **fields}

    def emit(self, name: str, fields: dict, summary: str) -> None:
        report = self.report(fields)
        if self.out_dir:
            write_json(self.out_dir / f"{name}.json", report)
            write_text(self.out_dir / f"{name}.txt", summary)
            sys.stdout.write(summary)
        else:
            sys.stdout.write(dumps_record(report, indent=2) + "\n")
            sys.stderr.write(summary)

    def emit_record(self, name: str, record: dict, columns: Sequence[str], note: str = "") -> None:
        """A one-record report, summarised as a one-row table and ``note``."""
        self.emit(name, record, human_table([record], columns) + note)

    def emit_table(self, name: str, records: list[dict], columns: Sequence[str]) -> None:
        """``records`` as ``name.jsonl``, in the report and as the summary table."""
        self.emit_records(name, records)
        self.emit(name, {"records": records}, human_table(records, columns))

    def emit_records(self, name: str, records: list[dict]) -> None:
        if self.out_dir:
            write_jsonl(self.out_dir / f"{name}.jsonl", records)

    def emit_columns(self, name: str, columns: Sequence[str], rows) -> None:
        if self.out_dir:
            write_columns(self.out_dir / f"{name}.tsv", columns, rows)


def _load_unit_or_cfg(path: str):
    """A .vcp file parses to a source unit; anything else loads as a graph."""
    p = Path(path)
    if p.suffix == ".vcp":
        return parse_file(p, p.name)
    return load_cfg(p)


# --- subcommand bodies -----------------------------------------------------


def _file_metrics(path: str) -> dict:
    return metrics_record(Path(path).name, metrics(_load_unit_or_cfg(path)))


def _cmd_metrics(args, config: RunConfig, sink: _Sink) -> int:
    sizes = [path_bytes(f) for f in args.files]
    records = ordered_map(_file_metrics, args.files, sizes, FORK_MIN_BYTES)
    sink.emit_table("metrics", records, ["unit", "cc", "n1", "n2", "N1", "N2", "volume_v", "h_c"])
    return 0


def _cmd_sdt(args, config: RunConfig, sink: _Sink) -> int:
    by_reviewer = sdt.load_responses(args.responses, args.answer_key)
    records = []
    for reviewer in sorted(by_reviewer):
        result = sdt.score_responses(
            reviewer, by_reviewer[reviewer], config.k, config.delta, config.correction
        )
        records.append(result._asdict())
    sink.emit_table(
        "sdt",
        records,
        ["reviewer", "hit_rate_corrected", "fa_rate_corrected", "d_prime", "m_ht",
         "correction_applied"],
    )
    return 0


def _cmd_traps_generate(args, config: RunConfig, sink: _Sink) -> int:
    out = sink.out_dir
    if not out:
        raise ValidationError("traps generate requires --out CORPUS_DIR")
    origins_dir = Path(args.origins)
    paths = sorted(origins_dir.glob("*.vcp"))
    if not paths:
        raise ValidationError(f"no .vcp origins found in {origins_dir}")
    corpus = trapforge.generate_corpus(paths, config.trap_fraction, config.seed)
    trapforge.write_corpus(corpus, out)
    counts = corpus.counts()
    write_json(out / "report.json", sink.report({
        "n_origins": len(paths),
        **counts,
        "kinds": {
            kind: sum(1 for i in corpus.items if i.defect_kind == kind)
            for kind in trapforge.DEFECT_KINDS
        },
    }))
    n_items, traps = counts["n_items"], counts["actual_traps"]
    sys.stdout.write(
        f"corpus: {n_items} items ({traps} traps, {n_items - traps} clean), shortfall "
        f"{counts['shortfall']}, seed {config.seed}\nanswer key: {out / 'answer_key.jsonl'}\n"
    )
    return 0


def _cmd_retention(args, config: RunConfig, sink: _Sink) -> int:
    if args.decay:
        sink.command = "retention decay"
        data = read_csv(args.decay, ("t", "s"), _finite)
        fit = retention.fit_decay(list(zip(data["t"], data["s"])))
        rows = [(t, s, fit.curve(t)) for t, s in zip(data["t"], data["s"])]
        sink.emit_columns("decay_curve", ("t", "s", "fitted"), rows)
        sink.emit_record(
            "decay_fit",
            fit._asdict(),
            ["s0", "lam", "rms_residual", "n_used", "n_excluded"],
        )
        return 0
    if not args.build or not args.refactor:
        raise ValidationError("retention needs --build and --refactor (or --decay)")
    build = retention.read_session_log(args.build)
    refactor = retention.read_session_log(args.refactor)
    if args.calibration:
        calibration = read_json(
            args.calibration, retention.OmegaCalibration.from_dict, "calibration"
        )
    elif config.allow_uncalibrated:
        calibration = retention.UNCALIBRATED
    else:
        raise ValidationError(
            "no calibration given; pass --calibration FILE or --allow-uncalibrated "
            "to score with the raw ln(cc) weight"
        )
    result = retention.m_csr(build, refactor, calibration, config.idle_gap, config.velocity_unit)
    sink.emit_record(
        "retention",
        result._asdict(),
        ["student", "v_build", "v_rec", "omega", "m_csr", "delta_t_hours"],
    )
    return 0


def _cmd_calibrate(args, config: RunConfig, sink: _Sink) -> int:
    pairs = retention.read_pairs(args.pairs)
    calibration, mean_score = retention.calibrate_omega(
        pairs, config.idle_gap, args.baseline_id, config.velocity_unit
    )
    if abs(mean_score - 1.0) > 0.05:
        raise ComputationError(
            f"calibration failed its own baseline: mean retention score "
            f"{mean_score:.6f} is outside 1 +/- 0.05"
        )
    if sink.out_dir:
        write_json(sink.out_dir / "calibration.json", calibration.to_dict())
    sink.emit_record(
        "calibrate",
        {**calibration.to_dict(), "baseline_mean_m_csr": mean_score, "n_pairs": len(pairs)},
        ["alpha", "beta", "baseline_source", "baseline_mean_m_csr", "n_pairs"],
    )
    return 0


def _cmd_egap(args, config: RunConfig, sink: _Sink) -> int:
    if args.check_ontology:
        ontology = load_ontology(args.check_ontology)
        sys.stdout.write(
            f"ontology OK: unit {ontology.unit!r}, version {ontology.version!r}, "
            f"{len(ontology.concepts)} concepts\n"
        )
        return 0
    if not (args.transcript and args.ontology and args.code):
        raise ValidationError("egap needs --transcript, --ontology, and --code")
    transcript = read_text(args.transcript)
    ontology = load_ontology(args.ontology)
    unit = _load_unit_or_cfg(args.code)
    score = e_gap(transcript, ontology, metrics(unit), epsilon=config.epsilon)
    record = {**score._asdict(), "definition": E_GAP_DEFINITION}
    sink.emit_record("egap", record, ["unit", "coverage", "h_e", "h_c", "e_gap", "degenerate"])
    return 0


def _parse_weights(text: str) -> dict:
    if text == "default":
        return {"w1": RunConfig.w1, "w2": RunConfig.w2, "w3": RunConfig.w3}
    parts = text.split(",")
    if len(parts) != 3:
        raise ValidationError(
            f'--weights takes "default" or three comma-separated numbers, got {text!r}'
        )
    try:
        w1, w2, w3 = (float(p) for p in parts)
    except ValueError as exc:
        raise ValidationError(f"--weights: non-numeric entry in {text!r}") from exc
    return {"w1": w1, "w2": w2, "w3": w3}


def _cmd_score(args, config: RunConfig, sink: _Sink) -> int:
    if args.weights is not None:
        config = config._replace(**_parse_weights(args.weights))
    if args.no_gamma:
        config = config._replace(gamma=0.0)
    sink.config = config  # the report records the weights the scores used
    weights = composite.UtilityWeights(config.w1, config.w2, config.w3, config.gamma)
    records, summary = composite.score_cohort(
        composite.read_student_records(args.records), weights,
        config.m_csr_threshold, config.e_gap_threshold, config.m_ht_cutoff,
    )
    rows = summary["by_condition"]  # read_student_records refuses an empty file
    text = human_table(
        records,
        ["student", "condition", "m_csr", "m_ht", "e_gap", "t_dev", "utility", "zone", "flags"],
    ) + "\n" + human_table(
        rows, ["condition", "n", "mean_m_csr", "sd_m_csr", "mean_utility", "sd_utility"]
    )
    columns = composite.COHORT_SUMMARY_COLUMNS
    sink.emit_records("score", records)
    sink.emit_columns("cohort_summary", columns, [tuple(row[c] for c in columns) for row in rows])
    sink.emit("score_report", {"records": records, "summary": summary}, text)
    return 0


def _cmd_power(args, config: RunConfig, sink: _Sink) -> int:
    from vibecheck.stats.power import (
        PowerSpec,
        attrition_target,
        required_n,
        stated_target_exceeds,
    )

    if args.stated_target is not None and args.attrition is None:
        raise ValidationError("--stated-target needs --attrition")
    spec = PowerSpec(effect_size_d=args.d, alpha=args.alpha, target_power=args.target_power,
                     design=args.design, replicates=config.replicates, seed=config.seed)
    result = required_n(spec)
    record = {
        "design": spec.design,
        "effect_size_d": spec.effect_size_d,
        "alpha": spec.alpha,
        "target_power": spec.target_power,
        "replicates": spec.replicates,
        "n_required": result.n_required,
        "n_analytic": result.n_analytic,
        "power_at_n": result.power_at_n,
        "attrition": None,
        "stated_target": None,
        "stated_exceeds_formula": None,
    }
    note = ""
    if args.attrition is not None:
        target = attrition_target(
            result.n_required, args.attrition, rounding=config.cohort_rounding
        )
        record["attrition"] = target._asdict()
        note = f"recruitment target at {args.attrition:.0%} attrition: {target.rounded_target}"
        if args.stated_target is not None:
            record["stated_target"] = args.stated_target
            record["stated_exceeds_formula"] = stated_target_exceeds(
                target, args.stated_target
            )
            if record["stated_exceeds_formula"]:
                note += (
                    f" (stated target {args.stated_target} exceeds the formula: "
                    "conservative padding)"
                )
        note += "\n"
    sink.emit_columns("power_curve", ("n", "mc_power"), list(result.evaluations))
    sink.emit_record(
        "power",
        record,
        ["design", "effect_size_d", "n_required", "n_analytic", "power_at_n"],
        note,
    )
    return 0


def _cmd_simulate(args, config: RunConfig, sink: _Sink) -> int:
    from vibecheck.stats.mixed import GeneratingParams, simulate_cohort, write_cohort

    params = GeneratingParams(
        beta0=args.beta0,
        beta1=args.beta1,
        beta2=args.beta2,
        sigma_u=args.sigma_u,
        sigma_e=args.sigma_e,
    )
    dataset = simulate_cohort(params, args.n_per_condition, args.occasions, config.seed)
    fields = {
        "params": params._asdict(),
        "n_per_condition": args.n_per_condition,
        "occasions": args.occasions,
        "n_obs": len(dataset),
    }
    if sink.out_dir:
        write_cohort(dataset, sink.out_dir / "cohort.jsonl")
    else:
        fields["records"] = dataset.records()
    summary = (
        f"cohort: {2 * args.n_per_condition} students x {args.occasions} occasions "
        f"= {len(dataset)} observations, seed {config.seed}\n"
    )
    sink.emit("simulate", fields, summary)
    return 0


def _cmd_fit(args, config: RunConfig, sink: _Sink) -> int:
    from vibecheck.stats.mixed import fit_mixed, read_cohort

    fit = fit_mixed(read_cohort(args.data))
    lo, hi = fit.ci95_beta1
    sink.emit_record(
        "mixed_fit",
        fit._asdict(),
        ["beta0", "beta1", "beta2", "se_beta1", "sigma_u", "sigma_e", "theta"],
        f"95% CI for the condition effect: [{lo:.4f}, {hi:.4f}]\n",
    )
    return 0


def _cmd_spearman(args, config: RunConfig, sink: _Sink) -> int:
    from vibecheck.stats.spearman import spearman

    data = read_csv(args.data, ("x", "y"), _finite)
    result = spearman(
        data["x"],
        data["y"],
        permutations=args.permutations,
        seed=config.seed if args.permutations else None,
    )
    sink.emit_record(
        "spearman", result._asdict(), ["n", "rho", "p_two_sided", "p_permutation"]
    )
    return 0


def _cmd_kappa(args, config: RunConfig, sink: _Sink) -> int:
    from vibecheck.stats.kappa import cohens_kappa

    counts = Counter(csv_rows(args.data, ("a", "b")))
    sink.emit_record(
        "kappa", {"kappa": cohens_kappa(counts), "n": sum(counts.values())}, ["n", "kappa"]
    )
    return 0


_COMMANDS = {
    "metrics": _cmd_metrics,
    "sdt": _cmd_sdt,
    "traps generate": _cmd_traps_generate,
    "retention": _cmd_retention,
    "calibrate": _cmd_calibrate,
    "egap": _cmd_egap,
    "score": _cmd_score,
    "power": _cmd_power,
    "simulate": _cmd_simulate,
    "fit": _cmd_fit,
    "spearman": _cmd_spearman,
    "kappa": _cmd_kappa,
}


def run(argv: Optional[Sequence[str]] = None) -> int:
    """Parse ``argv``, resolve the config (every option named after a config
    key overrides that key), open the output sink and run the command."""
    parser = _build_parser()
    command = "vcp"
    with warnings.catch_warnings(record=True) as caught:
        try:
            args = parser.parse_args(argv)
            command = f"traps {args.traps_command}" if args.command == "traps" else args.command
            overrides = {name: getattr(args, name, None) for name in RunConfig._fields}
            config = resolve_config(args.config, overrides)
            code = _COMMANDS[command](args, config, _Sink(args.out, command, config))
        except ValidationError as exc:
            sys.stderr.write(f"vcp: error: {exc}\n")
            code = 1
        except ComputationError as exc:
            sys.stderr.write(f"vcp: computation error: {exc}\n")
            code = 2
        except OverflowError as exc:  # a result past the range of a float
            sys.stderr.write(f"vcp: computation error: numeric overflow: {exc}\n")
            code = 2
        except OSError as exc:
            sys.stderr.write(f"vcp: error: {exc}\n")
            code = 1
        except MemoryError:
            sys.stderr.write(f"vcp: error: {command}: input too large for the memory available\n")
            code = 1
    if code == 0:
        for message in dict.fromkeys(str(w.message) for w in caught):
            sys.stderr.write(f"vcp: warning: {message}\n")
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
