"""The ``vcp`` command line.

Subcommands: metrics, sdt, traps generate, retention, calibrate, egap,
score, power, simulate, fit, spearman, kappa.  Flags beat the config file
(``--config`` or ``$VCP_CONFIG``), which beats defaults; every machine
report embeds the resolved configuration and the seeds used.  Exit codes:
0 success, 1 validation error, 2 computation error.

With ``--out DIR`` the machine report(s), a human summary, and any
plot-ready column files are written under DIR and the summary is printed;
without it the machine JSON goes to stdout and the summary to stderr.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
from pathlib import Path
from typing import Optional, Sequence

from vibecheck import __version__, composite, retention, sdt, trapforge
from vibecheck.codemetrics import load_cfg, metrics, metrics_record, parse
from vibecheck.config import RunConfig, resolve_config
from vibecheck.errors import ComputationError, ValidationError, VcpError
from vibecheck.explainability import e_gap, load_ontology
from vibecheck.reporting import (
    dumps_record,
    human_table,
    write_columns,
    write_json,
    write_jsonl,
)
from vibecheck.stats import (
    GeneratingParams,
    PowerSpec,
    attrition_target,
    cohens_kappa,
    fit_mixed,
    required_n,
    simulate_cohort,
    spearman,
)
from vibecheck.stats.mixed import read_cohort, write_cohort
from vibecheck.stats.power import stated_target_exceeds


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse default exits 2; usage errors are 1
        raise ValidationError(message)


def _finite_float(text: str) -> float:
    """Argument type for numeric options: a float that is neither nan nor inf."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _build_parser() -> _Parser:
    parser = _Parser(prog="vcp", description=__doc__.splitlines()[0])
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
    p.add_argument("--k", type=_finite_float, default=None, help="logistic slope")
    p.add_argument("--delta", type=_finite_float, default=None, help="logistic midpoint")
    p.add_argument("--correction", choices=["half-count", "none"], default=None)

    traps = sub.add_parser("traps", help="trap-corpus operations")
    traps_sub = traps.add_subparsers(dest="traps_command", required=True)
    p = traps_sub.add_parser("generate", parents=[common], help="derive a review corpus")
    p.add_argument("--origins", required=True, help="directory of clean .vcp origins")
    p.add_argument("--fraction", type=_finite_float, default=None,
                   help="fraction of items mutated")

    p = sub.add_parser("retention", parents=[common], help="retention scoring / decay fits")
    p.add_argument("--build", help="ai_build session log")
    p.add_argument("--refactor", help="cold_refactor session log")
    p.add_argument("--calibration", help="calibration JSON from 'vcp calibrate'")
    p.add_argument("--allow-uncalibrated", action="store_true", default=None)
    p.add_argument("--idle-gap", type=_finite_float, default=None, help="idle gap seconds")
    p.add_argument("--velocity-unit", choices=["volume", "loc"], default=None)
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
                   help="flag a stated recruitment figure against the formula")
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
    def __init__(self, out: Optional[str]):
        self.out_dir = Path(out) if out else None
        if self.out_dir:
            self.out_dir.mkdir(parents=True, exist_ok=True)

    def emit(self, name: str, report: dict, summary: str) -> None:
        if self.out_dir:
            write_json(self.out_dir / f"{name}.json", report)
            (self.out_dir / f"{name}.txt").write_text(summary)
            sys.stdout.write(summary)
        else:
            sys.stdout.write(dumps_record(report, indent=2) + "\n")
            sys.stderr.write(summary)

    def emit_records(self, name: str, records: list[dict]) -> None:
        if self.out_dir:
            write_jsonl(self.out_dir / f"{name}.jsonl", records)

    def emit_columns(self, name: str, columns: Sequence[str], rows) -> None:
        if self.out_dir:
            write_columns(self.out_dir / f"{name}.tsv", columns, rows)


def _overrides(args: argparse.Namespace, mapping: dict[str, str]) -> dict:
    out = {}
    for flag, key in mapping.items():
        value = getattr(args, flag, None)
        if value is not None:
            out[key] = value
    return out


def _config(args: argparse.Namespace, mapping: Optional[dict[str, str]] = None) -> RunConfig:
    overrides = _overrides(args, mapping or {})
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    return resolve_config(getattr(args, "config", None), overrides)


def _read_csv_columns(path: str, columns: tuple[str, ...]) -> dict[str, list[float]]:
    try:
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            fields = tuple(reader.fieldnames or ())
            if set(columns) - set(fields):
                raise ValidationError(
                    f"{path}: expected CSV columns {', '.join(columns)}; got "
                    f"{', '.join(fields) or 'none'}"
                )
            data: dict[str, list[float]] = {c: [] for c in columns}
            for lineno, row in enumerate(reader, start=2):
                for c in columns:
                    try:
                        data[c].append(float(row[c]))
                    except (TypeError, ValueError) as exc:
                        raise ValidationError(f"{path}:{lineno}: bad {c!r} value") from exc
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    if not data[columns[0]]:
        raise ValidationError(f"{path}: no data rows")
    return data


def _read_csv_strings(path: str, columns: tuple[str, ...]) -> dict[str, list[str]]:
    try:
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            fields = tuple(reader.fieldnames or ())
            if set(columns) - set(fields):
                raise ValidationError(
                    f"{path}: expected CSV columns {', '.join(columns)}; got "
                    f"{', '.join(fields) or 'none'}"
                )
            data: dict[str, list[str]] = {c: [] for c in columns}
            for row in reader:
                for c in columns:
                    data[c].append(row[c])
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    if not data[columns[0]]:
        raise ValidationError(f"{path}: no data rows")
    return data


def _load_unit_or_cfg(path: str):
    """A .vcp file parses to a source unit; anything else loads as a graph."""
    p = Path(path)
    if p.suffix == ".vcp":
        try:
            return parse(p.read_text(), name=p.name)
        except OSError as exc:
            raise ValidationError(f"cannot read {path}: {exc}") from exc
    return load_cfg(p)


# --- subcommand bodies -----------------------------------------------------


def _cmd_metrics(args) -> int:
    config = _config(args)
    sink = _Sink(args.out)
    records = []
    for file in args.files:
        unit = _load_unit_or_cfg(file)
        name = unit.name if hasattr(unit, "name") else Path(file).name
        records.append(metrics_record(name, metrics(unit)))
    report = {"command": "metrics", "config": config.to_dict(), "records": records}
    summary = human_table(
        records, ["unit", "cc", "n1", "n2", "N1", "N2", "volume_v", "h_c"]
    )
    sink.emit_records("metrics", records)
    sink.emit("metrics", report, summary)
    return 0


def _cmd_sdt(args) -> int:
    config = _config(args, {"k": "k", "delta": "delta", "correction": "correction"})
    sink = _Sink(args.out)
    by_reviewer = sdt.load_responses(args.responses)
    records = []
    for reviewer in sorted(by_reviewer):
        result = sdt.score_responses(
            reviewer,
            by_reviewer[reviewer],
            k=config.k,
            delta=config.delta,
            correction=config.correction,
        )
        records.append(dataclasses.asdict(result))
    report = {"command": "sdt", "config": config.to_dict(), "records": records}
    summary = human_table(
        records,
        ["reviewer", "hit_rate_corrected", "fa_rate_corrected", "d_prime", "m_ht",
         "correction_applied"],
    )
    sink.emit_records("sdt", records)
    sink.emit("sdt", report, summary)
    return 0


def _cmd_traps_generate(args) -> int:
    config = _config(args, {"fraction": "trap_fraction"})
    if not args.out:
        raise ValidationError("traps generate requires --out CORPUS_DIR")
    origins_dir = Path(args.origins)
    paths = sorted(origins_dir.glob("*.vcp"))
    if not paths:
        raise ValidationError(f"no .vcp origins found in {origins_dir}")
    origins = [parse(p.read_text(), name=p.stem) for p in paths]
    corpus = trapforge.generate_corpus(origins, config.trap_fraction, config.seed)
    out = Path(args.out)
    trapforge.write_corpus(corpus, out)
    actual = sum(1 for i in corpus.items if i.ground_truth == "trap")
    report = {
        "command": "traps generate",
        "config": config.to_dict(),
        "n_origins": len(origins),
        "n_items": len(corpus.items),
        "requested_traps": corpus.requested_traps,
        "actual_traps": actual,
        "shortfall": corpus.shortfall,
        "kinds": {
            kind: sum(1 for i in corpus.items if i.defect_kind == kind)
            for kind in trapforge.DEFECT_KINDS
        },
    }
    write_json(out / "report.json", report)
    summary = (
        f"corpus: {len(corpus.items)} items ({actual} traps, "
        f"{len(corpus.items) - actual} clean), shortfall {corpus.shortfall}, "
        f"seed {config.seed}\nanswer key: {out / 'answer_key.jsonl'}\n"
    )
    sys.stdout.write(summary)
    return 0


def _cmd_retention(args) -> int:
    mapping = {
        "idle_gap": "idle_gap",
        "velocity_unit": "velocity_unit",
        "allow_uncalibrated": "allow_uncalibrated",
    }
    config = _config(args, mapping)
    sink = _Sink(args.out)
    if args.decay:
        data = _read_csv_columns(args.decay, ("t", "s"))
        fit = retention.fit_decay(list(zip(data["t"], data["s"])))
        record = dataclasses.asdict(fit)
        report = {"command": "retention decay", "config": config.to_dict(), **record}
        summary = human_table([record], ["s0", "lam", "rms_residual", "n_used", "n_excluded"])
        sink.emit_columns(
            "decay_curve",
            ("t", "s", "fitted"),
            [
                (t, s, fit.s0 * math.exp(-fit.lam * t))
                for t, s in zip(data["t"], data["s"])
            ],
        )
        sink.emit("decay_fit", report, summary)
        return 0
    if not args.build or not args.refactor:
        raise ValidationError("retention needs --build and --refactor (or --decay)")
    build = retention.read_session_log(args.build)
    refactor = retention.read_session_log(args.refactor)
    if args.calibration:
        calibration = retention.OmegaCalibration.from_dict(
            json.loads(Path(args.calibration).read_text())
        )
    elif config.allow_uncalibrated:
        calibration = retention.UNCALIBRATED
    else:
        raise ValidationError(
            "no calibration given; pass --calibration FILE or --allow-uncalibrated "
            "to score with the raw ln(cc) weight"
        )
    result = retention.m_csr(
        build,
        refactor,
        calibration,
        idle_gap=config.idle_gap,
        velocity_unit=config.velocity_unit,
    )
    record = dataclasses.asdict(result)
    report = {"command": "retention", "config": config.to_dict(), **record}
    summary = human_table(
        [record],
        ["student", "v_build", "v_rec", "omega", "m_csr", "delta_t_hours"],
    )
    sink.emit("retention", report, summary)
    return 0


def _cmd_calibrate(args) -> int:
    config = _config(args, {"idle_gap": "idle_gap"})
    sink = _Sink(args.out)
    manifest = Path(args.pairs)
    pairs = []
    for lineno, line in enumerate(manifest.read_text().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
            build = retention.read_session_log(manifest.parent / rec["build"])
            refactor = retention.read_session_log(manifest.parent / rec["refactor"])
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise ValidationError(f"{manifest}:{lineno}: bad pair record: {exc}") from exc
        pairs.append((build, refactor))
    calibration = retention.calibrate_omega(
        pairs, idle_gap=config.idle_gap, baseline_source=args.baseline_id
    )
    mean_score = retention.calibration_mean_score(
        calibration, pairs, idle_gap=config.idle_gap
    )
    if abs(mean_score - 1.0) > 0.05:
        raise ComputationError(
            f"calibration failed its own baseline: mean retention score "
            f"{mean_score:.6f} is outside 1 +/- 0.05"
        )
    record = {**calibration.to_dict(), "baseline_mean_m_csr": mean_score, "n_pairs": len(pairs)}
    report = {"command": "calibrate", "config": config.to_dict(), **record}
    if sink.out_dir:
        write_json(sink.out_dir / "calibration.json", calibration.to_dict())
    summary = human_table(
        [record], ["alpha", "beta", "baseline_source", "baseline_mean_m_csr", "n_pairs"]
    )
    sink.emit("calibrate", report, summary)
    return 0


def _cmd_egap(args) -> int:
    config = _config(args, {"epsilon": "epsilon"})
    if args.check_ontology:
        ontology = load_ontology(args.check_ontology)
        sys.stdout.write(
            f"ontology OK: unit {ontology.unit!r}, version {ontology.version!r}, "
            f"{len(ontology.concepts)} concepts\n"
        )
        return 0
    if not (args.transcript and args.ontology and args.code):
        raise ValidationError("egap needs --transcript, --ontology, and --code")
    sink = _Sink(args.out)
    transcript = Path(args.transcript).read_text()
    ontology = load_ontology(args.ontology)
    unit = _load_unit_or_cfg(args.code)
    score = e_gap(transcript, ontology, metrics(unit), epsilon=config.epsilon)
    record = dataclasses.asdict(score)
    record["definition"] = "coverage-weighted decision entropy vs structural entropy"
    report = {"command": "egap", "config": config.to_dict(), **record}
    summary = human_table(
        [record], ["unit", "coverage", "h_e", "h_c", "e_gap", "degenerate"]
    )
    sink.emit("egap", report, summary)
    return 0


def _parse_weights(text: str) -> dict:
    if text == "default":
        return {"w1": 1.0 / 3.0, "w2": 1.0 / 3.0, "w3": 1.0 / 3.0}
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


def _cmd_score(args) -> int:
    config = _config(args, {"gamma": "gamma"})
    if args.weights is not None:
        config = dataclasses.replace(config, **_parse_weights(args.weights))
    if args.no_gamma:
        config = dataclasses.replace(config, gamma=0.0)
    sink = _Sink(args.out)
    weights = composite.UtilityWeights(
        w1=config.w1, w2=config.w2, w3=config.w3, gamma=config.gamma
    )
    weights.validate()
    thresholds = composite.ZoneThresholds(
        m_csr=config.m_csr_threshold,
        e_gap=config.e_gap_threshold,
        m_ht=config.m_ht_cutoff,
    )
    students = []
    path = Path(args.records)
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
            students.append(
                composite.StudentRecord(
                    student=str(rec["student"]),
                    m_csr=float(rec["m_csr"]),
                    m_ht=float(rec["m_ht"]),
                    e_gap=float(rec["e_gap"]),
                    t_dev=float(rec["t_dev"]),
                    condition=str(rec["condition"]) if "condition" in rec else None,
                )
            )
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"{path}:{lineno}: bad student record: {exc}") from exc
    if not students:
        raise ValidationError(f"{path}: no student records")
    records = []
    for student in students:
        zone = composite.classify_zone(student, thresholds)
        records.append(
            {
                "student": student.student,
                "condition": student.condition,
                "m_csr": student.m_csr,
                "m_ht": student.m_ht,
                "e_gap": student.e_gap,
                "t_dev": student.t_dev,
                "utility": composite.utility(student, weights),
                "zone": zone.zone,
                "control_metric": zone.control_metric,
                "flags": list(zone.flags),
            }
        )
    summary_rows = _condition_summary(records)
    break_even_hours = _break_even_between_conditions(students, weights)
    report = {
        "command": "score",
        "config": config.to_dict(),
        "records": records,
        "summary": {"by_condition": summary_rows, "break_even_hours": break_even_hours},
    }
    text = human_table(
        records,
        ["student", "condition", "m_csr", "m_ht", "e_gap", "t_dev", "utility", "zone", "flags"],
    )
    if summary_rows:
        text += "\n" + human_table(
            summary_rows,
            ["condition", "n", "mean_m_csr", "sd_m_csr", "mean_utility", "sd_utility"],
        )
    sink.emit_records("score", records)
    sink.emit_columns(
        "cohort_summary",
        (
            "condition", "n",
            "mean_m_csr", "sd_m_csr", "mean_m_ht", "sd_m_ht",
            "mean_e_gap", "sd_e_gap", "mean_t_dev", "sd_t_dev",
            "mean_utility", "sd_utility",
        ),
        [
            tuple(
                row[c]
                for c in (
                    "condition", "n",
                    "mean_m_csr", "sd_m_csr", "mean_m_ht", "sd_m_ht",
                    "mean_e_gap", "sd_e_gap", "mean_t_dev", "sd_t_dev",
                    "mean_utility", "sd_utility",
                )
            )
            for row in summary_rows
        ],
    )
    sink.emit("score_report", report, text)
    return 0


def _condition_summary(records: list[dict]) -> list[dict]:
    import statistics

    by_condition: dict[str, list[dict]] = {}
    for rec in records:
        by_condition.setdefault(rec["condition"] or "all", []).append(rec)
    rows = []
    for condition in sorted(by_condition):
        group = by_condition[condition]
        row: dict = {"condition": condition, "n": len(group)}
        for field in ("m_csr", "m_ht", "e_gap", "t_dev", "utility"):
            values = [g[field] for g in group]
            row[f"mean_{field}"] = statistics.fmean(values)
            row[f"sd_{field}"] = statistics.stdev(values) if len(values) > 1 else 0.0
        rows.append(row)
    return rows


def _break_even_between_conditions(students, weights) -> Optional[float]:
    if weights.gamma == 0.0:
        return None
    by_condition: dict[str, list] = {}
    for s in students:
        if s.condition:
            by_condition.setdefault(s.condition, []).append(s)
    if sorted(by_condition) != ["trad", "vibe"]:
        return None
    import statistics

    def mean_record(condition: str) -> composite.StudentRecord:
        group = by_condition[condition]
        return composite.StudentRecord(
            student=f"mean[{condition}]",
            m_csr=statistics.fmean(s.m_csr for s in group),
            m_ht=statistics.fmean(s.m_ht for s in group),
            e_gap=statistics.fmean(s.e_gap for s in group),
            t_dev=statistics.fmean(s.t_dev for s in group),
            condition=condition,
        )

    return composite.break_even(mean_record("vibe"), mean_record("trad"), weights)


def _cmd_power(args) -> int:
    config = _config(args, {"replicates": "replicates", "cohort_rounding": "cohort_rounding"})
    sink = _Sink(args.out)
    spec = PowerSpec(
        effect_size_d=args.d,
        alpha=args.alpha,
        target_power=args.target_power,
        design=args.design,
        replicates=config.replicates,
        seed=config.seed,
    )
    result = required_n(spec)
    record = {
        "command": "power",
        "config": config.to_dict(),
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
    if args.attrition is not None:
        target = attrition_target(
            result.n_required, args.attrition, rounding=bool(config.cohort_rounding)
        )
        record["attrition"] = dataclasses.asdict(target)
        if args.stated_target is not None:
            record["stated_target"] = args.stated_target
            record["stated_exceeds_formula"] = stated_target_exceeds(
                target, args.stated_target
            )
    summary = human_table(
        [record],
        ["design", "effect_size_d", "n_required", "n_analytic", "power_at_n"],
    )
    if record["attrition"] is not None:
        summary += (
            f"recruitment target at {args.attrition:.0%} attrition: "
            f"{record['attrition']['rounded_target']}"
        )
        if record["stated_exceeds_formula"]:
            summary += (
                f" (stated target {args.stated_target} exceeds the formula: "
                "conservative padding)"
            )
        summary += "\n"
    sink.emit_columns("power_curve", ("n", "mc_power"), list(result.evaluations))
    sink.emit("power", record, summary)
    return 0


def _cmd_simulate(args) -> int:
    config = _config(args)
    sink = _Sink(args.out)
    params = GeneratingParams(
        beta0=args.beta0,
        beta1=args.beta1,
        beta2=args.beta2,
        sigma_u=args.sigma_u,
        sigma_e=args.sigma_e,
    )
    dataset = simulate_cohort(params, args.n_per_condition, args.occasions, config.seed)
    report = {
        "command": "simulate",
        "config": config.to_dict(),
        "params": dataclasses.asdict(params),
        "n_per_condition": args.n_per_condition,
        "occasions": args.occasions,
        "n_obs": len(dataset),
    }
    if sink.out_dir:
        write_cohort(dataset, sink.out_dir / "cohort.jsonl")
    else:
        report["records"] = dataset.records()
    summary = (
        f"cohort: {2 * args.n_per_condition} students x {args.occasions} occasions "
        f"= {len(dataset)} observations, seed {config.seed}\n"
    )
    sink.emit("simulate", report, summary)
    return 0


def _cmd_fit(args) -> int:
    config = _config(args)
    sink = _Sink(args.out)
    dataset = read_cohort(args.data)
    fit = fit_mixed(dataset)
    record = dataclasses.asdict(fit)
    report = {"command": "fit", "config": config.to_dict(), **record}
    summary = human_table(
        [record],
        ["beta0", "beta1", "beta2", "se_beta1", "sigma_u", "sigma_e", "theta"],
    )
    lo, hi = fit.ci95_beta1
    summary += f"95% CI for the condition effect: [{lo:.4f}, {hi:.4f}]\n"
    sink.emit("mixed_fit", report, summary)
    return 0


def _cmd_spearman(args) -> int:
    config = _config(args)
    sink = _Sink(args.out)
    data = _read_csv_columns(args.data, ("x", "y"))
    result = spearman(
        data["x"],
        data["y"],
        permutations=args.permutations,
        seed=config.seed if args.permutations else None,
    )
    record = dataclasses.asdict(result)
    report = {"command": "spearman", "config": config.to_dict(), **record}
    summary = human_table([record], ["n", "rho", "p_two_sided", "p_permutation"])
    sink.emit("spearman", report, summary)
    return 0


def _cmd_kappa(args) -> int:
    config = _config(args)
    sink = _Sink(args.out)
    data = _read_csv_strings(args.data, ("a", "b"))
    kappa = cohens_kappa(data["a"], data["b"])
    record = {"kappa": kappa, "n": len(data["a"])}
    report = {"command": "kappa", "config": config.to_dict(), **record}
    summary = human_table([record], ["n", "kappa"])
    sink.emit("kappa", report, summary)
    return 0


_COMMANDS = {
    "metrics": _cmd_metrics,
    "sdt": _cmd_sdt,
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
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "traps":
            return _cmd_traps_generate(args)
        return _COMMANDS[args.command](args)
    except ValidationError as exc:
        sys.stderr.write(f"vcp: error: {exc}\n")
        return 1
    except ComputationError as exc:
        sys.stderr.write(f"vcp: computation error: {exc}\n")
        return 2
    except VcpError as exc:  # future-proof: any other toolkit error
        sys.stderr.write(f"vcp: error: {exc}\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"vcp: error: {exc}\n")
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
