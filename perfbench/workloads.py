"""The three benchmark workloads: inputs, passes and output checks.

Each workload builds its inputs from the seed in ``setup`` and then runs
passes.  ``run_pass`` returns the pass's wall times; ``check_pass`` verifies
what the pass wrote.  Every ``vcp`` step and every output check counts as one
attempted operation in the ``Ledger``.

- ``study``: ``scripts/run_study.py`` on the committed ``fixtures/study``
  bundle, in a fresh interpreter (15 ``vcp`` subprocesses per pass).
- ``corpus``: ``vcp metrics``, ``vcp traps generate`` and ``vcp sdt`` in
  process over a seeded origin pool of small and large units.
- ``design``: ``vcp power`` (both designs), ``vcp spearman`` with 1M
  permutations, a simulate + fit coverage loop and ``vcp kappa`` in process.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import itertools
import json
import math
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import benchtrace
from vibecheck import cli
from vibecheck import sdt as vc_sdt
from vibecheck.codemetrics import random_program
from vibecheck.codemetrics.parser import parse
from vibecheck.stats import mixed as vc_mixed
from vibecheck.stats.mixed import GeneratingParams
from vibecheck.trapforge import DEFECT_KINDS

# Originals, bound before any tracer wraps the module attributes, so that the
# benchmark's own checks never show up in a trace.
_PARSE = parse
_SIMULATE = vc_mixed.simulate_cohort
_FIT = vc_mixed.fit_mixed

REL_TOL = 1e-9
TRACEHOOK = Path(__file__).resolve().parent / "tracehook"


class Ledger:
    """Attempted and failed operations; a failure keeps its message."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, label: str, detail: str) -> None:
        self.failed += 1
        self.errors.append(f"{label}: {detail}")

    def check(self, label: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.fail(label, detail or "check failed")

    @contextlib.contextmanager
    def checking(self, label: str):
        """One check whose body raises ``AssertionError`` (or anything) to fail."""
        self.attempted += 1
        try:
            yield
        except Exception as exc:  # a broken output must not stop the run
            self.fail(label, f"{type(exc).__name__}: {exc}")

    def vcp(self, argv: list[str]) -> float:
        """Run one ``vcp`` command in process; return its wall seconds."""
        self.attempted += 1
        sink = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = cli.run(argv)
        except Exception:  # an uncaught error is a failed operation
            code = None
            sink.write(traceback.format_exc())
        elapsed = time.perf_counter() - start
        if code != 0:
            self.fail("vcp " + " ".join(argv[:2]), f"exit {code}: {sink.getvalue()[-500:]}")
        return elapsed


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise AssertionError(message)


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-12)


def _fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _read_json(path: Path):
    return json.loads(path.read_text())


def _read_jsonl(path: Path) -> list:
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


def tree_digest(root: Path, pattern: str = "*") -> str:
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob(pattern) if p.is_file()):
        digest.update(str(path.relative_to(root)).encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


# --- golden comparison ------------------------------------------------------


def _same_value(a, b) -> bool:
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return _close(float(a), float(b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_same_value(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_same_value(x, y) for x, y in zip(a, b))
    return a == b


def _same_tokens(a: str, b: str) -> bool:
    ta, tb = a.split(), b.split()
    if len(ta) != len(tb):
        return False
    for x, y in zip(ta, tb):
        if x == y:
            continue
        try:
            if not _close(float(x), float(y)):
                return False
        except ValueError:
            return False
    return True


def golden_matches(golden: Path, actual: Path) -> bool:
    """Compare one output file with its golden at relative tolerance 1e-9."""
    if golden.suffix == ".json":
        return _same_value(_read_json(golden), _read_json(actual))
    if golden.suffix == ".jsonl":
        return _same_value(_read_jsonl(golden), _read_jsonl(actual))
    if golden.suffix in (".txt", ".tsv"):
        return _same_tokens(golden.read_text(), actual.read_text())
    return golden.read_bytes() == actual.read_bytes()


# --- workloads --------------------------------------------------------------


class Workload:
    name = ""

    def __init__(self, root: Path, work: Path, seed: int, smoke: bool, env: dict):
        self.root = root
        self.work = work
        self.seed = seed
        self.smoke = smoke
        self.env = env

    def setup(self) -> None:
        _fresh(self.work)

    def run_pass(self, ledger: Ledger, tracer=None) -> dict:
        raise NotImplementedError

    def check_pass(self, ledger: Ledger) -> None:
        raise NotImplementedError

    def finish(self, ledger: Ledger) -> None:
        """Checks that run once, after peak memory has been read."""

    @staticmethod
    def rates(passes: list[dict]) -> dict:
        """Workload-specific end-to-end metrics from the pass timings."""
        return {}


class Study(Workload):
    name = "study"

    def setup(self) -> None:
        super().setup()
        self.fixtures = self.root / "fixtures" / "study"
        self.golden = sorted(p for p in (self.fixtures / "golden").rglob("*") if p.is_file())
        if not self.golden:
            raise FileNotFoundError(f"no golden files under {self.fixtures / 'golden'}")
        self.out = self.work / "out"
        self.digests: list[str] = []

    def run_pass(self, ledger: Ledger, tracer=None) -> dict:
        shutil.rmtree(self.out, ignore_errors=True)
        env = self.env
        if tracer is not None:
            spans_dir = _fresh(self.work / "spans")
            env = dict(env)
            env["PYTHONPATH"] = os.pathsep.join([str(TRACEHOOK), env["PYTHONPATH"]])
            env[benchtrace.ENV_DIR] = str(spans_dir)
            env[benchtrace.ENV_ITERATION] = tracer.iteration
            env[benchtrace.ENV_PARENT] = tracer.current_parent() or ""
        cmd = [sys.executable, "scripts/run_study.py", "--fixtures",
               str(self.fixtures.relative_to(self.root)), "--out", str(self.out)]
        ledger.attempted += 1
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=self.root, env=env, capture_output=True, text=True)
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            ledger.fail("run_study.py", f"exit {proc.returncode}: {proc.stderr[-500:]}")
        if tracer is not None:
            tracer.collect(spans_dir)
        return {"iter_s": elapsed}

    def check_pass(self, ledger: Ledger) -> None:
        base = self.fixtures / "golden"
        mismatched = []
        with ledger.checking("study golden bundle"):
            for golden in self.golden:
                if not golden_matches(golden, self.out / golden.relative_to(base)):
                    mismatched.append(str(golden.relative_to(base)))
            _require(not mismatched, f"differs from golden: {', '.join(mismatched)}")
        self.digests.append(tree_digest(self.out))
        if len(self.digests) > 1:
            ledger.check("study identical bytes", self.digests[-1] == self.digests[0],
                         "two passes wrote different bytes")


def _strip_returns(text: str) -> str:
    return "".join(line for line in text.splitlines(True) if not line.startswith("return"))


_BRANCH_KEYWORD = re.compile(r"\b(?:if|while|for)\b")


class Corpus(Workload):
    name = "corpus"
    SMALL, LARGE, JOINED = 240, 24, 10
    REVIEWERS = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)

    def setup(self) -> None:
        super().setup()
        small, large = (6, 2) if self.smoke else (self.SMALL, self.LARGE)
        # Every text in the pool is distinct, so a parse cache has nothing to
        # reuse within a step; a repeated draw is skipped.
        programs = (random_program(s) for s in itertools.count(self.seed * 1_000_003))
        self.pool_dir = _fresh(self.work / "pool")
        self.texts: dict[str, str] = {}
        seen: set[str] = set()
        while len(self.texts) < small + large:
            i = len(self.texts)
            if i < small:
                text = next(programs)
            else:
                parts = [_strip_returns(next(programs)) for _ in range(self.JOINED)]
                text = "".join(parts)
            if text not in seen:
                seen.add(text)
                self.texts[f"u{i:04d}" if i < small else f"big{i - small:03d}"] = text
        for stem, text in self.texts.items():
            (self.pool_dir / f"{stem}.vcp").write_text(text)
        self.files = [str(self.pool_dir / f"{stem}.vcp") for stem in sorted(self.texts)]
        self.out = self.work / "out"

    def run_pass(self, ledger: Ledger, tracer=None) -> dict:
        _fresh(self.out)
        start = time.perf_counter()
        with _step(tracer, "corpus.metrics"):
            metrics_s = ledger.vcp(["metrics", *self.files, "--out", str(self.out / "metrics")])
        with _step(tracer, "corpus.traps"):
            traps_s = ledger.vcp([
                "traps", "generate", "--origins", str(self.pool_dir), "--fraction", "0.5",
                "--seed", str(self.seed), "--out", str(self.out / "corpus"),
            ])
        with _step(tracer, "corpus.sdt"):
            sdt_start = time.perf_counter()
            self._write_responses()
            ledger.vcp(["sdt", "--responses", str(self.out / "responses.jsonl"),
                        "--out", str(self.out / "sdt")])
            sdt_s = time.perf_counter() - sdt_start
        return {"iter_s": time.perf_counter() - start, "metrics_s": metrics_s,
                "traps_s": traps_s, "sdt_s": sdt_s, "units": len(self.files),
                "items": len(self.texts)}

    def _write_responses(self) -> None:
        key = _read_jsonl(self.out / "corpus" / "answer_key.jsonl")
        truths = [rec["ground_truth"] for rec in key]
        with (self.out / "responses.jsonl").open("w") as fh:
            for r, sensitivity in enumerate(self.REVIEWERS):
                flags = vc_sdt.simulate_reviewer(truths, sensitivity, seed=self.seed * 1000 + r)
                for rec, flagged in zip(key, flags):
                    fh.write(json.dumps({
                        "reviewer": f"r{r}", "item_id": rec["item_id"],
                        "ground_truth": rec["ground_truth"], "flagged": flagged,
                    }, sort_keys=True) + "\n")

    def check_pass(self, ledger: Ledger) -> None:
        with ledger.checking("corpus metrics cc"):
            records = _read_jsonl(self.out / "metrics" / "metrics.jsonl")
            _require(len(records) == len(self.texts), f"{len(records)} metric records")
            for rec in records:
                text = self.texts[Path(rec["unit"]).stem]
                expected = 1 + len(_BRANCH_KEYWORD.findall(text))
                _require(rec["cc"] == expected, f"{rec['unit']}: cc {rec['cc']} != {expected}")
        corpus = self.out / "corpus"
        with ledger.checking("corpus clean items"):
            key = _read_jsonl(corpus / "answer_key.jsonl")
            _require(len(key) == len(self.texts), f"{len(key)} items")
            for rec in key:
                if rec["ground_truth"] == "clean":
                    item = (corpus / "items" / f"{rec['item_id']}.vcp").read_text()
                    _require(item == self.texts[rec["origin"]], f"{rec['item_id']} differs")
        with ledger.checking("corpus trap items"):
            for rec in key:
                if rec["ground_truth"] != "trap":
                    continue
                item = (corpus / "items" / f"{rec['item_id']}.vcp").read_text()
                origin = self.texts[rec["origin"]]
                start, end = rec["mutation_site"]["start"], rec["mutation_site"]["end"]
                _require(rec["defect_kind"] in DEFECT_KINDS, f"kind {rec['defect_kind']}")
                _require(item.startswith(origin[:start]) and item.endswith(origin[end:])
                         and len(item) >= start + len(origin) - end,
                         f"{rec['item_id']} differs outside its mutation site")
                _PARSE(item, name=rec["item_id"])
        with ledger.checking("corpus sdt recount"):
            truth = {rec["item_id"]: rec["ground_truth"] for rec in key}
            tally: dict[str, list[int]] = {}
            for resp in _read_jsonl(self.out / "responses.jsonl"):
                t = tally.setdefault(resp["reviewer"], [0, 0, 0, 0])  # hit, trap, fa, clean
                is_trap = truth[resp["item_id"]] == "trap"
                t[0 if is_trap else 2] += resp["flagged"]
                t[1 if is_trap else 3] += 1
            records = _read_jsonl(self.out / "sdt" / "sdt.jsonl")
            _require(len(records) == len(tally), f"{len(records)} reviewers scored")
            for rec in records:
                hits, traps, fas, cleans = tally[rec["reviewer"]]
                _require(rec["n_trap"] == traps and rec["n_clean"] == cleans,
                         f"{rec['reviewer']}: item counts")
                _require(_close(rec["hit_rate"], hits / traps)
                         and _close(rec["fa_rate"], fas / cleans),
                         f"{rec['reviewer']}: rates differ from the recount")

    @staticmethod
    def rates(passes: list[dict]) -> dict:
        return {
            "metrics_units_per_s": statistics.median(p["units"] / p["metrics_s"] for p in passes),
            "traps_items_per_s": statistics.median(p["items"] / p["traps_s"] for p in passes),
        }


class Design(Workload):
    name = "design"
    PARAMS = GeneratingParams(beta0=1.0, beta1=0.4, beta2=0.2, sigma_u=0.5, sigma_e=0.5)
    N_PER_CONDITION, OCCASIONS = 40, 4
    # Acceptance 1 pins the power search at its default seed: at other seeds
    # the Monte-Carlo answer itself can fall outside {63, 64}.
    POWER = ["--d", "0.5", "--seed", "0"]

    def setup(self) -> None:
        super().setup()
        smoke = self.smoke
        self.replicates = "20000" if smoke else "100000"
        self.permutations = 10_000 if smoke else 1_000_000
        self.fits = 10 if smoke else 100
        rng = random.Random(self.seed)
        n = 50
        xs = [round(rng.gauss(0.0, 1.0), 2) for _ in range(n)]
        ys = [round(0.4 * x + rng.gauss(0.0, 1.0), 2) for x in xs]
        self.xy = (xs, ys)
        self.xy_csv = self.work / "xy.csv"
        _write_csv(self.xy_csv, ("x", "y"), zip(xs, ys))
        cats = ("none", "minor", "major", "critical")
        rows = 200 if smoke else 200_000
        ratings = []
        for _ in range(rows):
            a = rng.choice(cats)
            ratings.append((a, a if rng.random() < 0.6 else rng.choice(cats)))
        self.ratings = ratings
        self.ratings_csv = self.work / "ratings.csv"
        _write_csv(self.ratings_csv, ("a", "b"), ratings)
        self.out = self.work / "out"
        self.rhos: list[float] = []

    def run_pass(self, ledger: Ledger, tracer=None) -> dict:
        _fresh(self.out)
        out = self.out
        start = time.perf_counter()
        with _step(tracer, "design.power"):
            power_s = ledger.vcp(["power", *self.POWER, "--replicates", self.replicates,
                                  "--out", str(out / "power")])
        with _step(tracer, "design.power_paired"):
            ledger.vcp(["power", *self.POWER, "--design", "paired",
                        "--replicates", self.replicates, "--out", str(out / "paired")])
        with _step(tracer, "design.spearman"):
            spearman_s = ledger.vcp([
                "spearman", "--data", str(self.xy_csv), "--permutations",
                str(self.permutations), "--seed", str(self.seed), "--out", str(out / "spearman"),
            ])
        with _step(tracer, "design.coverage"):
            fit_start = time.perf_counter()
            self.beta1 = []
            for r in range(self.fits):
                data = vc_mixed.simulate_cohort(
                    self.PARAMS, self.N_PER_CONDITION, self.OCCASIONS, self.seed * 10_000 + r)
                self.beta1.append(vc_mixed.fit_mixed(data).beta1)
            fits_s = time.perf_counter() - fit_start
        with _step(tracer, "design.simulate_fit"):
            p = self.PARAMS
            ledger.vcp([
                "simulate", "--beta0", str(p.beta0), "--beta1", str(p.beta1),
                "--beta2", str(p.beta2), "--sigma-u", str(p.sigma_u), "--sigma-e", str(p.sigma_e),
                "--n-per-condition", str(self.N_PER_CONDITION), "--occasions",
                str(self.OCCASIONS), "--seed", str(self.seed), "--out", str(out / "cohort"),
            ])
            ledger.vcp(["fit", "--data", str(out / "cohort" / "cohort.jsonl"),
                        "--out", str(out / "fit")])
        with _step(tracer, "design.kappa"):
            ledger.vcp(["kappa", "--data", str(self.ratings_csv), "--out", str(out / "kappa")])
        return {"iter_s": time.perf_counter() - start, "power_s": power_s,
                "spearman_s": spearman_s, "permutations": self.permutations,
                "fits_s": fits_s, "fits": self.fits}

    def check_pass(self, ledger: Ledger) -> None:
        out = self.out
        for sub, allowed in (("power", (63, 64)), ("paired", (33, 34, 35))):
            with ledger.checking(f"design {sub} n_required"):
                report = _read_json(out / sub / "power.json")
                _require(report["n_required"] in allowed and report["power_at_n"] >= 0.8,
                         f"n_required {report['n_required']}, power {report['power_at_n']}")
        with ledger.checking("design spearman"):
            report = _read_json(out / "spearman" / "spearman.json")
            _require(0.0 < report["p_permutation"] <= 1.0, "p_permutation out of range")
            self.rhos.append(report["rho"])
        with ledger.checking("design coverage mean beta1"):
            # The condition effect's sampling SD is sqrt(2 (su^2 + se^2 / T) / n).
            p = self.PARAMS
            sd = math.sqrt(2 * (p.sigma_u ** 2 + p.sigma_e ** 2 / self.OCCASIONS)
                           / self.N_PER_CONDITION)
            mean = math.fsum(self.beta1) / len(self.beta1)
            _require(abs(mean - p.beta1) <= 5 * sd / math.sqrt(len(self.beta1)),
                     f"mean beta1 {mean} vs {p.beta1}")
        with ledger.checking("design fit matches a direct fit"):
            fit = _read_json(out / "fit" / "mixed_fit.json")
            direct = _FIT(_SIMULATE(self.PARAMS, self.N_PER_CONDITION, self.OCCASIONS, self.seed))
            _require(_close(fit["beta1"], direct.beta1), f"beta1 {fit['beta1']} != {direct.beta1}")
        with ledger.checking("design kappa recount"):
            report = _read_json(out / "kappa" / "kappa.json")
            n = len(self.ratings)
            observed = sum(a == b for a, b in self.ratings) / n
            count_a: dict[str, int] = {}
            count_b: dict[str, int] = {}
            for a, b in self.ratings:
                count_a[a] = count_a.get(a, 0) + 1
                count_b[b] = count_b.get(b, 0) + 1
            expected = sum(count_a.get(c, 0) * count_b.get(c, 0) for c in count_a) / (n * n)
            kappa = (observed - expected) / (1.0 - expected)
            _require(report["n"] == n and _close(report["kappa"], kappa),
                     f"kappa {report['kappa']} != {kappa}")

    def finish(self, ledger: Ledger) -> None:
        from scipy import stats

        oracle = float(stats.spearmanr(*self.xy)[0])
        ledger.check("design spearman rho vs scipy",
                     bool(self.rhos) and all(abs(rho - oracle) <= 1e-12 for rho in self.rhos),
                     f"rho {self.rhos} vs scipy {oracle}")

    @staticmethod
    def rates(passes: list[dict]) -> dict:
        return {
            "power_s": statistics.median(p["power_s"] for p in passes),
            "permutations_per_s": statistics.median(
                p["permutations"] / p["spearman_s"] for p in passes),
            "fits_per_s": statistics.median(p["fits"] / p["fits_s"] for p in passes),
        }


def _write_csv(path: Path, header, rows) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


@contextlib.contextmanager
def _step(tracer, name: str):
    if tracer is None:
        yield
    else:
        with tracer.span(name):
            yield


WORKLOADS = {w.name: w for w in (Study, Corpus, Design)}


# --- cli start-up probes (traced run only) ------------------------------------

IMPORT_PROBES = {
    "bare": "pass",
    "numpy": "import numpy",
    "scipy": "import numpy, scipy.stats",
    "cli": "import vibecheck.cli",
}


def cold_commands(tmp: Path) -> dict[str, list[str]]:
    """One minimal invocation per subcommand, on committed fixture inputs.

    ``probe_cli`` writes the ratings file and ``simulate`` the cohort under
    ``tmp`` before the commands that read them run.
    """
    cohort = tmp / "cohort"
    return {
        "metrics": ["metrics", "fixtures/ifelse.vcp"],
        "sdt": ["sdt", "--responses", "fixtures/study/responses.jsonl"],
        "traps_generate": ["traps", "generate", "--origins", "fixtures/origins",
                           "--out", str(tmp / "traps")],
        "retention": ["retention", "--build", "fixtures/session/build.log",
                      "--refactor", "fixtures/session/refactor.log", "--allow-uncalibrated"],
        "calibrate": ["calibrate", "--pairs", "fixtures/calibration/pairs.jsonl"],
        "egap": ["egap", "--transcript", "fixtures/study/transcripts/s01.txt",
                 "--ontology", "fixtures/study/ontology.json", "--code", "fixtures/study/target.vcp"],
        "score": ["score", "--records", "fixtures/zones/boundary_records.jsonl"],
        "power": ["power", "--d", "0.8", "--replicates", "1000"],
        "simulate": ["simulate", "--beta0", "1", "--beta1", "0.4", "--beta2", "0.2",
                     "--sigma-u", "0.5", "--sigma-e", "0.5", "--n-per-condition", "4",
                     "--occasions", "2", "--out", str(cohort)],
        "fit": ["fit", "--data", str(cohort / "cohort.jsonl")],
        "spearman": ["spearman", "--data", "fixtures/spearman/quiz_scores.csv"],
        "kappa": ["kappa", "--data", str(tmp / "ratings.csv")],
    }


def _timed_child(cmd: list[str], root: Path, env: dict) -> tuple[float, int]:
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL)
    return time.perf_counter() - start, proc.returncode


def probe_cli(root: Path, tmp: Path, env: dict, ledger: Ledger, repeats: int) -> dict:
    """Import costs and the cold start of every subcommand, in fresh interpreters."""
    walls: dict[str, list[float]] = {k: [] for k in IMPORT_PROBES}
    for _ in range(repeats):
        for kind, code in IMPORT_PROBES.items():
            wall, rc = _timed_child([sys.executable, "-c", code], root, env)
            ledger.check(f"import probe {kind}", rc == 0, f"exit {rc}")
            walls[kind].append(wall)
    med = {k: statistics.median(v) for k, v in walls.items()}
    out = {
        "cli.import_ms": (med["cli"] - med["bare"]) * 1e3,
        "cli.numpy_import_ms": (med["numpy"] - med["bare"]) * 1e3,
        "cli.scipy_import_ms": (med["scipy"] - med["numpy"]) * 1e3,
    }
    _write_csv(_fresh(tmp) / "ratings.csv", ("a", "b"), [("x", "x"), ("x", "y"), ("y", "y")])
    for name, argv in cold_commands(tmp).items():
        wall, rc = _timed_child([sys.executable, "-m", "vibecheck", *argv], root, env)
        ledger.check(f"cold start {name}", rc == 0, f"exit {rc}")
        out[f"cli.cold_ms.{name}"] = wall * 1e3
    return out


CLI_METRICS = (
    ["cli.import_ms", "cli.numpy_import_ms", "cli.scipy_import_ms"]
    + [f"cli.cold_ms.{name}" for name in cold_commands(Path("tmp"))]
)


def src_line_counts(root: Path) -> dict[str, int]:
    src = root / "src"
    counts = {
        str(p.relative_to(src)): len(p.read_text().splitlines())
        for p in sorted(src.rglob("*.py"))
    }
    counts["total"] = sum(counts.values())
    return counts


def environment(root: Path, seed: int) -> dict:
    import numpy
    import scipy

    revision = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True)
        revision = proc.stdout.strip() or None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_revision": revision,
        "src_sha256": tree_digest(root / "src", "*.py"),
        "seed": seed,
        "src_lines": src_line_counts(root),
    }
