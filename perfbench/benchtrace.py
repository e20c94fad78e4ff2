"""In-memory spans around calls into vibecheck's public functions.

A ``Tracer`` replaces each target function, in every loaded ``vibecheck``
module that holds a reference to it, with a wrapper that records a span:
name, start and end (``perf_counter_ns``, which is CLOCK_MONOTONIC on Linux
and so comparable across processes), parent span and the iteration id of
the pass it belongs to, plus counts taken from the call's result.  Spans are
recorded only while an iteration id is set and stay in memory until the run
writes them out.

Child ``vcp`` processes of a traced study pass load the same tracer through
``tracehook/sitecustomize.py``; they write their spans to one JSONL file per
process at exit, and the worker reads them back into memory.

``LAYER_METRICS`` turns the spans of one traced pass per workload into the
per-layer metrics, each with the end-to-end metric and workload it should
move.
"""

from __future__ import annotations

import atexit
import functools
import importlib
import importlib.util
import json
import os
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

ENV_DIR = "PERFBENCH_TRACE_DIR"
ENV_ITERATION = "PERFBENCH_ITERATION"
ENV_PARENT = "PERFBENCH_PARENT"


def _size_of_first_arg(args, kwargs, result) -> dict:
    path = args[0] if args else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


def _corpus_counts(args, kwargs, result) -> dict:
    traps = sum(1 for item in result.items if item.ground_truth == "trap")
    return {"items": len(result.items), "traps": traps, "requested": result.requested_traps}


# (span name, module, attribute, counts taken from (args, kwargs, result))
TARGETS = (
    ("cli.run", "vibecheck.cli", "run", None),
    ("lexer.lex", "vibecheck.codemetrics.lexer", "lex",
     lambda a, k, r: {"tokens": len(r)}),
    ("parser.parse", "vibecheck.codemetrics.parser", "parse", None),
    ("cfg.build_cfg", "vibecheck.codemetrics.cfg", "build_cfg",
     lambda a, k, r: {"blocks": len(r.blocks), "edges": len(r.edges)}),
    ("halstead.halstead", "vibecheck.codemetrics.halstead", "halstead", None),
    ("trapforge.applicable_sites", "vibecheck.trapforge", "applicable_sites", None),
    ("trapforge.generate_corpus", "vibecheck.trapforge", "generate_corpus", _corpus_counts),
    ("trapforge.write_corpus", "vibecheck.trapforge", "write_corpus", None),
    ("sdt.load_responses", "vibecheck.sdt", "load_responses",
     lambda a, k, r: {"responses": sum(len(v) for v in r.values())}),
    ("sdt.score_responses", "vibecheck.sdt", "score_responses", None),
    ("retention.read_session_log", "vibecheck.retention", "read_session_log", None),
    ("retention.m_csr", "vibecheck.retention", "m_csr", None),
    ("explainability.load_ontology", "vibecheck.explainability", "load_ontology", None),
    ("explainability.e_gap", "vibecheck.explainability", "e_gap", None),
    ("composite.utility", "vibecheck.composite", "utility", None),
    ("power.required_n", "vibecheck.stats.power", "required_n",
     lambda a, k, r: {"candidates": len(r.evaluations)}),
    ("power.mc_power", "vibecheck.stats.power", "mc_power", None),
    ("spearman.spearman", "vibecheck.stats.spearman", "spearman", None),
    ("spearman.permutation", "vibecheck.stats.spearman", "_permutation_p", None),
    ("mixed.simulate_cohort", "vibecheck.stats.mixed", "simulate_cohort", None),
    ("mixed.fit_mixed", "vibecheck.stats.mixed", "fit_mixed", None),
    ("mixed.read_cohort", "vibecheck.stats.mixed", "read_cohort", None),
    ("kappa.cohens_kappa", "vibecheck.stats.kappa", "cohens_kappa", None),
    ("config.resolve_config", "vibecheck.config", "resolve_config", None),
    ("reporting.write_json", "vibecheck.reporting", "write_json", _size_of_first_arg),
    ("reporting.write_jsonl", "vibecheck.reporting", "write_jsonl", _size_of_first_arg),
    ("reporting.write_columns", "vibecheck.reporting", "write_columns", _size_of_first_arg),
)


class Tracer:
    """Records spans in memory while ``iteration`` is set."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.iteration: str | None = None
        self.root_parent: str | None = None
        self._stack: list[str] = []
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []

    # --- spans ------------------------------------------------------------

    def _open(self, name: str) -> dict:
        self._next_id += 1
        span = {
            "id": f"{os.getpid()}:{self._next_id}",
            "name": name,
            "parent": self.current_parent(),
            "iteration": self.iteration,
            "start_ns": time.perf_counter_ns(),
        }
        self._stack.append(span["id"])
        return span

    def _close(self, span: dict, counts: dict | None) -> None:
        span["end_ns"] = time.perf_counter_ns()
        self._stack.pop()
        if counts:
            span["counts"] = counts
        self.spans.append(span)

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself (a pass or a step)."""
        if self.iteration is None:
            yield
            return
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span, None)

    @contextmanager
    def iteration_scope(self, iteration: str):
        self.iteration = iteration
        try:
            yield
        finally:
            self.iteration = None

    def current_parent(self) -> str | None:
        return self._stack[-1] if self._stack else self.root_parent

    # --- wrapping ---------------------------------------------------------

    def _wrap(self, name: str, fn, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.iteration is None:
                return fn(*args, **kwargs)
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(span, None)
                raise
            self._close(span, counter(args, kwargs, result) if counter else None)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target in every loaded vibecheck module that names it."""
        if "vibecheck.cli" not in sys.modules:
            importlib.import_module("vibecheck.cli")
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "vibecheck" or n.startswith("vibecheck."))
        ]
        for name, module_name, attr, counter in TARGETS:
            original = getattr(importlib.import_module(module_name), attr)
            wrapper = self._wrap(name, original, counter)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    # --- child processes --------------------------------------------------

    def collect(self, directory: Path) -> None:
        """Move the spans child processes wrote under ``directory`` into memory."""
        for path in sorted(directory.glob("*.jsonl")):
            self.spans.extend(json.loads(line) for line in path.read_text().splitlines())
            path.unlink()

    def write(self, path: Path) -> None:
        with path.open("w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")


class _InstallAfterCli:
    """Meta-path hook: install the tracer once ``vibecheck.cli`` has executed."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer

    def find_spec(self, fullname, path, target=None):
        if fullname != "vibecheck.cli":
            return None
        sys.meta_path.remove(self)
        spec = importlib.util.find_spec(fullname)
        loader = spec.loader
        exec_module = loader.exec_module
        tracer = self.tracer

        def exec_and_install(module):
            exec_module(module)
            tracer.install()

        loader.exec_module = exec_and_install
        return spec


def trace_child_process() -> None:
    """Entry point for ``sitecustomize`` in a traced ``vcp`` child process."""
    directory = Path(os.environ[ENV_DIR])
    tracer = Tracer()
    tracer.iteration = os.environ.get(ENV_ITERATION)
    tracer.root_parent = os.environ.get(ENV_PARENT) or None
    sys.meta_path.insert(0, _InstallAfterCli(tracer))

    def flush() -> None:
        tracer.write(directory / f"{os.getpid()}.jsonl")

    atexit.register(flush)


# --- per-layer metrics ------------------------------------------------------


def pass_table(spans: list[dict]) -> dict:
    """Summed milliseconds, summed counts and call count per span name."""
    table: dict[str, dict] = {}
    for span in spans:
        row = table.setdefault(span["name"], {"ms": 0.0, "calls": 0, "counts": {}})
        row["ms"] += (span["end_ns"] - span["start_ns"]) / 1e6
        row["calls"] += 1
        for key, value in span.get("counts", {}).items():
            row["counts"][key] = row["counts"].get(key, 0) + value
    return table


def _ms(name):
    return lambda t: t.get(name, {}).get("ms", 0.0)


def _count(name, key):
    return lambda t: t.get(name, {}).get("counts", {}).get(key, 0)


def _self_ms(name, child):
    return lambda t: _ms(name)(t) - _ms(child)(t)


def _tokens_per_s(t):
    ms = _ms("lexer.lex")(t)
    return _count("lexer.lex", "tokens")(t) / (ms / 1e3) if ms else 0.0


def _trap_yield(t):
    requested = _count("trapforge.generate_corpus", "requested")(t)
    return _count("trapforge.generate_corpus", "traps")(t) / requested if requested else 0.0


def _per_candidate_ms(t):
    calls = t.get("power.mc_power", {}).get("calls", 0)
    return _ms("power.mc_power")(t) / calls if calls else 0.0


def _bytes_written(t):
    return sum(
        _count(name, "bytes")(t)
        for name in ("reporting.write_json", "reporting.write_jsonl", "reporting.write_columns")
    )


STUDY_ITER = "iter_s on study"
CORPUS_METRICS = "metrics_units_per_s and traps_items_per_s on corpus"
CORPUS_TRAPS = "traps_items_per_s on corpus"
CORPUS_ITER = "iter_s on corpus"
POWER = "power_s and peak_rss_mb on design"
DESIGN_STATS = "permutations_per_s, fits_per_s and iter_s on design"
ALL_CORPUS = "traps_items_per_s on corpus (touches every workload)"

# (metric, unit, workload whose traced pass it is read from, table -> value,
#  the end-to-end metric and workload it should move).  "selected" means the
# workload named on the command line; the power metrics read only the spans
# under the two-sample power step.
LAYER_METRICS = (
    ("lexer.lex_ms", "ms", "corpus", _ms("lexer.lex"), CORPUS_METRICS),
    ("lexer.tokens", "count", "corpus", _count("lexer.lex", "tokens"), CORPUS_METRICS),
    ("lexer.tokens_per_s", "1/s", "corpus", _tokens_per_s, CORPUS_METRICS),
    ("parser.parse_ms", "ms", "corpus", _ms("parser.parse"), CORPUS_METRICS),
    ("cfg.build_cfg_ms", "ms", "corpus", _ms("cfg.build_cfg"), CORPUS_METRICS),
    ("cfg.blocks", "count", "corpus", _count("cfg.build_cfg", "blocks"), CORPUS_METRICS),
    ("cfg.edges", "count", "corpus", _count("cfg.build_cfg", "edges"), CORPUS_METRICS),
    ("halstead.halstead_ms", "ms", "corpus", _ms("halstead.halstead"), CORPUS_METRICS),
    ("trapforge.applicable_sites_ms", "ms", "corpus",
     _ms("trapforge.applicable_sites"), CORPUS_TRAPS),
    ("trapforge.generate_corpus_ms", "ms", "corpus",
     _ms("trapforge.generate_corpus"), CORPUS_TRAPS),
    ("trapforge.write_corpus_ms", "ms", "corpus", _ms("trapforge.write_corpus"), CORPUS_TRAPS),
    ("trapforge.items", "count", "corpus",
     _count("trapforge.generate_corpus", "items"), CORPUS_TRAPS),
    ("trapforge.trap_yield", "ratio", "corpus", _trap_yield, CORPUS_TRAPS),
    ("sdt.load_responses_ms", "ms", "corpus", _ms("sdt.load_responses"), CORPUS_ITER),
    ("sdt.score_responses_ms", "ms", "corpus", _ms("sdt.score_responses"), CORPUS_ITER),
    ("sdt.responses", "count", "corpus", _count("sdt.load_responses", "responses"), CORPUS_ITER),
    ("retention.read_session_log_ms", "ms", "study",
     _ms("retention.read_session_log"), STUDY_ITER),
    ("retention.m_csr_ms", "ms", "study", _ms("retention.m_csr"), STUDY_ITER),
    ("explainability.load_ontology_ms", "ms", "study",
     _ms("explainability.load_ontology"), STUDY_ITER),
    ("explainability.e_gap_ms", "ms", "study", _ms("explainability.e_gap"), STUDY_ITER),
    ("composite.utility_ms", "ms", "study", _ms("composite.utility"), STUDY_ITER),
    ("power.required_n_ms", "ms", "design.power", _ms("power.required_n"), POWER),
    ("power.mc_power_ms", "ms", "design.power", _per_candidate_ms, POWER),
    ("power.candidates", "count", "design.power",
     _count("power.required_n", "candidates"), POWER),
    ("spearman.rho_ms", "ms", "design",
     _self_ms("spearman.spearman", "spearman.permutation"), DESIGN_STATS),
    ("spearman.permutation_ms", "ms", "design", _ms("spearman.permutation"), DESIGN_STATS),
    ("mixed.simulate_cohort_ms", "ms", "design", _ms("mixed.simulate_cohort"), DESIGN_STATS),
    ("mixed.fit_mixed_ms", "ms", "design", _ms("mixed.fit_mixed"), DESIGN_STATS),
    ("mixed.read_cohort_ms", "ms", "design", _ms("mixed.read_cohort"), DESIGN_STATS),
    ("kappa.cohens_kappa_ms", "ms", "design", _ms("kappa.cohens_kappa"), DESIGN_STATS),
    ("config.resolve_config_ms", "ms", "selected", _ms("config.resolve_config"), ALL_CORPUS),
    ("reporting.write_json_ms", "ms", "selected", _ms("reporting.write_json"), ALL_CORPUS),
    ("reporting.write_jsonl_ms", "ms", "selected", _ms("reporting.write_jsonl"), ALL_CORPUS),
    ("reporting.bytes_written", "B", "selected", _bytes_written, ALL_CORPUS),
)


def subtree(spans: list[dict], root_name: str) -> list[dict]:
    """The spans named ``root_name`` and everything they caused."""
    ids: set[str] = set()
    out = []
    for span in sorted(spans, key=lambda s: s["start_ns"]):
        if span["name"] == root_name or span["parent"] in ids:
            ids.add(span["id"])
            out.append(span)
    return out


def layer_metrics(passes: dict[str, list[list[dict]]], selected: str) -> dict[str, float]:
    """Median over traced passes of each layer metric, read from its workload."""
    out = {}
    for metric, _unit, source, fn, _moves in LAYER_METRICS:
        key = selected if source == "selected" else source
        values = [fn(pass_table(spans)) for spans in passes[key]]
        out[metric] = statistics.median(values)
    return out
