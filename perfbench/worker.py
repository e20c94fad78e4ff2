"""One benchmark process: set up a workload, run it, check it, report it.

``run.py`` starts this file with the source tree on PYTHONPATH and the BLAS
thread count capped, from the root of the checkout.  The last line of its
standard output is one JSON object for ``run.py``.

    python3 perfbench/worker.py --workload corpus --seed 1 --seconds 15 \
        --trace 0 --work .bench_out/tmp [--setup-only] [--smoke]

With ``--setup-only`` it builds the inputs and exits, so that ``run.py``
can time set-up in fresh interpreters.  With ``--trace 0`` it runs closed-loop
passes for ``--seconds`` and reports the end-to-end metrics.  With
``--trace 1`` it alternates untraced and traced passes of the workload, runs
one traced pass of each other workload and the ``vcp`` start-up probes, and
reports the per-layer metrics and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import time
from pathlib import Path

import benchtrace
from workloads import CLI_METRICS, WORKLOADS, Ledger, environment, probe_cli


def _peak_rss_mb(workload: str) -> float:
    """Peak RSS: the largest child for ``study``, this process otherwise (Linux KiB)."""
    who = resource.RUSAGE_CHILDREN if workload == "study" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def timed(wl, ledger: Ledger, seconds: float, smoke: bool) -> dict:
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(wl.run_pass(ledger))
        wl.check_pass(ledger)
        if smoke or time.perf_counter() - start >= seconds:
            break
    peak = _peak_rss_mb(wl.name)
    wl.finish(ledger)
    iters = [p["iter_s"] for p in passes]
    return {
        "metrics": {"iter_s": statistics.median(iters), "peak_rss_mb": peak},
        "workload_metrics": wl.rates(passes),
        "samples": len(passes),
        "iter_s_samples": iters,
    }


def _traced_pass(wl, ledger: Ledger, tracer: benchtrace.Tracer, iteration: str) -> dict:
    tracer.install()
    try:
        with tracer.iteration_scope(iteration), tracer.span(f"{wl.name}.pass"):
            result = wl.run_pass(ledger, tracer)
    finally:
        tracer.uninstall()
    wl.check_pass(ledger)
    return result


def traced(wl, ledger: Ledger, seconds: float, smoke: bool) -> tuple[dict, benchtrace.Tracer]:
    tracer = benchtrace.Tracer()
    untraced, with_trace = [], []
    start = time.perf_counter()
    while True:
        untraced.append(wl.run_pass(ledger)["iter_s"])
        wl.check_pass(ledger)
        iteration = f"{wl.name}:{len(with_trace)}"
        with_trace.append(_traced_pass(wl, ledger, tracer, iteration)["iter_s"])
        if smoke or time.perf_counter() - start >= seconds:
            break
    wl.finish(ledger)
    # The per-layer table covers every module, so the other workloads run
    # one traced pass each on inputs from the same seed.
    for name, cls in WORKLOADS.items():
        if name == wl.name:
            continue
        other = cls(wl.root, wl.work.parent / name, wl.seed, smoke, wl.env)
        other.setup()
        _traced_pass(other, ledger, tracer, f"{name}:0")
        other.finish(ledger)
    probes = probe_cli(wl.root, wl.work.parent / "probe", wl.env, ledger, 1 if smoke else 3)

    passes: dict[str, list[list[dict]]] = {}
    for span in tracer.spans:
        workload, index = span["iteration"].split(":")
        passes.setdefault(workload, {}).setdefault(index, []).append(span)
    passes = {w: list(by_index.values()) for w, by_index in passes.items()}
    passes["design.power"] = [benchtrace.subtree(s, "design.power") for s in passes["design"]]
    metrics = {**probes, **benchtrace.layer_metrics(passes, wl.name)}
    metrics["trace.overhead_s"] = statistics.median(with_trace) - statistics.median(untraced)
    return {
        "metrics": metrics,
        "samples": len(with_trace),
        "untraced_iter_s": untraced,
        "traced_iter_s": with_trace,
    }, tracer


LAYER_UNITS = {
    **{name: "ms" for name in CLI_METRICS},
    **{m[0]: m[1] for m in benchtrace.LAYER_METRICS},
    "trace.overhead_s": "s",
}
LAYER_MOVES = {
    **{name: "iter_s on study" for name in CLI_METRICS},
    **{m[0]: m[4] for m in benchtrace.LAYER_METRICS},
    "trace.overhead_s": "none (the cost of tracing itself)",
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True, help="scratch directory for inputs and outputs")
    parser.add_argument("--spans", help="file to write the traced run's spans to")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    root = Path.cwd()
    wl = WORKLOADS[args.workload](
        root, Path(args.work) / args.workload, args.seed, args.smoke, dict(os.environ)
    )
    wl.setup()
    if args.setup_only:
        return
    ledger = Ledger()
    if args.trace:
        result, tracer = traced(wl, ledger, args.seconds, args.smoke)
        if args.spans:
            tracer.write(Path(args.spans))
        result["units"] = LAYER_UNITS
        result["moves"] = LAYER_MOVES
    else:
        result = timed(wl, ledger, args.seconds, args.smoke)
    result.update(
        attempted=ledger.attempted,
        failed=ledger.failed,
        errors=ledger.errors,
        environment=environment(root, args.seed),
    )
    print(json.dumps(result, sort_keys=True))


if __name__ == "__main__":
    main()
