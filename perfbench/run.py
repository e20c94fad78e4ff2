"""vibecheck benchmark: three closed-loop workloads, one client each.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload {study,corpus,design} --seed N \
        --seconds S --trace {0,1}
    python3 perfbench/run.py --smoke   # every workload at minimal sizes, once

The inputs of a run are made from ``--seed`` alone.  With ``--trace 0`` the
run measures the end-to-end metrics for ``--seconds`` and prints them; with
``--trace 1`` it runs traced passes instead and prints the per-layer metrics,
the end-to-end metric each should move, and the tracing overhead.  The last
line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
``failed / attempted`` is the ``failed_ops`` share: every ``vcp`` step,
subprocess and output check is one attempted operation.

Everything the run writes stays under ``.bench_out/`` in the checkout; the
full result (with samples, environment and failures) goes to
``.bench_out/results/``, and a traced run's spans next to it.

The benchmark itself uses only the standard library here; the workers it
starts run with ``src`` on PYTHONPATH and one BLAS thread, so a run uses at
most two threads of computation (this process waits while a worker runs).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("study", "corpus", "design")
DEFAULT_SEED = 1
HELD_OUT_SEED = 2
SETUP_SAMPLES = 5
DEADLINE_S = 170.0
REQUIRED = ("src/vibecheck/cli.py", "scripts/run_study.py", "fixtures/study/golden")
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS",
)
END_TO_END_UNITS = {"setup_s": "s", "iter_s": "s", "peak_rss_mb": "MB"}
WORKLOAD_UNITS = {
    "metrics_units_per_s": "1/s", "traps_items_per_s": "1/s", "power_s": "s",
    "permutations_per_s": "1/s", "fits_per_s": "1/s",
}


class RunError(Exception):
    pass


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    paths = [str(root / "src"), env.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    for var in THREAD_VARS:
        env[var] = "1"
    env.pop("VCP_CONFIG", None)
    return env


def _run_child(cmd: list[str], root: Path, env: dict, deadline: float) -> tuple[int, str]:
    """Run one worker in its own process group; kill the group at the deadline."""
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RunError(f"worker exceeded the {DEADLINE_S:.0f} s deadline: {' '.join(cmd)}")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        sys.stderr.write(err[-2000:])
    return proc.returncode, out


def run_once(root: Path, workload: str, seed: int, seconds: float, trace: int,
             smoke: bool) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    env = child_env(root)
    out_dir = root / ".bench_out"
    work = out_dir / f"work-{os.getpid()}"
    results = out_dir / "results"
    results.mkdir(parents=True, exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{trace}{'-smoke' if smoke else ''}"
    base = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--work", str(work)] + (["--smoke"] if smoke else [])
    try:
        # Set-up is an end-to-end metric only; a traced run skips its samples.
        setup, setup_failures = [], 0
        for _ in range(0 if trace else SETUP_SAMPLES):
            start = time.perf_counter()
            code, _ = _run_child(base + ["--setup-only"], root, env, deadline)
            setup.append(time.perf_counter() - start)
            setup_failures += code != 0
        cmd = base + ["--seconds", str(seconds), "--trace", str(trace)]
        if trace:
            cmd += ["--spans", str(results / f"{tag}-spans.jsonl")]
        code, out = _run_child(cmd, root, env, deadline)
        lines = out.strip().splitlines()
        if code != 0 or not lines:
            raise RunError(f"worker failed with exit {code}")
        result = json.loads(lines[-1])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result["attempted"] += len(setup)
    result["failed"] += setup_failures
    if setup:
        result["setup_s_samples"] = setup
        result["metrics"]["setup_s"] = statistics.median(setup)
    result.update(workload=workload, seed=seed, seconds=seconds, trace=trace)
    (results / f"{tag}.json").write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    return result


def report(result: dict) -> dict:
    """Print the human summary; return the final JSON line's object."""
    trace = result["trace"]
    units = result["units"] if trace else END_TO_END_UNITS
    env = result["environment"]
    print(f"# {result['workload']} seed {result['seed']} trace {trace}: "
          f"{result['samples']} passes; nproc {env['nproc']}, python {env['python']}, "
          f"numpy {env['numpy']}, scipy {env['scipy']}, src {env['src_lines']['total']} lines")
    for name in sorted(units):
        value = result["metrics"][name]
        arrow = f"  -> {result['moves'][name]}" if trace else ""
        print(f"{name:34s} {value:14.6g} {units[name]}{arrow}")
    for name, value in sorted(result.get("workload_metrics", {}).items()):
        print(f"{name:34s} {value:14.6g} {WORKLOAD_UNITS[name]}  (this workload only)")
    share = result["failed"] / result["attempted"]
    print(f"{'failed_ops':34s} {share:14.6g} share of {result['attempted']} operations")
    for error in result["errors"]:
        print(f"FAILED {error}")
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": result["metrics"][name], "unit": units[name]}
            for name in sorted(units)
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload once at minimal sizes with tracing off "
                             f"on seed {DEFAULT_SEED}, then one traced run on seed "
                             f"{HELD_OUT_SEED}; no timing assertion")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")

    # On SIGTERM, unwind so that the running worker's process group is killed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    root = Path.cwd()
    missing = [p for p in REQUIRED if not (root / p).exists()]
    if missing:
        sys.stderr.write(f"perfbench: not a vibecheck checkout, missing: {', '.join(missing)}\n")
        return 2
    try:
        if args.smoke:
            runs = [(w, DEFAULT_SEED, 0) for w in WORKLOADS] + [("corpus", HELD_OUT_SEED, 1)]
            ok = True
            for workload, seed, trace in runs:
                final = report(run_once(root, workload, seed, 0.0, trace, True))
                ok &= final["correct"]
            print(json.dumps({"smoke": "pass" if ok else "fail"}))
            return 0 if ok else 1
        result = run_once(root, args.workload, args.seed, args.seconds, args.trace, False)
    except RunError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 1
    print(json.dumps(report(result), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
