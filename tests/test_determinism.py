"""Two runs under different string-hash seeds, or on different CPU counts,
write the same bytes.

A child interpreter runs every ``vcp`` subcommand on committed fixtures, each
with ``--out``, and then the study driver, all in process and inside its own
working directory.  The argv lists are perfbench's ``cold_commands``.  One
child runs with ``PYTHONHASHSEED=0`` and one with ``PYTHONHASHSEED=1``; every
file they write and everything they print must match byte for byte.  A third
child replaces the builtin ``sum`` with one that compensates float terms, as
``sum`` does from Python 3.12 on, and must write the same bytes again.

Another pair of children runs ``vcp metrics`` and ``vcp traps generate`` over
perfbench's corpus pool, large enough to fork workers; one of them first
restricts itself to a single CPU, so it runs in process.

Three more children run ``vcp fit`` on a 320-row cohort and on a shuffled copy
of it, one with OpenBLAS's default kernel and two with ``OPENBLAS_CORETYPE``
set to the ``Prescott`` and ``Haswell`` kernels, which any x86-64 CPU runs.
Three children do the same for the two least-squares fits, ``vcp calibrate``
and ``vcp retention --decay``, each on its fixture and on a shuffled copy, and
three for Spearman's rho on 378,000 rows and on a shuffled copy of them.

Last, every other CPython 3.10 or later found here (pyenv's versions and
``python3.1x`` on ``PATH``) runs the commands that load no numpy, writes the
study's reviewer responses as ``scripts/make_fixtures.py`` does, and then runs
the study driver, and must write and print what this interpreter does.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import fresh_env

# The study driver, in the child's working directory, after its commands.
_STUDY = r'''
spec = importlib.util.spec_from_file_location(
    "run_study", Path(sys.argv[1]) / "scripts" / "run_study.py"
)
run_study = importlib.util.module_from_spec(spec)
spec.loader.exec_module(run_study)
run_study.run_study(Path("fixtures/study"), Path("study"))
print("== study complete")
'''


CHILD = r'''
import builtins
import contextlib
import importlib.util
import io
import math
import sys
from pathlib import Path

import workloads
from vibecheck import cli


def compensated_sum(iterable, /, start=0):
    """``sum`` as Python 3.12 adds floats: Neumaier-compensated float terms."""
    total, c = start, 0.0
    for x in iterable:
        if type(total) is float and type(x) is float:
            t = total + x
            c += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
            total = t
        else:
            total = total + x
    return total + c if c and math.isfinite(c) else total


if sys.argv[2] == "compensated-sum":
    builtins.sum = compensated_sum
tmp = Path("tmp")
tmp.mkdir()
# String labels.  Summed in set order, chance agreement on this table ends in
# ...575 under one of the two hash seeds and ...57 under the other.  Summed
# in sorted order, kappa moved in its last digit under 3.12's ``sum``.
(tmp / "ratings.csv").write_text(
    "a,b\nmajor,none\nnone,clean\ntrap,major\ncritical,major\ntrap,critical\nmajor,trap\n"
)
commands = workloads.cold_commands(tmp)
commands["spearman"] += ["--permutations", "1000", "--seed", "1"]
for name, argv in commands.items():
    if "--out" not in argv:
        argv = [*argv, "--out", f"out/{name}"]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.run(argv)
    print(f"== {name}: exit {code}\n{stdout.getvalue()}{stderr.getvalue()}")
''' + _STUDY


CORPUS_CHILD = r'''
import contextlib
import io
import os
import sys
from pathlib import Path

import workloads
from vibecheck import cli

if sys.argv[2] == "one-cpu":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})  # this process only
print("cpus", len(os.sched_getaffinity(0)))
corpus = workloads.Corpus(Path(sys.argv[1]), Path("tmp"), 1, False, {})
corpus.setup()
commands = {
    "metrics": ["metrics", *corpus.files, "--out", "out/metrics"],
    "traps": ["traps", "generate", "--origins", str(corpus.pool_dir), "--fraction", "0.5",
              "--seed", "1", "--out", "out/corpus"],
}
for name, argv in commands.items():
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.run(argv)
    print(f"== {name}: exit {code}\n{stdout.getvalue()}{stderr.getvalue()}")
'''


_VCP = r'''
import contextlib
import io
import json
import random
from pathlib import Path

from vibecheck import cli


def vcp(*argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.run(list(argv))
    print(f"== {argv[0]}: exit {code}\n{stdout.getvalue()}{stderr.getvalue()}")
'''


FIT_CHILD = _VCP + r'''
vcp("simulate", "--beta0", "1", "--beta1", "0.4", "--beta2", "0.2", "--sigma-u", "0.5",
    "--sigma-e", "0.5", "--n-per-condition", "40", "--occasions", "4", "--seed", "7",
    "--out", "cohort")
lines = Path("cohort/cohort.jsonl").read_text().splitlines(keepends=True)
random.Random(1).shuffle(lines)
Path("shuffled.jsonl").write_text("".join(lines))
vcp("fit", "--data", "cohort/cohort.jsonl", "--out", "out/fit")
vcp("fit", "--data", "shuffled.jsonl", "--out", "out/shuffled")
'''


LSTSQ_CHILD = _VCP + r'''
pairs = [json.loads(line) for line in Path("fixtures/calibration/pairs.jsonl").open()]
random.Random(1).shuffle(pairs)
Path("pairs.jsonl").write_text("".join(
    json.dumps({k: f"fixtures/calibration/{v}" for k, v in rec.items()}) + "\n" for rec in pairs
))
header, *rows = Path("fixtures/decay/noisy_decay.csv").read_text().splitlines(keepends=True)
random.Random(1).shuffle(rows)
Path("decay.csv").write_text(header + "".join(rows))
vcp("calibrate", "--pairs", "fixtures/calibration/pairs.jsonl", "--out", "out/calibrate")
vcp("calibrate", "--pairs", "pairs.jsonl", "--out", "shuffled/calibrate")
vcp("retention", "--decay", "fixtures/decay/noisy_decay.csv", "--out", "out/decay")
vcp("retention", "--decay", "decay.csv", "--out", "shuffled/decay")
'''


SPEARMAN_CHILD = r'''
import random

from vibecheck.stats.spearman import spearman

# The fewest rows, in steps of 500 from 340,000, on which the rho that summed
# its ranks with BLAS moved with the kernel: the default's ended in ...462 and
# Prescott's in ...459.
n = 378_000
rng = random.Random(n)
xs = [rng.random() for _ in range(n)]
ys = [x + rng.random() for x in xs]
pairs = list(zip(xs, ys))
random.Random(1).shuffle(pairs)
print(repr(spearman(xs, ys).rho))
print(repr(spearman(*zip(*pairs)).rho))
'''


NUMPY_FREE_CHILD = _VCP + r'''
import importlib.util
import sys

Path("ratings.csv").write_text(
    "a,b\nmajor,none\nnone,clean\ntrap,major\ncritical,major\ntrap,critical\nmajor,trap\n"
)
vcp("metrics", "fixtures/ifelse.vcp", "--out", "out/metrics")
vcp("sdt", "--responses", "fixtures/study/responses.jsonl", "--out", "out/sdt")
vcp("traps", "generate", "--origins", "fixtures/origins", "--out", "out/traps")
vcp("retention", "--build", "fixtures/session/build.log", "--refactor",
    "fixtures/session/refactor.log", "--allow-uncalibrated", "--out", "out/retention")
vcp("calibrate", "--pairs", "fixtures/calibration/pairs.jsonl", "--out", "out/calibrate")
vcp("retention", "--decay", "fixtures/decay/noisy_decay.csv", "--out", "out/decay")
vcp("egap", "--transcript", "fixtures/study/transcripts/s01.txt", "--ontology",
    "fixtures/study/ontology.json", "--code", "fixtures/study/target.vcp", "--out", "out/egap")
vcp("score", "--records", "fixtures/zones/boundary_records.jsonl", "--out", "out/score")
vcp("fit", "--data", "fixtures/draws/simulate/cohort.jsonl", "--out", "out/fit")
vcp("kappa", "--data", "ratings.csv", "--out", "out/kappa")
vcp("spearman", "--data", "fixtures/spearman/quiz_scores.csv", "--out", "out/spearman")
sys.path.insert(0, str(Path(sys.argv[1]) / "scripts"))
import make_fixtures

make_fixtures.write_responses(Path("fixtures/study/origins"), Path("out/responses.jsonl"))
print("== responses: numpy loaded", "numpy" in sys.modules)
''' + _STUDY


_PROBE = (
    "import os, sys; assert sys.version_info >= (3, 10); print(os.path.realpath(sys.executable))"
)


def _other_pythons() -> list[str]:
    """Each CPython >= 3.10 under ``$PYENV_ROOT/versions`` or named
    ``python3.1x`` on ``PATH``, once, other than the one running the tests.
    A candidate that does not start (a pyenv shim with no version selected)
    is passed over."""
    root = Path(os.environ.get("PYENV_ROOT") or Path.home() / ".pyenv")
    candidates = sorted(root.glob("versions/*/bin/python3"))
    for directory in filter(None, os.environ.get("PATH", "").split(os.pathsep)):
        candidates += sorted(Path(directory).glob("python3.1[0-9]"))
    seen, found = {os.path.realpath(sys.executable)}, []
    for exe in candidates:
        try:
            proc = subprocess.run([str(exe), "-c", _PROBE], capture_output=True, text=True,
                                  timeout=60)
        except (OSError, subprocess.TimeoutExpired):
            continue
        real = proc.stdout.strip()
        if proc.returncode == 0 and real not in seen:
            seen.add(real)
            found.append(str(exe))
    return found


def _run_child(
    repo_root: Path, work: Path, hash_seed: str, child: str = CHILD, mode: str = "",
    python: str = sys.executable, **extra_env: str,
) -> tuple[str, dict]:
    work.mkdir()
    (work / "fixtures").symlink_to(repo_root / "fixtures", target_is_directory=True)
    env = fresh_env("VCP_CONFIG", "OPENBLAS_CORETYPE", extra_path=(repo_root / "perfbench",))
    env.update(extra_env, PYTHONHASHSEED=hash_seed)
    proc = subprocess.run(
        [python, "-c", child, str(repo_root), mode],
        cwd=work, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    files = {
        str(p.relative_to(work)): p.read_bytes()
        for p in sorted(work.rglob("*"))
        if p.is_file() and p.relative_to(work).parts[0] != "fixtures"
    }
    return proc.stdout, files


def test_outputs_do_not_depend_on_the_hash_seed(repo_root, tmp_path):
    out0, files0 = _run_child(repo_root, tmp_path / "seed0", "0")
    out1, files1 = _run_child(repo_root, tmp_path / "seed1", "1")
    # Every subcommand ran and succeeded, and the study wrote its tree.
    assert out0.count(": exit 0\n") == 12 and out0.endswith("== study complete\n")
    assert any(name.startswith("study/") for name in files0)
    assert sorted(files0) == sorted(files1)
    for name in files0:
        assert files0[name] == files1[name], name
    assert out0 == out1


def test_outputs_do_not_depend_on_how_sum_adds_floats(repo_root, tmp_path):
    out, files = _run_child(repo_root, tmp_path / "builtin", "0", mode="builtin-sum")
    out_c, files_c = _run_child(repo_root, tmp_path / "compensated", "0", mode="compensated-sum")
    assert out.count(": exit 0\n") == 12 and out.endswith("== study complete\n")
    assert sorted(files) == sorted(files_c)
    for name in files:
        assert files[name] == files_c[name], name
    assert out == out_c


def test_corpus_outputs_do_not_depend_on_the_cpu_count(repo_root, tmp_path):
    out1, files1 = _run_child(repo_root, tmp_path / "one", "0", CORPUS_CHILD, "one-cpu")
    outn, filesn = _run_child(repo_root, tmp_path / "all", "0", CORPUS_CHILD, "all-cpus")
    cpus1, _, report1 = out1.partition("\n")
    _, _, reportn = outn.partition("\n")
    assert cpus1 == "cpus 1"
    assert report1.count(": exit 0\n") == 2
    assert len([name for name in files1 if name.startswith("out/corpus/items/")]) == 264
    assert sorted(files1) == sorted(filesn)
    for name in files1:
        assert files1[name] == filesn[name], name
    assert report1 == reportn


def test_fit_does_not_depend_on_row_order_or_the_blas_kernel(repo_root, tmp_path):
    out, files = _run_child(repo_root, tmp_path / "default", "0", FIT_CHILD)
    assert out.count(": exit 0\n") == 3
    fit = files["out/fit/mixed_fit.json"]
    assert files["out/shuffled/mixed_fit.json"] == fit
    assert files["shuffled.jsonl"] != files["cohort/cohort.jsonl"]
    for kernel in ("Prescott", "Haswell"):
        out_k, files_k = _run_child(
            repo_root, tmp_path / kernel, "0", FIT_CHILD, OPENBLAS_CORETYPE=kernel
        )
        assert out_k == out
        assert files_k == files, kernel


def test_least_squares_fits_do_not_depend_on_row_order_or_the_blas_kernel(repo_root, tmp_path):
    out, files = _run_child(repo_root, tmp_path / "default", "0", LSTSQ_CHILD)
    assert out.count(": exit 0\n") == 4
    # The shuffled runs write the same reports; the decay curve keeps each
    # input row, in input order, beside its fitted value.
    outputs = {name[4:]: data for name, data in files.items() if name.startswith("out/")}
    assert len(outputs) == 6
    for name, data in outputs.items():
        shuffled = files[f"shuffled/{name}"]
        if name == "decay/decay_curve.tsv":
            assert shuffled != data
            data, shuffled = sorted(data.splitlines()), sorted(shuffled.splitlines())
        assert shuffled == data, name
    for kernel in ("Prescott", "Haswell"):
        out_k, files_k = _run_child(
            repo_root, tmp_path / kernel, "0", LSTSQ_CHILD, OPENBLAS_CORETYPE=kernel
        )
        assert out_k == out
        assert files_k == files, kernel


def test_spearman_rho_does_not_depend_on_row_order_or_the_blas_kernel(repo_root, tmp_path):
    out, _ = _run_child(repo_root, tmp_path / "default", "0", SPEARMAN_CHILD)
    rho, shuffled = out.splitlines()
    assert shuffled == rho
    for kernel in ("Prescott", "Haswell"):
        out_k, _ = _run_child(
            repo_root, tmp_path / kernel, "0", SPEARMAN_CHILD, OPENBLAS_CORETYPE=kernel
        )
        assert out_k == out, kernel


def test_numpy_free_commands_write_the_same_bytes_on_every_python(repo_root, tmp_path):
    pythons = _other_pythons()
    if not pythons:
        pytest.skip("no other CPython >= 3.10 under $PYENV_ROOT/versions or on PATH")
    out, files = _run_child(repo_root, tmp_path / "this", "0", NUMPY_FREE_CHILD,
                            PYTHONDONTWRITEBYTECODE="1")
    assert out.count(": exit 0\n") == 11 and out.endswith("== study complete\n")
    assert any(name.startswith("study/") for name in files)
    # The reviewer flags are drawn without numpy, as the committed ones were.
    assert "== responses: numpy loaded False\n" in out
    responses = (repo_root / "fixtures" / "study" / "responses.jsonl").read_bytes()
    assert files["out/responses.jsonl"] == responses
    for i, python in enumerate(pythons):
        out_p, files_p = _run_child(repo_root, tmp_path / f"python{i}", "0", NUMPY_FREE_CHILD,
                                    python=python, PYTHONDONTWRITEBYTECODE="1")
        assert out_p == out, python
        assert sorted(files_p) == sorted(files), python
        for name in files:
            assert files_p[name] == files[name], (python, name)
