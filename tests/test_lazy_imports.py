"""Each ``vcp`` command loads numpy and the process pool only when it uses them.

Only the commands that draw random numbers (power, simulate, spearman
``--permutations``) load numpy; the stats handlers import the stats layer when
they run.  No command imports ``multiprocessing`` or ``concurrent.futures``:
the pool forks its workers with ``os.fork``, so each check tells that a
command forked by counting its ``os.fork`` calls.  The study's batches are far
below ``pool.FORK_MIN_BYTES``, so they run in process and do not fork; a
larger ``vcp metrics`` batch forks, with the front end loaded in the parent,
so that the workers inherit it.  Spearman's permutation chunks fork likewise
from ``FORK_MIN_PERMUTATIONS`` on, with numpy loaded in the parent.
The simulated reviewers draw without numpy too, and no command or front-end
import loads the program generator, ``vibecheck.codemetrics.progen``.
Records are ``vibecheck.record.Record`` subclasses, which generate no code,
so neither the command line nor the stats layer loads ``dataclasses`` or
the ``inspect`` it imports.
Each check runs in a fresh interpreter, since this test process has numpy and
every layer loaded already.
"""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from conftest import fresh_env
from vibecheck.pool import FORK_MIN_BYTES
from vibecheck.stats.spearman import FORK_MIN_PERMUTATIONS


def _python(repo_root, code: str, *args: str) -> subprocess.CompletedProcess:
    env = fresh_env()
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code), *args],
        capture_output=True, text=True, env=env, cwd=repo_root, check=True,
    )


_UNLOADED = ("numpy", "multiprocessing", "concurrent.futures")
_LOADED = f"[m for m in {_UNLOADED!r} if m in sys.modules]"


def test_cli_import_leaves_numpy_unloaded(repo_root):
    proc = _python(repo_root, f"import sys, vibecheck.cli; print({_LOADED})")
    assert proc.stdout.strip() == "[]"


def test_cli_import_leaves_statistics_unloaded(repo_root):
    # The normal quantile's module loads with the commands that take one.
    proc = _python(repo_root, "import sys, vibecheck.cli; print('statistics' in sys.modules)")
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize("module", ["vibecheck.cli", "vibecheck.stats.mixed"])
def test_records_load_no_code_generator(repo_root, module):
    loaded = "[m for m in ('dataclasses', 'inspect') if m in sys.modules]"
    code = f"import sys, {module}; print({loaded})"
    assert _python(repo_root, code).stdout.strip() == "[]"


def test_simulated_reviewer_leaves_numpy_unloaded(repo_root):
    code = f"""
        import sys
        from vibecheck.sdt import simulate_reviewer
        flags = simulate_reviewer(["trap", "clean"] * 500, 1.5, seed=9)
        print(sum(flags), {_LOADED})
    """
    assert _python(repo_root, code).stdout.split(maxsplit=1)[1].strip() == "[]"


# The program generator (and its ``random``) loads only where programs are drawn.
_GENERATOR = "vibecheck.codemetrics.progen"


def test_front_end_import_leaves_the_program_generator_unloaded(repo_root):
    code = f"import sys, vibecheck.codemetrics.parser; print({_GENERATOR!r} in sys.modules)"
    assert _python(repo_root, code).stdout.strip() == "False"


def test_study_driver_leaves_numpy_unloaded(repo_root, tmp_path):
    code = """
        import runpy, sys
        sys.argv = ["run_study.py", "--fixtures", "fixtures/study", "--out", sys.argv[1]]
        runpy.run_path("scripts/run_study.py", run_name="__main__")
        print(LOADED)
    """.replace("LOADED", f"[m for m in {_UNLOADED + (_GENERATOR,)!r} if m in sys.modules]")
    proc = _python(repo_root, code, str(tmp_path / "study"))
    assert proc.stdout.splitlines()[-1] == "[]"
    assert (tmp_path / "study" / "score" / "score_report.json").is_file()


# --- one table: what each command may load ------------------------------------

_DRAWS = ("multiprocessing", "concurrent.futures")
# More source bytes than FORK_MIN_BYTES, so the batch forks.
_UNIT = "fixtures/origins/prog_04.vcp"
_UNIT_BYTES = (Path(__file__).resolve().parent.parent / _UNIT).stat().st_size
_BATCH = [_UNIT] * (FORK_MIN_BYTES // _UNIT_BYTES + 1)


# id: (vcp argv; modules, with their submodules, that must be unloaded
# afterwards; modules that must be loaded).  A case whose id ends in
# "-forked" must fork; no other case may.
_TABLE = {
    # A batch that does not fork leaves ``pickle`` unloaded as well.
    "metrics": (["metrics", "fixtures/ifelse.vcp"], (*_UNLOADED, "pickle"), ()),
    "sdt": (["sdt", "--responses", "fixtures/study/responses.jsonl"], _UNLOADED, ()),
    "sdt-answer-key": (["sdt", "--responses", "fixtures/study/responses.jsonl", "--answer-key",
                        "fixtures/study/golden/corpus/answer_key.jsonl"], _UNLOADED, ()),
    "traps-generate": (["traps", "generate", "--origins", "fixtures/origins", "--out", "{tmp}"],
                       (*_UNLOADED, "pickle"), ()),
    "retention": (["retention", "--build", "fixtures/session/build.log",
                   "--refactor", "fixtures/session/refactor.log", "--allow-uncalibrated"],
                  _UNLOADED, ()),
    "retention-decay": (["retention", "--decay", "fixtures/decay/noisy_decay.csv"], _UNLOADED, ()),
    "calibrate": (["calibrate", "--pairs", "fixtures/calibration/pairs.jsonl"], _UNLOADED, ()),
    "egap": (["egap", "--transcript", "fixtures/study/transcripts/s01.txt", "--ontology",
              "fixtures/study/ontology.json", "--code", "fixtures/study/target.vcp"],
             _UNLOADED, ()),
    "score": (["score", "--records", "fixtures/zones/boundary_records.jsonl"], _UNLOADED, ()),
    "kappa": (["kappa", "--data", "{tmp}/ratings.csv"], _UNLOADED, ()),
    "spearman": (["spearman", "--data", "fixtures/spearman/quiz_scores.csv"], _UNLOADED, ()),
    "fit": (["fit", "--data", "fixtures/draws/simulate/cohort.jsonl"], _UNLOADED, ()),
    "power": (["power", "--d", "0.8", "--replicates", "1000"], _DRAWS, ("numpy",)),
    "simulate": (["simulate", "--beta0", "1", "--beta1", "0.4", "--beta2", "0.2",
                  "--sigma-u", "0.5", "--sigma-e", "0.5", "--n-per-condition", "4",
                  "--occasions", "2", "--out", "{tmp}"], _DRAWS, ("numpy",)),
    "spearman-permutations": (["spearman", "--data", "fixtures/spearman/quiz_scores.csv",
                               "--permutations", "1000"], _DRAWS, ("numpy",)),
    "spearman-permutations-forked": (["spearman", "--data", "fixtures/spearman/quiz_scores.csv",
                                      "--permutations", str(FORK_MIN_PERMUTATIONS)],
                                     _DRAWS, ("numpy",)),
    # The batch forks, and the parent has the front end loaded, so the
    # workers inherit it.
    "metrics-forked": (["metrics", *_BATCH], _UNLOADED, ("vibecheck.codemetrics.metrics",)),
}


@pytest.mark.parametrize("case", list(_TABLE))
def test_a_command_loads_only_what_it_uses(repo_root, tmp_path, case):
    argv, unloaded, loaded = _TABLE[case]
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    (tmp_path / "ratings.csv").write_text("a,b\nnone,minor\nminor,minor\nmajor,major\n")
    code = """
        import contextlib, io, json, os, sys
        os.sched_getaffinity = lambda pid: {0, 1}  # two CPUs, so a large batch forks
        forks, real_fork = [], os.fork
        os.fork = lambda: forks.append(1) or real_fork()
        argv = json.loads(sys.argv[1])
        from vibecheck.cli import run
        with contextlib.redirect_stdout(io.StringIO()), \\
                contextlib.redirect_stderr(io.StringIO()):
            exit_code = run(argv)
        print(json.dumps([exit_code, sorted(sys.modules), len(forks)]))
    """
    exit_code, modules, forks = json.loads(_python(repo_root, code, json.dumps(argv)).stdout)
    assert exit_code == 0
    assert (forks > 0) == case.endswith("-forked"), forks
    unloaded = (*unloaded, _GENERATOR)  # no command draws a program
    assert [m for m in modules if any(m == u or m.startswith(u + ".") for u in unloaded)] == []
    assert [m for m in loaded if m not in modules] == []
