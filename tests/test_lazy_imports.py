"""numpy and the process pool load only for the commands that use them.

The commands of the study path (metrics, sdt, traps generate, retention,
egap, score), ``calibrate``, ``retention --decay``, ``kappa``, ``fit``,
``spearman`` without ``--permutations`` and the study driver run without
importing numpy; only the commands that draw random numbers (power, simulate,
spearman ``--permutations``) import it, when they run.  The study's batches
are far below ``pool.FORK_MIN_BYTES``, so they run in process and never import
``multiprocessing`` or ``concurrent.futures.process`` either.  Each check runs
in a fresh interpreter, since this test process has numpy loaded already.
"""

import json
import os
import subprocess
import sys
import textwrap

import pytest


def _python(repo_root, code: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(repo_root / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code), *args],
        capture_output=True, text=True, env=env, cwd=repo_root, check=True,
    )


_UNLOADED = ("numpy", "multiprocessing", "concurrent.futures.process")
_LOADED = f"[m for m in {_UNLOADED!r} if m in sys.modules]"


def test_cli_import_leaves_numpy_unloaded(repo_root):
    proc = _python(repo_root, f"import sys, vibecheck.cli; print({_LOADED})")
    assert proc.stdout.strip() == "[]"


def test_cli_import_leaves_statistics_unloaded(repo_root):
    # The normal quantile's module loads with the commands that take one.
    proc = _python(repo_root, "import sys, vibecheck.cli; print('statistics' in sys.modules)")
    assert proc.stdout.strip() == "False"


def test_study_path_commands_leave_numpy_unloaded(repo_root, tmp_path):
    commands = [
        ["metrics", "fixtures/ifelse.vcp"],
        ["sdt", "--responses", "fixtures/study/responses.jsonl"],
        ["traps", "generate", "--origins", "fixtures/origins", "--out", str(tmp_path / "traps")],
        ["retention", "--build", "fixtures/session/build.log",
         "--refactor", "fixtures/session/refactor.log", "--allow-uncalibrated"],
        ["egap", "--transcript", "fixtures/study/transcripts/s01.txt",
         "--ontology", "fixtures/study/ontology.json", "--code", "fixtures/study/target.vcp"],
        ["score", "--records", "fixtures/zones/boundary_records.jsonl"],
        ["calibrate", "--pairs", "fixtures/calibration/pairs.jsonl"],
        ["retention", "--decay", "fixtures/decay/noisy_decay.csv"],
        ["spearman", "--data", "fixtures/spearman/quiz_scores.csv"],
    ]
    code = """
        import contextlib, io, json, sys
        from vibecheck.cli import run
        result = []
        for argv in json.loads(sys.argv[1]):
            with contextlib.redirect_stdout(io.StringIO()), \\
                    contextlib.redirect_stderr(io.StringIO()):
                exit_code = run(argv)
            result.append([argv[0], exit_code, LOADED])
        print(json.dumps(result))
    """.replace("LOADED", _LOADED)
    proc = _python(repo_root, code, json.dumps(commands))
    assert json.loads(proc.stdout) == [[argv[0], 0, []] for argv in commands]


def test_kappa_leaves_numpy_unloaded(repo_root, tmp_path):
    ratings = tmp_path / "ratings.csv"
    ratings.write_text("a,b\nnone,minor\nminor,minor\nmajor,major\n")
    code = """
        import contextlib, io, sys
        from vibecheck.cli import run
        with contextlib.redirect_stdout(io.StringIO()):
            exit_code = run(["kappa", "--data", sys.argv[1]])
        print(exit_code, "numpy" in sys.modules)
    """
    proc = _python(repo_root, code, str(ratings))
    assert proc.stdout.split() == ["0", "False"]


def test_fit_and_the_mixed_module_leave_numpy_unloaded(repo_root, tmp_path):
    from vibecheck.stats.mixed import GeneratingParams, simulate_cohort, write_cohort

    cohort = tmp_path / "cohort.jsonl"
    write_cohort(simulate_cohort(GeneratingParams(1.0, 0.4, 0.2, 0.5, 0.5), 4, 2, 0), cohort)
    code = """
        import contextlib, io, sys
        import vibecheck.stats.mixed
        loaded = ["numpy" in sys.modules]
        from vibecheck.cli import run
        with contextlib.redirect_stdout(io.StringIO()):
            exit_code = run(["fit", "--data", sys.argv[1]])
        print(exit_code, *loaded, "numpy" in sys.modules)
    """
    proc = _python(repo_root, code, str(cohort))
    assert proc.stdout.split() == ["0", "False", "False"]


def test_study_driver_leaves_numpy_unloaded(repo_root, tmp_path):
    code = """
        import runpy, sys
        sys.argv = ["run_study.py", "--fixtures", "fixtures/study", "--out", sys.argv[1]]
        runpy.run_path("scripts/run_study.py", run_name="__main__")
        print(LOADED)
    """.replace("LOADED", _LOADED)
    proc = _python(repo_root, code, str(tmp_path / "study"))
    assert proc.stdout.splitlines()[-1] == "[]"
    assert (tmp_path / "study" / "score" / "score_report.json").is_file()


@pytest.mark.parametrize(
    "steps",
    [
        [["power", "--d", "0.8", "--replicates", "1000"]],
        [["simulate", "--beta0", "1", "--beta1", "0.4", "--beta2", "0.2",
          "--sigma-u", "0.5", "--sigma-e", "0.5", "--n-per-condition", "4",
          "--occasions", "2", "--out", "{tmp}"]],
        [["spearman", "--data", "fixtures/spearman/quiz_scores.csv",
          "--permutations", "1000"]],
    ],
    ids=["power", "simulate", "spearman"],
)
def test_stats_commands_import_numpy_on_demand(repo_root, tmp_path, steps):
    argvs = [[arg.replace("{tmp}", str(tmp_path)) for arg in argv] for argv in steps]
    code = """
        import contextlib, io, json, sys
        from vibecheck.cli import run
        codes = []
        for argv in json.loads(sys.argv[1]):
            with contextlib.redirect_stdout(io.StringIO()), \\
                    contextlib.redirect_stderr(io.StringIO()):
                codes.append(run(argv))
        print(json.dumps([codes, "numpy" in sys.modules]))
    """
    proc = _python(repo_root, code, json.dumps(argvs))
    assert json.loads(proc.stdout) == [[0] * len(argvs), True]
