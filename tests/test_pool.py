"""The process pool: forked and in-process runs agree.

``vcp metrics`` and ``vcp traps generate`` map each file through
``pool.ordered_map``, which forks workers for a batch of at least
``FORK_MIN_BYTES`` source bytes when more than one CPU is available.  Each
test runs the same batch with ``os.sched_getaffinity`` patched to one CPU (in
process) and to two (forked), as the Spearman tests do, and compares every
byte, exit code and error line.  The tests of when the pool forks call
``ordered_map`` directly, with costs and a break-even in no particular unit.
"""

import contextlib
import io
import os
import pickle
import signal
import threading

import pytest

from vibecheck import cli, errors, pool
from vibecheck.cli import run
from vibecheck.codemetrics.parser import DEPTH_BUDGET
from vibecheck.codemetrics.progen import random_program

ONE_CPU, TWO_CPUS = {0}, {0, 1}


def _batch_texts() -> dict[str, str]:
    """Generated units plus a few ten-times-larger joined ones, sorted first."""
    texts = {f"big{i}": "".join(random_program(10_000 + 10 * i + j) for j in range(10))
             for i in range(4)}
    texts.update((f"u{i:03d}", random_program(i)) for i in range(150))
    return texts


@pytest.fixture(scope="module")
def batch(tmp_path_factory):
    root = tmp_path_factory.mktemp("batch")
    for stem, text in _batch_texts().items():
        (root / f"{stem}.vcp").write_text(text, encoding="utf-8")
    assert sum(pool.path_bytes(p) for p in root.iterdir()) >= pool.FORK_MIN_BYTES
    return root


@pytest.fixture
def forks(monkeypatch):
    """The pids of the workers forked while the test runs; every one of them
    must be reaped by the end of the test."""
    pids = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    yield pids
    assert _all_reaped(pids)


def _all_reaped(pids) -> bool:
    """Whether no process in ``pids`` is still a child of this one, running or
    waiting to be reaped."""
    return all(map(_reaped, pids))


def _reaped(pid: int) -> bool:
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def _vcp(monkeypatch, cpus, argv):
    """(exit code, stdout, stderr) of one in-process ``vcp`` call on ``cpus``."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def _tree(root):
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def _copy_batch(batch, dest):
    dest.mkdir()
    for path in batch.iterdir():
        (dest / path.name).write_bytes(path.read_bytes())
    return dest


def _metrics_argv(files, out):
    return ["metrics", *sorted(files), "--out", out]


def _traps_argv(origins, out, fraction="0.5"):
    return ["traps", "generate", "--origins", origins, "--fraction", fraction, "--seed", "7",
            "--out", out]


# --- the same bytes on one CPU and on two -----------------------------------


@pytest.mark.parametrize("command", ["metrics", "traps"])
def test_forked_run_writes_the_in_process_bytes(monkeypatch, tmp_path, batch, forks, command):
    runs = {}
    for label, cpus in (("one", ONE_CPU), ("two", TWO_CPUS)):
        out = tmp_path / label
        argv = (_metrics_argv(batch.iterdir(), out) if command == "metrics"
                else _traps_argv(batch, out))
        code, stdout, stderr = _vcp(monkeypatch, cpus, argv)
        assert code == 0, stderr
        runs[label] = (stdout.replace(str(out), "OUT"), _tree(out))
        if label == "one":
            assert forks == []
    assert forks, "the two-CPU run did not fork"
    assert runs["one"] == runs["two"]


@pytest.mark.parametrize("sizes", [[100, 1, 1, 1, 1, 1, 1, 1, 1, 100], [5] * 10, [1] * 9 + [90]])
def test_chunks_are_contiguous_runs_balanced_by_bytes(sizes):
    items = list(range(len(sizes)))
    chunks = pool._chunks(items, sizes, 4)
    assert [x for chunk in chunks for x in chunk] == items
    assert 1 < len(chunks) <= 4
    for chunk in chunks:
        assert sum(sizes[i] for i in chunk) <= sum(sizes) / 4 + max(sizes)


# --- the same error on one CPU and on two ----------------------------------

_BAD = {
    "syntax": b"x = (1 +\n",
    "not-utf8": b"x = 1\n\xff\xfe\n",
    "too-deep": ("x = " + "(" * (DEPTH_BUDGET + 1) + "1" + ")" * (DEPTH_BUDGET + 1)).encode(),
}


def _with_bad_files(batch, dest, bad):
    origins = _copy_batch(batch, dest)
    for name, content in bad.items():
        if content is None:  # a file the directory lists but that cannot be read
            (origins / name).symlink_to(dest / "no-such-file.vcp")
        else:
            (origins / name).write_bytes(content)
    return origins


@pytest.mark.parametrize("kind", ["syntax", "not-utf8", "too-deep", "missing"])
@pytest.mark.parametrize("command", ["metrics", "traps"])
def test_forked_error_is_the_in_process_error(monkeypatch, tmp_path, batch, forks, kind, command):
    origins = _with_bad_files(batch, tmp_path / "origins", {"m_bad.vcp": _BAD.get(kind)})
    results = []
    for label, cpus in (("one", ONE_CPU), ("two", TWO_CPUS)):
        out = tmp_path / label
        argv = (_metrics_argv(origins.iterdir(), out) if command == "metrics"
                else _traps_argv(origins, out))
        results.append(_vcp(monkeypatch, cpus, argv))
    assert forks
    (code, _, err), forked = results
    assert code == 1
    assert len(err.splitlines()) == 1 and err.startswith("vcp: error: ")
    assert "m_bad.vcp" in err
    assert forked == results[0]


@pytest.mark.parametrize("command", ["metrics", "traps"])
def test_first_bad_file_in_sorted_order_is_reported(monkeypatch, tmp_path, batch, forks, command):
    # The last chunk holds a bad file too, and it may well fail first.
    origins = _with_bad_files(
        batch, tmp_path / "origins", {"a_bad.vcp": _BAD["syntax"], "z_bad.vcp": _BAD["syntax"]}
    )
    for cpus in (ONE_CPU, TWO_CPUS):
        argv = (_metrics_argv(origins.iterdir(), tmp_path / "out") if command == "metrics"
                else _traps_argv(origins, tmp_path / "out"))
        code, _, err = _vcp(monkeypatch, cpus, argv)
        assert code == 1 and "a_bad.vcp" in err and "z_bad" not in err
    assert forks


def test_missing_metrics_argument_is_reported_in_order(monkeypatch, tmp_path, batch, forks):
    files = sorted(batch.iterdir())
    argv = ["metrics", *files[:50], tmp_path / "absent.vcp", *files[50:]]
    one = _vcp(monkeypatch, ONE_CPU, argv)
    assert one[0] == 1 and "absent.vcp" in one[2]
    assert _vcp(monkeypatch, TWO_CPUS, argv) == one
    assert forks


# --- errors cross the process boundary --------------------------------------


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


_ERROR_ARGS = {
    errors.VcpSyntaxError: ("unexpected ')'", 3, 7, ("identifier", "'('")),
    errors.NotApplicableError: ("off-by-one", "unit7"),
}


@pytest.mark.parametrize("cls", [errors.VcpError, *_subclasses(errors.VcpError)],
                         ids=lambda cls: cls.__name__)
def test_every_error_survives_a_pickle_round_trip(cls):
    error = cls(*_ERROR_ARGS.get(cls, ("something went wrong",)))
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is cls
    assert str(copy) == str(error) and vars(copy) == vars(error)


# --- when the pool forks ----------------------------------------------------


def _pid(_item) -> int:
    return os.getpid()


def test_small_batch_runs_in_process(monkeypatch, forks):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: TWO_CPUS)
    assert pool.ordered_map(_pid, [1, 2], [9, 0], 10) == [os.getpid()] * 2
    assert pool.ordered_map(_pid, [1], [10], 10) == [os.getpid()]  # one item cannot gain
    assert forks == []


def test_large_batch_runs_on_workers_that_are_gone_afterwards(monkeypatch, forks):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: TWO_CPUS)
    pids = pool.ordered_map(_pid, list(range(8)), [1] * 8, 8)
    assert os.getpid() not in pids and set(pids) <= set(forks)
    assert _all_reaped(forks)


def test_no_fork_while_another_thread_is_alive(monkeypatch, forks):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: TWO_CPUS)
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(60,))
    thread.start()
    try:
        pids = pool.ordered_map(_pid, list(range(8)), [1] * 8, 8)
    finally:
        release.set()
        thread.join(timeout=60)
    assert not thread.is_alive()
    assert pids == [os.getpid()] * 8 and forks == []


def _fail_on_odd(item: int) -> int:
    if item % 2:
        raise ValueError(f"item {item}")
    return item


def test_first_failing_item_raises_and_no_worker_remains(monkeypatch, forks):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: TWO_CPUS)
    with pytest.raises(ValueError, match="^item 1$"):
        pool.ordered_map(_fail_on_odd, list(range(16)), [1] * 16, 16)
    assert forks and _all_reaped(forks)


# --- the result pipes --------------------------------------------------------


@contextlib.contextmanager
def _deadline(seconds: int):
    """Turn a hang into a failure: ``TimeoutError`` after ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _large(item: int) -> str:
    return f"{item:03d}" * 30_000  # 90 KB: more than one pipe buffer (64 KB)


def test_results_larger_than_a_pipe_buffer_come_back_whole_and_in_order(monkeypatch, forks):
    # The second worker blocks on its full pipe until the parent reads it, so
    # had it kept the first pipe's write end open, the parent would hang.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: TWO_CPUS)
    items = list(range(8))
    with _deadline(60):
        results = pool.ordered_map(_large, items, [1] * 8, 8)
    assert results == [_large(x) for x in items]
    assert len(forks) == 2 and _all_reaped(forks)


def _unpicklable(item: int):
    return lambda: item


def _kill_self_on_five(item: int) -> int:
    if item == 5:
        os.kill(os.getpid(), signal.SIGKILL)
    return item


@pytest.mark.parametrize("fn, status", [(_unpicklable, 256), (_kill_self_on_five, 9)],
                         ids=["unpicklable-result", "killed"])
def test_a_worker_that_ends_without_a_result_is_a_computation_error(monkeypatch, forks, fn,
                                                                     status):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: TWO_CPUS)
    with _deadline(60), pytest.raises(
        errors.ComputationError,
        match=rf"^a worker process ended without a result \(wait status {status}\)$",
    ):
        pool.ordered_map(fn, list(range(8)), [1] * 8, 8)
    assert len(forks) == 2 and _all_reaped(forks)


def test_a_killed_worker_ends_vcp_metrics_in_one_error_line(monkeypatch, tmp_path, batch, forks):
    files = sorted(batch.iterdir())
    victim = files[len(files) // 2].name
    real = cli._file_metrics

    def file_metrics(path):
        if os.path.basename(path) == victim:
            os.kill(os.getpid(), signal.SIGKILL)
        return real(path)

    monkeypatch.setattr(cli, "_file_metrics", file_metrics)
    code, out, err = _vcp(monkeypatch, TWO_CPUS, _metrics_argv(files, tmp_path / "out"))
    assert forks
    assert (code, out) == (2, "")
    assert err == ("vcp: computation error: "
                   "a worker process ended without a result (wait status 9)\n")


# --- the depth budget does not depend on where the parse runs ---------------

_SHAPES = {
    "call": lambda n: "x = " + "f(" * n + ")" * n + "\n",
    "parens": lambda n: "x = " + "(" * n + "1" + ")" * n + "\n",
    "if": lambda n: "if (a < b) { " * n + "}" * n + "\n",
    "block": lambda n: "{ " * n + "}" * n + "\n",
    "unary": lambda n: "x = " + "-" * n + "1\n",
    "index": lambda n: "x = " + "a[" * n + "1" + "]" * n + "\n",
    "operators": lambda n: "x = " + "a || b && c == d < e + f * (" * n + "1" + ")" * n + "\n",
}


def _deep_batch(batch, dest, depth):
    return _with_bad_files(
        batch, dest, {f"deep_{name}.vcp": make(depth).encode() for name, make in _SHAPES.items()}
    )


def _captured_run(argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.filterwarnings("ignore::vibecheck.errors.DegenerateEntropyWarning")
def test_nesting_at_the_budget_passes_every_command(monkeypatch, tmp_path, batch, fixtures,
                                                    forks):
    origins = _deep_batch(batch, tmp_path / "origins", DEPTH_BUDGET)
    for label, cpus in (("one", ONE_CPU), ("two", TWO_CPUS)):
        code, _, err = _vcp(monkeypatch, cpus, _metrics_argv(origins.iterdir(),
                                                             tmp_path / label / "m"))
        assert code == 0, err
        code, _, err = _vcp(monkeypatch, cpus, _traps_argv(origins, tmp_path / label / "c", "1"))
        assert code == 0, err
    assert _tree(tmp_path / "one") == _tree(tmp_path / "two")
    study = fixtures / "study"
    for name in _SHAPES:
        argv = ["egap", "--transcript", str(study / "transcripts" / "s01.txt"),
                "--ontology", str(study / "ontology.json"),
                "--code", str(origins / f"deep_{name}.vcp")]
        in_process = _captured_run(argv)
        assert in_process[0] == 0, in_process[2]
        # ``egap`` reads one file; run it on forked workers, whose stack is deeper.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: TWO_CPUS)
        assert pool.ordered_map(_captured_run, [argv] * 2, [1] * 2, 2) == [in_process] * 2
    assert forks


@pytest.mark.parametrize("command", ["metrics", "traps"])
def test_nesting_past_the_budget_is_refused_alike(monkeypatch, tmp_path, batch, forks, command):
    origins = _deep_batch(batch, tmp_path / "origins", DEPTH_BUDGET + 1)
    results = []
    for label, cpus in (("one", ONE_CPU), ("two", TWO_CPUS)):
        argv = (_metrics_argv(origins.iterdir(), tmp_path / label) if command == "metrics"
                else _traps_argv(origins, tmp_path / label))
        results.append(_vcp(monkeypatch, cpus, argv))
    assert forks
    code, _, err = results[0]
    assert code == 1 and err == (
        f"vcp: error: {origins / 'deep_block.vcp'}: line 1, column {2 * DEPTH_BUDGET + 1}: "
        f"nesting deeper than {DEPTH_BUDGET} levels\n"
    )
    assert results[1] == results[0]
