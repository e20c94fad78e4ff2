"""One way to import a layer: each name from the module that defines it.

Neither ``vibecheck.codemetrics`` nor ``vibecheck.stats`` re-exports anything,
so ``from <package> import <name>`` may name only a submodule.  The one
exception is ``random_program``, which the benchmark's workloads import from
``vibecheck.codemetrics``; the package resolves it through a module
``__getattr__`` (PEP 562), so importing the package does not load it.

One way to run work in parallel: ``pool.ordered_map``'s forked workers.  No
file under ``src/`` starts a thread of its own or imports ``multiprocessing``
or ``concurrent.futures``; the pool forks with ``os.fork``.

One way to declare a record: a ``vibecheck.record.Record`` subclass.  No file
under ``src/`` imports ``dataclasses``.

One way to read and write a file: ``vibecheck.io`` opens every input and
``reporting.write_text`` writes every output, both untranslated.  Under
``src/``, ``open`` is called only in ``io.py`` and at the pipe ends of
``pool.py``; no ``.read_text`` or ``.read_bytes`` is called; ``.write_text``
and ``.write_bytes`` only in ``reporting.py``; and no ``.splitlines``, which
ends a line at every Unicode line boundary where the toolkit ends one at
``\n`` only.  No script under ``scripts/`` calls ``.read_text`` or
``.write_text``.

One way to draw outside the stats layer: ``rng.PhiloxStream``.  Only
``vibecheck.stats`` names ``make_rng``, numpy's generator, in ``src/`` and
``scripts/``, so numpy loads only where the stats layer draws.
"""

import ast
import importlib

import pytest

_PACKAGES = ("vibecheck.codemetrics", "vibecheck.stats")
_EXCEPTIONS = {"vibecheck.codemetrics": {"random_program"}, "vibecheck.stats": set()}


def test_no_file_imports_a_name_from_a_package(repo_root):
    offences = []
    paths = [p for top in ("src", "scripts", "tests") for p in (repo_root / top).rglob("*.py")]
    for path in sorted(paths):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module in _PACKAGES:
                package = repo_root / "src" / node.module.replace(".", "/")
                offences += [
                    f"{path.relative_to(repo_root)}:{node.lineno}: {node.module}.{alias.name}"
                    for alias in node.names
                    if alias.name not in _EXCEPTIONS[node.module]
                    and not (package / f"{alias.name}.py").is_file()
                ]
    assert offences == []


@pytest.mark.parametrize("module", _PACKAGES)
def test_a_package_binds_no_name_but_its_exception(repo_root, module):
    # Otherwise a re-exported function could hide the submodule of its name.
    # A package with exceptions binds only the hook that resolves them, and the
    # hook resolves no other name that a submodule defines or imports.
    init = repo_root / "src" / module.replace(".", "/") / "__init__.py"
    names = set()
    for node in ast.parse(init.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(n.id for t in node.targets for n in ast.walk(t) if isinstance(n, ast.Name))
    assert names == ({"__getattr__"} if _EXCEPTIONS[module] else set())
    package = importlib.import_module(module)
    stems = {p.stem for p in init.parent.glob("*.py")}
    for stem in sorted(stems - {"__init__"}):
        submodule = importlib.import_module(f"{module}.{stem}")
        for name in sorted(n for n in set(vars(submodule)) - stems if not n.startswith("__")):
            if name in _EXCEPTIONS[module]:
                assert getattr(package, name) is getattr(submodule, name)
            else:
                assert not hasattr(package, name), f"{module}.{name}"


def _src_imports_of(repo_root, banned: tuple[str, ...]) -> list[str]:
    """Each import under ``src/`` of a module in ``banned`` or of its submodules."""
    offences = []
    for path in sorted((repo_root / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            modules = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                       else [node.module, *(f"{node.module}.{alias.name}" for alias in node.names)]
                       if isinstance(node, ast.ImportFrom) and node.module else [])
            offences += [f"{path.relative_to(repo_root)}:{node.lineno}: {module}"
                         for module in modules
                         if any(module == b or module.startswith(b + ".") for b in banned)]
    return offences


def test_no_file_under_src_imports_dataclasses(repo_root):
    assert _src_imports_of(repo_root, ("dataclasses",)) == []


def test_no_file_under_src_imports_a_process_pool(repo_root):
    assert _src_imports_of(repo_root, ("multiprocessing", "concurrent.futures")) == []


_THREADS = {"Thread", "ThreadPool", "ThreadPoolExecutor"}


def test_no_file_under_src_starts_a_thread(repo_root):
    offences = []
    for path in sorted((repo_root / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.ImportFrom)
                     else [node.attr] if isinstance(node, ast.Attribute) else [])
            offences += [f"{path.relative_to(repo_root)}:{node.lineno}: {name}"
                         for name in names if name in _THREADS]
    assert offences == []


def test_only_the_stats_layer_names_numpys_generator(repo_root):
    offences = []
    paths = [p for top in ("src", "scripts") for p in (repo_root / top).rglob("*.py")]
    for path in sorted(paths):
        rel = path.relative_to(repo_root).as_posix()
        if rel.startswith("src/vibecheck/stats/") or rel == "src/vibecheck/rng.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = (node.id if isinstance(node, ast.Name) else node.attr
                    if isinstance(node, ast.Attribute) else node.name
                    if isinstance(node, ast.alias) else None)
            if name == "make_rng":
                offences.append(f"{rel}:{node.lineno}")
    assert offences == []


def _calls(repo_root, top: str, allowed: dict[str, set[str]]) -> list[str]:
    """Each call under ``top`` of a name in ``allowed`` (``open``) or of a method
    (``.name``) outside the files that ``allowed`` lists for it."""
    offences = []
    for path in sorted((repo_root / top).rglob("*.py")):
        rel = path.relative_to(repo_root).as_posix()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = (f".{func.attr}" if isinstance(func, ast.Attribute)
                    else func.id if isinstance(func, ast.Name) else None)
            if name in allowed and rel not in allowed[name]:
                offences.append(f"{rel}:{node.lineno}: {name}")
    return offences


_SRC_FILE_CALLS = {
    "open": {"src/vibecheck/io.py", "src/vibecheck/pool.py"},
    ".open": set(),
    ".read_text": set(),
    ".read_bytes": set(),
    ".write_text": {"src/vibecheck/reporting.py"},
    ".write_bytes": {"src/vibecheck/reporting.py"},
    ".splitlines": set(),
}


def test_files_are_read_and_written_at_one_boundary(repo_root):
    assert _calls(repo_root, "src", _SRC_FILE_CALLS) == []
    assert _calls(repo_root, "scripts", {".read_text": set(), ".write_text": set()}) == []
