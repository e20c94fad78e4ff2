"""One way to import a layer: each name from the module that defines it.

Neither ``vibecheck.codemetrics`` nor ``vibecheck.stats`` re-exports anything,
so ``from <package> import <name>`` may name only a submodule.  The one
exception is ``random_program``, which the benchmark's workloads import from
``vibecheck.codemetrics``.

One way to run work in parallel: ``pool.ordered_map``'s forked workers.  No
file under ``src/`` starts a thread of its own.
"""

import ast

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
    init = repo_root / "src" / module.replace(".", "/") / "__init__.py"
    names = set()
    for node in ast.parse(init.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(n.id for t in node.targets for n in ast.walk(t) if isinstance(n, ast.Name))
    assert names == _EXCEPTIONS[module]


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
