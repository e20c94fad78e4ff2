"""Reports that numpy's generator draws equal the committed ones, byte for byte.

``scripts/make_fixtures.py`` writes small fixed-seed runs of ``vcp power``,
``vcp simulate`` and ``vcp spearman --permutations`` under ``fixtures/draws``.
They draw through numpy's ``normal``, ``chisquare`` and ``permuted``, which
NEP 19 lets numpy change between feature releases, so under another numpy a
failure here is the intended signal that those reports moved.
"""

import contextlib
import importlib.util
import io

import numpy as np
import pytest

from vibecheck.cli import run


@pytest.fixture(scope="module")
def draw_commands(repo_root, fixtures):
    spec = importlib.util.spec_from_file_location(
        "make_fixtures", repo_root / "scripts" / "make_fixtures.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.draw_commands(fixtures)


@pytest.mark.parametrize("name", ["power", "simulate", "spearman"])
def test_drawn_reports_equal_the_goldens(draw_commands, fixtures, tmp_path, monkeypatch, name):
    monkeypatch.delenv("VCP_CONFIG", raising=False)
    with contextlib.redirect_stdout(io.StringIO()):
        assert run([*draw_commands[name], "--out", str(tmp_path)]) == 0
    golden = fixtures / "draws" / name
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(p.name for p in golden.iterdir())
    for path in sorted(golden.iterdir()):
        assert (tmp_path / path.name).read_bytes() == path.read_bytes(), (
            f"{name}/{path.name} differs from its golden under numpy {np.__version__}"
        )
