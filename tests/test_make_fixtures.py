"""``scripts/make_fixtures.py`` regenerates the committed ``fixtures/`` tree
byte for byte.  The origins are ``random_program`` output and the study
goldens are the study driver's output, so this also pins the renderer, the
front end and every step of the study."""

import os
import subprocess
import sys


def _tree(root):
    return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def test_regenerated_fixtures_equal_the_committed_tree(repo_root, fixtures, tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "VCP_CONFIG"}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(repo_root / "src"), env.get("PYTHONPATH")) if p
    )
    out = tmp_path / "fixtures"
    subprocess.run(
        [sys.executable, str(repo_root / "scripts" / "make_fixtures.py"), "--root", str(out)],
        check=True, capture_output=True, env=env,
    )
    regenerated, committed = _tree(out), _tree(fixtures)
    assert sorted(regenerated) == sorted(committed)
    for rel, data in committed.items():
        assert regenerated[rel] == data, rel
