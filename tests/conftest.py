"""Shared test fixtures: paths into the checked-in fixture corpus, CRLF
copies of its trap origins, and the environment of a fresh interpreter that
runs this checkout."""

import os
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = REPO_ROOT / "fixtures"


@pytest.fixture(scope="session")
def fixtures() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def repo_root() -> Path:
    return REPO_ROOT


@pytest.fixture
def crlf_origins(tmp_path) -> Path:
    """A directory of the fixture origins with each ``\n`` written as ``\r\n``."""
    out = tmp_path / "crlf_origins"
    out.mkdir()
    for path in sorted((FIXTURES / "origins").glob("*.vcp")):
        (out / path.name).write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    return out


def fresh_env(*drop: str, extra_path: tuple[Path, ...] = ()) -> dict[str, str]:
    """``os.environ`` without the variables named in ``drop``, with this
    checkout's ``src/`` (then ``extra_path``) first on ``PYTHONPATH``."""
    env = {k: v for k, v in os.environ.items() if k not in drop}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), *map(str, extra_path), env.get("PYTHONPATH")) if p
    )
    return env
