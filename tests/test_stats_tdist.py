"""Student-t tail and quantile against scipy.stats.t, the test-only oracle."""

import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.stats

from vibecheck.errors import DomainError
from vibecheck.stats import tdist

DFS = [*range(1, 201), 500, 1e3, 1e4, 1e5]
TS = np.geomspace(0.01, 8.0, 40)


@pytest.mark.parametrize("df", DFS)
def test_sf_matches_scipy(df):
    expected = scipy.stats.t.sf(TS, df)
    got = np.array([tdist.sf(float(t), df) for t in TS])
    np.testing.assert_allclose(got, expected, rtol=1e-9, atol=0.0)


@pytest.mark.parametrize("df", DFS)
def test_ppf_matches_scipy_at_test_critical_values(df):
    for p in (0.975, 0.995):
        assert tdist.ppf(p, df) == pytest.approx(scipy.stats.t.ppf(p, df), rel=1e-11, abs=0.0)


@pytest.mark.parametrize("df", [1, 2, 7, 30, 1e5])
def test_sf_is_half_at_zero_and_complements_at_minus_t(df):
    assert tdist.sf(0.0, df) == 0.5
    for t in TS:
        assert tdist.sf(-t, df) == 1.0 - tdist.sf(t, df)


@pytest.mark.parametrize("df", [1, 2, 7, 30, 1e5])
def test_ppf_inverts_sf(df):
    for t in TS:
        # P(T <= -t) = sf(t), so the quantile of sf(t) is -t.
        assert tdist.ppf(tdist.sf(t, df), df) == pytest.approx(-t, rel=1e-10)
    assert tdist.ppf(0.5, df) == 0.0


@pytest.mark.parametrize("p", [0.0, 1.0, -0.5, float("nan")])
def test_ppf_rejects_probabilities_outside_the_open_interval(p):
    with pytest.raises(DomainError):
        tdist.ppf(p, 5)


@pytest.mark.parametrize("df", [0, -1, float("inf"), float("nan")])
def test_rejects_bad_degrees_of_freedom(df):
    with pytest.raises(DomainError):
        tdist.sf(1.0, df)
    with pytest.raises(DomainError):
        tdist.ppf(0.9, df)


def test_cli_import_leaves_scipy_unloaded(repo_root):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(repo_root / "src"), env.get("PYTHONPATH")) if p
    )
    code = "import sys, vibecheck.cli; print('scipy' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert proc.stdout.strip() == "False"
