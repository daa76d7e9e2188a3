"""The numpy primitives of ``eiftools._numeric`` against scipy.

Each tolerance is the largest drift measured against scipy 1.17 with
numpy 2.4 on an AVX-512 x86-64 machine, rounded up:

- ``expit``: 4 ulp (measured 4.0 on 2M grid points in [-750, 800],
  3.0 on this test's inputs); numpy's ``exp`` is not the C library's.
- ``logit``: 2 ulp of max(|logit|, 1) (measured 1.5).
- ``spd_solve``: 4 eps·cond(a) relative to the solution's largest entry
  (measured 1.98 over 24000 random systems, 1.92 on this test's 2400).
  It is an LU solve, where scipy's is two triangular solves.
"""

import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve
from scipy.special import expit as scipy_expit
from scipy.special import logit as scipy_logit

import eiftools
from eiftools._numeric import expit, logit, spd_solve

EPS = np.finfo(float).eps


def _ulps(actual, expected, floor=np.finfo(float).tiny):
    scale = np.spacing(np.maximum(np.abs(expected), floor))
    return np.max(np.abs(actual - expected) / scale)


def test_expit_within_4_ulp_of_scipy():
    rng = np.random.default_rng(3)
    grids = [np.linspace(-750.0, 800.0, 400_001)]
    grids += [rng.normal(scale=s, size=200_000) for s in (1.0, 5.0, 30.0)]
    for x in grids:
        assert _ulps(expit(x), scipy_expit(x)) <= 4.0


def test_expit_saturates_exactly_and_silently():
    x = np.array([-np.inf, -800.0, -745.0, -709.8, 709.8, 800.0, np.inf])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = expit(x)
    np.testing.assert_array_equal(got, [0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
    np.testing.assert_array_equal(got, scipy_expit(x))
    assert np.isnan(expit(np.nan))


def test_expit_scalar_broadcast_and_integer_inputs():
    for x in (0.3, np.float64(-2.5), np.array(1.25), -710.0):
        got = expit(x)
        assert isinstance(got, np.float64)
        assert _ulps(got, scipy_expit(x)) <= 4.0
    view = np.broadcast_to(np.asarray(0.2), (5,))
    got = expit(view)
    assert got.shape == (5,) and got.dtype == np.float64 and got.flags.writeable
    np.testing.assert_array_equal(got, np.full(5, expit(0.2)))
    np.testing.assert_array_equal(expit(np.arange(-3, 4)),
                                  expit(np.arange(-3.0, 4.0)))


def test_expit_never_writes_its_input():
    x = np.random.default_rng(5).normal(size=1000)
    before = x.copy()
    got = expit(x)
    np.testing.assert_array_equal(x, before)
    assert not np.shares_memory(got, x)


def test_logit_within_2_ulp_of_scipy():
    rng = np.random.default_rng(7)
    tail = np.geomspace(1e-6, 0.5, 200_000)
    for p in (np.linspace(1e-6, 1.0 - 1e-6, 400_001),
              rng.uniform(1e-6, 1.0 - 1e-6, 200_000),
              np.concatenate([tail, 1.0 - tail])):
        expected = scipy_logit(p)
        assert _ulps(logit(p), expected, floor=1.0) <= 2.0
    np.testing.assert_allclose(expit(logit(np.array([1e-6, 0.5, 1 - 1e-6]))),
                               [1e-6, 0.5, 1 - 1e-6], rtol=1e-9)


def test_spd_solve_matches_cholesky_solve():
    rng = np.random.default_rng(11)
    for p in range(1, 13):
        for _ in range(200):
            X = rng.normal(size=(p + 5, p))
            a = X.T @ X
            b = rng.normal(size=p)
            expected = cho_solve(cho_factor(a), b)
            drift = np.max(np.abs(spd_solve(a, b) - expected))
            assert drift <= 4 * EPS * np.linalg.cond(a) * np.max(
                np.abs(expected))


@pytest.mark.parametrize("a", [[[1.0, 2.0], [2.0, 1.0]],   # indefinite
                               [[1.0, 1.0], [1.0, 1.0]],   # singular
                               [[-1.0]]])
def test_spd_solve_rejects_matrices_that_are_not_positive_definite(a):
    with pytest.raises(np.linalg.LinAlgError):
        spd_solve(np.array(a), np.ones(len(a)))


def test_importing_the_cli_loads_no_scipy():
    src = str(pathlib.Path(eiftools.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, eiftools.cli; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
