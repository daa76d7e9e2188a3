"""The DGP draws and the Monte Carlo truth, pinned bit for bit to the
allocating reference in ``oracles``: every DGP JSON of the fixtures and
the benchmark inputs that builds, and inline configs for what no fixture
covers."""

import json
import math
import pathlib

import numpy as np
import pytest

from eiftools import dgp as dgp_module
from eiftools.dgp import DgpConfig, DgpValidationError, generate

from oracles import generate_reference, monte_carlo_truth_reference

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _builds(config):
    try:
        DgpConfig.from_dict(config)
    except DgpValidationError:
        return False
    return True


def _point(covariates, treatment, outcome, **extra):
    return dict(design="point", covariates=covariates, treatment=treatment,
                outcome=outcome, **extra)


# Configs that no valid fixture covers: a normal covariate, normal and
# uniform noise on a finite continuous outcome, an outcome that reads no
# covariate, a scalar treatment term before, between and after the array
# terms, an outcome whose first array term is not the first covariate,
# and signed zeros.
INLINE = {
    "normal_covariate": _point(
        [{"name": "w", "dist": "normal", "mean": 0.5, "sd": 2.0},
         {"name": "v", "dist": "bernoulli", "p": 0.3}],
        {"intercept": 0.1, "coefs": {"v": 0.4}},
        {"intercept": 1.0, "coefs": {"a": 0.7, "v": -0.2, "w": 0.5},
         "noise": {"kind": "normal", "sd": 1.5}}),
    "uniform_noise": _point(
        [{"name": "w", "dist": "uniform", "low": -1.0, "high": 2.0},
         {"name": "z", "dist": "uniform", "low": 0.0, "high": 1.0}],
        {"intercept": 0.2, "coefs": {"w": 0.3}},
        {"intercept": 0.5, "coefs": {"z": 2.0, "a": -0.5, "w": 1.0},
         "noise": {"kind": "uniform", "half_width": 0.25}},
        y_bounds=[-2.0, 5.0]),
    "logit_continuous_long": dict(
        design="longitudinal",
        covariates=[{"name": "w0", "dist": "uniform", "low": 0.0,
                     "high": 1.0}],
        treatment={"intercept": -0.2, "coefs": {"w0": 0.6}},
        w1_covariates=[
            {"name": "w1", "dist": "normal", "mean": -1.0, "sd": 0.5},
            {"name": "b1", "dist": "bernoulli",
             "model": {"intercept": 0.1, "coefs": {"w0": 0.8, "a0": -0.4}}}],
        a1={"intercept": 0.3, "coefs": {"w0": -0.5, "b1": 0.2, "a0": 0.4}},
        outcome={"scale": "logit", "kind": "continuous", "intercept": 0.2,
                 "coefs": {"w1": -0.5, "a0": 0.3, "w0": 1.0, "a1": 0.2},
                 "noise": {"kind": "normal", "sd": 0.1}}),
    "constant_mean_noise": _point(
        [{"name": "w", "dist": "uniform", "low": 0.0, "high": 1.0}],
        {"intercept": 0.2, "coefs": {"w": 0.3}},
        {"intercept": 3.0, "coefs": {"a": 0.5},
         "noise": {"kind": "normal", "sd": 1.0}}),
    "signed_zeros": _point(
        [{"name": "w", "dist": "normal", "mean": -0.0, "sd": 0.0},
         {"name": "v", "dist": "bernoulli", "p": 0.0}],
        {"intercept": 0.0, "coefs": {}},
        {"intercept": -0.0, "coefs": {"w": -1.0, "v": 1.0}}),
}

DGP_FILES = (sorted((ROOT / "tests" / "fixtures").glob("dgp_*.json"))
             + sorted((ROOT / "bench" / "inputs").glob("dgp_*.json")))
CONFIGS = [pytest.param(config, id=f"{path.parent.name}/{path.name}")
           for path in DGP_FILES
           for config in [json.loads(path.read_text())] if _builds(config)]
CONFIGS += [pytest.param(config, id=name) for name, config in INLINE.items()]


def test_inline_configs_build():
    assert all(map(_builds, INLINE.values()))


def _outcome(call):
    """``call()``, or the type and message of what it raises."""
    try:
        return call()
    except Exception as exc:  # compared, not swallowed
        return type(exc), str(exc)


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("draws", [2, 199_999, 200_000, 200_001, 450_001])
@pytest.mark.parametrize("config", CONFIGS)
def test_monte_carlo_truth_matches_the_reference_bits(config, draws, seed):
    dgp = DgpConfig.from_dict(config)

    def truth():
        result = dgp_module._monte_carlo_truth(dgp, draws, seed)
        return result.value, result.mc_se

    got, want = _outcome(truth), _outcome(
        lambda: monte_carlo_truth_reference(dgp, draws, seed))
    if not isinstance(want[0], float):
        assert got == want
    elif dgp.outcome.kind == "binary":
        assert tuple(map(float.hex, got)) == tuple(map(float.hex, want))
    else:
        # A continuous outcome's variance is summed about the first batch's
        # mean, where the reference takes the mean of y squared less the
        # squared mean. The two agree to within the reference's rounding
        # of the mean of y squared.
        assert got[0].hex() == want[0].hex()
        assert math.isfinite(got[1]) == math.isfinite(want[1])
        got_var, want_var = (se * se * draws for se in (got[1], want[1]))
        if math.isfinite(want_var):
            assert abs(got_var - want_var) <= 1e-13 * (want_var
                                                       + want[0] * want[0])


def _columns(data):
    """The named columns of a Dataset or LongDataset."""
    if hasattr(data, "treatment"):
        return {"w": data.covariates, "a": data.treatment, "y": data.outcome}
    return {"w0": data.w0, "a0": data.a0, "w1": data.w1, "a1": data.a1,
            "y": data.outcome}


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("n", [2, 1001, 200_001])
@pytest.mark.parametrize("config", CONFIGS)
def test_generate_matches_the_reference_bits(config, n, seed):
    dgp = DgpConfig.from_dict(config)
    got = _outcome(lambda: _columns(generate(dgp, n, seed)))
    want = _outcome(lambda: _columns(generate_reference(dgp, n, seed)))
    if isinstance(want, tuple):
        assert got == want
        return
    assert got.keys() == want.keys()
    for name in want:
        assert np.array_equal(got[name], want[name]), name
        assert np.array_equal(np.signbit(got[name]),
                              np.signbit(want[name])), name
