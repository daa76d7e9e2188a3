"""Property tests of the command line's error contract.

``eiftools estimate`` runs on small random CSVs of both designs, with
covariates and outcomes up to 1e200 in magnitude, every learner kind and
argv drawn from the documented flags. ``eiftools truth`` runs on DGP
configs built from the key tables of the config objects, each key
absent, null, of any JSON type or valid, with modest numbers. Whatever
the input, ``main`` must exit 0, 2 or 3 (``truth``: 0 or 2), write
output that parses as strict JSON (no ``NaN`` or ``Infinity``), let no
exception out and raise no ``RuntimeWarning``.
"""

import contextlib
import io
import json
import pathlib
import tempfile
import warnings

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from eiftools import dgp
from eiftools.cli import main
from eiftools.dgp import CovariateSpec, DgpConfig, DgpValidationError

POINT_NAMES = ("gcomp", "one_step", "tmle_covariate_linear",
               "tmle_weighted_linear", "tmle_weighted_logistic")
LONG_NAMES = ("one_step_long", "tmle_long_covariate_linear",
              "tmle_long_weighted_linear", "tmle_long_weighted_logistic")
LEARNERS = ("glm_main_terms", "glm_main_terms:link=logit",
            "glm_with_basis:degree=2,interactions=true",
            "k_nearest_neighbors:k=1", "k_nearest_neighbors:k=3",
            "k_nearest_neighbors:k=7")
FIXTURES = pathlib.Path(__file__).parent / "fixtures"
# Most columns keep unit scale, so that most runs reach the estimators.
MAGNITUDES = (1.0, 1.0, 1.0, 1e3, 1e100, 1e160, 1e200)


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"not strict JSON: {constant}")
    return json.loads(text, parse_constant=reject)


def _run_main(argv):
    """``main(argv)``'s exit code and stdout; it must write nothing to
    stderr and raise no RuntimeWarning."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        warnings.simplefilter("always")
        code = main(argv)
    assert stderr.getvalue() == ""
    runtime = [f"{w.filename}:{w.lineno}: {w.message}" for w in caught
               if issubclass(w.category, RuntimeWarning)]
    assert runtime == []
    return code, stdout.getvalue()


def _point_table(rng, n=40, w_outlier=None, y_scale=1.0):
    """A point-design table (w, a, y): every third row treated."""
    w = rng.normal(size=n)
    if w_outlier is not None:
        w[w_outlier] = 1e200
    a = (np.arange(n) % 3 == 0).astype(float)
    return {"w": w, "a": a, "y": rng.normal(size=n) * y_scale}


# Two inputs that once exited 0 with a RuntimeWarning: w = 1e200 on an
# untreated row overflowed the kNN standardization, and outcomes of order
# 1e160 overflowed the influence-function variance, which was then
# written as "se": Infinity.
KNN_STD_OVERFLOW = (
    _point_table(np.random.default_rng(4), w_outlier=1),
    ["--outcome-learner", "k_nearest_neighbors:k=3",
     "--propensity-learner", "k_nearest_neighbors:k=3"])
SE_OVERFLOW = (
    _point_table(np.random.default_rng(5), y_scale=1e160),
    ["--outcome-learner", "k_nearest_neighbors:k=3",
     "--estimators", "gcomp,one_step"])


@st.composite
def cli_cases(draw):
    """Columns of a CSV, and the estimate flags to run on it."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    longitudinal = draw(st.booleans())
    n = draw(st.integers(4, 30))

    def column(kind):
        if kind == "binary":
            return (rng.random(n) < 0.5).astype(float)
        values = rng.normal(size=n) * draw(st.sampled_from(MAGNITUDES))
        if kind == "outlier":
            values[rng.integers(n)] = draw(st.sampled_from(MAGNITUDES))
        if kind == "rounded":
            values = np.round(values)
        return values

    kinds = st.sampled_from(("continuous", "binary", "outlier", "rounded"))
    treatment_share = draw(st.sampled_from((0.2, 0.5)))
    columns = {}
    if longitudinal:
        for period, name in (("0", "x"), ("1", "z")):
            for j in range(draw(st.integers(0, 2))):
                columns[f"w{period}_{name}{j}"] = column(draw(kinds))
            columns[f"a{period}"] = (rng.random(n) < treatment_share
                                     ).astype(float)
    else:
        for j in range(draw(st.integers(0, 3))):
            columns[f"x{j}"] = column(draw(kinds))
        columns["a"] = (rng.random(n) < treatment_share).astype(float)
    columns["y"] = column(draw(kinds))

    flags = ["--design", "longitudinal"] if longitudinal else []
    for flag in ("--outcome-learner", "--propensity-learner"):
        flags += [flag, draw(st.sampled_from(LEARNERS))]
    names = LONG_NAMES if longitudinal else POINT_NAMES
    optional = {
        "--folds": st.sampled_from(("2", "3")),
        "--seed": st.sampled_from(("0", "3")),
        "--estimators": st.lists(st.sampled_from(names), min_size=1,
                                 unique=True).map(",".join),
        "--truncate": st.sampled_from(("0.05,0.95", "0.001,0.999")),
        "--y-bounds": st.sampled_from(("-1e201,1e201", "-10,10")),
    }
    if not longitudinal:
        optional["--outcome-col"] = st.just("y")
        optional["--treatment-col"] = st.just("a")
        covariates = list(columns)[:-2]
        for flag in ("--outcome-covariates", "--propensity-covariates"):
            if covariates:
                optional[flag] = st.lists(
                    st.sampled_from(covariates), min_size=1,
                    unique=True).map(",".join)
    for flag, values in optional.items():
        if draw(st.booleans()):
            flags.append(f"{flag}={draw(values)}")
    return columns, flags


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=cli_cases(), to_file=st.booleans())
@example(case=KNN_STD_OVERFLOW, to_file=False)
@example(case=SE_OVERFLOW, to_file=True)
def test_estimate_exits_with_strict_json_and_no_warning(case, to_file):
    columns, flags = case
    with tempfile.TemporaryDirectory() as tmp:
        data = pathlib.Path(tmp) / "data.csv"
        rows = zip(*(col.tolist() for col in columns.values()))
        data.write_text(",".join(columns) + "\n" + "".join(
            ",".join(map(repr, row)) + "\n" for row in rows),
            encoding="utf-8")
        out = pathlib.Path(tmp) / "out.json"
        argv = ["estimate", "--data", str(data), *flags]
        if to_file:
            argv += ["--out", str(out)]
        code, stdout = _run_main(argv)
        text = out.read_text(encoding="utf-8") if to_file else stdout
    assert code in (0, 2, 3)
    if to_file:
        assert stdout == ""
    payload = _strict_json(text)
    assert ("error" in payload) == (code != 0)


# A valid config keeps every rule with modest numbers: a covariate sets
# its own distribution's keys (dgp._DIST_KEYS) and lies in [-1, 1] unless
# it is normal; noise sets its own kind's keys (dgp._NOISE_KEYS); a
# treatment model's terms are bounded covariates and treatments, so its
# linear predictor stays within +-3 and each propensity within [0.047,
# 0.953]; a binary outcome's identity-scale mean stays within [0.15, 0.85].
UNIT = st.floats(-1, 1)
ANY_JSON = st.sampled_from((True, 3, -0.5, "x", [], {}, [0.0, 1.0],
                            {"w": 1.0}))
COVARIATE_VALUES = {"p": st.floats(0, 1), "low": st.floats(-1, 0),
                    "high": st.floats(0.5, 1), "mean": UNIT,
                    "sd": st.floats(0, 1)}


def _valid_model(terms, coefs=st.floats(-0.5, 0.5), intercept=UNIT):
    return st.fixed_dictionaries(
        {"intercept": intercept},
        optional={"coefs": st.fixed_dictionaries(
            {}, optional={term: coefs for term in terms})})


@st.composite
def _valid_covariate(draw, name, model_terms=None):
    """A covariate with its distribution's keys; a bernoulli one takes p,
    or a model on ``model_terms`` when it is given (W1)."""
    dist = draw(st.sampled_from(sorted(dgp._DIST_KEYS)))
    keys = dgp._DIST_KEYS[dist]
    if dist == "bernoulli":
        keys = ("model",) if model_terms and draw(st.booleans()) else ("p",)
    obj = {"name": name, "dist": dist}
    for key in keys:
        obj[key] = draw(_valid_model(model_terms, UNIT) if key == "model"
                        else COVARIATE_VALUES[key])
    return obj


@st.composite
def _valid_configs(draw):
    """A DGP config JSON that passes ``DgpConfig.from_dict``."""
    design = draw(st.sampled_from(("point", "longitudinal")))
    names = draw(st.permutations(("w", "v", "u")))
    w0 = [draw(_valid_covariate(name))
          for name in names[:draw(st.integers(1, 2))]]
    config = {"design": design, "covariates": w0}
    treatments = ("a",)
    w1 = []
    if design == "longitudinal":
        treatments = ("a0", "a1")
        w0_terms = tuple(c["name"] for c in w0) + ("a0",)
        w1 = [draw(_valid_covariate(names[2], w0_terms))
              for _ in range(draw(st.integers(0, 1)))]
        if w1 or draw(st.booleans()):
            config["w1_covariates"] = w1
    bounded = [c["name"] for c in w0 + w1 if c["dist"] != "normal"]
    config["treatment"] = draw(_valid_model(
        [c["name"] for c in w0 if c["dist"] != "normal"]))
    if design == "longitudinal":
        config["a1"] = draw(_valid_model(bounded + ["a0"]))
    bounded += treatments
    kind = draw(st.sampled_from(("continuous", "binary")))
    scale = draw(st.sampled_from(("identity", "logit")))
    if kind == "binary" and scale == "identity":
        model = _valid_model(bounded, st.floats(-0.05, 0.05),
                             st.floats(0.4, 0.6))
    else:
        model = _valid_model([c["name"] for c in w0 + w1] + list(treatments),
                             UNIT)
    outcome = dict(draw(model), kind=kind, scale=scale)
    noise = {"kind": "none"}
    if kind == "continuous":
        noise["kind"] = draw(st.sampled_from(sorted(dgp._NOISE_KEYS)))
        for key in dgp._NOISE_KEYS[noise["kind"]]:
            noise[key] = draw(st.floats(0, 1))
    if noise["kind"] != "none" or draw(st.booleans()):
        outcome["noise"] = noise
    config["outcome"] = outcome
    # The outcome lies within +-(|intercept| + sum |coef| + 1 + half_width)
    # unless a normal covariate or normal noise enters it.
    coefs = outcome.get("coefs", {})
    if kind == "binary":
        if draw(st.booleans()):
            config["y_bounds"] = [0.0, 1.0]
    elif (noise["kind"] != "normal" and draw(st.booleans())
          and all(term in bounded for term in coefs)):
        width = (abs(outcome["intercept"]) + sum(map(abs, coefs.values()))
                 + 1.0 + noise.get("half_width", 0.0))
        config["y_bounds"] = [-width - 1.0, width + 1.0]
    if draw(st.booleans()):
        config["positivity_floor"] = draw(st.floats(0.001, 0.04))
    return config


@st.composite
def _config_objects(draw, cls, faults, valid):
    """The JSON object ``valid`` read by the key table of ``cls``: in about
    ``faults`` percent of keys the value is absent, null or any JSON value
    instead; one object in 20 of a faulty config gets an unknown key
    too."""
    obj = {}
    for key, kind, _ in cls._KEYS:
        choice = "valid"
        if draw(st.integers(0, 99)) < faults:
            choice = draw(st.sampled_from(("absent", "null", "any")))
        if choice == "null":
            obj[key] = None
        elif choice == "any":
            obj[key] = draw(ANY_JSON)
        elif choice == "valid" and key in valid:
            value = valid[key]
            if hasattr(kind, "__self__"):  # the from_dict of a config object
                value = draw(_config_objects(kind.__self__, faults, value))
            elif kind is dgp._covariates:
                value = [draw(_config_objects(CovariateSpec, faults, c))
                         for c in value]
            obj[key] = value
    if faults and draw(st.integers(0, 19)) == 19:
        obj["bogus"] = 1
    return obj


# Each fault level with equal weight: about two configs in five build.
CONFIGS = st.tuples(st.sampled_from((0, 3, 10, 30)),
                    _valid_configs()).flatmap(
    lambda case: _config_objects(DgpConfig, *case))


def test_most_fuzzed_configs_build():
    # The truth fuzz below must reach the truth computation, not only the
    # validation: at least a third of its configs build.
    built = []

    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None, suppress_health_check=[HealthCheck.too_slow])
    @given(config=CONFIGS)
    def draw(config):
        try:
            DgpConfig.from_dict(config)
        except DgpValidationError:
            built.append(False)
        else:
            built.append(True)
    draw()
    assert len(built) >= 300
    assert sum(built) >= len(built) / 3


@settings(max_examples=300, deadline=None, derandomize=True)
@given(config=_valid_configs())
def test_every_fault_free_config_builds(config):
    DgpConfig.from_dict(config)


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(config=CONFIGS, monte_carlo=st.booleans())
@example(config=json.loads((FIXTURES / "dgp_binary.json").read_text()),
         monte_carlo=False)
@example(config=json.loads((FIXTURES / "dgp_long.json").read_text()),
         monte_carlo=True)
def test_truth_on_any_config_structure_exits_with_strict_json(config,
                                                             monte_carlo):
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "dgp.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        argv = ["truth", "--config", str(path)]
        if monte_carlo:
            argv += ["--method", "monte_carlo", "--mc-draws", "50"]
        code, stdout = _run_main(argv)
    assert code in (0, 2)
    assert ("error" in _strict_json(stdout)) == (code != 0)


# Magnitudes that scale each number of a valid config, apart from p and
# positivity_floor, up to the float64 maximum.
SCALES = st.sampled_from((1.0, 1.0, 1e3, 1e100, 1e200, 1e300, 1.7e308))


@st.composite
def _scaled(draw, value, key=None):
    """``value`` with each of its numbers scaled by a drawn magnitude."""
    if isinstance(value, dict):
        return {k: draw(_scaled(v, k)) for k, v in value.items()}
    if isinstance(value, list):
        return [draw(_scaled(v, key)) for v in value]
    if isinstance(value, float) and key not in ("p", "positivity_floor"):
        return value * draw(SCALES)
    return value


SCALED_CONFIGS = _valid_configs().flatmap(_scaled)

# Three configs that once exited 1 under -W error::RuntimeWarning. A normal
# covariate that no model reads overflowed its draws (its reach |mean| +
# 14 * sd is now a config error), a huge normal mean overflowed the
# score of the stacked logit propensity fit, outside its error state, and
# a second-period covariate's logit overflowed to +-inf (a probability of
# 1 or 0).
NORMAL_REACH = json.loads(
    (FIXTURES / "dgp_overflow_normal_reach.json").read_text())
HUGE_NORMAL_MEAN = {
    "design": "point",
    "covariates": [{"name": "w", "dist": "normal", "mean": 9.8e307,
                    "sd": 0.5}],
    "treatment": {"intercept": 0.0},
    "outcome": {"intercept": 0.0, "kind": "continuous",
                "scale": "identity"}}
HUGE_W1_LOGIT = {
    "design": "longitudinal",
    "covariates": [{"name": "w", "dist": "normal", "mean": 0.0, "sd": 1.0}],
    "w1_covariates": [{"name": "u", "dist": "bernoulli",
                       "model": {"intercept": 0.0, "coefs": {"w": 1.7e308}}}],
    "treatment": {"intercept": 0.0}, "a1": {"intercept": 0.0},
    "outcome": {"intercept": 0.0, "kind": "continuous",
                "scale": "identity"}}


def _run_on_config(config, argv):
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "dgp.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        code, stdout = _run_main([argv[0], "--config", str(path), *argv[1:]])
    assert code in (0, 2, 3)
    assert ("error" in _strict_json(stdout)) == (code != 0)
    return code


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(config=SCALED_CONFIGS, monte_carlo=st.booleans())
@example(config=NORMAL_REACH, monte_carlo=True)
@example(config=HUGE_W1_LOGIT, monte_carlo=True)
def test_truth_on_any_magnitude_exits_with_strict_json(config, monte_carlo):
    _run_on_config(config, ["truth"] + (["--method", "monte_carlo",
                                         "--mc-draws", "50"]
                                        if monte_carlo else []))


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(config=SCALED_CONFIGS, folds=st.booleans(),
       learner=st.sampled_from(("glm_main_terms", "k_nearest_neighbors:k=3")))
@example(config=NORMAL_REACH, folds=False, learner="glm_main_terms")
@example(config=HUGE_NORMAL_MEAN, folds=False, learner="glm_main_terms")
@example(config=HUGE_W1_LOGIT, folds=False, learner="glm_main_terms")
def test_simulate_on_any_magnitude_exits_with_strict_json(config, folds,
                                                          learner):
    _run_on_config(config, [
        "simulate", "--n", "30", "--replications", "2", "--seed", "1",
        "--truth-method", "monte_carlo", "--mc-draws", "50",
        "--outcome-learner", learner, "--propensity-learner", learner,
        *(["--folds", "2"] if folds else [])])
