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
from eiftools.dgp import CovariateSpec, DgpConfig

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


# Valid values stay modest: numbers that overflow float64 sums are out of
# this test's scope. A string key takes a name that it accepts (the any
# values hold a wrong one); coefficients name covariates, treatments or
# neither.
NUMBERS = st.one_of(st.integers(-10, 10), st.floats(-10, 10),
                    st.floats(0, 1))
TERMS = ("w", "v", "a", "a0", "a1", "ghost")
STRINGS = {"design": ("point", "longitudinal"), "name": ("w", "v", "u"),
           "dist": ("bernoulli", "uniform", "normal"),
           "scale": ("identity", "logit"),
           "kind": ("continuous", "binary", "none", "normal", "uniform")}
ANY_JSON = st.sampled_from((True, 3, -0.5, "x", [], {}, [0.0, 1.0],
                            {"w": 1.0}))


def _json_values(key, kind, faults):
    """The valid JSON values of a key of a key table."""
    if kind == "a number":
        return NUMBERS
    if kind == "a string":
        return st.sampled_from(STRINGS[key])
    if hasattr(kind, "__self__"):  # the from_dict of a config object
        return _config_objects(kind.__self__, faults)
    return {dgp._numbers: st.dictionaries(st.sampled_from(TERMS), NUMBERS,
                                          max_size=3),
            dgp._bounds: st.lists(NUMBERS, min_size=2, max_size=2),
            dgp._covariates: st.lists(_config_objects(CovariateSpec, faults),
                                      min_size=1, max_size=2)}[kind]


@st.composite
def _config_objects(draw, cls, faults):
    """A JSON object by the key table of ``cls``. Each key is valid (an
    optional key is absent half the time), or in about ``faults`` percent
    of keys absent, null or any JSON value; one object in 20 of a faulty
    config gets an unknown key too."""
    obj = {}
    for key, kind, default in cls._KEYS:
        choice = "valid"
        if draw(st.integers(0, 99)) < faults:
            choice = draw(st.sampled_from(("absent", "null", "any")))
        elif default is not dgp._REQUIRED and draw(st.booleans()):
            choice = "absent"
        if choice == "null":
            obj[key] = None
        elif choice == "any":
            obj[key] = draw(ANY_JSON)
        elif choice == "valid":
            obj[key] = draw(_json_values(key, kind, faults))
    if faults and draw(st.integers(0, 19)) == 19:
        obj["bogus"] = 1
    return obj


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(config=st.sampled_from((0, 3, 10, 30)).flatmap(
    lambda faults: _config_objects(DgpConfig, faults)),
    monte_carlo=st.booleans())
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
