"""Property test of the command line's error contract.

``eiftools estimate`` runs on small random CSVs of both designs, with
covariates and outcomes up to 1e200 in magnitude, every learner kind and
argv drawn from the documented flags. Whatever the input, ``main`` must
exit 0, 2 or 3, write output that parses as strict JSON (no ``NaN`` or
``Infinity``), let no exception out and raise no ``RuntimeWarning``.
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

from eiftools.cli import main

POINT_NAMES = ("gcomp", "one_step", "tmle_covariate_linear",
               "tmle_weighted_linear", "tmle_weighted_logistic")
LONG_NAMES = ("one_step_long", "tmle_long_covariate_linear",
              "tmle_long_weighted_linear", "tmle_long_weighted_logistic")
LEARNERS = ("glm_main_terms", "glm_main_terms:link=logit",
            "glm_with_basis:degree=2,interactions=true",
            "k_nearest_neighbors:k=1", "k_nearest_neighbors:k=3",
            "k_nearest_neighbors:k=7")
# Most columns keep unit scale, so that most runs reach the estimators.
MAGNITUDES = (1.0, 1.0, 1.0, 1e3, 1e100, 1e160, 1e200)


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"not strict JSON: {constant}")
    return json.loads(text, parse_constant=reject)


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
        stdout, stderr = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            warnings.simplefilter("always")
            code = main(argv)
        text = out.read_text(encoding="utf-8") if to_file else stdout.getvalue()
    assert code in (0, 2, 3)
    assert stderr.getvalue() == ""
    if to_file:
        assert stdout.getvalue() == ""
    payload = _strict_json(text)
    assert ("error" in payload) == (code != 0)
    runtime = [f"{w.filename}:{w.lineno}: {w.message}" for w in caught
               if issubclass(w.category, RuntimeWarning)]
    assert runtime == []
