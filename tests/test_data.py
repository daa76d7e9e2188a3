"""The error contract of the data containers.

``Dataset`` and ``LongDataset`` check their inputs when they are built.
Every error below is pinned by type and full message, once through the
direct constructor and once through ``from_columns``, and both paths must
build equal containers from the same columns.
"""

import re

import numpy as np
import pytest

from eiftools.data import Dataset, LongDataset
from eiftools.nuisance import LearnerSpec, fit_propensity

NAN, INF = float("nan"), float("inf")
PATHS = ("constructor", "from_columns")


def _raises(message):
    return pytest.raises(ValueError, match="^" + re.escape(message) + "$")


def _items(columns):
    return list(columns.items()) if isinstance(columns, dict) \
        else list(columns)


def _matrix(columns, n):
    """The column-stacked matrix of ``columns`` as a caller would pass it."""
    items = _items(columns)
    if not items:
        return np.empty((n, 0))
    return np.column_stack([np.asarray(v, dtype=float) for _, v in items])


def _point(path, covariates, treatment, outcome, y_bounds=None):
    if path == "from_columns":
        return Dataset.from_columns(covariates, treatment, outcome,
                                    y_bounds=y_bounds)
    return Dataset(covariate_names=[k for k, _ in _items(covariates)],
                   covariates=_matrix(covariates, len(treatment)),
                   treatment=treatment, outcome=outcome, y_bounds=y_bounds)


def _long(path, w0, a0, w1, a1, outcome, y_bounds=None):
    if path == "from_columns":
        return LongDataset.from_columns(w0, a0, w1, a1, outcome,
                                        y_bounds=y_bounds)
    n = len(a0)
    return LongDataset(w0_names=[k for k, _ in _items(w0)],
                       w0=_matrix(w0, n), a0=a0,
                       w1_names=[k for k, _ in _items(w1)],
                       w1=_matrix(w1, n), a1=a1,
                       outcome=outcome, y_bounds=y_bounds)


POINT = dict(covariates={"u": [0.1, 0.2, 0.3, 0.4], "v": [1.0, 0.0, 1.0, 0.0]},
             treatment=[0.0, 1.0, 0.0, 1.0], outcome=[1.0, 2.0, 3.0, 4.0])

POINT_ERRORS = [
    ("treatment_2d", dict(treatment=[[0.0, 1.0, 0.0, 1.0]]),
     "treatment must be 1-dimensional"),
    ("treatment_not_binary", dict(treatment=[0.0, 1.0, 0.5, 1.0]),
     "treatment must be coded 0/1, found 0.5"),
    ("treatment_nan", dict(treatment=[0.0, 1.0, NAN, 1.0]),
     "treatment contains non-finite values"),
    ("treatment_inf_after_bad_code", dict(treatment=[0.0, 0.5, -INF, 1.0]),
     "treatment contains non-finite values"),
    ("outcome_nan", dict(outcome=[1.0, NAN, 3.0, 4.0]),
     "outcome contains non-finite values"),
    ("outcome_inf", dict(outcome=[1.0, 2.0, INF, 4.0]),
     "outcome contains non-finite values"),
    ("covariates_nan", dict(covariates={"u": [0.1, NAN, 0.3, 0.4]}),
     "covariates contains non-finite values"),
    ("covariates_inf", dict(covariates={"u": [0.1, 0.2, -INF, 0.4]}),
     "covariates contains non-finite values"),
    ("outcome_rows", dict(outcome=[1.0, 2.0, 3.0]),
     "outcome has shape (3,), expected (4,)"),
    ("covariate_rows", dict(covariates={"u": [0.1, 0.2, 0.3]}),
     "covariates matrix has shape (3, 1), expected (4, 1)"),
    ("duplicate_names",
     dict(covariates=[("u", [0.1, 0.2, 0.3, 0.4]), ("u", [1.0, 0.0, 1.0, 0.0])]),
     "covariates column names must be unique"),
    ("one_row", dict(covariates={}, treatment=[0.0], outcome=[1.0]),
     "need at least two observations"),
    ("no_rows", dict(covariates={}, treatment=[], outcome=[]),
     "need at least two observations"),
    ("no_untreated", dict(treatment=[1.0, 1.0, 1.0, 1.0]),
     "no untreated (A = 0) rows; the target mean is unidentified"),
    ("bounds_reversed", dict(y_bounds=(5.0, 0.0)),
     "invalid outcome bounds (5.0, 0.0)"),
    ("bounds_nan", dict(y_bounds=(NAN, 5.0)),
     "invalid outcome bounds (nan, 5.0)"),
    ("bounds_inf", dict(y_bounds=(0.0, INF)),
     "invalid outcome bounds (0.0, inf)"),
    ("bounds_violated", dict(y_bounds=(0.0, 3.5)),
     "outcome values fall outside the declared bounds"),
    ("bounds_violated_below", dict(y_bounds=(1.5, 9.0)),
     "outcome values fall outside the declared bounds"),
    ("one_row_out_of_bounds",
     dict(covariates={}, treatment=[0.0], outcome=[9.0], y_bounds=(0.0, 1.0)),
     "outcome values fall outside the declared bounds"),
    ("no_rows_with_bounds",
     dict(covariates={}, treatment=[], outcome=[], y_bounds=(0.0, 1.0)),
     "need at least two observations"),
]


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("change, message",
                         [case[1:] for case in POINT_ERRORS],
                         ids=[case[0] for case in POINT_ERRORS])
def test_dataset_errors(path, change, message):
    with _raises(message):
        _point(path, **{**POINT, **change})


@pytest.mark.parametrize("path", PATHS)
def test_dataset_ragged_columns_raise_value_error(path):
    columns = {"u": [0.1, 0.2, 0.3, 0.4], "v": [1.0, 0.0, 1.0]}
    with pytest.raises(ValueError):
        _point(path, **{**POINT, "covariates": columns})


LONG = dict(w0={"u": [0.1, 0.2, 0.3, 0.4, 0.5, 0.6]},
            a0=[0.0, 0.0, 0.0, 1.0, 0.0, 1.0],
            w1={"x": [1.0, 0.0, 1.0, 0.0, 1.0, 0.0]},
            a1=[0.0, 0.0, 1.0, 0.0, 0.0, 0.0],
            outcome=[1.0, 2.0, 3.0, 4.0, 5.0, 6.0])

LONG_ERRORS = [
    ("a0_2d", dict(a0=[[0.0, 0.0, 0.0, 1.0, 0.0, 1.0]]),
     "a0 must be 1-dimensional"),
    ("a0_not_binary", dict(a0=[0.0, 0.0, 2.0, 1.0, 0.0, 1.0]),
     "a0 must be coded 0/1, found 2.0"),
    ("a1_2d", dict(a1=[[0.0, 0.0, 1.0, 0.0, 0.0, 0.0]]),
     "a1 must be 1-dimensional"),
    ("a1_not_binary", dict(a1=[0.0, 0.0, 1.0, -1.0, 0.0, 0.0]),
     "a1 must be coded 0/1, found -1.0"),
    ("a1_inf", dict(a1=[0.0, 0.0, 1.0, INF, 0.0, 0.0]),
     "a1 contains non-finite values"),
    ("a1_rows", dict(a1=[0.0, 0.0, 1.0]),
     "a1 has shape (3,), expected (6,)"),
    ("outcome_nan", dict(outcome=[1.0, 2.0, 3.0, NAN, 5.0, 6.0]),
     "outcome contains non-finite values"),
    ("outcome_rows", dict(outcome=[1.0, 2.0]),
     "outcome has shape (2,), expected (6,)"),
    ("w0_nan", dict(w0={"u": [0.1, 0.2, NAN, 0.4, 0.5, 0.6]}),
     "w0 contains non-finite values"),
    ("w1_inf", dict(w1={"x": [1.0, 0.0, 1.0, 0.0, 1.0, INF]}),
     "w1 contains non-finite values"),
    ("w0_rows", dict(w0={"u": [0.1, 0.2]}),
     "w0 matrix has shape (2, 1), expected (6, 1)"),
    ("w1_rows", dict(w1={"x": [1.0, 0.0, 1.0]}),
     "w1 matrix has shape (3, 1), expected (6, 1)"),
    ("w0_duplicate_names",
     dict(w0=[("u", [0.1, 0.2, 0.3, 0.4, 0.5, 0.6]),
              ("u", [0.1, 0.2, 0.3, 0.4, 0.5, 0.6])]),
     "w0 column names must be unique"),
    ("w1_duplicate_names",
     dict(w1=[("x", [1.0, 0.0, 1.0, 0.0, 1.0, 0.0]),
              ("x", [1.0, 0.0, 1.0, 0.0, 1.0, 0.0])]),
     "w1 column names must be unique"),
    ("names_at_both_times", dict(w1={"u": [1.0, 0.0, 1.0, 0.0, 1.0, 0.0]}),
     "covariate names appear at both times: ['u']"),
    ("one_row", dict(w0={}, a0=[0.0], w1={}, a1=[0.0], outcome=[1.0]),
     "need at least two observations"),
    ("one_always_untreated", dict(a1=[0.0, 1.0, 1.0, 0.0, 1.0, 0.0]),
     "need at least 2 rows following the always-untreated regime "
     "(A0 = A1 = 0)"),
    ("none_always_untreated", dict(a0=[1.0, 1.0, 1.0, 1.0, 1.0, 1.0]),
     "need at least 2 rows following the always-untreated regime "
     "(A0 = A1 = 0)"),
    ("a0_nan_after_bad_code", dict(a0=[0.0, 2.0, NAN, 1.0, 0.0, 1.0]),
     "a0 contains non-finite values"),
    ("bounds_reversed", dict(y_bounds=(7.0, 0.0)),
     "invalid outcome bounds (7.0, 0.0)"),
    ("bounds_violated", dict(y_bounds=(2.0, 7.0)),
     "outcome values fall outside the declared bounds"),
]


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("change, message",
                         [case[1:] for case in LONG_ERRORS],
                         ids=[case[0] for case in LONG_ERRORS])
def test_long_dataset_errors(path, change, message):
    with _raises(message):
        _long(path, **{**LONG, **change})


def _assert_same_fields(one, two, fields):
    for name in fields:
        a, b = getattr(one, name), getattr(two, name)
        if isinstance(a, np.ndarray):
            assert a.dtype == b.dtype == np.float64, name
            assert a.shape == b.shape and np.array_equal(a, b), name
        else:
            assert a == b, name


@pytest.mark.parametrize("covariates", [
    POINT["covariates"],
    [("u", np.array([1, 2, 3, 4])), (7, (0.5, 0.25, 0.0, 1.0))],
    {},
])
def test_from_columns_equals_constructor(covariates):
    args = {**POINT, "covariates": covariates,
            "treatment": np.array([0, 1, 0, 1]), "y_bounds": (0, 4)}
    built = _point("from_columns", **args)
    _assert_same_fields(built, _point("constructor", **args),
                        ("covariate_names", "covariates", "treatment",
                         "outcome", "y_bounds"))
    assert built.covariate_names == tuple(str(k) for k, _ in
                                          _items(covariates))
    assert built.covariates.shape == (4, len(built.covariate_names))
    assert built.covariates.flags.c_contiguous
    assert built.y_bounds == (0.0, 4.0)


def test_one_dimensional_covariates_are_one_column():
    w = np.array([0.5, 0.25, 0.0, 1.0])
    rest = dict(treatment=POINT["treatment"], outcome=POINT["outcome"])
    flat = Dataset(covariate_names=("w",), covariates=w, **rest)
    assert flat.covariates.shape == (4, 1)
    np.testing.assert_array_equal(
        flat.covariates,
        Dataset(covariate_names=("w",), covariates=w[:, None],
                **rest).covariates)
    with _raises("covariates matrix has shape (4, 1), expected (4, 2)"):
        Dataset(covariate_names=("w", "v"), covariates=w, **rest)


@pytest.mark.parametrize("w1", [LONG["w1"], {}])
def test_long_from_columns_equals_constructor(w1):
    args = {**LONG, "w1": w1, "y_bounds": (1, 6)}
    built = _long("from_columns", **args)
    _assert_same_fields(built, _long("constructor", **args),
                        ("w0_names", "w0", "a0", "w1_names", "w1", "a1",
                         "outcome", "y_bounds"))
    assert built.w1.shape == (6, len(w1))
    assert built.w0.flags.c_contiguous and built.w1.flags.c_contiguous


# The order in which the constructor's checks run, first to last; both
# paths report the first fault an input has.
POINT_PRECEDENCE = [
    (dict(treatment=[0.0, 1.0, 0.5, 1.0]),
     "treatment must be coded 0/1, found 0.5"),
    (dict(outcome=[1.0, NAN, 3.0, 4.0]), "outcome contains non-finite values"),
    (dict(y_bounds=(5.0, 0.0)), "invalid outcome bounds (5.0, 0.0)"),
    (dict(covariates={"u": [NAN, 0.2, 0.3, 0.4]}),
     "covariates contains non-finite values"),
]


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("first", range(len(POINT_PRECEDENCE)))
def test_dataset_reports_the_first_fault(path, first):
    args = dict(POINT)
    for change, _ in POINT_PRECEDENCE[first:]:
        args.update(change)
    with _raises(POINT_PRECEDENCE[first][1]):
        _point(path, **args)


def test_covariate_matrix_selects_validated_columns():
    data = _point("constructor", **POINT)
    assert data.covariate_matrix() is data.covariates
    assert data.covariate_matrix(None) is data.covariates
    picked = data.covariate_matrix(("v", "u", "v"))
    assert np.array_equal(picked, data.covariates[:, [1, 0]])
    assert picked.flags.c_contiguous
    assert data.covariate_matrix(()).shape == (4, 0)
    assert np.array_equal(data.covariate_column("v"), data.covariates[:, 1])
    with pytest.raises(KeyError, match="no covariate named 'nope'"):
        data.covariate_matrix(("u", "nope"))
    with pytest.raises(KeyError, match="no covariate named 'nope'"):
        data.covariate_column("nope")


def test_covariate_matrix_is_c_contiguous_for_any_stored_layout():
    # The constructor stores a Fortran-ordered input in C order, and a
    # selection is C order too.
    stored = np.asfortranarray(np.arange(12.0).reshape(4, 3))
    data = Dataset(covariate_names=("a", "b", "c"), covariates=stored,
                   treatment=POINT["treatment"], outcome=POINT["outcome"])
    assert data.covariates.flags.c_contiguous
    picked = data.covariate_matrix(("c", "a"))
    assert picked.flags.c_contiguous
    assert np.array_equal(picked, stored[:, [2, 0]])


def _knn_fit(matrix, treatment):
    knn = LearnerSpec("k_nearest_neighbors", k=2)
    return fit_propensity(knn, knn.design_for(matrix), treatment)


def test_fortran_ordered_inputs_give_knn_the_c_order_fit():
    # kNN standardizes by column mean and scale, whose rounding depends on
    # the memory layout of the matrix; the containers store C order.
    rng = np.random.default_rng(20)
    for _ in range(50):
        n = int(rng.integers(8, 61))
        w = rng.normal(size=(n, 3)) * rng.uniform(0.1, 100.0, size=3)
        a = (rng.random(n) < 0.5).astype(float)
        a[:2], a[2] = 0.0, 1.0
        y = rng.normal(size=n)
        names = ("u", "v", "x")
        c_order = Dataset(names, np.ascontiguousarray(w), a, y)
        f_order = Dataset(names, np.asfortranarray(w), a, y)
        long_args = dict(w0_names=names, a0=a, w1_names=("p", "q", "r"),
                         a1=np.zeros(n), outcome=y)
        c_long = LongDataset(w0=np.ascontiguousarray(w),
                             w1=np.ascontiguousarray(w[::-1]), **long_args)
        f_long = LongDataset(w0=np.asfortranarray(w),
                             w1=np.asfortranarray(w[::-1]), **long_args)
        for want, got in ((c_order.covariates, f_order.covariates),
                          (c_long.w0, f_long.w0), (c_long.w1, f_long.w1)):
            assert got.flags.c_contiguous
            want_fit, got_fit = _knn_fit(want, a), _knn_fit(got, a)
            assert np.array_equal(got_fit.center, want_fit.center)
            assert np.array_equal(got_fit.scale, want_fit.scale)
            assert np.array_equal(got_fit.predict(got),
                                  want_fit.predict(want))
