"""Nuisance learner tests: saturated oracles, kNN ties, cross-fitting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eiftools import longitudinal as lng
from eiftools.data import Dataset
from eiftools.glm import GlmError, Link
from eiftools.nuisance import (
    _KNN_BLOCK_ENTRIES,
    _KnnPredictor,
    DEFAULT_TRUNCATION,
    FoldDegeneracyError,
    InsufficientDataError,
    LearnerSpec,
    NuisanceError,
    NuisanceEstimates,
    crossfit,
    fit_nuisance,
    fit_outcome,
    fit_propensity,
    fold_partition,
    stacked_propensity_predictions,
)
from helpers import (count_predicted_rows, random_long_dataset,
                     random_point_dataset)
from oracles import knn_mean_brute_force


def test_learner_spec_round_trips():
    for text in (
        "glm_main_terms",
        "glm_main_terms:link=logit",
        "glm_with_basis:degree=2,interactions=true",
        "glm_with_basis:degree=3,interactions=false",
        "k_nearest_neighbors:k=25",
    ):
        spec = LearnerSpec.parse(text)
        assert spec.describe() == text
        assert LearnerSpec.parse(spec.describe()) == spec


def test_learner_spec_rejects_malformed_text():
    for bad in (
        "unknown_kind",
        "glm_with_basis:degree",
        "glm_with_basis:degree=",
        "glm_main_terms:foo=1",
        "glm_with_basis:interactions=maybe",
        "glm_with_basis:degree=0",
        "k_nearest_neighbors",
        "k_nearest_neighbors:k=0",
        "glm_main_terms:k=3",
        "glm_main_terms:degree=2",
        "k_nearest_neighbors:k=3,link=logit",
        "k_nearest_neighbors:k=3,degree=4,link=logit",
        "k_nearest_neighbors:k=5,k=6",
        "glm_with_basis:degree=2,degree=3",
    ):
        with pytest.raises(ValueError):
            LearnerSpec.parse(bad)


_OPTION_VALUES = {"k": ("1", "3", "0", "-2", "x"),
                  "degree": ("1", "2", "0", "2.5"),
                  "interactions": ("true", "FALSE", "maybe"),
                  "link": ("identity", "logit", "probit"),
                  "foo": ("1",)}


def _accepts(kind, options):
    """Whether ``parse`` should accept these (key, value) options."""
    if kind not in ("glm_main_terms", "glm_with_basis",
                    "k_nearest_neighbors"):
        return False
    uses = {"k": kind == "k_nearest_neighbors",
            "degree": kind == "glm_with_basis",
            "interactions": kind == "glm_with_basis",
            "link": kind != "k_nearest_neighbors"}
    valid = {"k": lambda v: v.lstrip("-").isdigit(),
             "degree": lambda v: v.lstrip("-").isdigit(),
             "interactions": lambda v: v.lower() in ("true", "false"),
             "link": lambda v: v in ("identity", "logit")}
    chosen = {}
    for key, value in options:
        if (not uses.get(key, False) or not valid[key](value)
                or key in chosen):
            return False
        chosen[key] = value
    if kind == "k_nearest_neighbors":
        return int(chosen.get("k", "0")) >= 1
    return int(chosen.get("degree", "1")) >= 1


@st.composite
def learner_texts(draw):
    if draw(st.integers(0, 9)) == 0:
        return draw(st.text(alphabet="gk_:=,lmnt13 ", max_size=20)), None
    kind = draw(st.sampled_from(["glm_main_terms", "glm_with_basis",
                                 "k_nearest_neighbors", "glm"]))
    keys = draw(st.lists(st.sampled_from(sorted(_OPTION_VALUES)),
                         max_size=3))
    options = [(key, draw(st.sampled_from(_OPTION_VALUES[key])))
               for key in keys]
    text = kind + (":" + ",".join(f"{k}={v}" for k, v in options)
                   if options else "")
    return text, _accepts(kind, options)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(case=learner_texts())
def test_learner_spec_parse_accepts_exactly_what_round_trips(case):
    text, accepted = case
    try:
        spec = LearnerSpec.parse(text)
    except ValueError:
        assert not accepted
        return
    assert accepted is not False
    canonical = spec.describe()
    assert LearnerSpec.parse(canonical) == spec
    assert LearnerSpec.parse(canonical).describe() == canonical


# The options each learner kind takes, and valid values of each option.
_TAKES = {"glm_main_terms": {"link"},
          "glm_with_basis": {"link", "degree", "interactions"},
          "k_nearest_neighbors": {"k"}}
_VALID = {"link": st.sampled_from([Link.IDENTITY, Link.LOGIT, "logit"]),
          "degree": st.integers(1, 4), "interactions": st.booleans(),
          "k": st.integers(1, 30)}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(kind=st.sampled_from(sorted(_TAKES)),
       options=st.sets(st.sampled_from(sorted(_VALID))).flatmap(
           lambda keys: st.fixed_dictionaries(
               {key: _VALID[key] for key in keys})))
def test_learner_spec_holds_only_the_options_its_kind_takes(kind, options):
    # The constructor accepts a spec exactly when its kind takes every
    # option that is set (and kNN is given its k); parse applies the same
    # rule, so every spec round-trips through describe.
    untaken = set(options) - _TAKES[kind]
    try:
        spec = LearnerSpec(kind, **options)
    except ValueError as err:
        assert untaken or (kind == "k_nearest_neighbors"
                           and "k" not in options)
        if untaken:
            assert str(err) in {f"{kind} takes no {key!r} option"
                                for key in untaken}
        return
    assert not untaken and (kind != "k_nearest_neighbors" or "k" in options)
    for key in ("link", "degree", "interactions", "k"):
        assert (getattr(spec, key) is None) == (key not in _TAKES[kind])
    assert LearnerSpec.parse(spec.describe()) == spec
    assert LearnerSpec.parse(spec.describe()).describe() == spec.describe()


@pytest.mark.parametrize("kwargs, message", [
    (dict(kind="glm_main_terms", degree=3, interactions=True, k=4),
     "glm_main_terms takes no 'degree' option"),
    (dict(kind="k_nearest_neighbors", k=5, link="logit"),
     "k_nearest_neighbors takes no 'link' option"),
])
def test_learner_spec_rejects_options_its_kind_does_not_take(kwargs,
                                                             message):
    text = kwargs["kind"] + ":" + ",".join(
        f"{key}={str(value).lower()}" for key, value in kwargs.items()
        if key != "kind")
    for build in (lambda: LearnerSpec(**kwargs),
                  lambda: LearnerSpec.parse(text)):
        with pytest.raises(ValueError, match=f"^{message}$"):
            build()


def test_learner_spec_fills_in_the_defaults_of_its_kind():
    assert LearnerSpec("glm_with_basis") == LearnerSpec(
        "glm_with_basis", Link.IDENTITY, 1, False)
    assert LearnerSpec("glm_with_basis").describe() == (
        "glm_with_basis:degree=1,interactions=false")
    assert LearnerSpec("glm_main_terms", link="logit").link is Link.LOGIT
    knn = LearnerSpec("k_nearest_neighbors", k=5)
    assert (knn.link, knn.degree, knn.interactions) == (None, None, None)


def test_basis_design_column_names():
    # Columns in order: intercept, u, u^2, u^3, v, v^2, v^3, u:v.
    spec = LearnerSpec("glm_with_basis", degree=3, interactions=True)
    matrix = np.arange(8.0).reshape(4, 2)
    u, v = matrix.T
    expected = np.column_stack([np.ones(4), u, u ** 2, u ** 3,
                                v, v ** 2, v ** 3, u * v])
    np.testing.assert_array_equal(spec.design_for(matrix), expected)
    np.testing.assert_array_equal(
        LearnerSpec("glm_main_terms").design_for(matrix),
        np.column_stack([np.ones(4), u, v]))
    knn = LearnerSpec("k_nearest_neighbors", k=2).design_for(matrix)
    np.testing.assert_array_equal(knn, matrix)


def _column_stack_design(spec, matrix):
    """The GLM model matrix as a list of columns for np.column_stack: the
    intercept, each covariate and its powers, then pairwise products."""
    basis = spec.kind == "glm_with_basis"
    cols = [np.ones(matrix.shape[0])]
    with np.errstate(over="ignore"):
        for j in range(matrix.shape[1]):
            cols.append(matrix[:, j])
            if basis:
                cols += [matrix[:, j] ** d for d in range(2, spec.degree + 1)]
        if basis and spec.interactions:
            cols += [matrix[:, i] * matrix[:, j]
                     for i in range(matrix.shape[1])
                     for j in range(i + 1, matrix.shape[1])]
    return np.column_stack(cols)


def _sliced(matrix):
    """``matrix`` as a strided view into a larger array."""
    n, m = matrix.shape
    big = np.full((2 * n + 1, 2 * m + 1), np.nan)
    big[1::2, 1::2] = matrix
    return big[1::2, 1::2]


@pytest.mark.parametrize("layout", [np.ascontiguousarray, np.asfortranarray,
                                    _sliced])
@pytest.mark.parametrize("n_cov", [0, 1, 2, 3, 4])
def test_design_equals_the_column_stack_bit_for_bit(layout, n_cov):
    # The model matrix is filled in place; each entry, its sign included,
    # is the one the list-and-column_stack construction gives, and the
    # matrix is C-ordered float64 like that one. Cubes and products of
    # tiny values underflow to signed zeros.
    rng = np.random.default_rng(n_cov)
    values = np.concatenate([rng.normal(scale=3.0, size=9 * n_cov),
                             [-0.0, 0.0, -1e-200, 1e-200, 5e-324, -2.5,
                              1e80, -1e80, 7.0] * n_cov])
    matrix = layout(rng.permutation(values).reshape(-1, n_cov)
                    if n_cov else np.empty((18, 0)))
    specs = [LearnerSpec("glm_main_terms"),
             LearnerSpec("glm_main_terms", link=Link.LOGIT)]
    specs += [LearnerSpec("glm_with_basis", degree=degree,
                          interactions=interactions)
              for degree in (1, 2, 3, 4) for interactions in (False, True)]
    for spec in specs:
        expected = _column_stack_design(spec, matrix)
        if not np.isfinite(expected).all():  # 1e80 ** 4 overflows
            with pytest.raises(NuisanceError):
                spec.design_for(matrix)
            continue
        x = spec.design_for(matrix)
        assert x.dtype == np.float64 and x.flags.c_contiguous
        assert x.shape == expected.shape
        assert np.array_equal(x, expected)
        assert np.array_equal(np.signbit(x), np.signbit(expected))


@st.composite
def learners_and_rows(draw):
    kind = draw(st.sampled_from(["glm_main_terms", "glm_with_basis",
                                 "k_nearest_neighbors"]))
    if kind == "glm_with_basis":
        spec = LearnerSpec(kind, degree=draw(st.integers(1, 4)),
                           interactions=draw(st.booleans()))
    else:
        spec = LearnerSpec(kind,
                           k=3 if kind == "k_nearest_neighbors" else None)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, d = draw(st.integers(1, 30)), draw(st.integers(0, 4))
    x = rng.normal(scale=draw(st.sampled_from([1.0, 1e3])), size=(n, d))
    rows = rng.random(n) < draw(st.sampled_from([0.0, 0.3, 0.8, 1.0]))
    return spec, x, rows


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=learners_and_rows())
def test_design_rows_equal_design_of_rows(case):
    # Fold fits and predicts take rows of one model matrix, so the matrix
    # of a row subset must be that subset of the matrix, bit for bit.
    spec, x, rows = case
    assert np.array_equal(spec.design_for(x)[rows], spec.design_for(x[rows]))


def test_design_with_overflow_names_the_learner():
    x = np.array([[1.0], [1e200], [2.0]])
    spec = LearnerSpec("glm_with_basis", degree=2)
    with pytest.raises(NuisanceError, match="glm_with_basis:degree=2"):
        spec.design_for(x)
    # Main terms hold 1e200 itself, which is finite.
    LearnerSpec("glm_main_terms").design_for(x)


def test_each_model_matrix_is_built_once_per_call(monkeypatch):
    calls = []
    design_for = LearnerSpec.design_for

    def counted(self, matrix):
        calls.append(self.describe())
        return design_for(self, matrix)
    monkeypatch.setattr(LearnerSpec, "design_for", counted)
    glm, basis, logit = (LearnerSpec("glm_main_terms"),
                         LearnerSpec("glm_with_basis", degree=2),
                         LearnerSpec("glm_main_terms", link=Link.LOGIT))
    crossfit(random_point_dataset(np.random.default_rng(3), n=60), basis,
             glm, n_folds=5, seed=1)
    assert calls == [basis.describe(), glm.describe()]

    calls.clear()
    data = random_long_dataset(np.random.default_rng(8), n=120)
    nuis = lng.fit_sequential_nuisances(data, logit, glm, n_folds=4, seed=2)
    assert not nuis.g1_degenerate
    assert calls == [glm.describe(), glm.describe(), logit.describe()]

    calls.clear()
    lng._fit_emu(data, nuis.mu_hat, glm, "weighted_logistic", (0.0, 1.0),
                 nuis.fold_assignment)
    assert calls == [logit.describe()]


def _outcome_on_all_rows(data, learner):
    """Predictions of ``fit_outcome`` on every row of ``data``."""
    x = learner.design_for(data.covariates)
    return fit_outcome(learner, x, data.treatment, data.outcome,
                       data.y_bounds).predict(x)


def test_outcome_fit_matches_stratum_means_on_saturated_data():
    data = Dataset.from_columns(
        {"w": [0.0, 0.0, 1.0, 1.0, 0.0, 1.0]},
        [0.0, 0.0, 0.0, 0.0, 1.0, 1.0],
        [1.0, 3.0, 5.0, 7.0, 100.0, -50.0],
    )
    pred = _outcome_on_all_rows(data, LearnerSpec("glm_main_terms"))
    # Untreated stratum means: w=0 -> 2, w=1 -> 6. Treated outcomes are inert.
    np.testing.assert_allclose(pred, [2.0, 2.0, 6.0, 6.0, 2.0, 6.0],
                               atol=1e-10)


def test_outcome_logit_link_maps_back_to_outcome_scale():
    data = Dataset.from_columns(
        {"w": [0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.0]},
        [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0],
        [2.0, 6.0, 6.0, 2.0, 2.0, 6.0, 4.0],
        y_bounds=(2.0, 6.0),
    )
    pred = _outcome_on_all_rows(
        data, LearnerSpec("glm_main_terms", link=Link.LOGIT))
    # Saturated binary design: fitted scaled probabilities are the stratum
    # means of the scaled outcome, so back-scaling recovers stratum means.
    np.testing.assert_allclose(pred[:3], 2.0 + 4.0 * (2.0 / 3.0), atol=1e-7)
    np.testing.assert_allclose(pred[3:6], 2.0 + 4.0 * (1.0 / 3.0), atol=1e-7)
    assert np.all(pred >= 2.0)
    assert np.all(pred <= 6.0)


def test_outcome_constant_with_logit_link():
    data = Dataset.from_columns(
        {"w": [0.0, 1.0, 0.0, 1.0]},
        [0.0, 0.0, 1.0, 1.0],
        [3.5, 3.5, 3.5, 3.5],
    )
    pred = _outcome_on_all_rows(
        data, LearnerSpec("glm_main_terms", link=Link.LOGIT))
    np.testing.assert_array_equal(pred, np.full(4, 3.5))


def test_knn_outcome_mean_and_tie_break():
    data = Dataset.from_columns(
        {"w": [0.0, 0.0, 5.0, 5.0]},
        [0.0, 0.0, 1.0, 1.0],
        [5.0, 9.0, -1.0, -1.0],
    )
    k2 = _outcome_on_all_rows(data, LearnerSpec("k_nearest_neighbors", k=2))
    np.testing.assert_allclose(k2, np.full(4, 7.0))
    # k=1 with two untreated rows at identical covariates: the tie goes to
    # the lowest training-row index, whose outcome is 5.
    k1 = _outcome_on_all_rows(data, LearnerSpec("k_nearest_neighbors", k=1))
    np.testing.assert_allclose(k1[:2], [5.0, 5.0])


@pytest.mark.parametrize("kind, n_cov, n_train, n_query, k", [
    ("binary", 3, 60, 40, 7),          # tie-heavy
    ("rounded", 2, 80, 50, 10),
    ("continuous", 3, 90, 30, 25),
    ("continuous", 4, 30, 20, 30),     # k == n_train
    ("binary", 0, 25, 10, 5),          # no covariate columns
    ("continuous", 3, 200, 2 * (_KNN_BLOCK_ENTRIES // 200) + 3, 5),
    ("three_level", 9, 50, 200, 12),   # 8+ terms: numpy sums pairwise
    ("three_level", 10, 30, 200, 5),
])
def test_knn_matches_brute_force_oracle(kind, n_cov, n_train, n_query, k):
    rng = np.random.default_rng(n_train * 1000 + n_query)

    def draw(rows):
        if kind == "binary":
            return (rng.random((rows, n_cov)) < 0.5).astype(float)
        if kind == "rounded":
            return np.round(rng.normal(size=(rows, n_cov)), 1)
        if kind == "three_level":
            return rng.integers(-1, 2, size=(rows, n_cov)).astype(float)
        return rng.normal(size=(rows, n_cov))

    train_x, query_x = draw(n_train), draw(n_query)
    binary = (rng.random(n_train) < 0.4).astype(float)
    # The 0/1 response with its zeros stored as -0.0 is ranked, not
    # counted: numpy's sum gives the sign of a mean of zeros.
    for train_z in (binary, rng.normal(scale=3.0, size=n_train),
                    np.copysign(binary, binary - 0.5)):
        _assert_knn_exact(train_x, train_z, query_x, k)


def _knn_block_rows(n_train, n_cov):
    """Query rows per block of ``_KnnPredictor.predict``."""
    per_row = n_train * n_cov if n_cov >= 8 else n_train
    return max(1, _KNN_BLOCK_ENTRIES // per_row)


def _assert_knn_exact(train_x, train_z, query_x, k):
    got = _KnnPredictor(k, train_x, train_z).predict(query_x)
    want = knn_mean_brute_force(train_x, train_z, query_x, k)
    np.testing.assert_array_equal(got, want)
    # assert_array_equal takes -0.0 for +0.0; the sign of a zero mean is
    # pinned too.
    np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data(), n_train=st.integers(1, 300), n_cov=st.integers(0, 10),
       kind=st.sampled_from(["continuous", "three_level", "duplicated_first"]),
       far=st.sampled_from([None, "first", "others"]),
       response=st.sampled_from(["continuous", "binary", "binary_neg0",
                                 "neg0"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_knn_search_is_exact(data, n_train, n_cov, kind, far, response,
                             seed):
    rng = np.random.default_rng(seed)
    k = data.draw(st.integers(1, n_train), label="k")
    step = min(_knn_block_rows(n_train, n_cov), 150)
    n_query = (data.draw(st.integers(0, 2), label="blocks") * step
               + data.draw(st.integers(0, step), label="extra"))

    def draw(rows):
        if kind == "three_level":
            return rng.integers(-1, 2, size=(rows, n_cov)).astype(float)
        x = rng.normal(size=(rows, n_cov))
        if kind == "duplicated_first" and n_cov:
            x[:, 0] = rng.integers(0, 3, size=rows)
        return x

    train_x, query_x = draw(n_train), draw(n_query)
    # Some queries far outside the training range, in coordinate 0 only
    # or in the other coordinates only.
    moved = rng.random(n_query) < 0.3
    if far == "first" and n_cov:
        query_x[moved, 0] += rng.choice([-40.0, 40.0], size=moved.sum())
    if far == "others" and n_cov > 1:
        query_x[moved, 1:] += 40.0
    # 0/1 responses are counted unless a zero is stored as -0.0.
    if response == "continuous":
        train_z = rng.normal(scale=3.0, size=n_train)
    elif response == "neg0":
        train_z = np.full(n_train, -0.0)
    else:
        train_z = (rng.random(n_train) < 0.5).astype(float)
        if response == "binary_neg0":
            train_z = np.copysign(train_z, train_z - 0.5)
    _assert_knn_exact(train_x, train_z, query_x, k)


@pytest.mark.parametrize("train_z, counted", [
    ([0.0, 1.0, 1.0, 0.0], True),
    ([1.0, 1.0, 1.0, 1.0], True),
    ([0.0, 0.0, 0.0, 0.0], True),
    ([-0.0, 1.0, 1.0, 0.0], False),
    ([-0.0, -0.0, -0.0, -0.0], False),
    ([0.0, 1.0, 2.0, 0.0], False),
    ([0.0, 1.0, np.nan, 0.0], False),
    ([0.0, 0.5, 1.0, 0.0], False),
])
def test_knn_counts_only_plus_zero_and_one_responses(train_z, counted):
    # A mean of +0.0/1.0 responses is a count of ones over k; any other
    # response, -0.0 included, is ranked and averaged with np.mean.
    knn = _KnnPredictor(2, np.arange(8.0).reshape(4, 2), np.array(train_z))
    assert (knn.ones is not None) == counted


def _record_windows(monkeypatch):
    """(query rows, lo, hi) of every window ``_KnnPredictor`` searches."""
    windows = []
    distances = _KnnPredictor._distances

    def recorded(self, xb, lo, hi, *buffers):
        windows.append((len(xb), lo, hi))
        return distances(self, xb, lo, hi, *buffers)

    monkeypatch.setattr(_KnnPredictor, "_distances", recorded)
    return windows


def test_knn_windows_prune_and_stay_exact(monkeypatch):
    windows = _record_windows(monkeypatch)
    rng = np.random.default_rng(11)
    train_x = rng.uniform(size=(1600, 3))
    query_x = rng.uniform(size=(400, 3))
    train_z = (rng.random(1600) < 0.5).astype(float)
    _assert_knn_exact(train_x, train_z, query_x, 25)
    # Brute force would compute 400 * 1600 distances.
    assert sum(rows * (hi - lo) for rows, lo, hi in windows) < 0.6 * 400 * 1600


def test_knn_unsettled_rows_fall_back_to_every_row(monkeypatch):
    # A dense cluster, a few training rows spread along coordinate 0, and
    # isolated queries whose coordinate 0 sorts them between cluster
    # queries: the radius carried from a cluster block is far too small
    # for them.
    windows = _record_windows(monkeypatch)
    rng = np.random.default_rng(12)
    train_x = rng.normal(scale=0.01, size=(1500, 3))
    spread = rng.normal(size=(100, 3))
    spread[:, 0] *= 50.0
    train_x = np.vstack([train_x, spread])
    query_x = rng.normal(scale=0.01, size=(300, 3))
    query_x[::60, 1:] += 5.0
    train_z = rng.normal(size=1600)
    _assert_knn_exact(train_x, train_z, query_x, 10)
    blocks = -(-300 // _knn_block_rows(1600, 3))
    assert min(hi - lo for _, lo, hi in windows) < 1600
    assert len(windows) > blocks


def test_knn_window_with_fewer_than_k_rows_widens_to_every_row(
        monkeypatch):
    # A block of queries in the training cluster carries a small radius
    # into the next block, whose queries lie far out on coordinate 0: the
    # window around them holds no training row, so it is every row.
    windows = _record_windows(monkeypatch)
    rng = np.random.default_rng(15)
    train_x = rng.normal(size=(200, 2))
    step = _knn_block_rows(200, 2)
    query_x = rng.normal(size=(step + 10, 2))
    query_x[step:, 0] += 40.0
    _assert_knn_exact(train_x, rng.normal(size=200), query_x, 5)
    assert windows == [(step, 0, 200), (10, 0, 200)]


def test_knn_pairwise_sums_under_pruning(monkeypatch):
    # Nine covariates (numpy sums the squares pairwise) along a line, so
    # neighbors are close in coordinate 0 and the windows prune.
    windows = _record_windows(monkeypatch)
    rng = np.random.default_rng(13)
    line = rng.normal(size=(700, 1))
    x = line + 0.05 * rng.normal(size=(700, 9))
    train_x, query_x = x[:600], x[600:]
    _assert_knn_exact(train_x, rng.normal(size=600), query_x, 5)
    assert min(hi - lo for _, lo, hi in windows) < 600


@pytest.mark.parametrize("skipped_column", [None, -1])
def test_knn_certificate_at_window_edges(skipped_column):
    # An integer grid without (0, 0), ordered by first coordinate
    # descending, so (1, 0) has a lower index than (0, 1) and (0, -1).
    # Queries on training rows carry radius 0 into the next block, whose
    # window is then the rows with first coordinate 0. For the query
    # (0, 0) the edge row (1, 0) is exactly as near as the k-th neighbor
    # in the window (a full grid: the tie goes to (1, 0)), or strictly
    # nearer while the left edge is farther (column -1 skipped).
    grid = [(i, j) for i in range(20, -21, -1) for j in range(-20, 21)
            if (i, j) != (0, 0) and i != skipped_column]
    step = _knn_block_rows(len(grid), 2)
    query_x = np.array([(-2.0, -2.0)] * step + [(0.0, 0.0)] * step)
    _assert_knn_exact(np.array(grid, dtype=float),
                      np.arange(len(grid), dtype=float), query_x, 1)


def test_knn_constant_first_column():
    rng = np.random.default_rng(14)
    train_x = rng.normal(size=(400, 3))
    query_x = rng.normal(size=(250, 3))
    train_x[:, 0] = 2.0
    query_x[:, 0] = rng.choice([2.0, -3.0], size=250)
    _assert_knn_exact(train_x, rng.normal(size=400), query_x, 7)


def test_knn_k_larger_than_untreated_pool():
    data = Dataset.from_columns(
        {"w": [0.0, 1.0, 2.0, 3.0]},
        [0.0, 0.0, 1.0, 1.0],
        [1.0, 2.0, 3.0, 4.0],
    )
    with pytest.raises(InsufficientDataError, match="k=3"):
        _outcome_on_all_rows(data, LearnerSpec("k_nearest_neighbors", k=3))


@pytest.mark.parametrize("train_w, query_w, message", [
    ([0.0, 1.0, 2.0, 1e200], [0.0], "standard deviation overflows"),
    ([0.0, 1.0, 2.0, 3.0], [1e200], "more than 1e\\+150 standard deviations"),
], ids=["training_scale", "predicted_row"])
def test_knn_overflowing_covariate_raises_nuisance_error(train_w, query_w,
                                                         message):
    # Once, the first overflowed the column's scale to inf, which dropped
    # the column from every distance, and the second overflowed every
    # distance to inf; both only warned (an error under the test
    # settings).
    knn = LearnerSpec("k_nearest_neighbors", k=1)
    with pytest.raises(NuisanceError, match=f"^k_nearest_neighbors:k=1: "
                                            f".*{message}"):
        fit_propensity(knn, np.array(train_w)[:, None],
                       np.array([0.0, 1.0, 0.0, 1.0])).predict(
            np.array(query_w)[:, None])


@pytest.mark.parametrize("outcome", [
    [1.5e308, 1.6e308, 1.0, 2.0],
    [1.7e308, 1.7e308, -1.7e308, 2.0],
], ids=["sum_overflows", "sum_is_nan"])
def test_knn_overflowing_neighbour_mean_raises_nuisance_error(outcome):
    # Every outcome is finite, but the sum behind some row's mean of its
    # two nearest untreated outcomes is not. Once np.mean only warned (an
    # error under the test settings).
    data = Dataset.from_columns({"w": [0.0, 1.0, 2.0, 3.0]},
                                [0.0, 0.0, 0.0, 1.0], outcome)
    with pytest.raises(NuisanceError, match="^k_nearest_neighbors:k=2: a "
                                            "mean of the nearest rows' "
                                            "responses overflows$"):
        _outcome_on_all_rows(data, LearnerSpec("k_nearest_neighbors", k=2))


def test_outcome_needs_two_untreated_rows():
    data = Dataset.from_columns(
        {"w": [0.0, 1.0, 2.0]}, [0.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(InsufficientDataError, match="untreated"):
        _outcome_on_all_rows(data, LearnerSpec("glm_main_terms"))


def test_propensity_matches_stratum_frequencies():
    data = Dataset.from_columns(
        {"w": [0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0]},
        [0.0, 0.0, 1.0, 0.0, 1.0, 1.0, 1.0],
        np.zeros(7),
    )
    glm = LearnerSpec("glm_main_terms")
    nuis = fit_nuisance(data, glm, glm)
    np.testing.assert_allclose(nuis.propensity_pred[:3], 2.0 / 3.0,
                               atol=1e-7)
    np.testing.assert_allclose(nuis.propensity_pred[3:], 1.0 / 4.0,
                               atol=1e-7)
    assert nuis.n_truncated == 0
    x = glm.design_for(data.covariates)
    np.testing.assert_array_equal(
        fit_propensity(glm, x, data.treatment).predict(x),
        nuis.propensity_pred)


def test_propensity_truncation_counts_clipped_rows():
    # Three rows whose 3 nearest neighbors are all treated: raw 0 -> 0.01.
    data = Dataset.from_columns(
        {"w": [0.0, 0.1, -0.1, 10.0, 10.1, 9.9]},
        [1.0, 1.0, 1.0, 0.0, 0.0, 1.0],
        np.zeros(6),
    )
    nuis = fit_nuisance(data, LearnerSpec("glm_main_terms"),
                        LearnerSpec("k_nearest_neighbors", k=3))
    np.testing.assert_allclose(nuis.propensity_pred[:3], 0.01)
    np.testing.assert_allclose(nuis.propensity_pred[3:], 2.0 / 3.0)
    assert nuis.n_truncated == 3
    assert nuis.truncation_bounds == DEFAULT_TRUNCATION


def test_propensity_needs_both_levels():
    data = Dataset.from_columns(
        {"w": [0.0, 1.0, 2.0]}, [0.0, 0.0, 0.0], [1.0, 2.0, 3.0])
    with pytest.raises(InsufficientDataError, match="treatment level"):
        fit_nuisance(data, LearnerSpec("glm_main_terms"),
                     LearnerSpec("glm_main_terms"))
    # The matrix-level fit: one level among the rows, or no rows at all.
    glm = LearnerSpec("glm_main_terms")
    x = glm.design_for(np.array([[0.0], [1.0], [2.0], [3.0]]))
    a = np.array([0.0, 1.0, 1.0, 0.0])
    message = "^both treatment levels are required to fit a propensity model$"
    for rows in ([True, False, False, True], [False] * 4):
        with pytest.raises(InsufficientDataError, match=message):
            fit_propensity(glm, x, a, np.array(rows))


def test_truncation_bounds_validated():
    data = random_point_dataset(np.random.default_rng(0), n=30)
    glm = LearnerSpec("glm_main_terms")
    for bad in ((0.0, 0.9), (0.2, 0.2), (0.5, 1.0), (-0.1, 0.5)):
        with pytest.raises(ValueError, match="truncation"):
            fit_nuisance(data, glm, glm, truncation=bad)


def test_covariate_restriction_forces_marginal_models():
    data = Dataset.from_columns(
        {"w": [0.0, 1.0, 0.0, 1.0, 0.0, 1.0]},
        [0.0, 0.0, 0.0, 1.0, 1.0, 0.0],
        [1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
    )
    glm = LearnerSpec("glm_main_terms")
    nuis = fit_nuisance(data, glm, glm, outcome_covariates=(),
                        propensity_covariates=())
    np.testing.assert_allclose(nuis.outcome_pred, np.full(6, 3.0),
                               atol=1e-10)
    np.testing.assert_allclose(nuis.propensity_pred, np.full(6, 4.0 / 6.0),
                               atol=1e-7)
    with pytest.raises(KeyError):
        fit_nuisance(data, glm, glm, outcome_covariates=("nope",))


def test_nuisance_estimates_validation():
    mu = np.array([1.0, 2.0])
    with pytest.raises(ValueError, match="truncation"):
        NuisanceEstimates(mu, np.array([0.5, 0.5]), truncation_bounds=(0.0, 1.0))
    for g in ([0.5, 0.999], [0.005, 0.5], [0.5, np.nan], [np.inf, 0.5],
              [0.5, -np.inf]):
        with pytest.raises(ValueError, match="violate"):
            NuisanceEstimates(mu, np.array(g), truncation_bounds=(0.01, 0.99))
    assert NuisanceEstimates(np.empty(0), np.empty(0)).n_obs == 0
    with pytest.raises(ValueError, match="non-finite"):
        NuisanceEstimates(np.array([np.nan, 1.0]), np.array([0.5, 0.5]))
    with pytest.raises(ValueError, match="fold_assignment"):
        NuisanceEstimates(mu, np.array([0.5, 0.5]),
                          fold_assignment=np.array([0, 1, 0]))


@pytest.mark.parametrize("mu, g", [
    (np.array([1.0, 2.0]), np.full(3, 0.5)),
    (np.full((2, 1), 1.0), np.full((2, 1), 0.5)),
])
def test_nuisance_estimates_need_equal_1d_arrays(mu, g):
    with pytest.raises(ValueError, match=r"^outcome_pred and propensity_pred "
                       r"must be 1-d arrays of equal length$"):
        NuisanceEstimates(mu, g)


def test_fold_partition_properties():
    assignment = fold_partition(23, 5, seed=42)
    assert assignment.shape == (23,)
    sizes = np.bincount(assignment, minlength=5)
    assert sizes.min() >= 4 and sizes.max() <= 5
    assert np.array_equal(assignment, fold_partition(23, 5, seed=42))
    assert not np.array_equal(assignment, fold_partition(23, 5, seed=43))
    with pytest.raises(ValueError):
        fold_partition(10, 1, seed=0)
    with pytest.raises(ValueError):
        fold_partition(10, 11, seed=0)


def test_crossfit_predictions_ignore_own_fold_outcomes():
    rng = np.random.default_rng(31)
    data = random_point_dataset(rng, n=60)
    fit = crossfit(data, LearnerSpec("glm_main_terms"),
                   LearnerSpec("glm_main_terms"), n_folds=4, seed=7)
    fold0 = fit.fold_assignment == 0
    bumped_y = np.where(fold0, data.outcome + 5.0, data.outcome)
    bumped = Dataset.from_columns(
        {name: data.covariate_column(name) for name in data.covariate_names},
        data.treatment, bumped_y)
    refit = crossfit(bumped, LearnerSpec("glm_main_terms"),
                     LearnerSpec("glm_main_terms"), n_folds=4, seed=7)
    np.testing.assert_array_equal(refit.fold_assignment, fit.fold_assignment)
    np.testing.assert_array_equal(refit.outcome_pred[fold0],
                                  fit.outcome_pred[fold0])
    assert not np.array_equal(refit.outcome_pred[~fold0],
                              fit.outcome_pred[~fold0])


def test_crossfit_deterministic_and_distinct_from_full_sample():
    rng = np.random.default_rng(17)
    data = random_point_dataset(rng, n=80)
    first = crossfit(data, LearnerSpec("glm_main_terms"),
                     LearnerSpec("glm_main_terms"), n_folds=5, seed=3)
    second = crossfit(data, LearnerSpec("glm_main_terms"),
                      LearnerSpec("glm_main_terms"), n_folds=5, seed=3)
    np.testing.assert_array_equal(first.outcome_pred, second.outcome_pred)
    np.testing.assert_array_equal(first.propensity_pred,
                                  second.propensity_pred)
    full = fit_nuisance(data, LearnerSpec("glm_main_terms"),
                        LearnerSpec("glm_main_terms"))
    assert not np.array_equal(first.outcome_pred, full.outcome_pred)
    assert full.fold_assignment is None
    assert first.fold_assignment is not None


def test_crossfit_degenerate_fold_names_the_fold():
    for treatment, seed in (
            ([0.0, 0.0, 0.0, 1.0], 0),
            # one untreated row: a fold complement has none at all (seed 0)
            # or just one (seed 2)
            ([0.0, 1.0, 1.0, 1.0], 0),
            ([0.0, 1.0, 1.0, 1.0], 2)):
        data = Dataset.from_columns(
            {"w": [0.0, 1.0, 2.0, 3.0]}, treatment, [1.0, 2.0, 3.0, 4.0])
        with pytest.raises(FoldDegeneracyError, match="^fold \\d: "):
            crossfit(data, LearnerSpec("glm_main_terms"),
                     LearnerSpec("glm_main_terms"), n_folds=2, seed=seed)


def test_crossfit_leave_pairs_out_runs():
    rng = np.random.default_rng(11)
    data = random_point_dataset(rng, n=24, binary_w=True)
    fit = crossfit(data, LearnerSpec("glm_main_terms"),
                   LearnerSpec("glm_main_terms"), n_folds=12, seed=2)
    assert fit.n_obs == 24
    assert np.bincount(fit.fold_assignment).tolist() == [2] * 12


def test_crossfit_predicts_each_row_once_per_model(monkeypatch):
    rows = count_predicted_rows(monkeypatch)
    data = random_point_dataset(np.random.default_rng(5), n=90)
    crossfit(data, LearnerSpec("k_nearest_neighbors", k=5),
             LearnerSpec("glm_main_terms"), n_folds=4, seed=1)
    assert rows == {"_KnnPredictor": 90, "_GlmPredictor": 90}


def test_stacked_propensity_predictions_equal_fit_propensity():
    # Members a stacked solve cannot fit are None, and fit alone they
    # raise: a one-level treatment, a covariate that overflows the
    # learner's basis, and a separated fit. A None member (a failed
    # draw) stays None, and each model sees only the named columns.
    rng = np.random.default_rng(12)
    n = 80
    learner = LearnerSpec("glm_with_basis", degree=2)
    covariates = [rng.normal(size=(n, 3)) for _ in range(7)]
    treatments = [(rng.random(n) < 0.4).astype(float) for _ in range(7)]
    treatments[1][:] = 0.0
    covariates[2][0, 1] = 1e200
    covariates[3][:, 0] *= 1e-2
    treatments[3] = (covariates[3][:, 0] > 0).astype(float)
    datasets = [Dataset(("u", "v", "unused"), cov, a, rng.normal(size=n))
                for cov, a in zip(covariates, treatments)]
    datasets.insert(4, None)
    predictions = stacked_propensity_predictions(learner, datasets,
                                                 ("u", "v"))
    assert len(predictions) == 8 and predictions[4] is None
    del datasets[4], predictions[4]
    alone = []
    for data, got in zip(datasets, predictions):
        try:
            x = learner.design_for(data.covariate_matrix(("u", "v")))
            alone.append(fit_propensity(learner, x, data.treatment).predict(x))
        except (NuisanceError, GlmError) as exc:
            alone.append(type(exc).__name__)
        if got is None:
            assert isinstance(alone[-1], str)
        else:
            assert np.array_equal(got, alone[-1])
    assert [alone[i] for i in (1, 2, 3)] == [
        "InsufficientDataError", "NuisanceError", "SeparationError"]
    assert sum(got is not None for got in predictions) == 4
    # A lone member is a stack of one, also beside failed draws; no
    # member gives no fit; and kNN learners do not stack.
    x = learner.design_for(datasets[0].covariate_matrix(None))
    alone = fit_propensity(learner, x, datasets[0].treatment).predict(x)
    lone = stacked_propensity_predictions(learner, datasets[:1], None)
    assert len(lone) == 1 and np.array_equal(lone[0], alone)
    lone = stacked_propensity_predictions(
        learner, [None, datasets[0], None], None)
    assert lone[0] is None and lone[2] is None
    assert np.array_equal(lone[1], alone)
    assert stacked_propensity_predictions(
        learner, [None, datasets[1]], None) == [None, None]
    with pytest.raises(ValueError, match="not a GLM learner"):
        stacked_propensity_predictions(
            LearnerSpec("k_nearest_neighbors", k=3), datasets, None)


def test_given_raw_propensity_stands_for_the_fit():
    data = random_point_dataset(np.random.default_rng(4), n=90)
    learner = LearnerSpec("glm_main_terms")
    raw = stacked_propensity_predictions(learner, [None, data, data],
                                         None)[1]
    fitted = fit_nuisance(data, learner, learner)
    given = fit_nuisance(data, learner, learner, raw_propensity=raw)
    for field in ("outcome_pred", "propensity_pred"):
        assert np.array_equal(getattr(given, field), getattr(fitted, field))
    assert given.n_truncated == fitted.n_truncated
