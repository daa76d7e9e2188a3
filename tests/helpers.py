"""Random-problem builders shared across test modules."""

from collections import Counter

import numpy as np

from eiftools import nuisance
from eiftools.data import Dataset, LongDataset


def random_point_dataset(rng, n=None, binary_w=False, binary_y=False,
                         n_cov=2, y_bounds=None):
    """Random point-treatment dataset guaranteed to have both treatment
    arms and at least two untreated rows."""
    if n is None:
        n = int(rng.integers(10, 201))
    while True:
        if binary_w:
            w = (rng.random((n, n_cov)) < 0.5).astype(float)
        else:
            w = rng.normal(size=(n, n_cov))
        p0 = 1.0 / (1.0 + np.exp(-(0.3 + 0.5 * w[:, 0])))
        a = (rng.random(n) >= p0).astype(float)
        if 2 <= int((a == 0).sum()) and int((a == 1).sum()) >= 1:
            break
    if binary_y:
        py = 1.0 / (1.0 + np.exp(-(-0.2 + 0.8 * w[:, 0] - 0.5 * a)))
        y = (rng.random(n) < py).astype(float)
    else:
        y = 1.0 + 0.7 * w[:, 0] - 0.4 * a + rng.normal(scale=0.5, size=n)
    names = tuple(f"w{j}" for j in range(n_cov))
    cols = {name: w[:, j] for j, name in enumerate(names)}
    return Dataset.from_columns(cols, a, y, y_bounds=y_bounds)


def random_long_dataset(rng, n=None, binary_y=True):
    """Random two-period dataset with >= 2 rows untreated at both times
    and both arms present at each decision point."""
    if n is None:
        n = int(rng.integers(30, 201))
    while True:
        w0 = (rng.random(n) < 0.5).astype(float)
        p00 = 1.0 / (1.0 + np.exp(-(0.4 + 0.4 * w0)))
        a0 = (rng.random(n) >= p00).astype(float)
        w1 = (rng.random(n) < 1.0 / (1.0 + np.exp(-(-0.3 + 0.6 * w0)))).astype(float)
        p10 = 1.0 / (1.0 + np.exp(-(0.5 + 0.3 * w0 - 0.4 * w1)))
        a1 = np.where(a0 == 1.0, 1.0, (rng.random(n) >= p10).astype(float))
        both0 = (a0 == 0) & (a1 == 0)
        if both0.sum() >= 2 and (a0 == 1).any() and (a1[a0 == 0] == 1).any():
            break
    if binary_y:
        py = 1.0 / (1.0 + np.exp(-(-0.2 + 0.7 * w0 + 0.5 * w1 - 0.6 * a1)))
        y = (rng.random(n) < py).astype(float)
    else:
        y = 0.5 + 0.6 * w0 + 0.4 * w1 - 0.3 * a1 + rng.normal(scale=0.4, size=n)
    return LongDataset.from_columns(
        {"w0": w0}, a0, {"w1": w1}, a1, y)


def saturated_long_dataset(rng, n):
    """Binary two-period dataset where every (w0, w1) cell is populated
    at A0 = A1 = 0 and every w0 cell has both A0 arms."""
    while True:
        data = random_long_dataset(rng, n=n)
        w0, w1 = data.w0[:, 0], data.w1[:, 0]
        ok = True
        for s0 in (0.0, 1.0):
            rows0 = w0 == s0
            if not (np.any(rows0 & (data.a0 == 0.0))
                    and np.any(rows0 & (data.a0 == 1.0))):
                ok = False
            for s1 in (0.0, 1.0):
                cell = rows0 & (w1 == s1)
                if not np.any(cell & (data.a0 == 0.0) & (data.a1 == 0.0)):
                    ok = False
        if ok:
            return data


def count_predicted_rows(monkeypatch):
    """Counter of rows each learner class is asked to predict, by class name.

    Wraps ``predict`` of the kNN and GLM predictors for the rest of the
    test; the predictions themselves are unchanged.
    """
    rows = Counter()
    for cls in (nuisance._KnnPredictor, nuisance._GlmPredictor):
        def counted(self, matrix, _predict=cls.predict, _name=cls.__name__):
            rows[_name] += matrix.shape[0]
            return _predict(self, matrix)
        monkeypatch.setattr(cls, "predict", counted)
    return rows
