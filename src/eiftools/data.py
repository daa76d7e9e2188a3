"""Containers for point-treatment and two-time-point observational data.

The constructors are the one place where observational data are checked;
code that receives a container trusts it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Tuple

import numpy as np

__all__ = ["Dataset", "LongDataset"]


def _as_binary(name: str, values) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-dimensional")
    coded = (arr == 0.0) | (arr == 1.0)
    if not coded.all():
        if not np.isfinite(arr).all():
            raise ValueError(f"{name} contains non-finite values")
        raise ValueError(
            f"{name} must be coded 0/1, found {float(arr[~coded][0])!r}")
    return arr


def _outcome_bounds(bounds) -> Tuple[float, float]:
    """``bounds`` as two floats; ValueError unless finite with lo <= hi."""
    lo, hi = float(bounds[0]), float(bounds[1])
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo > hi:
        raise ValueError(f"invalid outcome bounds ({lo}, {hi})")
    return lo, hi


def _as_outcome(values, n: int, bounds
                ) -> Tuple[np.ndarray, Optional[Tuple[float, float]]]:
    """The outcome of ``n`` rows and its declared bounds, both checked."""
    y = np.asarray(values, dtype=float)
    if y.shape != (n,):
        raise ValueError(f"outcome has shape {y.shape}, expected ({n},)")
    if not np.isfinite(y).all():
        raise ValueError("outcome contains non-finite values")
    if bounds is not None:
        lo, hi = bounds = _outcome_bounds(bounds)
        # No rows: nothing to compare; the row count is reported below.
        if n and not (lo <= y.min() and y.max() <= hi):
            raise ValueError("outcome values fall outside the declared bounds")
    if n < 2:
        raise ValueError("need at least two observations")
    return y, bounds


def _as_matrix(name: str, names: Sequence[str], values, n: int
               ) -> Tuple[Tuple[str, ...], np.ndarray]:
    names = tuple(str(v) for v in names)
    if len(set(names)) != len(names):
        raise ValueError(f"{name} column names must be unique")
    # C order, so that column statistics (kNN's standardization) round the
    # same whatever layout the caller passed.
    mat = np.ascontiguousarray(values, dtype=float)
    if mat.size == 0 and not names:
        mat = np.empty((n, 0))
    if mat.ndim == 1:
        mat = mat[:, None]
    if mat.shape != (n, len(names)):
        raise ValueError(
            f"{name} matrix has shape {mat.shape}, expected ({n}, {len(names)})"
        )
    if not np.isfinite(mat).all():
        raise ValueError(f"{name} contains non-finite values")
    return names, mat


def _stack_columns(columns) -> Tuple[list, np.ndarray]:
    """Names and column-stacked values of a mapping (or pairs) of columns."""
    items = list(columns.items()) if isinstance(columns, Mapping) \
        else list(columns or [])
    if not items:
        return [], np.empty((0, 0))
    return ([k for k, _ in items],
            np.column_stack([np.asarray(v, dtype=float) for _, v in items]))


@dataclass(frozen=True)
class Dataset:
    """Point-treatment data: covariates ``W``, binary treatment ``A``, outcome ``Y``.

    The estimand targets the untreated arm, so ``A == 0`` rows are the ones
    the outcome model is fit on and the propensity model predicts
    ``P(A = 0 | W)``. Construction checks every field and raises
    ValueError for malformed data.
    """

    covariate_names: Tuple[str, ...]
    covariates: np.ndarray
    treatment: np.ndarray
    outcome: np.ndarray
    y_bounds: Optional[Tuple[float, float]] = None

    def __post_init__(self):
        a = _as_binary("treatment", self.treatment)
        n = a.shape[0]
        y, bounds = _as_outcome(self.outcome, n, self.y_bounds)
        names, mat = _as_matrix("covariates", self.covariate_names,
                                self.covariates, n)
        if a.min() > 0.0:
            raise ValueError("no untreated (A = 0) rows; the target mean is unidentified")
        object.__setattr__(self, "covariate_names", names)
        object.__setattr__(self, "covariates", mat)
        object.__setattr__(self, "treatment", a)
        object.__setattr__(self, "outcome", y)
        object.__setattr__(self, "y_bounds", bounds)

    @classmethod
    def from_columns(cls, covariates: Mapping[str, Sequence[float]],
                     treatment, outcome,
                     y_bounds: Optional[Tuple[float, float]] = None) -> "Dataset":
        """Dataset on named covariate columns, which the constructor checks."""
        names, mat = _stack_columns(covariates)
        return cls(covariate_names=names, covariates=mat,
                   treatment=treatment, outcome=outcome, y_bounds=y_bounds)

    @property
    def n_obs(self) -> int:
        return self.treatment.shape[0]

    def outcome_bounds(self) -> Tuple[float, float]:
        """Declared outcome range when given, else the observed min/max."""
        if self.y_bounds is not None:
            return self.y_bounds
        return float(self.outcome.min()), float(self.outcome.max())

    def covariate_column(self, name: str) -> np.ndarray:
        return self.covariate_matrix((name,))[:, 0]

    def covariate_matrix(self, names: Optional[Sequence[str]] = None
                         ) -> np.ndarray:
        """The named covariate columns in the order given (None: all).

        A repeated name gives one column. The result is C-contiguous, as
        a Dataset built on those columns would hold them; raises KeyError
        for a name the data lack.
        """
        if names is None:
            return self.covariates
        index = []
        for name in dict.fromkeys(names):
            if name not in self.covariate_names:
                raise KeyError(f"no covariate named {name!r}")
            index.append(self.covariate_names.index(name))
        return np.take(self.covariates, np.array(index, dtype=np.intp), axis=1)


@dataclass(frozen=True)
class LongDataset:
    """Two-time-point data: ``W0, A0, W1, A1, Y`` per subject.

    ``W1`` holds covariates measured after ``A0`` and before ``A1``; it may
    be empty. The estimand targets the always-untreated regime
    ``A0 = A1 = 0``. Construction checks every field and raises
    ValueError for malformed data.
    """

    w0_names: Tuple[str, ...]
    w0: np.ndarray
    a0: np.ndarray
    w1_names: Tuple[str, ...]
    w1: np.ndarray
    a1: np.ndarray
    outcome: np.ndarray
    y_bounds: Optional[Tuple[float, float]] = None

    def __post_init__(self):
        a0 = _as_binary("a0", self.a0)
        n = a0.shape[0]
        a1 = _as_binary("a1", self.a1)
        if a1.shape != (n,):
            raise ValueError(f"a1 has shape {a1.shape}, expected ({n},)")
        y, bounds = _as_outcome(self.outcome, n, self.y_bounds)
        w0_names, w0 = _as_matrix("w0", self.w0_names, self.w0, n)
        w1_names, w1 = _as_matrix("w1", self.w1_names, self.w1, n)
        overlap = set(w0_names) & set(w1_names)
        if overlap:
            raise ValueError(f"covariate names appear at both times: {sorted(overlap)}")
        if np.count_nonzero((a0 == 0.0) & (a1 == 0.0)) < 2:
            raise ValueError(
                "need at least 2 rows following the always-untreated regime "
                "(A0 = A1 = 0)"
            )
        object.__setattr__(self, "w0_names", w0_names)
        object.__setattr__(self, "w0", w0)
        object.__setattr__(self, "a0", a0)
        object.__setattr__(self, "w1_names", w1_names)
        object.__setattr__(self, "w1", w1)
        object.__setattr__(self, "a1", a1)
        object.__setattr__(self, "outcome", y)
        object.__setattr__(self, "y_bounds", bounds)

    @classmethod
    def from_columns(cls, w0: Mapping[str, Sequence[float]], a0,
                     w1: Mapping[str, Sequence[float]], a1,
                     outcome,
                     y_bounds: Optional[Tuple[float, float]] = None
                     ) -> "LongDataset":
        """LongDataset on named columns, which the constructor checks."""
        w0_names, w0m = _stack_columns(w0)
        w1_names, w1m = _stack_columns(w1)
        return cls(w0_names=w0_names, w0=w0m, a0=a0,
                   w1_names=w1_names, w1=w1m, a1=a1,
                   outcome=outcome, y_bounds=y_bounds)

    @property
    def n_obs(self) -> int:
        return self.a0.shape[0]

    outcome_bounds = Dataset.outcome_bounds
