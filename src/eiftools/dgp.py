"""Data-generating processes (DGPs) with known truth: the DGP config
format, its validation, draws and true values.

A :class:`DgpConfig` describes independent covariates, a logit-scale
model for the probability of NON-treatment, and an outcome mean on the
identity or logit scale with optional mean-zero noise. Each config
object reads its JSON keys by one table, ``_KEYS``. A configuration
validates itself on construction, in one pass that reports every
violation at once: every number must be finite, and interval arithmetic
keeps the implied propensities away from 0 and 1 and binary outcome
means inside [0, 1].

The true estimand value is available two ways: exact summation over the
covariate support (discrete covariates only) and Monte Carlo averaging
of counterfactual draws with treatment forced to 0. The two oracles
cross-check each other in the test suite. :mod:`eiftools.simulation`
holds the experiment harness, and re-exports this module's public names.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ._numeric import expit
from .data import Dataset, LongDataset

__all__ = ["LinearModel", "CovariateSpec", "NoiseSpec", "OutcomeSpec",
           "DgpConfig", "DgpValidationError", "AnalyticTruthError",
           "TruthResult", "generate", "true_value"]

# Reserved names usable in coefficient maps besides covariate names.
_TREATMENT_KEYS = {"point": ("a",), "longitudinal": ("a0", "a1")}
# The keys that each covariate distribution and each noise kind reads.
_DIST_KEYS = {"bernoulli": ("p", "model"), "uniform": ("low", "high"),
              "normal": ("mean", "sd")}
_NOISE_KEYS = {"none": (), "normal": ("sd",), "uniform": ("half_width",)}


class DgpValidationError(Exception):
    """Invalid DGP configuration; ``violations`` lists every problem."""

    def __init__(self, violations: Sequence[str]):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class AnalyticTruthError(Exception):
    """Exact truth requested for a DGP without finite covariate support."""


_JSON_TYPES = {"an object": Mapping, "a list": (list, tuple),
               "a number": numbers.Real, "a string": str}


def _typed(value, kind: str, where: str):
    """``value`` if it has the JSON type ``kind``, else a config error
    (not a TypeError, ValueError or OverflowError deep inside validation)."""
    if isinstance(value, bool) or not isinstance(value, _JSON_TYPES[kind]):
        raise DgpValidationError([f"{where}: expected {kind}, got {value!r}"])
    if kind == "a number":
        try:
            float(value)
        except OverflowError:
            raise DgpValidationError([f"{where}: expected a number, got an "
                                      "integer too large for a float"]
                                     ) from None
    return value


# The default of a key that a config object must hold.
_REQUIRED = object()


def _parse(d, table, where: str) -> Dict[str, object]:
    """The values of the config object ``d`` at path ``where`` ("" for the
    config itself), keyed as in ``table``, whose rows are (key, JSON type,
    default). The type is a ``_typed`` kind or the parser of a nested value.
    An absent key takes its default, read as a given value is; a key whose
    default is None may be null."""
    _typed(d, "an object", where or "config")
    extra = sorted(set(d) - {key for key, _, _ in table})
    if extra:
        raise DgpValidationError([f"{where}: unknown keys {extra}" if where
                                  else f"unknown config keys {extra}"])
    required = [key for key, _, default in table if default is _REQUIRED]
    missing = sorted(set(required) - set(d))
    if missing:
        raise DgpValidationError([f"{where}: need {' and '.join(required)}"
                                  if where else
                                  f"missing config keys {missing}"])
    values = {}
    for key, kind, default in table:
        value, path = d.get(key, default), f"{where}.{key}" if where else key
        if value is not None or default is not None:
            value = (_typed(value, kind, path) if isinstance(kind, str)
                     else kind(value, path))
        values[key] = value
    return values


def _numbers(d, where: str) -> Dict[str, object]:
    """A JSON object of numbers, such as a model's coefficients."""
    return {k: _typed(v, "a number", f"{where}.{k}")
            for k, v in _typed(d, "an object", where).items()}


class _ConfigObject:
    """A config object, read from JSON by its key table ``_KEYS``."""

    @classmethod
    def from_dict(cls, d: Mapping[str, object], where: str):
        return cls(**_parse(d, cls._KEYS, where))


@dataclass(frozen=True)
class LinearModel(_ConfigObject):
    """Linear predictor: intercept + sum of coef * term value."""

    intercept: float = 0.0
    coefs: Mapping[str, float] = field(default_factory=dict)
    _KEYS = (("intercept", "a number", 0.0), ("coefs", _numbers, {}))

    def __post_init__(self):
        object.__setattr__(self, "intercept", float(self.intercept))
        object.__setattr__(
            self, "coefs",
            {str(k): float(v) for k, v in dict(self.coefs).items()})

    def eta(self, values: Mapping[str, Union[float, np.ndarray]],
            in_place: bool = False):
        """``intercept + coef * value`` over the terms, added in term order.

        The sum builds up in the first array term's buffer: a fresh
        ``coef * value``, or with ``in_place`` the value's own buffer,
        where each array value is scaled before it is added, so that no
        array is allocated. Each step is the IEEE operation of
        ``acc + coef * value``, so the bits do not depend on ``in_place``.
        """
        acc = self.intercept
        for name, coef in self.coefs.items():
            term = values[name]
            if in_place and isinstance(term, np.ndarray):
                term *= coef
            else:
                term = coef * term
            if isinstance(acc, np.ndarray) or not isinstance(term, np.ndarray):
                acc += term
            else:
                term += acc
                acc = term
        return acc

    def eta_interval(self, intervals: Mapping[str, Tuple[float, float]]
                     ) -> Tuple[float, float]:
        lo = hi = self.intercept
        for name, coef in self.coefs.items():
            if coef == 0.0:
                continue
            ilo, ihi = intervals[name]
            a, b = coef * ilo, coef * ihi
            lo += min(a, b)
            hi += max(a, b)
        return lo, hi


@dataclass(frozen=True)
class CovariateSpec(_ConfigObject):
    """One independent covariate.

    ``bernoulli`` takes ``p``, or (second-period covariates only) a
    logit-scale ``model`` over the first-period variables and ``a0``.
    ``uniform`` takes ``low``/``high``; ``normal`` takes ``mean``/``sd``.
    """

    name: str
    dist: str
    p: Optional[float] = None
    low: Optional[float] = None
    high: Optional[float] = None
    mean: Optional[float] = None
    sd: Optional[float] = None
    model: Optional[LinearModel] = None
    _KEYS = (("name", "a string", _REQUIRED), ("dist", "a string", _REQUIRED),
             ("p", "a number", None), ("model", LinearModel.from_dict, None),
             ("low", "a number", None), ("high", "a number", None),
             ("mean", "a number", None), ("sd", "a number", None))

    @property
    def is_discrete(self) -> bool:
        return self.dist == "bernoulli"

    def support_interval(self) -> Tuple[float, float]:
        if self.dist == "bernoulli":
            return (0.0, 1.0)
        if self.dist == "uniform":
            return (float(self.low), float(self.high))
        return (-np.inf, np.inf)

    def draw(self, rng: np.random.Generator, n: int,
             context: Optional[Mapping[str, np.ndarray]] = None,
             out: Optional[np.ndarray] = None) -> np.ndarray:
        """``n`` draws, in ``out`` when it is given; a ``model`` reads
        ``context``."""
        out = np.empty(n) if out is None else out
        if self.dist == "bernoulli":
            prob = (float(self.p) if self.model is None
                    else expit(self.model.eta(context)))
            return np.less(rng.random(out=out), prob, out=out)
        if self.dist == "uniform":
            return _uniform(rng, out, float(self.low), float(self.high))
        return _normal(rng, out, float(self.mean), float(self.sd))


# numpy's uniform and normal draws, into a buffer; DgpConfig checks that
# every uniform width is finite. numpy computes ``low + (high - low) * u``
# and ``mean + sd * z``; swapping the operands leaves the bits as they are.

def _uniform(rng: np.random.Generator, out: np.ndarray, low: float,
             high: float) -> np.ndarray:
    rng.random(out=out)
    out *= high - low
    out += low
    return out


def _normal(rng: np.random.Generator, out: np.ndarray, mean: float,
            sd: float) -> np.ndarray:
    rng.standard_normal(out=out)
    out *= sd
    out += mean
    return out


def _covariates(items, where: str) -> Tuple[CovariateSpec, ...]:
    """A JSON list of covariates."""
    return tuple(CovariateSpec.from_dict(c, f"{where}[{i}]")
                 for i, c in enumerate(_typed(items, "a list", where)))


def _bounds(pair, where: str) -> Tuple[float, float]:
    """A JSON list of two numbers, [lo, hi]."""
    if len(_typed(pair, "a list", where)) != 2:
        raise DgpValidationError([f"{where}: expected [lo, hi], got {pair!r}"])
    return tuple(_typed(v, "a number", where) for v in pair)


@dataclass(frozen=True)
class NoiseSpec(_ConfigObject):
    """Additive mean-zero outcome noise (continuous outcomes only)."""

    kind: str = "none"
    sd: float = 0.0
    half_width: float = 0.0
    _KEYS = (("kind", "a string", "none"), ("sd", "a number", 0.0),
             ("half_width", "a number", 0.0))

    def draw(self, rng: np.random.Generator, n: int,
             out: Optional[np.ndarray] = None) -> np.ndarray:
        """``n`` draws, in ``out`` when it is given."""
        out = np.empty(n) if out is None else out
        if self.kind == "normal" and float(self.sd) > 0:
            return _normal(rng, out, 0.0, float(self.sd))
        if self.kind == "uniform" and float(self.half_width) > 0:
            return _uniform(rng, out, -float(self.half_width),
                            float(self.half_width))
        out.fill(0.0)
        return out


@dataclass(frozen=True)
class OutcomeSpec(_ConfigObject):
    """Outcome mean model and distribution.

    The mean is ``eta`` (identity scale) or ``expit(eta)`` (logit scale)
    where eta is the linear predictor over covariates and the reserved
    treatment terms (``a`` for the point design; ``a0``/``a1`` for the
    longitudinal one). ``binary`` outcomes are Bernoulli(mean) draws;
    ``continuous`` outcomes are mean plus noise.
    """

    scale: str = "identity"
    kind: str = "continuous"
    mean_model: LinearModel = field(default_factory=LinearModel)
    noise: NoiseSpec = field(default_factory=NoiseSpec)
    _KEYS = (("scale", "a string", "identity"),
             ("kind", "a string", "continuous"), *LinearModel._KEYS,
             ("noise", NoiseSpec.from_dict, {"kind": "none"}))

    def mean(self, values: Mapping[str, Union[float, np.ndarray]],
             in_place: bool = False):
        """The outcome mean; ``in_place`` as in :meth:`LinearModel.eta`."""
        eta = self.mean_model.eta(values, in_place)
        if self.scale == "logit":
            return expit(eta, out=eta if in_place
                         and isinstance(eta, np.ndarray) else None)
        return eta

    def mean_interval(self, intervals: Mapping[str, Tuple[float, float]]
                      ) -> Tuple[float, float]:
        lo, hi = self.mean_model.eta_interval(intervals)
        if self.scale == "logit":
            return float(expit(lo)), float(expit(hi))
        return lo, hi

    @classmethod
    def from_dict(cls, d: Mapping[str, object], where: str) -> "OutcomeSpec":
        values = _parse(d, cls._KEYS, where)
        return cls(mean_model=LinearModel(values.pop("intercept"),
                                          values.pop("coefs")), **values)


@dataclass(frozen=True)
class DgpConfig:
    """A complete data-generating process.

    Point design: ``covariates`` are W, ``treatment`` is the logit-scale
    model for P(A=0 | W), and the outcome mean may use the reserved term
    ``a``. Longitudinal design: ``covariates`` are W0, ``treatment``
    models P(A0=0 | W0), ``w1_covariates`` and ``a1_model``
    (P(A1=0 | W0, a0, W1)) describe the second period, and the outcome
    mean may use ``a0`` and ``a1``.

    Construction raises DgpValidationError listing every problem, so a
    DgpConfig that exists is usable.
    """

    design: str
    covariates: Tuple[CovariateSpec, ...]
    treatment: LinearModel
    outcome: OutcomeSpec
    w1_covariates: Tuple[CovariateSpec, ...] = ()
    a1_model: Optional[LinearModel] = None
    y_bounds: Optional[Tuple[float, float]] = None
    positivity_floor: float = 0.01
    _KEYS = (("design", "a string", _REQUIRED),
             ("covariates", _covariates, _REQUIRED),
             ("treatment", LinearModel.from_dict, _REQUIRED),
             ("outcome", OutcomeSpec.from_dict, _REQUIRED),
             ("w1_covariates", _covariates, []),
             ("a1", LinearModel.from_dict, None), ("y_bounds", _bounds, None),
             ("positivity_floor", "a number", 0.01))

    def __post_init__(self):
        object.__setattr__(self, "covariates", tuple(self.covariates))
        object.__setattr__(self, "w1_covariates", tuple(self.w1_covariates))
        if self.y_bounds is not None:
            object.__setattr__(self, "y_bounds",
                               (float(self.y_bounds[0]),
                                float(self.y_bounds[1])))
        problems = self._violations()
        if problems:
            raise DgpValidationError(problems)

    # -- structure helpers -------------------------------------------------

    @property
    def w0_names(self) -> Tuple[str, ...]:
        return tuple(c.name for c in self.covariates)

    @property
    def w1_names(self) -> Tuple[str, ...]:
        return tuple(c.name for c in self.w1_covariates)

    def implied_y_bounds(self) -> Optional[Tuple[float, float]]:
        """Parameter-space box for the outcome; None when unbounded."""
        if self.outcome.kind == "binary":
            return (0.0, 1.0)
        return self.y_bounds

    # -- validation --------------------------------------------------------

    def _violations(self) -> List[str]:
        """All configuration problems, empty when the DGP is usable.

        Every number must be finite, and every range comparison fails on
        NaN. The propensity and outcome ranges that the models imply over
        the covariates' supports are checked only when all else holds.
        """
        if self.design not in ("point", "longitudinal"):
            return [f"design must be point or longitudinal, got {self.design!r}"]
        long_design = self.design == "longitudinal"
        w1_specs = self.w1_covariates if long_design else ()
        w0 = [c.name for c in self.covariates]
        names = w0 + [c.name for c in w1_specs]
        problems: List[str] = []
        if not self.covariates:
            problems.append("at least one covariate is required")
        if not long_design and (self.w1_covariates
                                or self.a1_model is not None):
            problems.append(
                "point design must not define w1_covariates or a1_model")
        if long_design and self.a1_model is None:
            problems.append("longitudinal design needs a1_model")
        if len(set(names)) != len(names):
            problems.append("covariate names must be unique")
        clash = set(names) & {"a", "a0", "a1"}
        if clash:
            problems.append(f"covariate names {sorted(clash)} are reserved")

        # Each model as (label, model, the terms it may use), and each
        # number as (where, what, value).
        models = [("treatment model", self.treatment, w0)]
        numbers = []
        for key, specs in (("covariates", self.covariates),
                           ("w1_covariates", w1_specs)):
            for i, c in enumerate(specs):
                where = f"{key}[{i}] ({c.name})"
                numbers += [(where, what, value) for what, value in
                            (("mean", c.mean), ("sd", c.sd))
                            if value is not None]
                if c.dist not in _DIST_KEYS:
                    problems.append(
                        f"{where}: unknown distribution {c.dist!r}")
                elif c.dist == "bernoulli":
                    if (c.p is None) == (c.model is None):
                        problems.append(f"{where}: bernoulli needs exactly "
                                        "one of p or model")
                    if c.p is not None and not 0.0 <= c.p <= 1.0:
                        problems.append(f"{where}: p={c.p} outside [0, 1]")
                if c.dist in _DIST_KEYS:
                    problems += [f"{where}: {key} is only valid for {dist}"
                                 for dist, keys in _DIST_KEYS.items()
                                 if dist != c.dist for key in keys
                                 if getattr(c, key) is not None]
                if c.dist == "uniform":
                    if c.low is None or c.high is None:
                        problems.append(f"{where}: uniform needs low and high")
                    elif not float(c.low) < float(c.high):
                        problems.append(f"{where}: uniform needs low < high")
                    elif not math.isfinite(float(c.high) - float(c.low)):
                        problems.append(f"{where}: uniform needs a finite "
                                        "width high - low")
                elif c.dist == "normal" and (c.mean is None or c.sd is None):
                    problems.append(f"{where}: normal needs mean and sd")
                elif c.dist == "normal" and not c.sd >= 0:
                    problems.append(f"{where}: normal needs sd >= 0")
                if c.model is not None and key == "covariates":
                    problems.append(
                        f"{where}: conditional bernoulli models are only "
                        "allowed for second-period covariates")
                elif c.model is not None:
                    models.append((f"{where}: model", c.model, w0 + ["a0"]))
        if long_design and self.a1_model is not None:
            models.append(("a1 model", self.a1_model, names + ["a0"]))
        models.append(("outcome model", self.outcome.mean_model,
                       names + list(_TREATMENT_KEYS[self.design])))
        for label, model, known in models:
            unknown = set(model.coefs) - set(known)
            if unknown:
                problems.append(
                    f"{label} references unknown terms {sorted(unknown)}")
            numbers += [(label, "intercept", model.intercept)]
            numbers += [(label, f"coefficient on {name!r}", coef)
                        for name, coef in model.coefs.items()]
        outcome, noise = self.outcome, self.outcome.noise
        numbers += [("outcome.noise", "sd", noise.sd),
                    ("outcome.noise", "half_width", noise.half_width)]
        numbers += [("y_bounds", end, value)
                    for end, value in zip(("lo", "hi"), self.y_bounds or ())]
        problems += [f"{where}: {what} must be finite, got {value}"
                     for where, what, value in numbers
                     if not math.isfinite(value)]

        if outcome.scale not in ("identity", "logit"):
            problems.append(f"outcome scale must be identity or logit, "
                            f"got {outcome.scale!r}")
        if outcome.kind not in ("binary", "continuous"):
            problems.append(f"outcome kind must be binary or continuous, "
                            f"got {outcome.kind!r}")
        if noise.kind not in _NOISE_KEYS:
            problems.append(
                f"outcome.noise: unknown noise kind {noise.kind!r}")
        elif noise.kind == "normal" and not noise.sd >= 0:
            problems.append("outcome.noise: normal noise needs sd >= 0")
        elif noise.kind == "uniform" and not noise.half_width >= 0:
            problems.append(
                "outcome.noise: uniform noise needs half_width >= 0")
        elif noise.kind == "uniform" and not math.isfinite(
                2 * noise.half_width):
            problems.append("outcome.noise: uniform noise needs a finite "
                            "width 2 * half_width")
        if noise.kind in _NOISE_KEYS:
            problems += [f"outcome.noise: {key} must be 0 for noise kind "
                         f"{noise.kind!r}" for key in ("sd", "half_width")
                         if key not in _NOISE_KEYS[noise.kind]
                         and getattr(noise, key) != 0.0]
        binary = outcome.kind == "binary"
        if binary and noise.kind != "none":
            problems.append("binary outcomes cannot carry additive noise")
        floor = float(self.positivity_floor)
        if not 0.0 < floor < 0.5:
            problems.append(f"positivity_floor {floor} must be in (0, 0.5)")
        if problems:
            return problems

        intervals = {c.name: c.support_interval()
                     for c in self.covariates + self.w1_covariates}
        intervals.update(dict.fromkeys(_TREATMENT_KEYS[self.design],
                                       (0.0, 1.0)))

        def unbounded_terms(model: LinearModel) -> List[str]:
            """The terms with a coefficient whose support is unbounded."""
            return [name for name, coef in model.coefs.items() if coef != 0.0
                    and not all(map(math.isfinite, intervals[name]))]

        propensities = [("treatment model", self.treatment)]
        if long_design:
            propensities.append(("a1 model", self.a1_model))
        for label, model in propensities:
            extreme = unbounded_terms(model)
            problems += [f"{label}: coefficient on unbounded covariate "
                         f"{name!r} makes propensities arbitrarily extreme"
                         for name in extreme]
            if extreme:
                continue
            p_lo, p_hi = (float(expit(eta))
                          for eta in model.eta_interval(intervals))
            if not (floor <= p_lo and p_hi <= 1.0 - floor):
                problems.append(
                    f"{label}: implied propensities span [{p_lo:.6g}, "
                    f"{p_hi:.6g}], outside the positivity floor "
                    f"[{floor:g}, {1.0 - floor:g}]")

        # Outcome values must stay in this box: the declared y_bounds, or
        # [0, 1] for a binary outcome's mean on the identity scale.
        box = self.y_bounds
        if binary:
            if box not in (None, (0.0, 1.0)):
                problems.append("binary outcomes have bounds (0, 1); "
                                "drop y_bounds or set them to [0, 1]")
            box = (0.0, 1.0) if outcome.scale == "identity" else None
        if box is None:
            return problems
        blo, bhi = box
        # The largest |noise|.
        reach = (noise.half_width if noise.kind == "uniform" else
                 math.inf if noise.kind == "normal" and noise.sd > 0 else 0.0)
        if not blo < bhi:
            problems.append(f"y_bounds ({blo}, {bhi}) need lo < hi")
        elif reach == math.inf:
            problems.append("normal outcome noise is unbounded and violates "
                            "the declared y_bounds")
        elif unbounded_terms(outcome.mean_model):
            problems.append(
                "binary outcome on the identity scale with an unbounded "
                "covariate cannot keep the mean in [0, 1]" if binary else
                "outcome mean uses an unbounded covariate and violates the "
                "declared y_bounds")
        else:
            lo, hi = outcome.mean_interval(intervals)
            lo, hi = lo - reach, hi + reach
            if not (blo <= lo and hi <= bhi):
                problems.append(
                    f"binary outcome mean spans [{lo:.6g}, {hi:.6g}], "
                    "outside [0, 1]" if binary else
                    f"outcome values span [{lo:.6g}, {hi:.6g}], outside "
                    f"the declared y_bounds [{blo:g}, {bhi:g}]")
        return problems

    # -- serialization -----------------------------------------------------

    @classmethod
    def from_dict(cls, d: Mapping[str, object]) -> "DgpConfig":
        values = _parse(d, cls._KEYS, "")
        return cls(a1_model=values.pop("a1"), **values)


# ---------------------------------------------------------------------------
# Generation


def _draw(dgp: DgpConfig, rng: np.random.Generator,
          out: Sequence[np.ndarray], observed: bool
          ) -> Tuple[Dict[str, Union[float, np.ndarray]], np.ndarray]:
    """Every variable of one batch of draws, keyed by name, and the outcome.

    ``out`` holds a float64 buffer of the batch size for each covariate,
    first period first, and each covariate is drawn into its own. Draw
    order is fixed: covariates in declaration order, treatment,
    (longitudinal: second-period covariates, second treatment), outcome.

    Unless ``observed``, every treatment is the scalar 0.0 and takes no
    draw, so the outcome is the counterfactual one under the untreated
    regime. ``coef * 0.0`` adds the value that a column of zeros would
    give each row, into the same sum in the same term order, so the
    outcome's bits do not depend on this shortcut. The covariates are
    then scratch: the outcome is built in place in ``out``, which needs
    at least two buffers, and no batch array is allocated. Observed, the
    treatments and the outcome are fresh arrays and the covariates are
    left as drawn.

    An outcome mean or value that overflows float64 raises ValueError.
    """
    n = len(out[0])
    buffers = iter(out)
    values: Dict[str, Union[float, np.ndarray]] = {
        c.name: c.draw(rng, n, out=next(buffers)) for c in dgp.covariates}

    def treatment(model: LinearModel) -> Union[float, np.ndarray]:
        if not observed:
            return 0.0
        p_untreated = expit(model.eta(values))
        a = rng.random(n)
        return np.greater_equal(a, p_untreated, out=a)

    if dgp.design == "point":
        values["a"] = treatment(dgp.treatment)
    else:
        values["a0"] = treatment(dgp.treatment)
        for c in dgp.w1_covariates:
            values[c.name] = c.draw(rng, n, context=values,
                                    out=next(buffers))
        values["a1"] = treatment(dgp.a1_model)
    binary = dgp.outcome.kind == "binary"
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        mean = dgp.outcome.mean(values, in_place=not observed)
        # In place, the mean is a scalar or one of the buffers.
        y = (np.empty(n) if observed else
             out[1] if mean is out[0] else out[0])
        if binary:
            np.less(rng.random(out=y), mean, out=y)
        else:
            np.add(dgp.outcome.noise.draw(rng, n, y), mean, out=y)
    # A continuous value is not finite when its mean is not.
    if not np.isfinite(mean if binary else y).all():
        raise ValueError("the outcome overflows: a drawn outcome mean or "
                         "value is not finite")
    return values, y


def generate(dgp: DgpConfig, n: int,
             seed: Union[int, np.random.SeedSequence, np.random.Generator]
             ) -> Union[Dataset, LongDataset]:
    """Draw a dataset of size ``n``; deterministic given (config, n, seed)."""
    if n < 2:
        raise ValueError("n must be at least 2")
    buffers = [np.empty(n) for _ in dgp.covariates + dgp.w1_covariates]
    values, y = _draw(dgp, np.random.default_rng(seed), buffers,
                      observed=True)
    w0_cols = {name: values[name] for name in dgp.w0_names}
    if dgp.design == "point":
        return Dataset.from_columns(w0_cols, values["a"], y,
                                    y_bounds=dgp.implied_y_bounds())
    w1_cols = {name: values[name] for name in dgp.w1_names}
    return LongDataset.from_columns(w0_cols, values["a0"], w1_cols,
                                    values["a1"], y,
                                    y_bounds=dgp.implied_y_bounds())


# ---------------------------------------------------------------------------
# Truth


@dataclass(frozen=True)
class TruthResult:
    """The estimand's true value and how it was obtained."""

    value: float
    method: str
    mc_se: Optional[float] = None
    mc_draws: Optional[int] = None

    def to_dict(self) -> Dict[str, object]:
        d: Dict[str, object] = {"value": self.value, "method": self.method}
        if self.method == "monte_carlo":
            d["mc_se"] = self.mc_se
            d["mc_draws"] = self.mc_draws
        return d


def _support(specs: Sequence[CovariateSpec]) -> List[Dict[str, float]]:
    """All joint covariate settings (bernoulli supports only)."""
    combos: List[Dict[str, float]] = [{}]
    for c in specs:
        combos = [dict(combo, **{c.name: v})
                  for combo in combos for v in (0.0, 1.0)]
    return combos


def _point_mass(specs: Sequence[CovariateSpec], combo: Mapping[str, float],
                context: Mapping[str, float]) -> float:
    prob = 1.0
    for c in specs:
        if c.model is not None:
            p1 = float(expit(c.model.eta(context)))
        else:
            p1 = float(c.p)
        prob *= p1 if combo[c.name] == 1.0 else 1.0 - p1
    return prob


def _analytic_truth(dgp: DgpConfig) -> float:
    all_specs = list(dgp.covariates) + list(dgp.w1_covariates)
    if not all(c.is_discrete for c in all_specs):
        raise AnalyticTruthError(
            "exact truth requires discrete (bernoulli) covariates; "
            "use the monte_carlo method")
    # The point design is the case whose second period is empty: its one
    # setting has mass 1.
    untreated = dict.fromkeys(_TREATMENT_KEYS[dgp.design], 0.0)
    total = 0.0
    for combo0 in _support(dgp.covariates):
        p0 = _point_mass(dgp.covariates, combo0, combo0)
        context = dict(combo0, **untreated)
        inner = 0.0
        for combo1 in _support(dgp.w1_covariates):
            p1 = _point_mass(dgp.w1_covariates, combo1, context)
            inner += p1 * float(dgp.outcome.mean(dict(context, **combo1)))
        total += p0 * inner
    return total


def _monte_carlo_truth(dgp: DgpConfig, draws: int,
                       seed: Union[int, np.random.SeedSequence]) -> TruthResult:
    """The mean of ``draws`` counterfactual outcomes, and its Monte Carlo
    standard error.

    The draws come in batches of 200 000 on one stream; the batch size
    fixes how the stream is split, so it is part of the result. Every
    batch is drawn by ``_draw`` into the same buffers, one per covariate
    and at least two, which are allocated once per call: 3.2 MB for a
    DGP with two covariates.

    The value is the plain sum of the draws divided by ``draws``. A
    binary outcome's variance is the mean less its square. A continuous
    outcome's sums are taken about the first batch's mean, so that its
    variance does not cancel when the mean is large against the spread.
    """
    rng = np.random.default_rng(seed)
    batch = min(draws, 200_000)
    buffers = [np.empty(batch) for _ in range(
        max(2, len(dgp.covariates) + len(dgp.w1_covariates)))]
    binary = dgp.outcome.kind == "binary"
    total = shifted = shifted_sq = 0.0
    done = 0
    while done < draws:
        n = min(batch, draws - done)
        y = _draw(dgp, rng, [b[:n] for b in buffers], observed=False)[1]
        # true_value checks the result.
        with np.errstate(over="ignore", invalid="ignore"):
            total += float(y.sum())
            if not binary:
                if not done:
                    shift = total / n
                y -= shift
                shifted += float(y.sum())
                shifted_sq += float(np.square(y, out=y).sum())
        done += n
    mean = total / draws
    if binary:
        var = mean - mean * mean
    else:
        shifted /= draws
        var = shifted_sq / draws - shifted * shifted
    return TruthResult(value=mean, method="monte_carlo",
                       mc_se=float(np.sqrt(max(var, 0.0) / draws)),
                       mc_draws=draws)


def true_value(dgp: DgpConfig, method: str = "analytic",
               mc_draws: int = 1_000_000,
               mc_seed: Union[int, np.random.SeedSequence] = 0) -> TruthResult:
    """True value of the estimand under the DGP.

    ``analytic`` sums exactly over the covariate support (bernoulli
    covariates only). ``monte_carlo`` averages ``mc_draws``
    counterfactual outcome draws with every treatment forced to 0 and
    reports the Monte Carlo standard error. A value or standard error
    that overflows float64 raises ValueError.
    """
    if method not in ("analytic", "monte_carlo"):
        raise ValueError(f"unknown truth method {method!r}")
    if method == "monte_carlo" and mc_draws < 2:
        raise ValueError("mc_draws must be at least 2")
    if method == "analytic":
        truth = TruthResult(value=_analytic_truth(dgp), method="analytic")
    else:
        truth = _monte_carlo_truth(dgp, int(mc_draws), mc_seed)
    if not math.isfinite(truth.value):
        raise ValueError(f"the true value overflows: the {method} value "
                         "is not finite")
    if truth.mc_se is not None and not math.isfinite(truth.mc_se):
        raise ValueError("the true value overflows: its Monte Carlo "
                         "standard error is not finite")
    return truth

