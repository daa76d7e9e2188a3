"""Data-generating processes with known truth, and a replication harness.

A :class:`DgpConfig` describes independent covariates, a logit-scale
model for the probability of NON-treatment, and an outcome mean on the
identity or logit scale with optional mean-zero noise. A configuration
validates itself on construction, in one pass that reports every
violation at once: every number must be finite, and interval arithmetic
keeps the implied propensities away from 0 and 1 and binary outcome
means inside [0, 1].

The true estimand value is available two ways: exact summation over the
covariate support (discrete covariates only) and Monte Carlo averaging
of counterfactual draws with treatment forced to 0. The two oracles
cross-check each other in the test suite.

``run_experiment`` replays an estimation plan over many replicates with
independent, order-insensitive seed streams and reports bias, empirical
and estimated standard errors, CI coverage, bound violations, and
failures (never silently dropped). The true value is computed first,
on the caller's thread, and the GLM propensity models of a block of
replicates are fit in one stacked solve, each with the same bytes out.

``fit_plan_nuisance`` and ``run_estimator`` are the one path from a
dataset of either design to its estimates, for ``run_experiment`` and
the ``estimate`` command alike; they choose by the data's type.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ._numeric import expit
from .data import Dataset, LongDataset, _outcome_bounds
from . import estimators as est
from . import longitudinal as long_est
from .nuisance import (DEFAULT_TRUNCATION, GLM_KINDS, LearnerSpec,
                       NuisanceError, _validate_truncation, check_fold_count,
                       crossfit, fit_nuisance, stacked_propensity_predictions)
from .glm import GlmError

__all__ = [
    "CovariateSpec",
    "LinearModel",
    "NoiseSpec",
    "OutcomeSpec",
    "DgpConfig",
    "DgpValidationError",
    "AnalyticTruthError",
    "TruthResult",
    "EstimationPlan",
    "ReplicateRecord",
    "EstimatorSummary",
    "ExperimentReport",
    "POINT_ESTIMATORS",
    "LONG_ESTIMATORS",
    "generate",
    "true_value",
    "run_experiment",
    "replicate_seed",
    "check_estimators",
    "fit_plan_nuisance",
    "run_estimator",
]

POINT_ESTIMATORS = ("gcomp", "one_step",
                    *(f"tmle_{v}" for v in est.TMLE_VARIANTS))
LONG_ESTIMATORS = ("one_step_long",
                   *(f"tmle_long_{v}" for v in est.TMLE_VARIANTS))

# Reserved names usable in coefficient maps besides covariate names.
_TREATMENT_KEYS = {"point": ("a",), "longitudinal": ("a0", "a1")}


class DgpValidationError(Exception):
    """Invalid DGP configuration; ``violations`` lists every problem."""

    def __init__(self, violations: Sequence[str]):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class AnalyticTruthError(Exception):
    """Exact truth requested for a DGP without finite covariate support."""


_JSON_TYPES = {"an object": Mapping, "a list": (list, tuple),
               "a number": numbers.Real}


def _typed(value, kind: str, where: str):
    """``value`` if it has the JSON type ``kind``, else a config error
    (not a TypeError or ValueError deep inside validation)."""
    if isinstance(value, bool) or not isinstance(value, _JSON_TYPES[kind]):
        raise DgpValidationError([f"{where}: expected {kind}, got {value!r}"])
    return value


def _object(d, allowed: Sequence[str], where: str) -> Mapping[str, object]:
    """``d`` if it is a config object with no keys outside ``allowed``."""
    extra = set(_typed(d, "an object", where)) - set(allowed)
    if extra:
        raise DgpValidationError([f"{where}: unknown keys {sorted(extra)}"])
    return d


@dataclass(frozen=True)
class LinearModel:
    """Linear predictor: intercept + sum of coef * term value."""

    intercept: float = 0.0
    coefs: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "intercept", float(self.intercept))
        object.__setattr__(
            self, "coefs",
            {str(k): float(v) for k, v in dict(self.coefs).items()})

    def eta(self, values: Mapping[str, Union[float, np.ndarray]]):
        out = self.intercept
        for name, coef in self.coefs.items():
            out = out + coef * values[name]
        return out

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

    @classmethod
    def from_dict(cls, d: Mapping[str, object], where: str) -> "LinearModel":
        d = _object(d, ("intercept", "coefs"), where)
        coefs = _typed(d.get("coefs", {}), "an object", f"{where}.coefs")
        return cls(intercept=_typed(d.get("intercept", 0.0), "a number",
                                    f"{where}.intercept"),
                   coefs={k: _typed(v, "a number", f"{where}.coefs.{k}")
                          for k, v in coefs.items()})


@dataclass(frozen=True)
class CovariateSpec:
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
             context: Optional[Mapping[str, np.ndarray]] = None) -> np.ndarray:
        if self.dist == "bernoulli":
            if self.model is not None:
                prob = expit(np.broadcast_to(
                    np.asarray(self.model.eta(context), dtype=float), (n,)))
            else:
                prob = np.full(n, float(self.p))
            return (rng.random(n) < prob).astype(float)
        if self.dist == "uniform":
            return rng.uniform(float(self.low), float(self.high), n)
        return rng.normal(float(self.mean), float(self.sd), n)

    @classmethod
    def from_dict(cls, d: Mapping[str, object], where: str) -> "CovariateSpec":
        d = _object(d, ("name", "dist", "p", "low", "high", "mean", "sd",
                        "model"), where)
        if "name" not in d or "dist" not in d:
            raise DgpValidationError([f"{where}: need name and dist"])
        values = {key: _typed(d[key], "a number", f"{where}.{key}")
                  for key in ("p", "low", "high", "mean", "sd")
                  if d.get(key) is not None}
        model = d.get("model")
        return cls(
            name=str(d["name"]), dist=str(d["dist"]), **values,
            model=LinearModel.from_dict(model, f"{where}.model")
            if model is not None else None,
        )


@dataclass(frozen=True)
class NoiseSpec:
    """Additive mean-zero outcome noise (continuous outcomes only)."""

    kind: str = "none"
    sd: float = 0.0
    half_width: float = 0.0

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if self.kind == "normal" and float(self.sd) > 0:
            return rng.normal(0.0, float(self.sd), n)
        if self.kind == "uniform" and float(self.half_width) > 0:
            return rng.uniform(-float(self.half_width),
                               float(self.half_width), n)
        return np.zeros(n)

    @classmethod
    def from_dict(cls, d: Mapping[str, object], where: str) -> "NoiseSpec":
        d = _object(d, ("kind", "sd", "half_width"), where)
        return cls(kind=str(d.get("kind", "none")),
                   sd=_typed(d.get("sd", 0.0), "a number", f"{where}.sd"),
                   half_width=_typed(d.get("half_width", 0.0), "a number",
                                     f"{where}.half_width"))


@dataclass(frozen=True)
class OutcomeSpec:
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

    def mean(self, values: Mapping[str, Union[float, np.ndarray]]):
        eta = self.mean_model.eta(values)
        if self.scale == "logit":
            return expit(eta)
        return eta

    def mean_interval(self, intervals: Mapping[str, Tuple[float, float]]
                      ) -> Tuple[float, float]:
        lo, hi = self.mean_model.eta_interval(intervals)
        if self.scale == "logit":
            return float(expit(lo)), float(expit(hi))
        return lo, hi

    @classmethod
    def from_dict(cls, d: Mapping[str, object], where: str) -> "OutcomeSpec":
        d = _object(d, ("scale", "kind", "intercept", "coefs", "noise"),
                    where)
        return cls(
            scale=str(d.get("scale", "identity")),
            kind=str(d.get("kind", "continuous")),
            mean_model=LinearModel.from_dict(
                {key: d[key] for key in ("intercept", "coefs") if key in d},
                where),
            noise=NoiseSpec.from_dict(d.get("noise", {"kind": "none"}),
                                      f"{where}.noise"),
        )


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
                if c.dist not in ("bernoulli", "uniform", "normal"):
                    problems.append(
                        f"{where}: unknown distribution {c.dist!r}")
                elif c.dist == "bernoulli":
                    if (c.p is None) == (c.model is None):
                        problems.append(f"{where}: bernoulli needs exactly "
                                        "one of p or model")
                    if c.p is not None and not 0.0 <= c.p <= 1.0:
                        problems.append(f"{where}: p={c.p} outside [0, 1]")
                elif c.model is not None:
                    problems.append(
                        f"{where}: model is only valid for bernoulli")
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
        if noise.kind not in ("none", "normal", "uniform"):
            problems.append(
                f"outcome.noise: unknown noise kind {noise.kind!r}")
        elif noise.kind == "normal" and not noise.sd >= 0:
            problems.append("outcome.noise: normal noise needs sd >= 0")
        elif noise.kind == "uniform" and not noise.half_width >= 0:
            problems.append(
                "outcome.noise: uniform noise needs half_width >= 0")
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
        allowed = {"design", "covariates", "treatment", "outcome",
                   "w1_covariates", "a1", "y_bounds", "positivity_floor"}
        extra = set(_typed(d, "an object", "config")) - allowed
        if extra:
            raise DgpValidationError([f"unknown config keys {sorted(extra)}"])
        missing = {"design", "covariates", "treatment", "outcome"} - set(d)
        if missing:
            raise DgpValidationError(
                [f"missing config keys {sorted(missing)}"])
        y_bounds = d.get("y_bounds")
        if y_bounds is not None:
            if len(_typed(y_bounds, "a list", "y_bounds")) != 2:
                raise DgpValidationError(
                    [f"y_bounds: expected [lo, hi], got {y_bounds!r}"])
            y_bounds = tuple(_typed(v, "a number", "y_bounds")
                             for v in y_bounds)

        def specs(key):
            items = _typed(d.get(key, ()), "a list", key)
            return tuple(CovariateSpec.from_dict(c, f"{key}[{i}]")
                         for i, c in enumerate(items))
        return cls(
            design=str(d["design"]),
            covariates=specs("covariates"),
            treatment=LinearModel.from_dict(d["treatment"], "treatment"),
            outcome=OutcomeSpec.from_dict(d["outcome"], "outcome"),
            w1_covariates=specs("w1_covariates"),
            a1_model=LinearModel.from_dict(d["a1"], "a1")
            if d.get("a1") is not None else None,
            y_bounds=y_bounds,
            positivity_floor=float(_typed(d.get("positivity_floor", 0.01),
                                          "a number", "positivity_floor")),
        )


# ---------------------------------------------------------------------------
# Generation


def _draw(dgp: DgpConfig, rng: np.random.Generator, n: int,
          observed: bool
          ) -> Tuple[Dict[str, Union[float, np.ndarray]], np.ndarray]:
    """Every variable of ``n`` draws, keyed by name, and the outcome.

    Draw order is fixed: covariates in declaration order, treatment,
    (longitudinal: second-period covariates, second treatment), outcome.
    Unless ``observed``, every treatment is the scalar 0.0 and takes no
    draw, so the outcome is the counterfactual one under the untreated
    regime. An outcome mean or value that overflows float64 raises
    ValueError. ``coef * 0.0`` broadcasts the value that a column of zeros
    would give each row, into the same sum in the same term order, so the
    outcome's bits do not depend on this shortcut.
    """
    values: Dict[str, Union[float, np.ndarray]] = {}
    for c in dgp.covariates:
        values[c.name] = c.draw(rng, n)

    def treatment(model: LinearModel) -> Union[float, np.ndarray]:
        if not observed:
            return 0.0
        p_untreated = expit(np.broadcast_to(
            np.asarray(model.eta(values), dtype=float), (n,)))
        return (rng.random(n) >= p_untreated).astype(float)

    if dgp.design == "point":
        values["a"] = treatment(dgp.treatment)
    else:
        values["a0"] = treatment(dgp.treatment)
        for c in dgp.w1_covariates:
            values[c.name] = c.draw(rng, n, context=values)
        values["a1"] = treatment(dgp.a1_model)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        mean = np.broadcast_to(
            np.asarray(dgp.outcome.mean(values), dtype=float), (n,))
        if dgp.outcome.kind == "binary":
            y = (rng.random(n) < mean).astype(float)
        else:
            y = mean + dgp.outcome.noise.draw(rng, n)
    if not (np.isfinite(mean).all() and np.isfinite(y).all()):
        raise ValueError("the outcome overflows: a drawn outcome mean or "
                         "value is not finite")
    return values, y


def generate(dgp: DgpConfig, n: int,
             seed: Union[int, np.random.SeedSequence, np.random.Generator]
             ) -> Union[Dataset, LongDataset]:
    """Draw a dataset of size ``n``; deterministic given (config, n, seed)."""
    if n < 2:
        raise ValueError("n must be at least 2")
    values, y = _draw(dgp, np.random.default_rng(seed), n, observed=True)
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
    rng = np.random.default_rng(seed)
    total = 0.0
    total_sq = 0.0
    done = 0
    batch = 200_000
    while done < draws:
        n = min(batch, draws - done)
        # Keep only y, so the batch's other variables are freed before
        # the next batch is drawn.
        y = _draw(dgp, rng, n, observed=False)[1]
        with np.errstate(over="ignore"):  # true_value checks the result
            total += float(y.sum())
            total_sq += float((y * y).sum())
        done += n
    mean = total / draws
    var = max(total_sq / draws - mean * mean, 0.0)
    return TruthResult(value=mean, method="monte_carlo",
                       mc_se=float(np.sqrt(var / draws)), mc_draws=draws)


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


# ---------------------------------------------------------------------------
# Experiment harness


@dataclass(frozen=True)
class EstimationPlan:
    """How each replicate is analyzed.

    ``outcome_covariates`` / ``propensity_covariates`` restrict the
    respective model to a subset of covariate columns — the concrete
    misspecification device (omit a confounder). A wrong link on
    ``outcome_learner`` is the other one. ``None`` means use every
    covariate.
    """

    outcome_learner: LearnerSpec = LearnerSpec("glm_main_terms")
    propensity_learner: LearnerSpec = LearnerSpec("glm_main_terms")
    truncation: Tuple[float, float] = DEFAULT_TRUNCATION
    n_folds: Optional[int] = None
    outcome_covariates: Optional[Tuple[str, ...]] = None
    propensity_covariates: Optional[Tuple[str, ...]] = None
    y_bounds: Optional[Tuple[float, float]] = None

    def __post_init__(self):
        _validate_truncation(self.truncation)
        if self.y_bounds is not None:
            _outcome_bounds(self.y_bounds)

    def check_data(self, design: str, n_obs: int, names: Sequence[str]):
        """Raise ValueError unless the plan fits data of ``design`` with
        ``n_obs`` rows and covariates ``names``: the fold count lies in
        [2, ``n_obs``], and the covariate restrictions name covariates of
        the data (the longitudinal design supports none)."""
        if self.n_folds is not None:
            check_fold_count(self.n_folds, n_obs)
        restrictions = (("outcome", self.outcome_covariates),
                        ("propensity", self.propensity_covariates))
        for role, cols in restrictions:
            if cols is None:
                continue
            if design != "point":
                raise ValueError("covariate restrictions are not supported "
                                 "for the longitudinal design")
            unknown = [c for c in cols if c not in names]
            if unknown:
                raise ValueError(
                    f"unknown {role} covariates {unknown}; the data have "
                    f"{list(names)}")

    def to_dict(self) -> Dict[str, object]:
        return {
            "outcome_learner": self.outcome_learner.describe(),
            "propensity_learner": self.propensity_learner.describe(),
            "truncation": [self.truncation[0], self.truncation[1]],
            "folds": self.n_folds,
            "outcome_covariates":
                list(self.outcome_covariates)
                if self.outcome_covariates is not None else None,
            "propensity_covariates":
                list(self.propensity_covariates)
                if self.propensity_covariates is not None else None,
            "y_bounds": list(self.y_bounds)
            if self.y_bounds is not None else None,
        }


@dataclass
class ReplicateRecord:
    """One estimator's outcome on one replicate."""

    replicate: int
    estimator: str
    psi_hat: Optional[float] = None
    se: Optional[float] = None
    ci_lo: Optional[float] = None
    ci_hi: Optional[float] = None
    covered: Optional[bool] = None
    out_of_bounds: Optional[bool] = None
    error: Optional[str] = None


@dataclass
class EstimatorSummary:
    """Aggregated performance of one estimator across replicates; the
    statistics are None with fewer than 2 successful replicates."""

    estimator: str
    n_success: int
    n_failed: int
    mean_bias: Optional[float] = None
    empirical_se: Optional[float] = None
    mean_se: Optional[float] = None
    coverage: Optional[float] = None
    mean_ci_width: Optional[float] = None
    prop_out_of_bounds: Optional[float] = None


@dataclass
class ExperimentReport:
    """Everything measured by one simulation experiment."""

    design: str
    n: int
    replications: int
    seed: int
    truth: TruthResult
    plan: EstimationPlan
    summaries: List[EstimatorSummary]
    replicates: List[ReplicateRecord]

    def summary_for(self, estimator: str) -> EstimatorSummary:
        for s in self.summaries:
            if s.estimator == estimator:
                return s
        raise KeyError(f"no summary for estimator {estimator!r}")

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "schema_version": 1,
            "design": self.design,
            "n": self.n,
            "replications": self.replications,
            "seed": self.seed,
            "truth": self.truth.to_dict(),
            "plan": self.plan.to_dict(),
            "estimators": [asdict(s) for s in self.summaries],
        }


def replicate_seed(master_seed: int, replicate: int) -> np.random.SeedSequence:
    """Independent, order-insensitive stream for one replicate."""
    return np.random.SeedSequence(master_seed, spawn_key=(replicate,))


def check_estimators(design: str, names: Sequence[str]):
    """Raise ValueError unless every name is an estimator of ``design``
    and none is named twice."""
    valid = POINT_ESTIMATORS if design == "point" else LONG_ESTIMATORS
    unknown = [name for name in names if name not in valid]
    if unknown:
        raise ValueError(
            f"unknown estimators for the {design} design: {unknown}; "
            f"valid names: {list(valid)}")
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise ValueError(f"estimators named more than once: {repeated}")


def fit_plan_nuisance(data: Union[Dataset, LongDataset],
                      plan: EstimationPlan, fold_seed: int = 0,
                      raw_propensity: Optional[np.ndarray] = None):
    """Nuisance estimates under the plan, for data of either design.

    Raises ValueError unless ``EstimationPlan.check_data`` accepts the
    data. ``raw_propensity``, the data's entry of
    ``nuisance.stacked_propensity_predictions``, stands for the propensity
    fit of a point plan without folds."""
    long_design = isinstance(data, LongDataset)
    plan.check_data("longitudinal" if long_design else "point", data.n_obs,
                    () if long_design else data.covariate_names)
    if raw_propensity is not None and (long_design
                                       or plan.n_folds is not None):
        raise ValueError("given propensity predictions need a point plan "
                         "without folds")
    if long_design:
        return long_est.fit_sequential_nuisances(
            data, g0_learner=plan.propensity_learner,
            g1_learner=plan.propensity_learner,
            mu_learner=plan.outcome_learner,
            truncation=plan.truncation,
            n_folds=plan.n_folds,
            seed=fold_seed)
    if plan.n_folds is not None:
        return crossfit(data, plan.outcome_learner, plan.propensity_learner,
                        plan.n_folds, fold_seed, plan.truncation,
                        outcome_covariates=plan.outcome_covariates,
                        propensity_covariates=plan.propensity_covariates)
    return fit_nuisance(data, plan.outcome_learner,
                        plan.propensity_learner, plan.truncation,
                        outcome_covariates=plan.outcome_covariates,
                        propensity_covariates=plan.propensity_covariates,
                        raw_propensity=raw_propensity)


def run_estimator(name: str, data: Union[Dataset, LongDataset], nuis,
                  plan: EstimationPlan) -> est.EstimateResult:
    """Run one estimator of the data's design by its name, on nuisances
    from :func:`fit_plan_nuisance`."""
    long_design = isinstance(data, LongDataset)
    check_estimators("longitudinal" if long_design else "point", (name,))
    if name == "gcomp":
        return est.gcomp(data, nuis)
    if name == "one_step":
        return est.one_step(data, nuis)
    if name == "one_step_long":
        return long_est.one_step_long(data, nuis,
                                      emu_learner=plan.outcome_learner)
    if long_design:
        return long_est.tmle_long(data, nuis, name[len("tmle_long_"):],
                                  emu_learner=plan.outcome_learner,
                                  y_bounds=plan.y_bounds)
    return est.tmle(data, nuis, name[len("tmle_"):], y_bounds=plan.y_bounds)


# Failures of one replicate's draw, nuisance fit or estimator; each is
# recorded on the replicate instead of ending the experiment.
_REPLICATE_FAILURES = (GlmError, NuisanceError, ValueError)


def _failure(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


# Replicates are analysed in blocks of at most this many entries of the
# stacked propensity model matrices (128 KB of float64), so a block's
# Newton solve pays numpy's per-call cost once for all its members while
# its working memory stays bounded; 16 replicates at n=500 under
# glm_main_terms on one covariate.
_BLOCK_ENTRIES = 1 << 14


def _replicates_per_block(dgp: DgpConfig, n: int,
                          plan: EstimationPlan) -> int:
    """Replicates per block: 1 unless the plan's propensity models are
    stacked (a point design, no folds, a GLM propensity learner)."""
    learner = plan.propensity_learner
    if (dgp.design != "point" or plan.n_folds is not None
            or learner.kind not in GLM_KINDS):
        return 1
    m = len(plan.propensity_covariates if plan.propensity_covariates
            is not None else dgp.w0_names)
    # The learner's column count, read off its model matrix of one row.
    p = learner.design_for(np.zeros((1, m))).shape[1]
    return max(1, _BLOCK_ENTRIES // (n * p))


def _generate_replicate(dgp: DgpConfig, n: int, seed: int, r: int
                        ) -> Union[Dataset, LongDataset, Exception]:
    """Replicate ``r``'s dataset, or the failure that its draw raised."""
    try:
        return generate(dgp, n, replicate_seed(seed, r))
    except _REPLICATE_FAILURES as exc:
        # a draw can be too degenerate to estimate from (e.g. fewer than
        # 2 rows on the regime of interest); record, don't crash
        return exc


def _replicate_records(r: int, data, raw_propensity: Optional[np.ndarray],
                       seed: int, plan: EstimationPlan,
                       estimator_names: Sequence[str],
                       bounds: Optional[Tuple[float, float]], truth: float
                       ) -> List[ReplicateRecord]:
    """One record per estimator for replicate ``r``, whose draw ``data``
    is a dataset or the failure it raised, scored against the true value
    ``truth``."""
    def failed(exc: Exception) -> List[ReplicateRecord]:
        return [ReplicateRecord(replicate=r, estimator=name,
                                error=_failure(exc))
                for name in estimator_names]

    if isinstance(data, Exception):
        return failed(data)
    fold_seed = 0  # read only by a cross-fitted plan
    if plan.n_folds is not None:
        fold_seed = int(np.random.SeedSequence(
            seed, spawn_key=(r, 1)).generate_state(1)[0])
    try:
        nuis = fit_plan_nuisance(data, plan, fold_seed, raw_propensity)
    except _REPLICATE_FAILURES as exc:
        return failed(exc)
    records = []
    for name in estimator_names:
        try:
            res = run_estimator(name, data, nuis, plan)
        except _REPLICATE_FAILURES as exc:
            records.append(ReplicateRecord(replicate=r, estimator=name,
                                           error=_failure(exc)))
            continue
        lo, hi = res.ci95
        rec = ReplicateRecord(replicate=r, estimator=name,
                              psi_hat=res.psi_hat, se=res.se, ci_lo=lo,
                              ci_hi=hi, covered=bool(lo <= truth <= hi))
        if bounds is not None:
            rec.out_of_bounds = bool(res.psi_hat < bounds[0]
                                     or res.psi_hat > bounds[1])
        records.append(rec)
    return records


def run_experiment(dgp: DgpConfig, n: int, replications: int,
                   estimator_names: Sequence[str], plan: EstimationPlan,
                   seed: int, truth_method: str = "analytic",
                   mc_draws: int = 1_000_000) -> ExperimentReport:
    """Measure estimator performance over seeded replicates.

    Each replicate r draws its data from an independent stream derived
    from (seed, r), fits nuisances per the plan, and runs every
    requested estimator. Failures (separation, degenerate folds, ...)
    are recorded on the replicate and excluded from the aggregates; they
    are never silently dropped. A failed draw or nuisance fit fails every
    estimator of the replicate; an estimator's own failure fails only
    that estimator's record.

    The true value comes first: :func:`true_value` runs once, on the
    calling thread, before replicate 0, so an error in the truth
    arguments and a truth that overflows are raised before any replicate
    is drawn, and each record's coverage is scored as it is built. A
    ``monte_carlo`` truth draws from its own stream, derived from
    (seed, 2**31), so no replicate's draws depend on it.

    Replicates run in blocks of consecutive replicates, sized so that the
    stacked propensity model matrices hold at most ``_BLOCK_ENTRIES``
    entries (16 replicates at n=500 under ``glm_main_terms`` on one
    covariate). For a point design without folds whose propensity
    learner is a GLM, a block draws all its datasets, hands them to
    ``nuisance.stacked_propensity_predictions`` (a failed draw as None)
    for one stacked Newton solve of their propensity models, and then
    gives each replicate its own ``fit_plan_nuisance`` call, handed its
    entry, and its estimators. The outcome models, every other plan and
    the ``estimate`` command fit one dataset at a time. A block of one,
    a failed draw, a one-level treatment and a propensity fit that fails
    in the stack are fit alone, by the same code as without blocks. The
    stacked fit has ``fit_glm``'s bits, so the report does not depend on
    the block size.
    """
    if replications < 2:
        raise ValueError("replications must be at least 2")
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n}")
    plan.check_data(dgp.design, n, dgp.w0_names)
    check_estimators(dgp.design, estimator_names)
    implied = dgp.implied_y_bounds()
    if plan.y_bounds is not None and implied is not None and not (
            plan.y_bounds[0] <= implied[0] and implied[1] <= plan.y_bounds[1]):
        raise ValueError(
            f"y_bounds {tuple(plan.y_bounds)} do not contain the outcome "
            f"bounds {implied} of the DGP")
    truth = true_value(dgp, truth_method, mc_draws,
                       np.random.SeedSequence(seed, spawn_key=(2**31,)))
    bounds = plan.y_bounds if plan.y_bounds is not None else implied

    per_block = _replicates_per_block(dgp, n, plan)
    records: List[ReplicateRecord] = []
    for start in range(0, replications, per_block):
        block = range(start, min(start + per_block, replications))
        drawn = [_generate_replicate(dgp, n, seed, r) for r in block]
        raw_propensities = (stacked_propensity_predictions(
            plan.propensity_learner,
            [None if isinstance(d, Exception) else d for d in drawn],
            plan.propensity_covariates)
            if per_block > 1 else [None] * len(drawn))
        for r, data, raw_propensity in zip(block, drawn, raw_propensities):
            records += _replicate_records(
                r, data, raw_propensity, seed, plan, estimator_names,
                bounds, truth.value)

    summaries = []
    for name in estimator_names:
        rows = [rec for rec in records if rec.estimator == name]
        ok = [rec for rec in rows if rec.error is None]
        n_ok = len(ok)
        if n_ok >= 2:
            psis = np.array([rec.psi_hat for rec in ok])
            ses = np.array([rec.se for rec in ok])
            widths = np.array([rec.ci_hi - rec.ci_lo for rec in ok])
            # np.std(psis, ddof=1), written out as in wald_inference.
            dev = psis - psis.sum() / n_ok
            summaries.append(EstimatorSummary(
                estimator=name, n_success=n_ok, n_failed=len(rows) - n_ok,
                mean_bias=float(psis.sum() / n_ok - truth.value),
                empirical_se=math.sqrt((dev * dev).sum() / (n_ok - 1)),
                mean_se=float(ses.sum() / n_ok),
                coverage=sum(rec.covered for rec in ok) / n_ok,
                mean_ci_width=float(widths.sum() / n_ok),
                prop_out_of_bounds=(
                    sum(rec.out_of_bounds for rec in ok) / n_ok
                    if bounds is not None else None),
            ))
        else:
            summaries.append(EstimatorSummary(
                estimator=name, n_success=n_ok, n_failed=len(rows) - n_ok))

    return ExperimentReport(
        design=dgp.design, n=n, replications=replications, seed=seed,
        truth=truth, plan=plan, summaries=summaries, replicates=records)
